"""Kernel benchmark: entry-wise vs batched panel-integral evaluation.

``run_kernel_bench`` times the two evaluation paths of the Galerkin
system-setup inner loop on sized crossing-bus basis sets:

* **before** — the entry-wise reference path, one
  :meth:`~repro.greens.galerkin.GalerkinIntegrator.template_pair` call per
  template pair (the pre-batching hot path).  The full iteration space is
  quadratic, so the per-pair cost is measured on a seeded random sample of
  pairs and extrapolated to the full count.
* **after** — the batched kernel core
  (:class:`~repro.greens.batched.BatchedKernelCore`), timed on the complete
  assembly through :class:`~repro.assembly.batch.BatchGalerkinAssembler`.

Alongside the timings the sweep records, per size, the template pairs the
assembly requested and the integrals the kernel core evaluated (one per
distinct pair key), and the largest *relative* disagreement between the
values the full assembly produced for the sampled pairs and the entry-wise
reference.  That disagreement must stay within
:data:`KERNEL_AGREEMENT_BOUND`; ``python -m repro kernel`` exits non-zero
otherwise.

The report's ``data`` payload is written to ``BENCH_kernel.json`` by
``python -m repro kernel``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.assembly.batch import BatchGalerkinAssembler
from repro.assembly.mapping import num_template_pairs, triangular_index_to_pair
from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.core.experiments import ExperimentReport
from repro.greens.policy import ApproximationPolicy

__all__ = [
    "BENCH_KERNEL_FILENAME",
    "KERNEL_AGREEMENT_BOUND",
    "KERNEL_SWEEP_SIZES",
    "agreement_failures",
    "run_kernel_bench",
    "write_kernel_json",
]

#: Default name of the machine-readable kernel artifact.
BENCH_KERNEL_FILENAME = "BENCH_kernel.json"

#: Largest relative disagreement allowed between a batched pair value and
#: the entry-wise reference.
KERNEL_AGREEMENT_BOUND = 1e-10

#: Default quick/full bus sizes (matched to the compression sweep so the
#: bus4x4 entry lines up with BENCH_compress.json).
KERNEL_SWEEP_SIZES = {"quick": (2, 3, 4), "full": (3, 4, 6)}


def _entrywise_sample_seconds(
    assembler: BatchGalerkinAssembler, sample: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-pair ``template_pair`` evaluation of ``sample`` linear indices."""
    integrator = assembler.integrator
    templates = assembler.arrays.templates
    i_idx, j_idx = triangular_index_to_pair(sample)
    values = np.empty(sample.size)
    start = time.perf_counter()
    for position, (i, j) in enumerate(zip(i_idx, j_idx)):
        ta, tb = templates[int(i)], templates[int(j)]
        values[position] = integrator.template_pair(
            ta.panel, tb.panel, ta.profile, tb.profile
        )
    return time.perf_counter() - start, values


def run_kernel_bench(
    quick: bool = True,
    sizes: Sequence[int] | None = None,
    face_refinement: int = 3,
    tolerance: float = 0.01,
    sample_pairs: int = 4000,
    seed: int = 2011,
) -> ExperimentReport:
    """Benchmark entry-wise vs batched assembly on sized crossing buses.

    Parameters
    ----------
    quick:
        Use the reduced bus sizes; ``False`` uses the larger set.
    sizes:
        Explicit bus sizes overriding the quick/full defaults.
    face_refinement, tolerance:
        Basis-set / integration knobs, matched to the defaults of the
        compression sweep so ``bus4x4`` is the same ``N ~ 464`` problem.
    sample_pairs:
        Number of template pairs sampled for the entry-wise timing and the
        agreement check (the full entry-wise sweep would be quadratic).
    seed:
        Seed of the pair sampler (the artifact is reproducible).
    """
    if sizes is None:
        sizes = KERNEL_SWEEP_SIZES["quick" if quick else "full"]
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")

    from repro.workloads import get_workload

    workload = get_workload("bus_crossing")
    policy = ApproximationPolicy(tolerance=tolerance)
    rng = np.random.default_rng(seed)

    entries: dict[str, dict] = {}
    rows = []
    for size in sizes:
        if size < 1:
            raise ValueError(f"bus sizes must be >= 1, got {size}")
        label = f"bus{size}x{size}"
        layout = workload.sized_layout(int(size))
        basis_set = build_basis_set(
            layout, InstantiationConfig(face_refinement=face_refinement)
        )
        assembler = BatchGalerkinAssembler(basis_set, layout.permittivity, policy=policy)
        num_pairs = num_template_pairs(basis_set.num_templates)
        sampled = min(int(sample_pairs), num_pairs)
        sample = rng.choice(num_pairs, size=sampled, replace=False).astype(np.int64)

        entry_seconds, entry_values = _entrywise_sample_seconds(assembler, sample)
        entry_us_per_pair = entry_seconds / sampled * 1e6
        entrywise_estimated = entry_us_per_pair * num_pairs * 1e-6

        start = time.perf_counter()
        _, chunk = assembler.assemble_chunk(0, num_pairs)
        batched_seconds = time.perf_counter() - start

        # A pair's value is a pure function of its key, so evaluating the
        # whole iteration space again yields exactly the values the
        # assembly summed; the sampled ones are compared.
        all_i, all_j = triangular_index_to_pair(np.arange(num_pairs))
        batched_values = assembler.evaluate_pairs(all_i, all_j)[sample]
        max_rel_diff = float(
            np.max(np.abs(batched_values - entry_values) / np.abs(entry_values))
        )

        record = {
            "num_basis_functions": basis_set.num_basis_functions,
            "num_templates": basis_set.num_templates,
            "num_pairs": num_pairs,
            "sampled_pairs": sampled,
            "entrywise_us_per_pair": entry_us_per_pair,
            "entrywise_seconds_estimated": entrywise_estimated,
            "batched_seconds": batched_seconds,
            "speedup": entrywise_estimated / batched_seconds,
            "requested_pairs": chunk.num_pairs,
            "evaluated_pairs": chunk.num_evaluated,
            "max_rel_diff": max_rel_diff,
        }
        entries[label] = record
        rows.append(
            [
                label,
                str(basis_set.num_basis_functions),
                str(num_pairs),
                f"{entry_us_per_pair:.1f}",
                f"{entrywise_estimated:.3f}",
                f"{batched_seconds:.3f}",
                f"{record['speedup']:.1f}x",
                str(chunk.num_evaluated),
                f"{max_rel_diff:.1e}",
            ]
        )

    text = format_table(
        [
            "layout",
            "N",
            "pairs",
            "us/pair",
            "entrywise est (s)",
            "batched (s)",
            "speedup",
            "evaluated",
            "max rel diff",
        ],
        rows,
        title="Assembly kernel: entry-wise vs batched",
    )
    data = {
        "workload": "bus_crossing",
        "face_refinement": face_refinement,
        "tolerance": tolerance,
        "sample_pairs": int(sample_pairs),
        "seed": int(seed),
        "entries": entries,
    }
    return ExperimentReport(name="kernel", text=text, data=data)


def agreement_failures(report: ExperimentReport) -> list[str]:
    """Sizes whose batched values disagree with the reference beyond the bound."""
    return [
        f"{label}: max relative difference {entry['max_rel_diff']:.3e} > {KERNEL_AGREEMENT_BOUND:.0e}"
        for label, entry in report.data["entries"].items()
        if not entry["max_rel_diff"] <= KERNEL_AGREEMENT_BOUND
    ]


def write_kernel_json(report: ExperimentReport, path: str | Path | None = None) -> Path:
    """Write a kernel report's data to ``BENCH_kernel.json``."""
    target = Path(path) if path is not None else Path.cwd() / BENCH_KERNEL_FILENAME
    target.write_text(json.dumps(report.data, indent=2, sort_keys=True) + "\n")
    return target
