"""Solve-phase benchmark: parallel H-matrix assembly + blocked multi-RHS GMRES.

``run_solver_bench`` exercises the two parallel paths this bench gates, on
sized crossing-bus layouts through the compressed ``galerkin-aca`` pipeline:

* **assembly** -- :func:`~repro.compress.hmatrix.build_hmatrix` is run
  serially and then on the selected executor for each worker count,
  recording the wall time, the per-worker assembly seconds measured inside
  the workers, and the maximum absolute difference of the assembled
  operator against the serial build (the partitioned assembly is
  bit-identical, so the difference must be exactly ``0.0``).  Because CI
  containers may expose a single core — where concurrent workers timeshare
  and their in-worker clocks include the contention — the artifact reports
  the *wall* speedup alongside the *critical-path* speedup
  (``serial_seconds / max(partition_seconds)``, with the per-partition
  times taken from an uncontended sequential pass over the same
  partitions), following the simulated-parallel-machine convention of the
  scaling harness: the critical path is the time a machine with one core
  per worker realises.
* **solve** -- the Jacobi-preconditioned GMRES is run once per conductor
  column (``block_size=1``, the historical loop) and once in blocked
  multi-right-hand-side mode, recording per-column iteration counts,
  operator traversals (the blocked mode shares each traversal across all
  columns, so it needs ``max_j iters_j`` instead of ``sum_j iters_j``) and
  the maximum absolute difference between the two solutions (must agree to
  ``<= 1e-12``).

The report's ``data`` payload is written to ``BENCH_solver.json`` by
``python -m repro solver`` and structurally gated in CI by
``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import build_hmatrix
from repro.core.experiments import ExperimentReport
from repro.greens.policy import ApproximationPolicy
from repro.parallel.executor import check_mode
from repro.solver.iterative import gmres_solve

__all__ = [
    "BENCH_SOLVER_FILENAME",
    "SOLVER_SWEEP_SIZES",
    "run_solver_bench",
    "write_solver_json",
]

#: Default name of the machine-readable solve-phase artifact.
BENCH_SOLVER_FILENAME = "BENCH_solver.json"

#: Default quick/full bus sizes (bus3x3 is the headline entry; the quick
#: set matches the kernel/compression sweeps so the N values line up).
SOLVER_SWEEP_SIZES = {"quick": (2, 3), "full": (3, 4)}


def _timed_build(entries: GalerkinEntries, *, num_workers: int, executor: str, **kwargs):
    """Build the H-matrix and return ``(hmatrix, wall_seconds)``."""
    start = time.perf_counter()
    hmatrix = build_hmatrix(entries, num_workers=num_workers, executor=executor, **kwargs)
    return hmatrix, time.perf_counter() - start


def run_solver_bench(
    quick: bool = True,
    sizes: Sequence[int] | None = None,
    worker_counts: Sequence[int] = (1, 2, 4),
    executor: str = "thread",
    face_refinement: int = 3,
    epsilon: float = 1e-4,
    tolerance: float = 0.01,
    gmres_tolerance: float = 1e-12,
    max_iterations: int = 500,
) -> ExperimentReport:
    """Benchmark parallel assembly and blocked solve on sized crossing buses.

    Parameters
    ----------
    quick:
        Use the reduced bus sizes; ``False`` uses the larger set.
    sizes:
        Explicit bus sizes overriding the quick/full defaults.
    worker_counts:
        Assembly worker counts to sweep (the ``1`` entry is the serial
        baseline and is added automatically when missing).
    executor:
        Parallel-assembly executor for the multi-worker builds
        (``"thread"`` or ``"process"``; ``"serial"`` degenerates to the
        baseline).
    face_refinement, epsilon, tolerance:
        Basis-set / compression knobs, matched to the compression sweep so
        the bus sizes are the same problems.
    gmres_tolerance, max_iterations:
        Controls of the iterative solves being compared.
    """
    if sizes is None:
        sizes = SOLVER_SWEEP_SIZES["quick" if quick else "full"]
    check_mode(executor)
    counts = sorted({int(w) for w in worker_counts} | {1})
    if counts[0] < 1:
        raise ValueError(f"worker counts must be >= 1, got {counts[0]}")

    from repro.workloads import get_workload

    workload = get_workload("bus_crossing")
    policy = ApproximationPolicy(tolerance=tolerance)

    entries_by_label: dict[str, dict] = {}
    rows = []
    for size in sizes:
        if size < 1:
            raise ValueError(f"bus sizes must be >= 1, got {size}")
        label = f"bus{size}x{size}"
        layout = workload.sized_layout(int(size))
        basis_set = build_basis_set(
            layout, InstantiationConfig(face_refinement=face_refinement)
        )
        oracle = GalerkinEntries(basis_set, layout.permittivity, policy=policy)

        serial_hmatrix, serial_seconds = _timed_build(
            oracle, num_workers=1, executor="serial", epsilon=epsilon
        )
        serial_dense = serial_hmatrix.dense()

        assembly: dict[str, dict] = {}
        for workers in counts:
            if workers == 1:
                hmatrix, wall = serial_hmatrix, serial_seconds
                partition_seconds = list(serial_hmatrix.worker_seconds)
            else:
                hmatrix, wall = _timed_build(
                    oracle, num_workers=workers, executor=executor, epsilon=epsilon
                )
                # Uncontended per-partition times: the same partitions run
                # one after another, so each clock sees a dedicated core.
                sequential, _ = _timed_build(
                    oracle, num_workers=workers, executor="serial", epsilon=epsilon
                )
                partition_seconds = list(sequential.worker_seconds)
            critical_path = max(partition_seconds)
            max_abs_diff = (
                0.0
                if hmatrix is serial_hmatrix
                else float(np.max(np.abs(hmatrix.dense() - serial_dense)))
            )
            assembly[str(workers)] = {
                "wall_seconds": wall,
                "worker_seconds": list(hmatrix.worker_seconds),
                "partition_seconds": partition_seconds,
                "critical_path_seconds": critical_path,
                "wall_speedup": serial_seconds / wall,
                "critical_path_speedup": serial_seconds / critical_path,
                "max_abs_diff": max_abs_diff,
            }

        phi = basis_set.incidence_matrix(layout.num_conductors)
        diagonal = serial_hmatrix.diagonal()
        start = time.perf_counter()
        column_solution, column_stats = gmres_solve(
            serial_hmatrix.matvec,
            phi,
            size=basis_set.num_basis_functions,
            tolerance=gmres_tolerance,
            max_iterations=max_iterations,
            diagonal=diagonal,
            block_size=1,
        )
        column_seconds = time.perf_counter() - start
        start = time.perf_counter()
        blocked_solution, blocked_stats = gmres_solve(
            serial_hmatrix.matvec,
            phi,
            size=basis_set.num_basis_functions,
            tolerance=gmres_tolerance,
            max_iterations=max_iterations,
            diagonal=diagonal,
            matmat=serial_hmatrix.matmat,
        )
        blocked_seconds = time.perf_counter() - start
        solve_diff = float(np.max(np.abs(blocked_solution - column_solution)))

        top = assembly[str(counts[-1])]
        entries_by_label[label] = {
            "num_basis_functions": basis_set.num_basis_functions,
            "num_conductors": layout.num_conductors,
            "assembly": {"serial_seconds": serial_seconds, "workers": assembly},
            "solve": {
                "column": {
                    "seconds": column_seconds,
                    "iterations_per_rhs": list(column_stats.iterations_per_rhs),
                    "operator_traversals": column_stats.operator_traversals,
                },
                "blocked": {
                    "seconds": blocked_seconds,
                    "iterations_per_rhs": list(blocked_stats.iterations_per_rhs),
                    "operator_traversals": blocked_stats.operator_traversals,
                },
                "max_abs_diff": solve_diff,
                "traversal_ratio": (
                    column_stats.operator_traversals
                    / max(blocked_stats.operator_traversals, 1)
                ),
            },
        }
        rows.append(
            [
                label,
                str(basis_set.num_basis_functions),
                f"{serial_seconds:.3f}",
                f"{top['critical_path_speedup']:.2f}x @ {counts[-1]}",
                f"{top['max_abs_diff']:.1e}",
                f"{column_stats.operator_traversals} -> {blocked_stats.operator_traversals}",
                f"{solve_diff:.1e}",
            ]
        )

    text = format_table(
        [
            "layout",
            "N",
            "serial (s)",
            "asm speedup",
            "asm |diff|",
            "traversals",
            "solve |diff|",
        ],
        rows,
        title="Solve phase: parallel assembly + blocked multi-RHS GMRES",
    )
    data = {
        "workload": "bus_crossing",
        "executor": executor,
        "worker_counts": counts,
        "face_refinement": face_refinement,
        "epsilon": epsilon,
        "tolerance": tolerance,
        "gmres_tolerance": gmres_tolerance,
        "entries": entries_by_label,
    }
    return ExperimentReport(name="solver", text=text, data=data)


def write_solver_json(report: ExperimentReport, path: str | Path | None = None) -> Path:
    """Write a solver report's data to ``BENCH_solver.json``."""
    target = Path(path) if path is not None else Path.cwd() / BENCH_SOLVER_FILENAME
    target.write_text(json.dumps(report.data, indent=2, sort_keys=True) + "\n")
    return target
