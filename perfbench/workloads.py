"""The benchmark's workloads and their committed reference matrices.

Each extraction workload is one ``bus_crossing`` layout run through one
backend.  ``real`` is the measured size; ``tiny`` exists for the smoke test.
A reference matrix is stored per workload and size under ``references/``
together with the layout parameters and fingerprint it was computed from,
so a reference that no longer matches its layout is refused instead of
being compared against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import check_capacitance

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: The golden convention of the repository's accuracy gate.
REFERENCE_BACKEND = "pwc-dense"
REFERENCE_OPTIONS = {"cells_per_edge": 4}
#: Wrong-sign off-diagonals a reference may carry, as a share of its
#: smallest diagonal entry.  They sit on far couplings, where the
#: discretisation error of the reference exceeds the coupling itself: the
#: bus 10x10 reference has 24 of 380, the largest 2.45% of the smallest
#: diagonal (each reference file records its own count and largest share).
REFERENCE_OFFDIAG_TOLERANCE = 0.03

#: Largest accepted relative Frobenius error against a reference: the
#: accuracy gate's default tolerance (a Monte Carlo result also gets
#: ``FRW_Z`` of its own standard errors on top).
TOLERANCE = 0.12
#: Largest tolerated wrong-sign off-diagonal of a measured result, as a
#: share of its smallest diagonal entry.  A strict sign check would fail
#: every run: on bus 8x8 the instantiable backend returns 68 of 240
#: off-diagonals positive, up to 3.2% of the smallest diagonal.
OFFDIAG_TOLERANCE = 0.05

SIZES = ("real", "tiny")


@dataclass(frozen=True)
class ExtractionWorkload:
    """One layout through one backend.

    ``options`` are the backend options except the worker count, which is
    ``nproc`` at run time under ``workers_option``.
    """

    name: str
    backend: str
    layouts: dict[str, dict]
    options: dict[str, dict]
    workers_option: str | None
    stochastic: bool = False

    def layout_params(self, size: str) -> dict:
        return dict(self.layouts[size])

    def backend_options(self, size: str, workers: int, seed: int) -> dict:
        options = dict(self.options[size])
        if self.workers_option is not None:
            options[self.workers_option] = workers
        if self.stochastic:
            options["seed"] = seed
        return options


EXTRACTION_WORKLOADS: dict[str, ExtractionWorkload] = {
    workload.name: workload
    for workload in (
        ExtractionWorkload(
            name="bus_dense_shared",
            backend="instantiable",
            layouts={"real": {"n_lower": 10, "n_upper": 10}, "tiny": {"n_lower": 3, "n_upper": 3}},
            options={
                size: {"parallel_mode": "shared_memory", "use_processes": True}
                for size in SIZES
            },
            workers_option="num_nodes",
        ),
        ExtractionWorkload(
            name="bus_hmatrix_gmres",
            backend="galerkin-aca",
            layouts={"real": {"n_lower": 6, "n_upper": 6}, "tiny": {"n_lower": 2, "n_upper": 2}},
            options={
                "real": {"face_refinement": 2, "leaf_size": 16, "executor": "thread"},
                "tiny": {"face_refinement": 2, "leaf_size": 8, "executor": "thread"},
            },
            workers_option="num_workers",
        ),
        ExtractionWorkload(
            name="frw_bus_adaptive",
            backend="frw",
            layouts={"real": {"n_lower": 4, "n_upper": 4}, "tiny": {"n_lower": 2, "n_upper": 2}},
            # The adaptive estimator stops at whole rounds of ``num_walks``
            # walks per conductor.  At 0.093 the seed code needs 2.0k-2.5k
            # walks, the middle of its fifth round, so every draw stops
            # after five rounds; a target at a round boundary (0.07 stops
            # after 8 or 9 rounds, half each) makes the median time jump by
            # a round from one seed to the next.
            options={
                "real": {"target_rel_std": 0.093, "num_walks": 512, "num_workers": 1},
                "tiny": {"target_rel_std": 0.2, "num_walks": 256, "num_workers": 1},
            },
            workers_option=None,
            stochastic=True,
        ),
    )
}


@dataclass(frozen=True)
class ServiceWorkload:
    """Open-loop Zipf traffic against an in-process extraction server.

    ``rate`` requests per second arrive on a fixed schedule over at most
    ``nproc`` keep-alive connections; popularity is Zipf(``exponent``)
    over ``pool_size`` distinct seeded ``bus_crossing`` 2x2 layouts.  A
    response counts toward goodput when it is correct and answered within
    ``latency_limit_s`` of its due time.  ``reference_samples`` of the most
    requested layouts are also checked against the dense reference.  Set-up
    stores the ``warm_layouts`` most popular layouts before the window.
    """

    name: str = "service_zipf_open"
    backend: str = "instantiable"
    rate: dict[str, float] = field(default_factory=lambda: {"real": 200.0, "tiny": 40.0})
    pool_size: dict[str, int] = field(default_factory=lambda: {"real": 256, "tiny": 16})
    warm_layouts: dict[str, int] = field(default_factory=lambda: {"real": 192, "tiny": 4})
    exponent: float = 1.1
    latency_limit_s: float = 0.25
    reference_samples: dict[str, int] = field(default_factory=lambda: {"real": 8, "tiny": 2})
    #: A run is invalid when the generator's p99 lateness exceeds this
    #: share of the latency limit: then the client, not the server, was
    #: the bottleneck.
    max_generator_lag_share: float = 0.25


SERVICE_WORKLOAD = ServiceWorkload()

WORKLOAD_NAMES = (*EXTRACTION_WORKLOADS, SERVICE_WORKLOAD.name)


def build_layout(params: dict):
    from repro.geometry.generators import bus_crossing

    return bus_crossing(**params)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def reference_path(name: str, size: str) -> Path:
    return REFERENCE_DIR / f"{name}.{size}.json"


def compute_reference(params: dict) -> dict:
    """The dense reference of one bus layout, with its own validity checks."""
    from repro.engine import ExtractionService
    from repro.engine.fingerprint import layout_fingerprint

    from common import now

    layout = build_layout(params)
    start = now()
    result = ExtractionService(executor="serial", cache_capacity=0).extract(
        layout, backend=REFERENCE_BACKEND, **REFERENCE_OPTIONS
    )
    seconds = now() - start
    return {
        "generator": "bus_crossing",
        "params": params,
        "layout_fingerprint": layout_fingerprint(layout),
        "backend": REFERENCE_BACKEND,
        "options": REFERENCE_OPTIONS,
        "num_unknowns": int(result.num_unknowns),
        "seconds": seconds,
        "conductor_names": list(result.conductor_names),
        "capacitance": result.capacitance.tolist(),
        "checks": check_capacitance(result.capacitance, REFERENCE_OFFDIAG_TOLERANCE),
    }


def load_reference(workload: ExtractionWorkload, size: str, layout) -> tuple[np.ndarray, list[str]]:
    """The committed reference of a workload, refused when stale or invalid.

    The stored matrix is re-checked on every load rather than trusted.
    """
    from repro.engine.fingerprint import layout_fingerprint

    path = reference_path(workload.name, size)
    document = json.loads(path.read_text())
    params = workload.layout_params(size)
    if document["params"] != params or document["layout_fingerprint"] != layout_fingerprint(layout):
        raise ValueError(
            f"stale reference {path.name}: stored for {document['params']}, workload is {params}; "
            "regenerate with perfbench/make_references.py"
        )
    if document["backend"] != REFERENCE_BACKEND or document["options"] != REFERENCE_OPTIONS:
        raise ValueError(f"reference {path.name} does not follow the golden convention")
    capacitance = np.asarray(document["capacitance"], dtype=float)
    checks = check_capacitance(capacitance, REFERENCE_OFFDIAG_TOLERANCE)
    if not checks["ok"]:
        raise ValueError(f"reference {path.name} fails its validity checks: {checks}")
    return capacitance, list(document["conductor_names"])
