"""Workload registry and golden-reference accuracy suite.

The package mirrors the engine's backend registry on the problem side: a
:class:`~repro.workloads.registry.Workload` names one parametric layout
family (factory, quick/full parameters, size knob, per-backend options and
accuracy tolerances), and the registry serves them by name to the accuracy
harness, the HTTP service and the CLI::

    from repro.workloads import get_workload, run_accuracy_suite

    layout = get_workload("guard_ring").layout()
    report = run_accuracy_suite(quick=True)

Importing the package registers the stock catalog: the paper's structures
(crossing wires, crossing bus, transistor interconnect, plates, comb, wire
array) plus the new-geometry families (via stacks, guard ring, seeded
random Manhattan routing, comb/bus hybrid).  Golden references live in
``benchmarks/golden/*.json``; ``python -m repro accuracy`` gates every
backend against them.
"""

from repro.workloads.accuracy import (
    BENCH_ACCURACY_FILENAME,
    STOCHASTIC_Z,
    run_accuracy_suite,
    update_goldens,
    write_accuracy_json,
)
from repro.workloads.catalog import (
    DEFAULT_BACKEND_OPTIONS,
    REFERENCE_BACKEND,
    REFERENCE_OPTIONS,
    register_stock_workloads,
)
from repro.workloads.golden import (
    DEFAULT_GOLDEN_DIR,
    compute_golden_entry,
    golden_capacitance,
    golden_entry,
    golden_path,
    load_golden,
    update_golden,
)
from repro.workloads.registry import (
    NEW_GEOMETRY_TAG,
    TOLERANCE_MODES,
    Workload,
    all_workloads,
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)

__all__ = [
    "BENCH_ACCURACY_FILENAME",
    "DEFAULT_BACKEND_OPTIONS",
    "DEFAULT_GOLDEN_DIR",
    "NEW_GEOMETRY_TAG",
    "REFERENCE_BACKEND",
    "REFERENCE_OPTIONS",
    "STOCHASTIC_Z",
    "TOLERANCE_MODES",
    "Workload",
    "all_workloads",
    "available_workloads",
    "compute_golden_entry",
    "get_workload",
    "golden_capacitance",
    "golden_entry",
    "golden_path",
    "load_golden",
    "register_stock_workloads",
    "register_workload",
    "run_accuracy_suite",
    "unregister_workload",
    "update_golden",
    "update_goldens",
    "write_accuracy_json",
]

register_stock_workloads()
