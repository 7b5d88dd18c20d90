"""Drivers that regenerate every table and figure of the paper's evaluation.

Each ``run_*`` function reproduces one experiment:

* :func:`run_table2` -- Table 2, the transistor-interconnect comparison
  against the FASTCAP-like baseline.
* :func:`run_table3` -- Table 3, the crossing-bus parallel speedup/efficiency
  in the shared-memory and distributed-memory flows.
* :func:`run_fig8`   -- Figure 8, the efficiency curves of this work against
  the published parallel pre-corrected FFT and parallel FMM curves.
* :func:`run_fig2`   -- Figure 2, the induced charge profile of the
  elementary crossing-wire problem and the extracted arch parameters.

The functions are shared between the pytest benchmarks in ``benchmarks/``
and the command-line driver (``python -m repro.core.experiments table2``),
so both always report the same numbers.  ``quick=True`` shrinks the
workloads to sizes suitable for continuous testing; ``quick=False`` uses
dimensions closer to the paper (``docs/benchmarks.md`` lists what each
test regenerates).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.efficiency import ScalingTable
from repro.analysis.reference_curves import published_reference_curves
from repro.analysis.report import format_table
from repro.assembly.distributed import DistributedAssembler
from repro.assembly.shared_memory import ParallelSetupResult, SharedMemoryAssembler
from repro.basis.extraction import extract_charge_profile, fit_arch_parameters
from repro.basis.instantiate import build_basis_set
from repro.core.reference import reference_capacitance
from repro.engine import get_backend
from repro.geometry import generators
from repro.parallel.machine import (
    SimulatedParallelMachine,
    calibrate_unit_costs,
    with_predicted_times,
)
from repro.solver.capacitance import compare_capacitance
from repro.solver.dense import solve_dense

__all__ = [
    "ExperimentReport",
    "run_table2",
    "run_table3",
    "run_fig8",
    "run_fig2",
    "main",
]


@dataclass
class ExperimentReport:
    """Human-readable text plus machine-readable data of one experiment."""

    name: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


# ----------------------------------------------------------------------
# Table 2 -- transistor interconnect vs FASTCAP
# ----------------------------------------------------------------------
def _table2_layout(quick: bool):
    """The synthetic transistor-interconnect block used for Table 2."""
    if quick:
        return generators.transistor_interconnect(n_fingers=2, n_m1_straps=2, n_m2_lines=1)
    return generators.transistor_interconnect(n_fingers=4, n_m1_straps=3, n_m2_lines=2)


def run_table2(quick: bool = True) -> ExperimentReport:
    """Transistor-interconnect comparison (paper Table 2).

    Columns: the FASTCAP-like multipole baseline and the instantiable-basis
    solver on the analytic kernel.  The paper's "w/ accel" column is not
    reproduced: its tabulated subroutines are slower than the vectorised
    closed forms here (see ``docs/benchmarks.md``).  Rows: setup time,
    total time, memory, and accuracy against the refined PWC reference.
    """
    layout = _table2_layout(quick)
    reference = reference_capacitance(
        layout,
        cells_per_edge=3 if quick else 4,
        max_panels=1500 if quick else 3000,
        max_iterations=3 if quick else 5,
    )

    fastcap = get_backend("fastcap").extract(layout, cells_per_edge=3 if quick else 4)

    instantiable = get_backend("instantiable").extract(layout)

    def error(capacitance: np.ndarray) -> float:
        return compare_capacitance(capacitance, reference).max_relative_error

    columns = {
        "FASTCAP-like": {
            "setup_seconds": fastcap.setup_seconds,
            "total_seconds": fastcap.total_seconds,
            "memory_bytes": fastcap.memory_bytes,
            "unknowns": fastcap.num_panels,
            "error": error(fastcap.capacitance),
        },
        "instantiable": {
            "setup_seconds": instantiable.setup_seconds,
            "total_seconds": instantiable.total_seconds,
            "memory_bytes": instantiable.memory_bytes,
            "unknowns": instantiable.num_basis_functions,
            "error": error(instantiable.capacitance),
        },
    }
    rows = []
    for label, entry in columns.items():
        rows.append(
            [
                label,
                str(entry["unknowns"]),
                f"{entry['setup_seconds']:.3f} s",
                f"{entry['total_seconds']:.3f} s",
                f"{entry['memory_bytes'] / 1e6:.2f} MB",
                f"{100 * entry['error']:.2f}%",
            ]
        )
    speedup = columns["FASTCAP-like"]["total_seconds"] / max(
        columns["instantiable"]["total_seconds"], 1e-12
    )
    memory_ratio = columns["FASTCAP-like"]["memory_bytes"] / max(
        columns["instantiable"]["memory_bytes"], 1.0
    )
    text = format_table(
        ["solver", "unknowns", "setup", "total", "memory", "error vs ref"],
        rows,
        title=(
            "Table 2 -- transistor interconnect "
            f"(instantiable is {speedup:.1f}x faster than FASTCAP-like, "
            f"{memory_ratio:.1f}x less memory)"
        ),
    )
    data = {**columns, "speedup_vs_fastcap": speedup, "memory_ratio": memory_ratio}
    return ExperimentReport(name="table2", text=text, data=data)


# ----------------------------------------------------------------------
# Table 3 / Figure 8 -- parallel scaling on the crossing bus
# ----------------------------------------------------------------------
def _bus_layout(quick: bool, bus_size: int | None = None):
    """The n x n crossing bus used by Table 3 / Figure 8."""
    if bus_size is None:
        bus_size = 6 if quick else 12
    return generators.bus_crossing(bus_size, bus_size)


def _calibrate_unit_costs(basis_set, permittivity, calibration_chunks: int = 16) -> dict[str, float]:
    """Measure per-category template-pair costs for the workload model.

    The basis set is assembled once, split into ``calibration_chunks``
    sub-chunks; the fit itself lives in
    :func:`repro.parallel.machine.calibrate_unit_costs`.
    """
    setup = SharedMemoryAssembler(
        basis_set, permittivity, num_nodes=calibration_chunks
    ).assemble()
    return calibrate_unit_costs(setup.node_results)


def _predicted_setup(setup: ParallelSetupResult, unit_costs: dict[str, float]) -> ParallelSetupResult:
    """Replace measured node times by the workload-model prediction."""
    return with_predicted_times(setup, unit_costs)


def _with_work(
    rows: list[list[str]], balance: dict[int, float], evaluated: dict[int, int]
) -> list[list[str]]:
    """Append the work-balance and evaluated-integral columns to scaling rows."""
    return [
        row + [f"{100 * balance[int(row[0])]:.0f}%", str(evaluated[int(row[0])])]
        for row in rows
    ]


def run_table3(
    quick: bool = True,
    bus_size: int | None = None,
    shared_nodes: tuple[int, ...] = (1, 2, 4),
    distributed_nodes: tuple[int, ...] = (1, 2, 4, 8, 10),
) -> ExperimentReport:
    """Parallel speedup/efficiency of the system setup (paper Table 3).

    The bus layout is assembled once per node count with the shared-memory
    and distributed-memory flows; every partition's compute time comes from
    the calibrated workload model (per-category unit costs measured on this
    machine times the partition's evaluated counts), and the simulated
    parallel machine adds the communication/overhead terms (see
    :mod:`repro.parallel` for why this substitution preserves the measured
    quantity).

    Besides the modelled efficiencies, which rest on timings, the data holds
    deterministic work quantities per flow and node count: the *work
    balance* ``mean / max`` of the partitions' evaluated pair integrals (the
    efficiency bound set by load imbalance, the paper's argument), the total
    of evaluated integrals (each partition deduplicates its own pairs, so
    the total grows with the node count), and the largest deviation of any
    flow's matrix from the single-node matrix.
    """
    layout = _bus_layout(quick, bus_size)
    basis_set = build_basis_set(layout)
    machine = SimulatedParallelMachine()
    phi = basis_set.incidence_matrix(layout.num_conductors)
    unit_costs = _calibrate_unit_costs(basis_set, layout.permittivity)

    def solve_time(matrix: np.ndarray) -> float:
        start = time.perf_counter()
        solve_dense(matrix, phi)
        return time.perf_counter() - start

    reference = SharedMemoryAssembler(basis_set, layout.permittivity).assemble().matrix
    balance: dict[str, dict[int, float]] = {"shared": {}, "distributed": {}}
    evaluated: dict[str, dict[int, int]] = {"shared": {}, "distributed": {}}
    deviations: list[float] = []

    def record_work(flow: str, setup: ParallelSetupResult) -> None:
        counts = [r.num_evaluated for r in setup.node_results]
        balance[flow][setup.num_nodes] = float(np.mean(counts)) / max(counts)
        evaluated[flow][setup.num_nodes] = sum(counts)
        deviations.append(
            float(np.max(np.abs(setup.matrix - reference)) / np.max(np.abs(reference)))
        )

    shared_times: list[float] = []
    for nodes in shared_nodes:
        setup = SharedMemoryAssembler(basis_set, layout.permittivity, num_nodes=nodes).assemble()
        record_work("shared", setup)
        setup = _predicted_setup(setup, unit_costs)
        timing = machine.shared_memory_run(setup, solve_seconds=solve_time(setup.matrix))
        shared_times.append(timing.total_seconds)

    distributed_times: list[float] = []
    for nodes in distributed_nodes:
        setup = DistributedAssembler(basis_set, layout.permittivity, num_nodes=nodes).assemble()
        record_work("distributed", setup)
        setup = _predicted_setup(setup, unit_costs)
        timing = machine.distributed_run(setup, solve_seconds=solve_time(setup.matrix))
        distributed_times.append(timing.total_seconds)

    shared_table = ScalingTable.from_times("shared-memory (OpenMP-like)", list(shared_nodes), shared_times)
    distributed_table = ScalingTable.from_times(
        "distributed-memory (MPI-like)", list(distributed_nodes), distributed_times
    )

    text_parts = [
        f"Table 3 -- {layout.num_conductors // 2}x{layout.num_conductors // 2} crossing bus, "
        f"N={basis_set.num_basis_functions}, M={basis_set.num_templates}",
        format_table(
            ["nodes", "time", "speedup", "efficiency", "work balance", "evaluated"],
            _with_work(shared_table.rows(), balance["shared"], evaluated["shared"]),
            title="Shared-memory flow",
        ),
        format_table(
            ["nodes", "time", "speedup", "efficiency", "work balance", "evaluated"],
            _with_work(distributed_table.rows(), balance["distributed"], evaluated["distributed"]),
            title="Distributed-memory flow",
        ),
    ]
    data = {
        "shared": {n: t for n, t in zip(shared_table.node_counts, shared_table.efficiencies)},
        "distributed": {
            n: t for n, t in zip(distributed_table.node_counts, distributed_table.efficiencies)
        },
        "shared_times": shared_times,
        "distributed_times": distributed_times,
        "shared_balance": balance["shared"],
        "distributed_balance": balance["distributed"],
        "evaluated_pairs": evaluated,
        "flow_max_rel_diff": max(deviations),
        "num_basis_functions": basis_set.num_basis_functions,
        "num_templates": basis_set.num_templates,
    }
    return ExperimentReport(name="table3", text="\n\n".join(text_parts), data=data)


def run_fig8(quick: bool = True, bus_size: int | None = None) -> ExperimentReport:
    """Parallel-efficiency curves (paper Figure 8).

    Our solver's OpenMP-like and MPI-like efficiencies over 1..10 nodes are
    combined with the published efficiency curves of the parallel
    pre-corrected FFT [1] and parallel fast multipole [7] programs.
    """
    node_counts = tuple(range(1, 11))
    table3 = run_table3(
        quick=quick,
        bus_size=bus_size,
        shared_nodes=(1, 2, 3, 4),
        distributed_nodes=node_counts,
    )
    reference = published_reference_curves(max_nodes=10)

    rows = []
    for index, nodes in enumerate(reference["nodes"]):
        nodes = int(nodes)
        shared_eff = table3.data["shared"].get(nodes)
        dist_eff = table3.data["distributed"].get(nodes)
        rows.append(
            [
                str(nodes),
                f"{100 * shared_eff:.0f}%" if shared_eff is not None else "-",
                f"{100 * dist_eff:.0f}%" if dist_eff is not None else "-",
                f"{100 * reference['parallel_fmm'][index]:.0f}%",
                f"{100 * reference['parallel_pfft'][index]:.0f}%",
            ]
        )
    text = format_table(
        ["nodes", "this work (OpenMP)", "this work (MPI)", "parallel FMM [7]", "parallel pFFT [1]"],
        rows,
        title="Figure 8 -- parallel efficiency vs number of processors",
    )
    data = {
        "this_work_shared": table3.data["shared"],
        "this_work_distributed": table3.data["distributed"],
        "this_work_distributed_balance": table3.data["distributed_balance"],
        "flow_max_rel_diff": table3.data["flow_max_rel_diff"],
        "parallel_fmm": {int(n): float(e) for n, e in zip(reference["nodes"], reference["parallel_fmm"])},
        "parallel_pfft": {
            int(n): float(e) for n, e in zip(reference["nodes"], reference["parallel_pfft"])
        },
    }
    return ExperimentReport(name="fig8", text=text, data=data)


# ----------------------------------------------------------------------
# Figure 2 -- extracted flat and arch shapes
# ----------------------------------------------------------------------
def run_fig2(separation: float = 0.5e-6, quick: bool = True) -> ExperimentReport:
    """Induced charge profile and extracted arch parameters (paper Figure 2)."""
    profile = extract_charge_profile(
        separation=separation,
        axial_cells=32 if quick else 64,
        other_face_cells=3 if quick else 5,
    )
    parameters = fit_arch_parameters(profile)
    rows = [
        ["separation h", f"{profile.separation * 1e6:.3f} um"],
        ["flat level", f"{profile.flat_level:.3e} C/m^2"],
        ["peak level", f"{profile.peak_level:.3e} C/m^2"],
        ["ingrowing length", f"{parameters.ingrowing_length * 1e6:.3f} um"],
        ["extension length", f"{parameters.extension_length * 1e6:.3f} um"],
        ["arch/flat amplitude", f"{parameters.amplitude_hint:.3f}"],
    ]
    text = format_table(
        ["quantity", "value"],
        rows,
        title="Figure 2 -- flat/arch decomposition of the induced charge profile",
    )
    data = {
        "positions": profile.positions.tolist(),
        "densities": profile.densities.tolist(),
        "parameters": {
            "ingrowing_length": parameters.ingrowing_length,
            "extension_length": parameters.extension_length,
            "amplitude_hint": parameters.amplitude_hint,
        },
    }
    return ExperimentReport(name="fig2", text=text, data=data)


# ----------------------------------------------------------------------
# Command-line entry point
# ----------------------------------------------------------------------
_EXPERIMENTS = {
    "table2": run_table2,
    "table3": run_table3,
    "fig2": lambda quick: run_fig2(quick=quick),
    "fig8": run_fig8,
}


def main(argv: list[str] | None = None) -> int:
    """Command-line driver: ``python -m repro.core.experiments table2 --full``."""
    parser = argparse.ArgumentParser(description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the larger (paper-sized) workloads instead of the quick ones",
    )
    args = parser.parse_args(argv)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        report = _EXPERIMENTS[name](not args.full)
        print(report.text)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
