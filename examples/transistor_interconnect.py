"""Transistor-interconnect example: instantiable basis vs the FASTCAP-like baseline.

Reproduces the comparison of paper Table 2 on the synthetic transistor-cell
interconnect block (a stand-in for the paper's industry structure) through
the unified engine: the FASTCAP-like multipole backend and the
instantiable-basis backend, both checked against the refined PWC reference.
The paper's accelerated column is not reproduced; its tabulated
subroutines are slower than the analytic kernel here.  Every backend
returns the same unified result type, so one loop formats the whole
comparison.

Run with ``python examples/transistor_interconnect.py``.
"""

from __future__ import annotations

from repro import generators, get_backend
from repro.analysis import format_table
from repro.core.reference import reference_capacitance
from repro.solver import compare_capacitance


def main() -> None:
    layout = generators.transistor_interconnect(n_fingers=3, n_m1_straps=2, n_m2_lines=2)
    print(f"Transistor interconnect block: {layout.num_conductors} conductors "
          f"({', '.join(layout.names)})")

    reference = reference_capacitance(layout, cells_per_edge=3, max_panels=2000, max_iterations=3)

    results = {
        "FASTCAP-like": get_backend("fastcap").extract(layout, cells_per_edge=3),
        "instantiable": get_backend("instantiable").extract(layout),
    }

    rows = []
    for label, result in results.items():
        error = compare_capacitance(result.capacitance, reference).max_relative_error
        rows.append([
            label,
            str(result.num_unknowns),
            f"{result.setup_seconds:.3f} s",
            f"{result.total_seconds:.3f} s",
            f"{result.memory_bytes / 1e6:.2f} MB",
            f"{100 * error:.2f}%",
        ])
    print()
    print(format_table(
        ["solver", "unknowns", "setup", "total", "memory", "error vs reference"],
        rows,
        title="Transistor interconnect comparison (paper Table 2)",
    ))
    print()
    gate_coupling = results["instantiable"].coupling_capacitance("poly", "m1_0")
    print(f"Example coupling, poly gate to first M1 strap: {gate_coupling * 1e15:.4f} fF")


if __name__ == "__main__":
    main()
