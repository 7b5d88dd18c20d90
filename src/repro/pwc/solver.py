"""Dense PWC capacitance solver.

Discretises a layout, assembles the dense Galerkin system, solves it
directly and forms the capacitance matrix.  Used as the accuracy reference
and as the substrate of the arch-shape extraction; the FASTCAP-like and pFFT
baselines replace the dense solve with multipole / FFT-accelerated GMRES.

The solver returns the unified :class:`repro.core.results.ExtractionResult`
(with ``charges`` and ``panels`` populated).
"""

from __future__ import annotations

from repro.core.results import ExtractionResult
from repro.geometry.discretize import discretize_layout_graded
from repro.geometry.layout import Layout
from repro.geometry.panel import Panel
from repro.parallel.timing import SolverTimer
from repro.pwc.assembly import PWCSystem
from repro.solver.capacitance import capacitance_from_solution
from repro.solver.dense import solve_dense

__all__ = ["PWCSolver"]


class PWCSolver:
    """Piecewise-constant Galerkin BEM capacitance solver.

    Parameters
    ----------
    cells_per_edge:
        Baseline number of cells per face edge of the graded discretisation.
    grading_ratio:
        Edge-grading growth factor (charge peaks at face edges).
    max_edge:
        Optional cap on the cell edge length.
    order_near:
        Quadrature order for near orthogonal panel pairs.
    """

    def __init__(
        self,
        cells_per_edge: int = 3,
        grading_ratio: float = 1.5,
        max_edge: float | None = None,
        order_near: int = 4,
    ):
        if cells_per_edge < 1:
            raise ValueError(f"cells_per_edge must be >= 1, got {cells_per_edge}")
        self.cells_per_edge = int(cells_per_edge)
        self.grading_ratio = float(grading_ratio)
        self.max_edge = max_edge
        self.order_near = int(order_near)

    # ------------------------------------------------------------------
    def discretize(self, layout: Layout) -> list[Panel]:
        """Produce the graded panel discretisation of a layout."""
        return discretize_layout_graded(
            layout,
            cells_per_edge=self.cells_per_edge,
            ratio=self.grading_ratio,
            max_edge=self.max_edge,
        )

    def solve_panels(self, layout: Layout, panels: list[Panel]) -> ExtractionResult:
        """Assemble and solve the PWC system on an explicit panel set."""
        timer = SolverTimer()
        with timer.setup():
            system = PWCSystem.assemble(
                panels,
                layout.permittivity,
                num_conductors=layout.num_conductors,
                order_near=self.order_near,
            )

        with timer.solve():
            charges = solve_dense(system.matrix, system.rhs)
            capacitance = capacitance_from_solution(system.rhs, charges)

        return ExtractionResult(
            capacitance=capacitance,
            conductor_names=list(layout.names),
            setup_seconds=timer.setup_seconds,
            solve_seconds=timer.solve_seconds,
            memory_bytes=system.memory_bytes,
            backend="pwc-dense",
            num_unknowns=len(panels),
            charges=charges,
            panels=list(panels),
            metadata={"num_panels": len(panels)},
        )

    def solve(self, layout: Layout) -> ExtractionResult:
        """Discretise and solve a layout."""
        return self.solve_panels(layout, self.discretize(layout))
