"""FASTCAP-like capacitance extraction driver.

Discretises the layout with edge-graded piecewise-constant panels, builds the
multipole-accelerated collocation operator, solves one GMRES system per
conductor and assembles the capacitance matrix -- the same pipeline as the
original FASTCAP program [4], with timing and memory bookkeeping so the
Table 2 comparison can be regenerated.

The solver returns the unified :class:`repro.core.results.ExtractionResult`
(with ``iterations`` populated).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import ExtractionResult
from repro.fastcap.fmm import MultipoleOperator
from repro.geometry.discretize import discretize_layout_graded
from repro.geometry.layout import Layout
from repro.geometry.panel import Panel
from repro.parallel.timing import SolverTimer
from repro.solver.iterative import gmres_solve

__all__ = ["FastCapSolver"]


class FastCapSolver:
    """Multipole-accelerated PWC collocation solver.

    Parameters
    ----------
    cells_per_edge, grading_ratio, max_edge:
        Discretisation controls (see
        :func:`repro.geometry.discretize.discretize_layout_graded`).
    theta:
        Multipole acceptance criterion of the far-field expansion.
    expansion_order:
        Highest multipole moment of the far-field evaluation (0-2, see
        :class:`~repro.fastcap.fmm.MultipoleOperator`).
    max_leaf_size:
        Cluster-tree leaf size.
    tolerance:
        GMRES stopping tolerance on the Jacobi-preconditioned residual,
        relative to the preconditioned right-hand side.  That residual
        bounds neither the true residual nor the charge error: on
        ``plate_over_ground`` the default ``1e-5`` lands 4.0e-5 from a
        tight solve.
    block_size:
        Conductor columns per lockstep GMRES block (``None`` = all
        conductors iterate in one block sharing each near-field
        traversal, ``1`` = one block per conductor).
    """

    def __init__(
        self,
        cells_per_edge: int = 3,
        grading_ratio: float = 1.5,
        max_edge: float | None = None,
        theta: float = 0.5,
        max_leaf_size: int = 32,
        tolerance: float = 1e-5,
        max_iterations: int = 300,
        expansion_order: int = 2,
        block_size: int | None = None,
    ):
        self.cells_per_edge = int(cells_per_edge)
        self.grading_ratio = float(grading_ratio)
        self.max_edge = max_edge
        self.theta = float(theta)
        self.max_leaf_size = int(max_leaf_size)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.expansion_order = int(expansion_order)
        self.block_size = None if block_size is None else int(block_size)

    # ------------------------------------------------------------------
    def discretize(self, layout: Layout) -> list[Panel]:
        """Edge-graded panel discretisation of the layout."""
        return discretize_layout_graded(
            layout,
            cells_per_edge=self.cells_per_edge,
            ratio=self.grading_ratio,
            max_edge=self.max_edge,
        )

    def solve_panels(self, layout: Layout, panels: list[Panel]) -> ExtractionResult:
        """Run the extraction on an explicit panel discretisation."""
        timer = SolverTimer()
        with timer.setup():
            operator = MultipoleOperator(
                panels,
                layout.permittivity,
                theta=self.theta,
                max_leaf_size=self.max_leaf_size,
                expansion_order=self.expansion_order,
            )
            diagonal = operator.diagonal()

        conductor_of_panel = np.asarray([p.conductor for p in panels], dtype=np.intp)
        areas = np.asarray([p.area for p in panels])
        num_conductors = layout.num_conductors

        with timer.solve():
            rhs = np.zeros((len(panels), num_conductors))
            for k in range(num_conductors):
                rhs[conductor_of_panel == k, k] = 1.0
            densities, stats = gmres_solve(
                operator.matvec,
                rhs,
                size=len(panels),
                tolerance=self.tolerance,
                max_iterations=self.max_iterations,
                diagonal=diagonal,
                matmat=operator.matmat,
                block_size=self.block_size,
            )
            # C[k, l] = total charge on conductor k when conductor l is at 1 V.
            capacitance = np.zeros((num_conductors, num_conductors))
            for k in range(num_conductors):
                mask = conductor_of_panel == k
                capacitance[k, :] = (areas[mask, None] * densities[mask, :]).sum(axis=0)
            capacitance = 0.5 * (capacitance + capacitance.T)

        return ExtractionResult(
            capacitance=capacitance,
            conductor_names=list(layout.names),
            setup_seconds=timer.setup_seconds,
            solve_seconds=timer.solve_seconds,
            memory_bytes=operator.memory_bytes,
            backend="fastcap",
            num_unknowns=len(panels),
            iterations=stats,
            charges=densities,
            metadata={
                "num_panels": len(panels),
                "theta": self.theta,
                "expansion_order": self.expansion_order,
                "operator_traversals": stats.operator_traversals,
                "tree_depth": operator.tree.depth,
                "num_leaves": len(operator.tree.leaves),
                "far_interactions": len(operator.far_interactions),
            },
        )

    def solve(self, layout: Layout) -> ExtractionResult:
        """Discretise and extract the layout."""
        return self.solve_panels(layout, self.discretize(layout))
