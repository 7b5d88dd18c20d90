"""System solving and capacitance post-processing.

With instantiable basis functions the system is small and dense, so the
solve is a direct factorisation (paper Section 3: "we will resort to the
standard direct method implemented in multithreaded linear algebra
libraries").  The matrix-free backends (compressed H-matrix, multipole
PWC, parallel Galerkin) use the Jacobi-preconditioned GMRES of
:mod:`repro.solver.iterative` instead: all conductor excitations of a block iterate in lockstep and
every operator traversal is shared across its columns (by default one
block holds every conductor; ``block_size=1`` gives each its own).
Per-column iteration counts and the number of operator traversals are
reported through :class:`~repro.solver.iterative.IterativeStats`.
"""

from repro.solver.dense import solve_dense, cholesky_solve
from repro.solver.iterative import gmres_solve, jacobi_preconditioner, IterativeStats
from repro.solver.capacitance import (
    capacitance_from_solution,
    capacitance_matrix,
    CapacitanceComparison,
    compare_capacitance,
)

__all__ = [
    "solve_dense",
    "cholesky_solve",
    "gmres_solve",
    "jacobi_preconditioner",
    "IterativeStats",
    "capacitance_from_solution",
    "capacitance_matrix",
    "CapacitanceComparison",
    "compare_capacitance",
]
