"""Krylov iterative solves shared by every iterative backend.

The FASTCAP-like baseline, the parallel Galerkin flows and the compressed
``galerkin-aca`` path all solve their (possibly multi-right-hand-side)
systems through :func:`gmres_solve`, one lockstep GMRES: the right-hand
sides are cut into blocks of ``block_size`` columns, and each outer
iteration applies the operator ONCE to the matrix of current Krylov vectors
of every still-unconverged column of the block.  Each column keeps its own
Arnoldi basis, Hessenberg factorisation and Givens-rotation residual
tracking, so convergence is still monitored per column and columns drop
out of the block as they converge.  For an operator whose cost is
dominated by traversing stored blocks (the H-matrix, a dense matrix, the
multipole near field), this shares one traversal across the whole block
instead of paying one per column — the number of operator *traversals*
drops from ``sum_j iterations_j`` (``block_size=1``) to
``max_j iterations_j`` (one block).

The Arnoldi bookkeeping runs in the same sweep: the block's state is held
as arrays over its active columns, and each iteration orthogonalises
(classical Gram-Schmidt, twice), rotates and updates the residual
estimates of all of them in a fixed number of array operations rather than
a Python loop per column and basis vector.

Every solve uses the Jacobi (diagonal-scaling) left preconditioner built by
:func:`jacobi_preconditioner`.  The stopping test reads the preconditioned
residual, which bounds neither the true residual nor the error of the
solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator

from repro.obs import metrics
from repro.obs.trace import span

__all__ = ["IterativeStats", "jacobi_preconditioner", "gmres_solve"]

_SOLVES = metrics.counter("repro_gmres_solves_total", "GMRES solves")
_ITERATIONS = metrics.counter(
    "repro_gmres_iterations_total", "Krylov iterations summed over all right-hand sides"
)
_TRAVERSALS = metrics.counter(
    "repro_gmres_traversals_total", "Operator traversals performed by GMRES solves"
)

#: Multi-vector operator product ``A @ X`` for an ``(n, k)`` block ``X``.
MatMat = Callable[[np.ndarray], np.ndarray]


def jacobi_preconditioner(diagonal: np.ndarray) -> LinearOperator:
    """The Jacobi (diagonal-scaling) preconditioner ``M ~= diag(A)^-1``.

    Every iterative backend — the parallel Galerkin flows, the FASTCAP-like
    baseline and the compressed ``galerkin-aca`` path — builds its GMRES
    preconditioner through this one helper (directly or by passing
    ``diagonal=`` to :func:`gmres_solve`).

    Raises
    ------
    ValueError
        If any diagonal entry is zero or non-finite: inverting it would
        inject ``inf``/``nan`` scaling and let GMRES diverge with no hint of
        the cause, so the offending index is reported up front.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    bad = np.flatnonzero(~np.isfinite(diagonal) | (diagonal == 0.0))
    if bad.size:
        index = int(bad[0])
        raise ValueError(
            "jacobi_preconditioner requires finite nonzero diagonal entries; "
            f"entry {index} is {float(diagonal[index])!r}"
            + (f" ({bad.size} offending entries in total)" if bad.size > 1 else "")
        )
    inverse_diagonal = 1.0 / diagonal
    size = inverse_diagonal.size
    return LinearOperator((size, size), matvec=lambda x: inverse_diagonal * x)


@dataclass
class IterativeStats:
    """Iteration statistics of a (multi-right-hand-side) GMRES solve.

    Attributes
    ----------
    iterations_per_rhs:
        Krylov iterations taken by each right-hand side.
    operator_traversals:
        Number of multi-vector operator applications: one per lockstep
        iteration of each column block.  The saving of a shared block is
        exactly ``total_iterations - operator_traversals``.
    """

    iterations_per_rhs: list[int]
    operator_traversals: int

    @property
    def total_iterations(self) -> int:
        """Total matrix-vector products across all right-hand sides."""
        return int(sum(self.iterations_per_rhs))

    @property
    def max_iterations(self) -> int:
        """Largest iteration count over the right-hand sides."""
        return int(max(self.iterations_per_rhs)) if self.iterations_per_rhs else 0


def gmres_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    size: int,
    tolerance: float = 1e-6,
    max_iterations: int = 500,
    diagonal: np.ndarray | None = None,
    matmat: MatMat | None = None,
    block_size: int | None = None,
) -> tuple[np.ndarray, IterativeStats]:
    """Solve ``A x = b`` with lockstep GMRES over blocks of columns.

    Parameters
    ----------
    matvec:
        The (possibly approximate/fast) matrix-vector product.
    rhs:
        Right-hand side vector or matrix (one column per conductor).
    size:
        System dimension.
    tolerance:
        Relative residual tolerance (per column, against the preconditioned
        right-hand-side norm).
    max_iterations:
        Krylov iteration cap per right-hand side (GMRES never restarts).
    diagonal:
        Optional diagonal of ``A`` used as a Jacobi preconditioner.
    matmat:
        Optional multi-vector product ``A @ X``; without it each block
        product applies ``matvec`` one column at a time.
    block_size:
        Columns per lockstep block.  ``None`` (default) solves all columns
        in one block sharing every operator traversal; ``1`` gives each
        column a block of its own; intermediate values chunk the columns.

    Returns
    -------
    (solution, stats):
        The solution with the same shape as ``rhs`` and the per-column
        iteration statistics (including the operator-traversal count).
    """
    rhs = np.asarray(rhs, dtype=float)
    single_column = rhs.ndim == 1
    columns = rhs[:, None] if single_column else rhs
    if columns.shape[0] != size:
        raise ValueError(f"rhs has {columns.shape[0]} rows, expected {size}")
    if block_size is not None and block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if matmat is None:
        matmat = _column_by_column(matvec)

    inverse_diagonal = None
    if diagonal is not None:
        jacobi_preconditioner(diagonal)  # shared validation
        inverse_diagonal = 1.0 / np.asarray(diagonal, dtype=float)

    num_columns = columns.shape[1]
    chunk = int(block_size or max(num_columns, 1))
    with span("solver.gmres", size=size, num_rhs=num_columns) as gmres_span:
        solution = np.empty_like(columns)
        iterations: list[int] = []
        traversals = 0
        for start in range(0, num_columns, chunk):
            stop = min(start + chunk, num_columns)
            block, block_iterations, block_traversals = _blocked_gmres(
                matmat,
                columns[:, start:stop],
                tolerance,
                max_iterations,
                inverse_diagonal,
                rhs_offset=start,
            )
            solution[:, start:stop] = block
            iterations.extend(block_iterations)
            traversals += block_traversals
        stats = IterativeStats(iterations_per_rhs=iterations, operator_traversals=traversals)
        if gmres_span is not None:
            gmres_span.attributes.update(
                iterations=stats.total_iterations,
                traversals=stats.operator_traversals,
            )
        _SOLVES.inc()
        _ITERATIONS.inc(stats.total_iterations)
        _TRAVERSALS.inc(stats.operator_traversals)
    return (solution[:, 0] if single_column else solution), stats


# ----------------------------------------------------------------------
def _column_by_column(matvec: Callable[[np.ndarray], np.ndarray]) -> MatMat:
    """The block product ``A @ X`` that applies ``matvec`` one column at a time."""
    return lambda block: np.column_stack([matvec(column) for column in block.T])


def _blocked_gmres(
    matmat: MatMat,
    block_rhs: np.ndarray,
    tolerance: float,
    max_iterations: int,
    inverse_diagonal: np.ndarray | None,
    rhs_offset: int = 0,
) -> tuple[np.ndarray, list[int], int]:
    """Lockstep multi-right-hand-side GMRES on one column block.

    All columns share each operator traversal: iteration ``m`` applies
    ``matmat`` once to the ``(n, active)`` matrix of the columns' current
    Arnoldi vectors.  Every column owns an independent Krylov basis,
    Hessenberg matrix (kept upper-triangular through Givens rotations) and
    residual estimate, so a column that converges simply leaves the block.

    The state of the active columns is held in arrays whose leading axis
    runs over them: ``basis[c, i]`` is Krylov vector ``i`` of column ``c``;
    ``triangular[m]`` holds column ``m`` of every column's rotated
    Hessenberg matrix; ``rotations[c]`` is the product of column ``c``'s
    Givens rotations so far, so its rotated residual vector is
    ``beta[c] * rotations[c, :, 0]``.  An iteration is then a fixed number
    of array operations over the whole block: classical Gram-Schmidt run
    twice (CGS2) as batched products, one product with the accumulated
    rotations, and the new rotation.  When columns converge, every array
    keeps only the columns still active.

    Returns ``(solution, iterations_per_column, operator_traversals)``.
    """
    n, k = block_rhs.shape
    solution = np.zeros((n, k))
    iterations = np.zeros(k, dtype=int)

    def precondition(block: np.ndarray) -> np.ndarray:
        if inverse_diagonal is None:
            return block
        return block * inverse_diagonal[:, None]

    residual0 = precondition(block_rhs)
    beta = np.linalg.norm(residual0, axis=0)
    # A zero right-hand side is solved by the zero vector at no cost.
    active = np.flatnonzero(beta > 0.0)
    beta = beta[active]
    targets = tolerance * beta

    # Capacity for the Krylov vectors, doubled whenever it runs out.
    basis = np.empty((active.size, min(max_iterations, 32) + 1, n))
    basis[:, 0] = (residual0[:, active] / beta).T
    triangular: list[np.ndarray] = []
    rotations = np.ones((active.size, 1, 1))

    traversals = 0
    for m in range(max_iterations):
        if not active.size:
            break
        applied = precondition(
            np.asarray(matmat(np.ascontiguousarray(basis[:, m].T)), dtype=float)
        )
        if applied.shape != (n, active.size):
            raise ValueError(
                f"matmat returned shape {applied.shape}, expected {(n, active.size)}"
            )
        traversals += 1
        w = np.ascontiguousarray(applied.T)
        applied_norm = np.linalg.norm(w, axis=1)
        # Classical Gram-Schmidt against each column's basis, twice.
        krylov = basis[:, : m + 1]
        h = np.zeros((active.size, m + 1))
        for _ in range(2):
            projection = (krylov @ w[:, :, None])[:, :, 0]
            w -= (projection[:, None, :] @ krylov)[:, 0, :]
            h += projection
        w_norm = np.linalg.norm(w, axis=1)
        # Previous rotations keep the Hessenberg columns triangular; the
        # new one zeroes the subdiagonal entry ``w_norm``.
        h = np.einsum("cij,cj->ci", rotations, h)
        denom = np.hypot(h[:, m], w_norm)
        nonzero = denom != 0.0
        scale = np.where(nonzero, denom, 1.0)
        c = np.where(nonzero, h[:, m] / scale, 1.0)[:, None]
        s = np.where(nonzero, w_norm / scale, 0.0)[:, None]
        h[:, m] = denom
        triangular.append(h)
        grown = np.zeros((active.size, m + 2, m + 2))
        grown[:, : m + 1, : m + 1] = rotations
        grown[:, m + 1, m + 1] = 1.0
        upper, lower = grown[:, m].copy(), grown[:, m + 1].copy()
        grown[:, m] = c * upper + s * lower
        grown[:, m + 1] = -s * upper + c * lower
        rotations = grown
        iterations[active] = m + 1

        happy_breakdown = w_norm <= np.finfo(float).eps * applied_norm
        converged = (np.abs(beta * rotations[:, m + 1, 0]) <= targets) | happy_breakdown
        if converged.any():
            for position in np.flatnonzero(converged):
                solution[:, active[position]] = _assemble_solution(
                    krylov[position],
                    [column[position] for column in triangular],
                    beta[position] * rotations[position, :, 0],
                )
            keep = ~converged
            active, beta, targets = active[keep], beta[keep], targets[keep]
            w, w_norm = w[keep], w_norm[keep]
            basis, rotations = basis[keep], rotations[keep]
            triangular = [column[keep] for column in triangular]
        if active.size:
            if m + 1 == basis.shape[1]:
                basis = np.concatenate([basis, np.empty_like(basis)], axis=1)
            basis[:, m + 1] = w / w_norm[:, None]

    if active.size:
        residuals = ", ".join(
            f"rhs {rhs_offset + j}: |r|={abs(r):.3e}"
            for j, r in zip(active, beta * rotations[:, -1, 0])
        )
        raise RuntimeError(
            f"GMRES did not converge within {max_iterations} iterations "
            f"({residuals})"
        )
    return solution, iterations.tolist(), traversals


def _assemble_solution(
    krylov: np.ndarray, triangular: list[np.ndarray], g: np.ndarray
) -> np.ndarray:
    """Back-substitute one column's rotated least-squares system and expand it.

    ``krylov`` holds the column's Krylov vectors as rows, ``triangular``
    the columns of its rotated Hessenberg matrix and ``g`` its rotated
    residual vector.
    """
    m = len(triangular)
    upper = np.zeros((m, m))
    for col, h in enumerate(triangular):
        upper[: col + 1, col] = h
    y = np.zeros(m)
    for i in range(m - 1, -1, -1):
        accumulated = g[i] - upper[i, i + 1 :] @ y[i + 1 :]
        diagonal = upper[i, i]
        y[i] = accumulated / diagonal if diagonal != 0.0 else 0.0
    return y @ krylov[:m]
