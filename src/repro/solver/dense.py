"""Dense direct solves of the BEM system.

The system matrix ``P`` of a Galerkin BEM with a symmetric kernel is
symmetric and, for well-posed problems, positive definite, so a Cholesky
factorisation is the natural direct method; a partial-pivoting LU is the
fallback when mild asymmetry (from quadrature of near-singular pairs) or
indefiniteness spoils the factorisation.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.obs.trace import span

__all__ = ["solve_dense", "cholesky_solve"]


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite system via Cholesky factorisation.

    The factorisation and both triangular solves run in LAPACK
    (``potrf`` / ``potrs``) on the lower factor.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the matrix is not positive definite.
    ValueError
        If the matrix or the right-hand side holds infs or NaNs.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_shapes(matrix, rhs)
    # Symmetrise explicitly: the assemblers produce a numerically symmetric
    # matrix but quadrature round-off can leave ~1e-14 asymmetry.
    symmetric = 0.5 * (matrix + matrix.T)
    factor = linalg.cho_factor(symmetric, lower=True, overwrite_a=True)
    return linalg.cho_solve(factor, rhs)


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the BEM system, preferring Cholesky and falling back to LU."""
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _check_shapes(matrix, rhs)
    with span("solver.direct", size=matrix.shape[0]):
        try:
            return cholesky_solve(matrix, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.solve(matrix, rhs)


def _check_shapes(matrix: np.ndarray, rhs: np.ndarray) -> None:
    """Validate system dimensions."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if rhs.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"rhs first dimension {rhs.shape[0]} does not match matrix size {matrix.shape[0]}"
        )
