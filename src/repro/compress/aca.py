"""Adaptive cross approximation (ACA) with partial pivoting.

ACA builds a low-rank factorisation ``A ~= U V`` (``U`` of shape ``(m, k)``,
``V`` of shape ``(k, n)``) of an admissible block by sampling *crosses* — one
row and one column per iteration — from an entry oracle; the dense block is
never materialised.  Partial pivoting picks the next row from the largest
residual entry of the previous column, and the iteration stops when the new
cross is small relative to the accumulated approximation,

.. math:: \\lVert u_k \\rVert \\, \\lVert v_k \\rVert
          \\le \\varepsilon \\, \\lVert U_k V_k \\rVert_F ,

with the Frobenius norm updated incrementally (Bebendorf's classic
criterion), or when the rank cap is reached.

The iteration is written once, as the coroutine :func:`aca_core` that
requests samples instead of calling an oracle.  :func:`aca_partial_pivoting`
drives it for one block; the H-matrix build drives the cores of all far
blocks together and answers their requests with one batched oracle call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

__all__ = ["LowRankFactors", "aca_core", "aca_partial_pivoting"]

#: Entry oracles: ``row_fn(i)`` returns row ``i`` of the block (length n),
#: ``col_fn(j)`` returns column ``j`` (length m).
RowFn = Callable[[int], np.ndarray]
ColFn = Callable[[int], np.ndarray]


@dataclass
class LowRankFactors:
    """A rank-``k`` factorisation ``A ~= u @ v``."""

    u: np.ndarray  # (m, k)
    v: np.ndarray  # (k, n)

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.v.ndim != 2 or self.u.shape[1] != self.v.shape[0]:
            raise ValueError(
                f"incompatible factor shapes {self.u.shape} x {self.v.shape}"
            )

    @property
    def rank(self) -> int:
        """The factorisation rank ``k``."""
        return int(self.u.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(m, n)`` of the approximated block."""
        return (int(self.u.shape[0]), int(self.v.shape[1]))

    @property
    def stored_entries(self) -> int:
        """Stored entry count ``k (m + n)`` of the factors."""
        return self.u.size + self.v.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the block to a vector: ``u @ (v @ x)`` — O(k(m+n))."""
        return self.u @ (self.v @ x)

    def dense(self) -> np.ndarray:
        """Materialise the approximation (tests and diagnostics only)."""
        return self.u @ self.v


#: A sample request of :func:`aca_core`: ``("row", i)`` or ``("col", j)``,
#: indices local to the block.
Request = tuple[str, int]


def aca_core(
    shape: tuple[int, int],
    epsilon: float = 1e-4,
    max_rank: int = 64,
) -> Generator[Request, np.ndarray, LowRankFactors]:
    """The ACA arithmetic as a coroutine over its row/column samples.

    Yields ``("row", i)`` / ``("col", j)`` requests, receives the requested
    row or column of the *original* block through ``send`` (the residual
    subtraction happens here), and returns the factors as the
    ``StopIteration`` value.  Owning no oracle, the core can be driven
    per block (:func:`aca_partial_pivoting`) or in lockstep with the cores
    of other blocks whose samples are fetched together
    (:func:`repro.compress.hmatrix.build_hmatrix`); the arithmetic, and so
    the factors, are the same either way.  Arguments are validated on the
    first ``next()``.
    """
    m, n = int(shape[0]), int(shape[1])
    if m < 1 or n < 1:
        raise ValueError(f"block shape must be positive, got {shape}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    row_used = np.zeros(m, dtype=bool)
    col_used = np.zeros(n, dtype=bool)
    norm2 = 0.0  # ||U_k V_k||_F^2, updated incrementally
    next_row = 0
    last_u: np.ndarray | None = None  # residual column of the last cross

    for _ in range(min(m, n, max_rank)):
        # --- residual row with a usable pivot --------------------------
        pivot_col = -1
        residual_row = np.empty(0)
        while True:
            row_used[next_row] = True
            residual_row = np.asarray((yield ("row", next_row)), dtype=float).copy()
            for u, v in zip(us, vs):
                residual_row -= u[next_row] * v
            candidates = np.where(~col_used, np.abs(residual_row), -1.0)
            pivot_col = int(np.argmax(candidates))
            if candidates[pivot_col] > 0.0:
                break
            # Dead pivot: the sampled row's residual vanishes on every
            # unused column (a zero row of a rank-deficient but nonzero
            # block).  Skip it and retry with the unused row carrying the
            # next-largest residual entry of the last accepted column —
            # not the arbitrary first unused row, which on blocks with
            # many dead rows degenerates into a full linear scan.
            remaining = np.flatnonzero(~row_used)
            if remaining.size == 0:
                pivot_col = -1
                break
            if last_u is not None:
                next_row = int(remaining[np.argmax(np.abs(last_u[remaining]))])
            else:
                next_row = int(remaining[0])
        if pivot_col < 0:
            break

        col_used[pivot_col] = True
        v_new = residual_row / residual_row[pivot_col]
        u_new = np.asarray((yield ("col", pivot_col)), dtype=float).copy()
        for u, v in zip(us, vs):
            u_new -= v[pivot_col] * u

        u_norm = float(np.linalg.norm(u_new))
        v_norm = float(np.linalg.norm(v_new))
        # Incremental Frobenius norm of the enlarged approximation.
        cross = sum(
            float(u_new @ u) * float(v_new @ v) for u, v in zip(us, vs)
        )
        norm2 = max(0.0, norm2 + (u_norm * v_norm) ** 2 + 2.0 * cross)
        us.append(u_new)
        vs.append(v_new)
        last_u = u_new

        if u_norm * v_norm <= epsilon * math.sqrt(norm2):
            break
        remaining = np.flatnonzero(~row_used)
        if remaining.size == 0:
            break
        next_row = int(remaining[np.argmax(np.abs(u_new[remaining]))])

    if not us:
        return LowRankFactors(u=np.zeros((m, 0)), v=np.zeros((0, n)))
    return LowRankFactors(u=np.column_stack(us), v=np.vstack(vs))


def aca_partial_pivoting(
    row_fn: RowFn,
    col_fn: ColFn,
    shape: tuple[int, int],
    epsilon: float = 1e-4,
    max_rank: int = 64,
) -> LowRankFactors:
    """Low-rank factors of a block from row/column samples.

    Drives :func:`aca_core` with one oracle call per request.

    Parameters
    ----------
    row_fn, col_fn:
        Entry oracles returning one full row / column of the *original*
        block (the residual subtraction happens here).
    shape:
        Block dimensions ``(m, n)``.
    epsilon:
        Relative stopping tolerance on the Frobenius norm of the update.
    max_rank:
        Hard cap on the number of crosses.

    Returns
    -------
    :class:`LowRankFactors` whose rank is at most
    ``min(m, n, max_rank)`` (zero for an all-zero block).
    """
    core = aca_core(shape, epsilon, max_rank)
    try:
        kind, index = next(core)
        while True:
            sample = row_fn(index) if kind == "row" else col_fn(index)
            kind, index = core.send(sample)
    except StopIteration as stop:
        return stop.value
