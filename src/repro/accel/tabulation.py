"""Direct tabulation of definite integrals (paper Section 4.2.1).

The definite collocation integral is tabulated on a regular grid and
evaluated by multilinear interpolation.  Two properties make this practical:

* The integral only has to be tabulated inside the *approximation distance*
  (paper Section 4.1); farther away the cheaper low-dimensional expressions
  take over, so the parameter ranges are bounded.
* The integral is homogeneous of degree one in the lengths
  (``f(s*a1, ..., s*c) = s * f(a1, ..., c)``), so normalising every query by
  its largest coordinate maps all panel sizes onto one compact reference
  domain.  This replaces the fixed parameter windows the paper relies on and
  lets a single table serve arbitrary template dimensions.

The paper tabulates the 4-D Galerkin integral with six parameters; the 2-D
collocation integral used by the Table 1 micro-benchmark (eq. (13)) has five
(four corner offsets and the plane distance), which is the table built by
:class:`DirectTableEvaluator`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.greens.collocation import collocation_from_deltas

__all__ = ["RegularGridTable", "DirectTableEvaluator"]


class RegularGridTable:
    """Multilinear interpolation of a function sampled on a regular grid.

    Parameters
    ----------
    lows, highs:
        Lower/upper bounds of the axis-aligned tabulation domain.
    shape:
        Number of grid points per dimension.
    values:
        Pre-computed samples of shape ``shape``; use :meth:`build` to sample
        a function instead.
    """

    def __init__(self, lows: Sequence[float], highs: Sequence[float], values: np.ndarray):
        self.lows = np.asarray(lows, dtype=float)
        self.highs = np.asarray(highs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("lows and highs must be 1-D arrays of equal length")
        if self.values.ndim != self.lows.size:
            raise ValueError(
                f"values must have {self.lows.size} dimensions, got {self.values.ndim}"
            )
        if np.any(self.highs <= self.lows):
            raise ValueError("every dimension needs highs > lows")
        if any(n < 2 for n in self.values.shape):
            raise ValueError("every dimension needs at least two grid points")
        self.shape = np.asarray(self.values.shape, dtype=np.intp)
        self._spacing = (self.highs - self.lows) / (self.shape - 1)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        func: Callable[..., np.ndarray],
        lows: Sequence[float],
        highs: Sequence[float],
        shape: Sequence[int],
    ) -> "RegularGridTable":
        """Sample ``func`` (vectorised, one argument per dimension) on the grid."""
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        shape = tuple(int(n) for n in shape)
        axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(lows, highs, shape)]
        grids = np.meshgrid(*axes, indexing="ij")
        values = func(*grids)
        return cls(lows, highs, np.asarray(values, dtype=float))

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of tabulated dimensions."""
        return int(self.lows.size)

    @property
    def memory_bytes(self) -> int:
        """Memory footprint of the value grid."""
        return int(self.values.nbytes)

    # ------------------------------------------------------------------
    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at ``points`` of shape ``(n, ndim)``.

        Queries outside the tabulated domain are clamped to its boundary
        (the callers guarantee in-domain queries; clamping keeps stray
        round-off excursions harmless).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ndim:
            raise ValueError(f"expected points of dimension {self.ndim}, got {pts.shape[1]}")
        # Normalised grid coordinates, clamped to the valid cell range.
        coords = (pts - self.lows) / self._spacing
        coords = np.clip(coords, 0.0, self.shape - 1.000000001)
        base = np.floor(coords).astype(np.intp)
        base = np.minimum(base, self.shape - 2)
        frac = coords - base

        result = np.zeros(pts.shape[0])
        # Sum over the 2**ndim cell corners.
        for corner in range(1 << self.ndim):
            offsets = np.array([(corner >> d) & 1 for d in range(self.ndim)], dtype=np.intp)
            weights = np.prod(
                np.where(offsets[None, :] == 1, frac, 1.0 - frac), axis=1
            )
            indices = tuple((base + offsets[None, :]).T)
            result += weights * self.values[indices]
        return result


class DirectTableEvaluator:
    """Definite collocation integral via direct tabulation (technique 1).

    The evaluator exposes the same ``from_deltas(a1, a2, b1, b2, c)``
    signature as the exact closed form, so it can be plugged straight into
    the Galerkin integrator.  Every query is scaled by its largest
    coordinate magnitude (degree-one homogeneity) so the 5-D table only
    covers the normalised domain ``[-1, 1]^4 x [0, 1]``.
    """

    name = "direct_tabulation"

    def __init__(self, points_per_dim: int = 9):
        if points_per_dim < 3:
            raise ValueError(f"points_per_dim must be >= 3, got {points_per_dim}")
        self.points_per_dim = int(points_per_dim)
        lows = [-1.0, -1.0, -1.0, -1.0, 0.0]
        highs = [1.0, 1.0, 1.0, 1.0, 1.0]
        shape = [self.points_per_dim] * 5
        self.table = RegularGridTable.build(
            lambda a1, a2, b1, b2, c: collocation_from_deltas(a1, a2, b1, b2, c),
            lows,
            highs,
            shape,
        )

    @property
    def memory_bytes(self) -> int:
        """Memory footprint of the 5-D table."""
        return self.table.memory_bytes

    def from_deltas(self, a1, a2, b1, b2, c) -> np.ndarray:
        """Interpolated definite integral for corner coordinate differences."""
        a1, a2, b1, b2, c = np.broadcast_arrays(
            np.asarray(a1, dtype=float),
            np.asarray(a2, dtype=float),
            np.asarray(b1, dtype=float),
            np.asarray(b2, dtype=float),
            np.asarray(c, dtype=float),
        )
        shape = a1.shape
        stacked = np.stack(
            [a1.ravel(), a2.ravel(), b1.ravel(), b2.ravel(), np.abs(c).ravel()], axis=1
        )
        scale = np.max(np.abs(stacked), axis=1)
        scale = np.where(scale == 0.0, 1.0, scale)
        normalised = stacked / scale[:, None]
        values = self.table(normalised) * scale
        return values.reshape(shape)

    # Allow the evaluator to be used directly as a collocation function.
    __call__ = from_deltas
