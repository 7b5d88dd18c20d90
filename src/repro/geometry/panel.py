"""Axis-aligned rectangular panels.

A :class:`Panel` is the elementary surface element of the boundary element
method: an axis-aligned rectangle embedded in 3-D space.  Panels are used both
as the supports of piecewise-constant basis functions (the PWC baseline and
FASTCAP-like solver) and as the supports of the flat/arch *templates* of the
instantiable basis functions (paper Section 2.2).

Conventions
-----------
* ``normal_axis`` is the index (0=x, 1=y, 2=z) of the coordinate axis
  perpendicular to the panel plane.
* The two in-plane ("tangential") axes are the remaining axes in increasing
  index order; they are referred to as the *u* and *v* axes.
* ``offset`` is the coordinate of the panel plane along the normal axis.
* ``u_range`` / ``v_range`` are ``(lo, hi)`` pairs along the u and v axes.
* All coordinates are in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Panel", "tangential_axes"]


def tangential_axes(normal_axis: int) -> tuple[int, int]:
    """Return the two in-plane axis indices for a given normal axis.

    The axes are returned in increasing order, e.g. ``tangential_axes(1)``
    (a panel perpendicular to y) returns ``(0, 2)``.
    """
    if normal_axis not in (0, 1, 2):
        raise ValueError(f"normal_axis must be 0, 1 or 2, got {normal_axis!r}")
    axes = [0, 1, 2]
    axes.remove(normal_axis)
    return axes[0], axes[1]


def _length(vector: np.ndarray) -> float:
    """Euclidean length with the arithmetic of a row-wise ``norm(..., axis=1)``.

    The batched kernel core measures whole arrays of pairs row-wise; taking
    the per-pair distances the same way (not through ``norm``'s BLAS dot)
    makes both take the same side of a threshold a distance sits on.
    """
    return float(np.sqrt(np.add.reduce(vector * vector)))


@dataclass(frozen=True)
class Panel:
    """An axis-aligned rectangle in 3-D space.

    Parameters
    ----------
    normal_axis:
        Index of the axis perpendicular to the panel (0, 1 or 2).
    offset:
        Coordinate of the panel plane along ``normal_axis``.
    u_range, v_range:
        ``(lo, hi)`` extents along the first and second tangential axes.
    conductor:
        Index of the conductor this panel belongs to (``-1`` when detached).
    outward:
        Sign (+1/-1) of the outward surface normal along ``normal_axis``.
        It does not influence the electrostatic integrals (the kernel is
        orientation independent) but is kept for geometry book-keeping.
    """

    normal_axis: int
    offset: float
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    conductor: int = -1
    outward: int = +1

    def __post_init__(self) -> None:
        if self.normal_axis not in (0, 1, 2):
            raise ValueError(f"normal_axis must be 0, 1 or 2, got {self.normal_axis!r}")
        u1, u2 = self.u_range
        v1, v2 = self.v_range
        if not (u2 > u1 and v2 > v1):
            raise ValueError(
                f"panel extents must be positive: u_range={self.u_range}, v_range={self.v_range}"
            )
        if self.outward not in (-1, 1):
            raise ValueError(f"outward must be +1 or -1, got {self.outward!r}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_corners(lo: Sequence[float], hi: Sequence[float], conductor: int = -1,
                     outward: int = +1) -> "Panel":
        """Build a panel from two opposite corners of a degenerate box.

        Exactly one coordinate of ``lo`` and ``hi`` must coincide; that axis
        becomes the normal axis.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        equal = [i for i in range(3) if math.isclose(lo[i], hi[i], rel_tol=0.0, abs_tol=0.0)]
        if len(equal) != 1:
            raise ValueError(
                "exactly one coordinate must coincide to define a panel plane; "
                f"got lo={lo.tolist()}, hi={hi.tolist()}"
            )
        normal = equal[0]
        ua, va = tangential_axes(normal)
        return Panel(
            normal_axis=normal,
            offset=float(lo[normal]),
            u_range=(float(min(lo[ua], hi[ua])), float(max(lo[ua], hi[ua]))),
            v_range=(float(min(lo[va], hi[va])), float(max(lo[va], hi[va]))),
            conductor=conductor,
            outward=outward,
        )

    # ------------------------------------------------------------------
    # Basic geometric properties
    # ------------------------------------------------------------------
    @property
    def u_axis(self) -> int:
        """Index of the first tangential axis."""
        return tangential_axes(self.normal_axis)[0]

    @property
    def v_axis(self) -> int:
        """Index of the second tangential axis."""
        return tangential_axes(self.normal_axis)[1]

    @property
    def u_span(self) -> float:
        """Extent of the panel along the u axis."""
        return self.u_range[1] - self.u_range[0]

    @property
    def v_span(self) -> float:
        """Extent of the panel along the v axis."""
        return self.v_range[1] - self.v_range[0]

    @property
    def area(self) -> float:
        """Panel area in square metres."""
        return self.u_span * self.v_span

    @property
    def diagonal(self) -> float:
        """Length of the panel diagonal."""
        return math.hypot(self.u_span, self.v_span)

    @property
    def centroid(self) -> np.ndarray:
        """Panel centroid as a 3-vector."""
        c = np.empty(3)
        c[self.normal_axis] = self.offset
        c[self.u_axis] = 0.5 * (self.u_range[0] + self.u_range[1])
        c[self.v_axis] = 0.5 * (self.v_range[0] + self.v_range[1])
        return c

    @property
    def normal(self) -> np.ndarray:
        """Outward unit normal as a 3-vector."""
        n = np.zeros(3)
        n[self.normal_axis] = float(self.outward)
        return n

    def corners(self) -> np.ndarray:
        """Return the four corner points as a ``(4, 3)`` array.

        The corners are ordered counter-clockwise in the (u, v) plane:
        ``(u1, v1), (u2, v1), (u2, v2), (u1, v2)``.
        """
        u1, u2 = self.u_range
        v1, v2 = self.v_range
        pts = np.empty((4, 3))
        pts[:, self.normal_axis] = self.offset
        pts[:, self.u_axis] = [u1, u2, u2, u1]
        pts[:, self.v_axis] = [v1, v1, v2, v2]
        return pts

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the 3-D bounding box ``(lo, hi)`` of the panel."""
        lo = np.empty(3)
        hi = np.empty(3)
        lo[self.normal_axis] = hi[self.normal_axis] = self.offset
        lo[self.u_axis], hi[self.u_axis] = self.u_range
        lo[self.v_axis], hi[self.v_axis] = self.v_range
        return lo, hi

    def point_at(self, u: float, v: float) -> np.ndarray:
        """Return the 3-D point at in-plane coordinates ``(u, v)``.

        ``u`` and ``v`` are absolute coordinates along the tangential axes,
        not normalised parameters.
        """
        p = np.empty(3)
        p[self.normal_axis] = self.offset
        p[self.u_axis] = u
        p[self.v_axis] = v
        return p

    # ------------------------------------------------------------------
    # Relations between panels
    # ------------------------------------------------------------------
    def is_parallel_to(self, other: "Panel") -> bool:
        """Whether two panels lie in parallel planes."""
        return self.normal_axis == other.normal_axis

    def is_coplanar_with(self, other: "Panel") -> bool:
        """Whether two panels lie in the same plane."""
        return self.is_parallel_to(other) and math.isclose(
            self.offset, other.offset, rel_tol=1e-12, abs_tol=0.0
        )

    def centroid_distance(self, other: "Panel") -> float:
        """Euclidean distance between the two panel centroids."""
        return _length(self.centroid - other.centroid)

    def separation(self, other: "Panel") -> float:
        """Minimum distance between the two panel bounding boxes.

        This is the conservative distance used by the approximation-distance
        policy of Section 4.1: zero when the panels touch or overlap.
        """
        lo_a, hi_a = self.bounds()
        lo_b, hi_b = other.bounds()
        gap = np.maximum(0.0, np.maximum(lo_a - hi_b, lo_b - hi_a))
        return _length(gap)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def subdivide(self, n_u: int, n_v: int) -> Iterator["Panel"]:
        """Yield an ``n_u x n_v`` uniform subdivision of the panel."""
        if n_u < 1 or n_v < 1:
            raise ValueError(f"subdivision counts must be >= 1, got ({n_u}, {n_v})")
        u1, u2 = self.u_range
        v1, v2 = self.v_range
        u_edges = np.linspace(u1, u2, n_u + 1)
        v_edges = np.linspace(v1, v2, n_v + 1)
        for i in range(n_u):
            for j in range(n_v):
                yield replace(
                    self,
                    u_range=(float(u_edges[i]), float(u_edges[i + 1])),
                    v_range=(float(v_edges[j]), float(v_edges[j + 1])),
                )

    def subdivide_to_size(self, max_edge: float) -> Iterator["Panel"]:
        """Yield a subdivision whose sub-panel edges do not exceed ``max_edge``."""
        if max_edge <= 0.0:
            raise ValueError(f"max_edge must be positive, got {max_edge}")
        n_u = max(1, int(math.ceil(self.u_span / max_edge)))
        n_v = max(1, int(math.ceil(self.v_span / max_edge)))
        yield from self.subdivide(n_u, n_v)

    def with_conductor(self, conductor: int) -> "Panel":
        """Return a copy of the panel attached to ``conductor``."""
        return replace(self, conductor=conductor)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        axis = "xyz"[self.normal_axis]
        return (
            f"Panel({axis}={self.offset:.3e}, "
            f"u=[{self.u_range[0]:.3e}, {self.u_range[1]:.3e}], "
            f"v=[{self.v_range[0]:.3e}, {self.v_range[1]:.3e}], "
            f"conductor={self.conductor})"
        )
