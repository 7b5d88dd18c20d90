"""The walk scene: conductor geometry in the array form the sampler needs.

A :class:`WalkScene` flattens a :class:`~repro.geometry.layout.Layout` into
plain NumPy arrays (box corners plus a box-to-conductor index) so that the
hot loop of the floating random walk — "distance from W walker positions to
the nearest conductor" — is one broadcasted ``min`` over boxes instead of a
Python loop over objects.  The scene also derives, per source conductor,
the *Gaussian surface* the walks launch from: every box of the conductor
inflated outward by a clearance ``delta`` chosen so the surface encloses
the source conductor and nothing else.

Everything here is picklable (arrays and floats only), because groups of
walk batches are fanned out to fork-pool workers that rebuild nothing: the
scene travels over the pipe once per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.layout import Layout

__all__ = ["GaussianSurface", "WalkScene", "build_scene"]


@dataclass(frozen=True)
class GaussianSurface:
    """The launch surface of one source conductor.

    The surface is the boundary of the union of the conductor's boxes, each
    inflated by ``delta``.  Sampling draws a candidate face by area and a
    uniform point on it; candidate points buried inside *another* inflated
    box of the same union contribute a zero-weight sample, which keeps the
    estimator an unbiased integral over the true union surface without ever
    computing that surface's area explicitly.

    Attributes
    ----------
    conductor:
        Index of the source conductor.
    delta:
        Outward clearance of the inflated boxes, in metres.
    face_axis, face_sign, face_offset:
        Normal axis (0/1/2), orientation (+-1) and plane coordinate of each
        candidate face.
    face_u_lo, face_u_hi, face_v_lo, face_v_hi:
        Tangential extents of each candidate face (axes ``(axis+1)%3`` and
        ``(axis+2)%3``).
    face_area:
        Area of each candidate face.
    total_area:
        Sum of the candidate face areas (the measure the estimator
        multiplies by; buried samples carry weight zero).
    inflated_lo, inflated_hi:
        Corners of the inflated boxes, for the buried-point rejection test.
    """

    conductor: int
    delta: float
    face_axis: np.ndarray
    face_sign: np.ndarray
    face_offset: np.ndarray
    face_u_lo: np.ndarray
    face_u_hi: np.ndarray
    face_v_lo: np.ndarray
    face_v_hi: np.ndarray
    face_area: np.ndarray
    total_area: float
    inflated_lo: np.ndarray
    inflated_hi: np.ndarray

    @property
    def num_faces(self) -> int:
        """Number of candidate faces."""
        return int(self.face_axis.shape[0])

    def sample(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``count`` start points on the candidate faces.

        Returns ``(points, normals, live)`` where ``points`` is ``(count, 3)``,
        ``normals`` the outward face normals and ``live`` the mask of points
        on the true union surface (``False`` marks points buried inside
        another inflated box; they must enter the estimator as zero-weight
        samples, not be resampled).
        """
        probabilities = self.face_area / self.total_area
        faces = rng.choice(self.num_faces, size=count, p=probabilities)
        u_frac = rng.random(count)
        v_frac = rng.random(count)
        axis = self.face_axis[faces]
        u_axis = (axis + 1) % 3
        v_axis = (axis + 2) % 3
        points = np.empty((count, 3))
        rows = np.arange(count)
        points[rows, axis] = self.face_offset[faces]
        points[rows, u_axis] = self.face_u_lo[faces] + u_frac * (
            self.face_u_hi[faces] - self.face_u_lo[faces]
        )
        points[rows, v_axis] = self.face_v_lo[faces] + v_frac * (
            self.face_v_hi[faces] - self.face_v_lo[faces]
        )
        normals = np.zeros((count, 3))
        normals[rows, axis] = self.face_sign[faces]

        # Buried-point test: strictly inside another inflated box of the
        # union (an interior tolerance keeps points of the face's own box
        # and of exactly flush neighbours on the surface).
        tol = 1e-9 * self.delta
        inside = np.logical_and(
            (points[:, None, :] > self.inflated_lo[None, :, :] + tol).all(axis=2),
            (points[:, None, :] < self.inflated_hi[None, :, :] - tol).all(axis=2),
        )
        live = ~inside.any(axis=1)
        return points, normals, live


@dataclass(frozen=True)
class WalkScene:
    """All conductors of a layout, flattened for vectorised walking.

    Attributes
    ----------
    box_lo, box_hi:
        ``(B, 3)`` corners of every conductor box.
    box_conductor:
        ``(B,)`` conductor index of each box.
    num_conductors:
        Number of conductors (the capacitance matrix dimension).
    permittivity:
        Dielectric permittivity of the medium, in F/m.
    center, radius:
        Centre and radius of the bounding sphere enclosing every conductor;
        outside it the walk uses the exact exterior-sphere transition
        (escape to infinity or Poisson-kernel re-entry).
    surfaces:
        One :class:`GaussianSurface` per conductor, in conductor order.
    capture:
        First-passage capture distance: a walker closer than this to a
        conductor terminates on it.
    """

    box_lo: np.ndarray
    box_hi: np.ndarray
    box_conductor: np.ndarray
    num_conductors: int
    permittivity: float
    center: np.ndarray
    radius: float
    surfaces: tuple[GaussianSurface, ...]
    capture: float

    def distance(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each point to the nearest conductor.

        Returns ``(distance, conductor)`` arrays of shape ``(W,)``: the
        Euclidean distance to the closest conductor box and the conductor
        index that box belongs to.
        """
        gap = self.box_lo[None, :, :] - points[:, None, :]
        np.maximum(gap, points[:, None, :] - self.box_hi[None, :, :], out=gap)
        np.maximum(gap, 0.0, out=gap)
        per_box = np.sqrt(np.einsum("wbk,wbk->wb", gap, gap))
        nearest_box = np.argmin(per_box, axis=1)
        rows = np.arange(points.shape[0])
        return per_box[rows, nearest_box], self.box_conductor[nearest_box]


def _min_gap_to_others(layout: Layout, conductor: int) -> float:
    """Smallest box-to-box distance from one conductor to all others."""
    gap = np.inf
    for other_index, other in enumerate(layout.conductors):
        if other_index == conductor:
            continue
        for box_a in layout.conductors[conductor].boxes:
            for box_b in other.boxes:
                gap = min(gap, box_a.distance_to(box_b))
    return float(gap)


def _build_surface(layout: Layout, conductor: int, delta_fraction: float) -> GaussianSurface:
    """Derive the Gaussian surface of one conductor.

    The clearance ``delta`` is ``delta_fraction`` of the smaller of (a) the
    gap to the nearest other conductor and (b) the conductor's thinnest box
    edge — large enough that the first hop has room, small enough that the
    surface hugs the conductor and never swallows a neighbour.
    """
    boxes = layout.conductors[conductor].boxes
    min_edge = min(float(np.min(box.size)) for box in boxes)
    gap = _min_gap_to_others(layout, conductor)
    if gap <= 0.0:
        raise ValueError(
            f"conductor {layout.conductors[conductor].name!r} touches another "
            "conductor; the floating random walk needs a positive clearance "
            "to build its Gaussian surface"
        )
    delta = delta_fraction * min(gap, min_edge)

    axes, signs, offsets = [], [], []
    u_los, u_his, v_los, v_his, areas = [], [], [], [], []
    inflated_lo = np.empty((len(boxes), 3))
    inflated_hi = np.empty((len(boxes), 3))
    for b, box in enumerate(boxes):
        lo = np.asarray(box.lo) - delta
        hi = np.asarray(box.hi) + delta
        inflated_lo[b] = lo
        inflated_hi[b] = hi
        for axis in range(3):
            u_axis = (axis + 1) % 3
            v_axis = (axis + 2) % 3
            area = (hi[u_axis] - lo[u_axis]) * (hi[v_axis] - lo[v_axis])
            for sign, offset in ((-1.0, lo[axis]), (+1.0, hi[axis])):
                axes.append(axis)
                signs.append(sign)
                offsets.append(offset)
                u_los.append(lo[u_axis])
                u_his.append(hi[u_axis])
                v_los.append(lo[v_axis])
                v_his.append(hi[v_axis])
                areas.append(area)
    face_area = np.asarray(areas)
    return GaussianSurface(
        conductor=conductor,
        delta=float(delta),
        face_axis=np.asarray(axes, dtype=np.int64),
        face_sign=np.asarray(signs),
        face_offset=np.asarray(offsets),
        face_u_lo=np.asarray(u_los),
        face_u_hi=np.asarray(u_his),
        face_v_lo=np.asarray(v_los),
        face_v_hi=np.asarray(v_his),
        face_area=face_area,
        total_area=float(face_area.sum()),
        inflated_lo=inflated_lo,
        inflated_hi=inflated_hi,
    )


def build_scene(
    layout: Layout,
    delta_fraction: float = 0.4,
    capture_fraction: float = 0.01,
) -> WalkScene:
    """Flatten a layout into a :class:`WalkScene`.

    Parameters
    ----------
    layout:
        The structure to extract.
    delta_fraction:
        Gaussian-surface clearance as a fraction of the smaller of the
        conductor's thinnest edge and its gap to the nearest neighbour
        (must sit in ``(0, 0.5)`` so the surface never reaches a
        neighbour).
    capture_fraction:
        First-passage capture distance as a fraction of the thinnest box
        edge in the layout; the capture shell is the method's only source
        of systematic bias and shrinks linearly with this knob.
    """
    if not 0.0 < delta_fraction < 0.5:
        raise ValueError(f"delta_fraction must be in (0, 0.5), got {delta_fraction}")
    if not 0.0 < capture_fraction < 0.5:
        raise ValueError(f"capture_fraction must be in (0, 0.5), got {capture_fraction}")
    box_lo, box_hi, box_conductor = [], [], []
    for index, conductor in enumerate(layout.conductors):
        for box in conductor.boxes:
            box_lo.append(box.lo)
            box_hi.append(box.hi)
            box_conductor.append(index)
    lo = np.asarray(box_lo)
    hi = np.asarray(box_hi)
    center = 0.5 * (lo.min(axis=0) + hi.max(axis=0))
    # Each box's farthest point from the centre is a *mixed* corner (the
    # per-axis max of |lo - c| and |hi - c|), not necessarily the pure
    # lo/hi corner.  The bounding sphere must contain every inflated
    # Gaussian surface too; a 5 % margin over the farthest corner covers
    # the clearances.
    radius = 1.05 * float(
        np.max(
            np.linalg.norm(np.maximum(np.abs(lo - center), np.abs(hi - center)), axis=1)
        )
    )
    min_edge = float(np.min(hi - lo))
    surfaces = tuple(
        _build_surface(layout, index, delta_fraction)
        for index in range(layout.num_conductors)
    )
    return WalkScene(
        box_lo=lo,
        box_hi=hi,
        box_conductor=np.asarray(box_conductor, dtype=np.int64),
        num_conductors=layout.num_conductors,
        permittivity=layout.permittivity,
        center=center,
        radius=radius,
        surfaces=surfaces,
        capture=capture_fraction * min_edge,
    )
