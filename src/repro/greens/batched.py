"""Batched panel-integral kernel core shared by every assembly path.

This module is the vectorised heart of the system-setup step: it evaluates
Galerkin template-pair integrals over *arrays* of pairs at once, replacing
the per-pair pure-Python loop that dominated setup time.  One
:class:`BatchedKernelCore` instance serves all six engine backends: the
dense assemblers (:class:`~repro.assembly.batch.BatchGalerkinAssembler` and
the shared/distributed flows built on it), the PWC substrate, and the
hierarchical compression's entry oracle
(:class:`~repro.compress.entries.GalerkinEntries`).

A few templates are instantiated over and over across a regular layout and
the ``1/r`` kernel depends only on relative geometry, so most requested
pairs repeat an integral already requested.  :meth:`evaluate_pairs`
therefore runs four steps:

1. **Classify** every pair on its exact geometry, with the decisions of
   :class:`~repro.greens.galerkin.GalerkinIntegrator`: the evaluation
   category (below), the near/far quadrature order and which panel is the
   smaller one.
2. **Key** every pair by exact integers: the shape classes of its two
   templates (normal axis, extents and arch parameters relative to the
   panel's ``lo`` corner), the displacement ``lo_j - lo_i`` snapped to a
   quantum of ``1e-12`` times the smallest in-plane panel extent, and the
   decision bits of step 1.
3. **Evaluate each distinct key once** in a canonical frame: the class of
   template ``i`` at the origin, the class of template ``j`` at the snapped
   displacement, with the decisions read from the key.
4. **Scatter** the distinct values back to the requested pairs.

The decisions are taken before deduplication and travel in the key; the
canonical frame never recomputes them.  On regular layouts many pairs sit
exactly on a threshold up to the last bit (box separation equal to the
quadrature-order scale, say), and two pairs with the same relative geometry
can fall on opposite sides of it; evaluating one with the other's decision
would move its value by several percent.  Because a value is a pure
function of its key, it is bit-identical whichever batch, partition, node
count or executor requests it.  Templates whose profile is not a stock arch
are never merged: their non-point pairs run per pair on the reference
integrator in the absolute frame.  Nor are pairs of two parallel arches
whose supports overlap in-plane: field points can fall on the log-singular
line of the strip integral, where the value depends on the last bits of
the coordinates, so such a pair is keyed by its template indices and
evaluated on its own coordinates.

Evaluation categories (identical decisions to
:class:`~repro.greens.galerkin.GalerkinIntegrator`, values to round-off):

* ``point``        -- monopole reduction of far pairs (moments / distance);
* ``collocation``  -- midpoint-rule reduction (smaller panel collapsed);
* ``parallel``     -- exact 16-corner closed form for parallel flat panels;
* ``orthogonal``   -- tensor-Gauss outer quadrature over the inner closed
  form for orthogonal flat panels;
* ``profiled``     -- pairs involving arch templates, evaluated by batched
  tensor-Gauss quadrature with vectorised arch-profile weights (and the
  analytic strip integral when *both* templates carry a profile).  Only
  templates with profiles outside the stock
  :class:`~repro.basis.templates.BoundArchProfile` family fall back to the
  per-pair reference integrator.

Near and singular pairs always use the exact closed forms
(:func:`~repro.greens.indefinite.indefinite_integral` and
:func:`~repro.greens.collocation.collocation_from_deltas`); only a caller's
``collocation_fn`` -- one of the Section 4.2 acceleration techniques --
replaces the definite rectangle-potential evaluations.

Agreement with the entry-wise ``template_pair`` reference is asserted to
1e-10 by the hypothesis property suite in
``tests/greens/test_batched_property.py``; the deduplication itself by
``tests/greens/test_pair_dedup.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.basis.templates import BoundArchProfile, TemplateInstance

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.assembly
    from repro.assembly.mapping import TemplateArrays
from repro.greens.galerkin import GalerkinIntegrator
from repro.greens.policy import ApproximationPolicy
from repro.greens.quadrature import gauss_legendre
from repro.greens.collocation import collocation_from_deltas, strip_integral
from repro.greens.indefinite import indefinite_integral

__all__ = ["ArchProfileArrays", "BatchedKernelCore", "CATEGORIES"]

#: Temporary-array budget (in doubles) of one quadrature chunk.  Sized so
#: the handful of (pairs, order^2)-shaped temporaries of a chunk stay within
#: the L2 cache: the closed forms are memory-bandwidth bound, and evaluating
#: them over cache-resident slices is measurably faster than one huge sweep
#: (it also bounds the peak memory of the (pairs, order^2, order) strip
#: tensors of the doubly-profiled path).
_CHUNK_DOUBLES = 262_144

#: Evaluation categories, in the order of the category codes.
CATEGORIES = ("point", "collocation", "parallel", "orthogonal", "profiled")
#: Category codes; ``_FALLBACK`` marks pairs that need a non-stock profile
#: (evaluated per pair, never merged, counted as ``"profiled"``).
_POINT, _COLLOCATION, _PARALLEL, _ORTHOGONAL, _PROFILED, _FALLBACK = range(6)

#: Decision bits of a pair code ``category << _CODE_SHIFT | bits``: outer
#: quadrature at ``order_near`` (orthogonal, profiled); template ``i`` the
#: smaller panel (collocation, orthogonal); and exact geometry (profiled
#: pairs of two arches whose supports overlap in-plane: field points can
#: fall on the log-singular line of the strip integral, where the value
#: depends on the last bits of the coordinates, so such a pair is keyed by
#: its template indices and evaluated on its own coordinates).
_NEAR = 1
_SMALLER_I = 2
_EXACT = 4
_CODE_SHIFT = 3

#: Snapping quantum of the key, relative to the smallest in-plane panel
#: extent.  Generator coordinates carry ulp noise that splits exact float
#: keys; the distinct-key count is flat for quanta from 1e-14 to 1e-8.
_KEY_QUANTUM = 1e-12

#: Distinct keys whose canonical frame is built and evaluated at once.
_KEY_CHUNK = 16_384

#: Bound of the mixed-radix row packing of :func:`_distinct_rows`.
_PACK_LIMIT = 1 << 62


def _count(counts: dict[str, int], category: str, amount: int) -> None:
    """Accumulate the pair count of one evaluation category."""
    if amount:
        counts[category] = counts.get(category, 0) + int(amount)


@dataclass
class ArchProfileArrays:
    """Structure-of-arrays view of the arch profiles of a template list.

    Attributes
    ----------
    is_arch:
        Whether the template carries a stock
        :class:`~repro.basis.templates.BoundArchProfile` (templates with
        other :class:`~repro.greens.galerkin.ShapeProfile` implementations
        keep the per-pair fallback).
    axis:
        Global coordinate axis (0/1/2) the profile varies along; 0 for flat
        templates (never read for them).
    edge, ingrowing, extension, sign:
        The :class:`~repro.basis.templates.ArchProfile` parameters.
    """

    is_arch: np.ndarray
    axis: np.ndarray
    edge: np.ndarray
    ingrowing: np.ndarray
    extension: np.ndarray
    sign: np.ndarray

    @classmethod
    def from_templates(
        cls,
        templates: Sequence[TemplateInstance],
        u_axis: np.ndarray,
        v_axis: np.ndarray,
    ) -> "ArchProfileArrays":
        """Extract the arch parameters of every template.

        ``u_axis`` / ``v_axis`` are the per-template global tangential axis
        indices (from :meth:`TemplateArrays.tangential_axes`), used to map
        the profile's panel-local ``"u"``/``"v"`` axis onto a coordinate.
        """
        count = len(templates)
        is_arch = np.zeros(count, dtype=bool)
        axis = np.zeros(count, dtype=np.intp)
        edge = np.zeros(count)
        ingrowing = np.ones(count)
        extension = np.ones(count)
        sign = np.ones(count)
        for t, template in enumerate(templates):
            profile = template.profile
            if profile is None or not isinstance(profile, BoundArchProfile):
                continue
            arch = profile.arch
            is_arch[t] = True
            axis[t] = u_axis[t] if arch.axis == "u" else v_axis[t]
            edge[t] = arch.edge
            ingrowing[t] = arch.ingrowing_length
            extension[t] = arch.extension_length
            sign[t] = float(arch.inward_sign)
        return cls(
            is_arch=is_arch,
            axis=axis,
            edge=edge,
            ingrowing=ingrowing,
            extension=extension,
            sign=sign,
        )

    def values(self, t: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Vectorised arch evaluation ``A_{t[p]}(coords[p, ...])``.

        ``t`` selects one template per leading row of ``coords``; trailing
        dimensions of ``coords`` are the evaluation points.  Reproduces
        :meth:`repro.basis.templates.ArchProfile.__call__` arithmetic
        exactly.
        """
        expand = (slice(None),) + (None,) * (coords.ndim - 1)
        offset = (coords - self.edge[t][expand]) * self.sign[t][expand]
        inside = np.exp(-offset / self.ingrowing[t][expand])
        outside = np.exp(offset / self.extension[t][expand])
        return np.where(offset >= 0.0, inside, outside)


@dataclass
class _Frame:
    """Panel geometry the category kernels read, one row per panel.

    The kernels evaluate pairs of rows of one frame: the canonical frame of
    the distinct keys of a call (see :meth:`BatchedKernelCore._canonical_frame`).
    """

    normal_axis: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    offset: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    centroid: np.ndarray
    area: np.ndarray
    moment: np.ndarray
    has_profile: np.ndarray
    profiles: ArchProfileArrays


def _distinct_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Exact grouping of the rows of equal-length integer columns.

    Returns ``(first, inverse)``: the index of the first row of every
    distinct row, and for every row the number of its distinct row.  The
    columns are packed into a single int64 per row by mixed radix, each
    shifted to start at zero and divided by the gcd of its values (snapped
    displacements on a layout grid share a large one).  A column whose
    range would still overflow the packing is first replaced by its dense
    ranks (and, if needed, so is the packed prefix), so the grouping is
    exact for any values.
    """
    key = np.zeros(columns[0].size, dtype=np.int64)
    bound = 1
    for column in columns:
        column = column - column.min()
        step = int(np.gcd.reduce(column))
        if step > 1:
            column //= step
        span = int(column.max()) + 1
        if bound * span > _PACK_LIMIT:
            _, column = np.unique(column, return_inverse=True)
            span = int(column.max()) + 1
        if bound * span > _PACK_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * span + column
        bound *= span
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


class BatchedKernelCore:
    """Vectorised Galerkin template-pair kernel over template arrays.

    Parameters
    ----------
    arrays:
        Flattened template geometry (:class:`TemplateArrays`).
    permittivity:
        Absolute permittivity of the uniform medium.
    policy:
        Approximation-distance policy; defaults to the paper's 1 %.
    collocation_fn:
        Override of the definite rectangle-potential evaluator (the
        Section 4.2 acceleration techniques plug in here).
    order_near, order_far:
        Gauss-Legendre orders for nearby / well-separated outer quadratures.
    """

    def __init__(
        self,
        arrays: TemplateArrays,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
        collocation_fn: Callable | None = None,
        order_near: int = 6,
        order_far: int = 3,
    ):
        if permittivity <= 0.0:
            raise ValueError(f"permittivity must be positive, got {permittivity}")
        if order_near < 1 or order_far < 1:
            raise ValueError("quadrature orders must be >= 1")
        self.arrays = arrays
        self.permittivity = float(permittivity)
        self.policy = policy if policy is not None else ApproximationPolicy()
        self.order_near = int(order_near)
        self.order_far = int(order_far)
        self.collocation_fn = (
            collocation_fn if collocation_fn is not None else collocation_from_deltas
        )

        u_axis, v_axis = arrays.tangential_axes()
        self._u_axis = u_axis
        self._v_axis = v_axis
        self.profiles = ArchProfileArrays.from_templates(arrays.templates, u_axis, v_axis)
        self._build_key_tables()
        # The per-pair reference integrator backs templates whose profile is
        # not a stock arch (the ShapeProfile protocol admits arbitrary
        # shapes); it shares every numerical choice with the batched paths.
        self.integrator = GalerkinIntegrator(
            permittivity,
            policy=self.policy,
            collocation_fn=self.collocation_fn,
            order_near=order_near,
            order_far=order_far,
        )

    def _build_key_tables(self) -> None:
        """Per-template shape classes, built once and only read afterwards.

        Templates fall into shape classes by their normal axis, their
        extents and arch parameters relative to ``lo`` (snapped to whole
        quanta) and their profile kind; one representative per class
        supplies the canonical extents, area, moment and arch parameters.
        Both tables are O(M), so concurrent calls from a thread executor
        share them safely.
        """
        arrays = self.arrays
        profiles = self.profiles
        count = arrays.num_templates
        rows = np.arange(count)
        arch = profiles.is_arch
        extent = arrays.hi - arrays.lo
        edge = np.where(arch, profiles.edge - arrays.lo[rows, profiles.axis], 0.0)
        ingrowing = np.where(arch, profiles.ingrowing, 0.0)
        extension = np.where(arch, profiles.extension, 0.0)

        quantum = 1.0
        if count:
            smallest = min(extent[rows, self._u_axis].min(), extent[rows, self._v_axis].min())
            largest = max(
                np.abs(arrays.lo).max(),
                np.abs(arrays.hi).max(),
                np.abs(edge).max(),
                ingrowing.max(),
                extension.max(),
            )
            # A power of ten puts the decimal coordinates of drawn layouts
            # on whole quanta, away from the rounding boundaries where ulp
            # noise decides the snapped value; the floor keeps every snapped
            # length and displacement inside int64.
            quantum = 10.0 ** max(
                math.floor(math.log10(_KEY_QUANTUM * smallest)),
                math.ceil(math.log10(largest * 2.0**-60)) if largest > 0.0 else -300,
            )
        self.quantum = float(quantum)

        # A non-stock profile gets a class of its own (its row number), so
        # such templates are never merged with anything.
        unmergeable = arrays.has_profile & ~arch
        features = np.column_stack(
            [
                arrays.normal_axis,
                self._snap(extent),
                arch,
                np.where(arch, profiles.axis, 0),
                self._snap(edge),
                self._snap(ingrowing),
                self._snap(extension),
                np.where(arch, profiles.sign, 0.0).astype(np.int64),
                np.where(unmergeable, rows, -1),
            ]
        )
        _, representative, shape_class = np.unique(
            features, axis=0, return_index=True, return_inverse=True
        )
        self._shape_class = shape_class.ravel().astype(np.int64)
        self._shape_template = representative.astype(np.int64)

    def _snap(self, lengths: np.ndarray) -> np.ndarray:
        """Lengths in whole quanta (int64)."""
        return np.rint(lengths / self.quantum).astype(np.int64)

    def _displacement(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Snapped displacement ``lo_j - lo_i`` of every pair, shape ``(n, 3)``."""
        return self._snap(self.arrays.lo[j] - self.arrays.lo[i])

    # ------------------------------------------------------------------
    @property
    def prefactor(self) -> float:
        """The ``1 / (4 pi eps)`` kernel prefactor."""
        return 1.0 / (4.0 * math.pi * self.permittivity)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def evaluate_pairs(
        self,
        i: np.ndarray,
        j: np.ndarray,
        counts: dict[str, int] | None = None,
        evaluated: dict[str, int] | None = None,
    ) -> np.ndarray:
        """Galerkin integrals (prefactor included) of template pairs ``(i[p], j[p])``.

        The pairs may come from anywhere in the iteration space — the dense
        assemblers pass triangular chunks, the compression oracle scattered
        rows/columns.  Values match per-pair
        :meth:`~repro.greens.galerkin.GalerkinIntegrator.template_pair`
        calls to round-off (asserted at 1e-10 by the property suite), and
        each is a pure function of its pair's key (see the module docstring).

        ``counts`` accumulates the *requested* pairs per evaluation
        category, ``evaluated`` the integrals actually evaluated (one per
        distinct key, plus every per-pair fallback).
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        values = np.empty(i.size)
        if i.size == 0:
            return values

        code = self._classify(i, j)
        category = code >> _CODE_SHIFT
        requested = np.bincount(category, minlength=_FALLBACK + 1)
        fallback = np.flatnonzero(category == _FALLBACK)
        keyed: slice | np.ndarray = slice(None)
        if fallback.size:
            # The reference integrator includes the prefactor already.
            values[fallback] = self._profiled_fallback(i[fallback], j[fallback])
            keyed = np.flatnonzero(category != _FALLBACK)
            i, j, code = i[keyed], j[keyed], code[keyed]
        del category

        distinct = np.zeros(_FALLBACK, dtype=np.int64)
        if code.size:
            # Exact-geometry pairs stand in for themselves: template indices
            # past the class numbers replace their shape classes.
            exact = (code & _EXACT).astype(bool)
            first, inverse = _distinct_rows(
                [
                    np.where(exact, self._shape_template.size + i, self._shape_class[i]),
                    np.where(exact, self._shape_template.size + j, self._shape_class[j]),
                    code,
                    *self._displacement(i, j).T,
                ]
            )
            del exact
            i, j, code = i[first], j[first], code[first]
            del first
            distinct_values = self._evaluate_distinct(i, j, code)
            distinct = np.bincount(code >> _CODE_SHIFT, minlength=_FALLBACK)
            values[keyed] = distinct_values[inverse]

        for target, amounts in ((counts, requested), (evaluated, distinct)):
            if target is None:
                continue
            for index, category_name in enumerate(CATEGORIES):
                _count(target, category_name, int(amounts[index]))
            _count(target, "profiled", int(fallback.size))
        return values

    # ------------------------------------------------------------------
    # Classification and keying
    # ------------------------------------------------------------------
    def _classify(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Category and decision bits of every pair, on its exact geometry.

        Returns ``code = category << _CODE_SHIFT | bits`` (int64).  Only the
        bits a category reads are set, so pairs that evaluate alike share a
        code.
        """
        arrays = self.arrays
        distance = np.linalg.norm(arrays.centroid[i] - arrays.centroid[j], axis=1)
        diagonal_i = arrays.diagonal[i]
        diagonal_j = arrays.diagonal[j]
        rho_max = 0.5 * np.maximum(diagonal_i, diagonal_j)
        rho_min = 0.5 * np.minimum(diagonal_i, diagonal_j)
        is_point = distance >= self.policy.point_distance_factor * rho_max
        is_colloc = distance >= self.policy.collocation_distance_factor * rho_min
        del distance, rho_max, rho_min

        profiled_i = arrays.has_profile[i]
        profiled_j = arrays.has_profile[j]
        # Pairs whose every profiled member is a stock arch run batched;
        # anything else (custom ShapeProfile implementations) falls back.
        arch_ok = (~profiled_i | self.profiles.is_arch[i]) & (
            ~profiled_j | self.profiles.is_arch[j]
        )
        category = np.where(
            profiled_i | profiled_j,
            np.where(arch_ok, _PROFILED, _FALLBACK),
            np.where(
                is_colloc,
                _COLLOCATION,
                np.where(arrays.normal_axis[i] == arrays.normal_axis[j], _PARALLEL, _ORTHOGONAL),
            ),
        )
        category[is_point] = _POINT

        # Outer quadrature order (GalerkinIntegrator._quadrature_order).
        gap = np.maximum(
            0.0, np.maximum(arrays.lo[i] - arrays.hi[j], arrays.lo[j] - arrays.hi[i])
        )
        near = np.linalg.norm(gap, axis=1) < np.maximum(diagonal_i, diagonal_j)
        rows = np.arange(i.size)
        exact = (
            (category == _PROFILED)
            & self.profiles.is_arch[i]
            & self.profiles.is_arch[j]
            & (arrays.normal_axis[i] == arrays.normal_axis[j])
            & (gap[rows, self._u_axis[i]] == 0.0)
            & (gap[rows, self._v_axis[i]] == 0.0)
        )
        del gap, rows
        # The smaller panel carries the outer quadrature / the midpoint.
        smaller_i = diagonal_i <= diagonal_j
        reads_order = (category == _ORTHOGONAL) | (category == _PROFILED)
        reads_size = (category == _ORTHOGONAL) | (category == _COLLOCATION)
        return (
            (category << _CODE_SHIFT)
            + _NEAR * (near & reads_order)
            + _SMALLER_I * (smaller_i & reads_size)
            + _EXACT * exact
        ).astype(np.int64)

    def _canonical_frame(self, i: np.ndarray, j: np.ndarray, exact: np.ndarray) -> _Frame:
        """Canonical geometry of the keys of pairs ``(i[k], j[k])``.

        Row ``k`` is the shape class of ``i[k]`` with its ``lo`` corner at
        the origin, row ``K + k`` the class of ``j[k]`` at the snapped
        displacement; extents, area, moment and arch parameters are those
        of the class representatives, so the frame is a pure function of
        the key.  Rows of ``exact`` keys, which stand for their own
        template pair, keep the templates' own coordinates.
        """
        arrays = self.arrays
        profiles = self.profiles
        size = i.size
        pair = np.concatenate([i, j])
        own = np.concatenate([exact, exact])
        template = np.where(own, pair, self._shape_template[self._shape_class[pair]])
        lo = np.zeros((2 * size, 3))
        lo[size:] = self._displacement(i, j) * self.quantum
        hi = lo + (arrays.hi[template] - arrays.lo[template])
        lo = np.where(own[:, None], arrays.lo[pair], lo)
        hi = np.where(own[:, None], arrays.hi[pair], hi)
        rows = np.arange(2 * size)
        normal_axis = arrays.normal_axis[pair]
        axis = profiles.axis[pair]
        return _Frame(
            normal_axis=normal_axis,
            u_axis=self._u_axis[pair],
            v_axis=self._v_axis[pair],
            offset=lo[rows, normal_axis],
            lo=lo,
            hi=hi,
            centroid=0.5 * (lo + hi),
            area=arrays.area[template],
            moment=arrays.moment[template],
            has_profile=arrays.has_profile[pair],
            profiles=ArchProfileArrays(
                is_arch=profiles.is_arch[pair],
                axis=axis,
                edge=np.where(
                    own,
                    profiles.edge[pair],
                    lo[rows, axis] + (profiles.edge[template] - arrays.lo[template, axis]),
                ),
                ingrowing=profiles.ingrowing[template],
                extension=profiles.extension[template],
                sign=profiles.sign[pair],
            ),
        )

    def _evaluate_distinct(self, i: np.ndarray, j: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Values of distinct keys (one pair per key) in the canonical frame.

        Keys are evaluated in slices of :data:`_KEY_CHUNK`, which bounds the
        memory of their frames; every value depends on its own key only.
        """
        values = np.empty(i.size)
        for start in range(0, i.size, _KEY_CHUNK):
            part = slice(start, start + _KEY_CHUNK)
            values[part] = self._evaluate_keys(i[part], j[part], code[part])
        return values * self.prefactor

    def _evaluate_keys(self, i: np.ndarray, j: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Category kernels over one slice of distinct keys."""
        frame = self._canonical_frame(i, j, (code & _EXACT).astype(bool))
        size = i.size
        a = np.arange(size)
        b = a + size
        category = code >> _CODE_SHIFT
        near = (code & _NEAR).astype(bool)
        smaller_a = (code & _SMALLER_I).astype(bool)
        values = np.empty(size)

        mask = category == _POINT
        if np.any(mask):
            distance = np.linalg.norm(frame.centroid[a[mask]] - frame.centroid[b[mask]], axis=1)
            values[mask] = frame.moment[a[mask]] * frame.moment[b[mask]] / distance
        mask = category == _COLLOCATION
        if np.any(mask):
            values[mask] = self._collocation_level(frame, a[mask], b[mask], smaller_a[mask])
        mask = category == _PARALLEL
        if np.any(mask):
            values[mask] = self._parallel_exact(frame, a[mask], b[mask])
        mask = category == _ORTHOGONAL
        if np.any(mask):
            values[mask] = self._orthogonal_exact(
                frame, a[mask], b[mask], smaller_a[mask], near[mask]
            )
        mask = category == _PROFILED
        if np.any(mask):
            values[mask] = self._profiled_batch(frame, a[mask], b[mask], near[mask])
        return values

    # ------------------------------------------------------------------
    # Shared geometric helpers
    # ------------------------------------------------------------------
    def _interval_nodes(
        self, lo: np.ndarray, hi: np.ndarray, order: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair Gauss-Legendre nodes/weights mapped onto ``[lo, hi]``.

        Reproduces :func:`gauss_legendre_interval` arithmetic per row.
        """
        ref_nodes, ref_weights = gauss_legendre(order)
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes = mid[:, None] + half[:, None] * ref_nodes[None, :]
        weights = half[:, None] * ref_weights[None, :]
        return nodes, weights

    def _tensor_points(
        self, g: _Frame, t: np.ndarray, order: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tensor-Gauss 3-D points and weights over panels ``t``.

        Returns ``(points, weights, uu, vv)`` with ``points`` of shape
        ``(len(t), order**2, 3)`` and the flattened in-plane node
        coordinate grids (u varying slowest, matching the per-pair
        ``meshgrid(indexing="ij")`` layout).
        """
        u_ax = g.u_axis[t]
        v_ax = g.v_axis[t]
        nodes_u, w_u = self._interval_nodes(g.lo[t, u_ax], g.hi[t, u_ax], order)
        nodes_v, w_v = self._interval_nodes(g.lo[t, v_ax], g.hi[t, v_ax], order)
        count = t.size
        uu = np.broadcast_to(nodes_u[:, :, None], (count, order, order)).reshape(count, -1)
        vv = np.broadcast_to(nodes_v[:, None, :], (count, order, order)).reshape(count, -1)
        weights = (w_u[:, :, None] * w_v[:, None, :]).reshape(count, -1)

        one_u = (np.arange(3)[None, :] == u_ax[:, None]).astype(float)
        one_v = (np.arange(3)[None, :] == v_ax[:, None]).astype(float)
        one_n = (np.arange(3)[None, :] == g.normal_axis[t][:, None]).astype(float)
        points = (
            uu[:, :, None] * one_u[:, None, :]
            + vv[:, :, None] * one_v[:, None, :]
            + g.offset[t][:, None, None] * one_n[:, None, :]
        )
        return points, weights, uu, vv

    def _coordinate(self, points: np.ndarray, axis: np.ndarray) -> np.ndarray:
        """Gather ``points[p, :, axis[p]]`` for per-row axis selections."""
        return np.take_along_axis(points, axis[:, None, None], axis=2)[:, :, 0]

    def _panel_potential(self, g: _Frame, t: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Rectangle potential of panels ``t`` at per-pair field points."""
        u_ax = g.u_axis[t]
        v_ax = g.v_axis[t]
        x = self._coordinate(points, u_ax)
        y = self._coordinate(points, v_ax)
        z = self._coordinate(points, g.normal_axis[t]) - g.offset[t][:, None]
        return self.collocation_fn(
            x - g.lo[t, u_ax][:, None],
            x - g.hi[t, u_ax][:, None],
            y - g.lo[t, v_ax][:, None],
            y - g.hi[t, v_ax][:, None],
            z,
        )

    # ------------------------------------------------------------------
    # Flat-pair categories
    # ------------------------------------------------------------------
    def _collocation_level(
        self, g: _Frame, i: np.ndarray, j: np.ndarray, smaller_is_i: np.ndarray
    ) -> np.ndarray:
        """Midpoint-rule reduction: the smaller panel collapses to its centroid."""
        small = np.where(smaller_is_i, i, j)
        large = np.where(smaller_is_i, j, i)

        centroid = g.centroid[small]
        u_ax = g.u_axis[large]
        v_ax = g.v_axis[large]
        normal = g.normal_axis[large]
        rows = np.arange(small.size)

        x = centroid[rows, u_ax]
        y = centroid[rows, v_ax]
        z = centroid[rows, normal] - g.offset[large]
        potential = self.collocation_fn(
            x - g.lo[large, u_ax],
            x - g.hi[large, u_ax],
            y - g.lo[large, v_ax],
            y - g.hi[large, v_ax],
            z,
        )
        return g.area[small] * potential

    def _parallel_exact(self, g: _Frame, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Exact 16-corner closed form for parallel flat panels."""
        u_ax = g.u_axis[i]
        v_ax = g.v_axis[i]

        ui = (g.lo[i, u_ax], g.hi[i, u_ax])
        uj = (g.lo[j, u_ax], g.hi[j, u_ax])
        vi = (g.lo[i, v_ax], g.hi[i, v_ax])
        vj = (g.lo[j, v_ax], g.hi[j, v_ax])
        separation = g.offset[i] - g.offset[j]

        total = np.zeros(i.size)
        for p in range(2):
            for q in range(2):
                for s in range(2):
                    for t in range(2):
                        sign = (-1) ** (p + q + s + t)
                        total += sign * indefinite_integral(
                            ui[p] - uj[q], vi[s] - vj[t], separation
                        )
        return total

    def _orthogonal_exact(
        self,
        g: _Frame,
        i: np.ndarray,
        j: np.ndarray,
        smaller_is_i: np.ndarray,
        near: np.ndarray,
    ) -> np.ndarray:
        """Outer tensor-Gauss quadrature over the exact collocation potential."""
        values = np.empty(i.size)
        # The smaller panel carries the outer quadrature.
        small = np.where(smaller_is_i, i, j)
        large = np.where(smaller_is_i, j, i)
        for order, mask in ((self.order_near, near), (self.order_far, ~near)):
            if np.any(mask):
                values[mask] = self._orthogonal_quadrature(g, small[mask], large[mask], order)
        return values

    def _orthogonal_quadrature(
        self, g: _Frame, small: np.ndarray, large: np.ndarray, order: int
    ) -> np.ndarray:
        """Tensor Gauss quadrature over ``small`` of the potential of ``large``."""
        chunk = max(1, _CHUNK_DOUBLES // (order * order))
        values = np.empty(small.size)
        for start in range(0, small.size, chunk):
            stop = min(start + chunk, small.size)
            points, weights, _, _ = self._tensor_points(g, small[start:stop], order)
            potentials = self._panel_potential(g, large[start:stop], points)
            values[start:stop] = np.sum(weights * potentials, axis=1)
        return values

    # ------------------------------------------------------------------
    # Profiled (arch-template) pairs
    # ------------------------------------------------------------------
    def _profiled_batch(
        self, g: _Frame, i: np.ndarray, j: np.ndarray, near: np.ndarray
    ) -> np.ndarray:
        """Batched tensor-Gauss evaluation of arch-template pairs.

        Mirrors :meth:`GalerkinIntegrator._profiled_pair`: the template
        carrying a profile hosts the outer quadrature (the first operand
        when both do), weighted by its arch values; the other template
        contributes either the closed-form rectangle potential (flat) or
        the strip-integral quadrature (arch).
        """
        # Orient so "outer" always carries a profile, like the reference's
        # operand swap.
        outer_is_i = g.has_profile[i]
        outer = np.where(outer_is_i, i, j)
        inner = np.where(outer_is_i, j, i)

        both = g.has_profile[inner]
        values = np.empty(i.size)
        for order, order_mask in ((self.order_near, near), (self.order_far, ~near)):
            for shaped_inner in (False, True):
                mask = order_mask & (both == shaped_inner)
                if not np.any(mask):
                    continue
                values[mask] = self._profiled_group(
                    g, outer[mask], inner[mask], order, shaped_inner
                )
        return values

    def _profiled_group(
        self, g: _Frame, outer: np.ndarray, inner: np.ndarray, order: int, shaped_inner: bool
    ) -> np.ndarray:
        """One (order, inner-kind) group, chunked to bound temporary memory."""
        per_pair = order * order * (order if shaped_inner else 1)
        chunk = max(1, _CHUNK_DOUBLES // max(per_pair, 1))
        values = np.empty(outer.size)
        for start in range(0, outer.size, chunk):
            stop = min(start + chunk, outer.size)
            values[start:stop] = self._profiled_chunk(
                g, outer[start:stop], inner[start:stop], order, shaped_inner
            )
        return values

    def _profiled_chunk(
        self, g: _Frame, outer: np.ndarray, inner: np.ndarray, order: int, shaped_inner: bool
    ) -> np.ndarray:
        profiles = g.profiles

        points, weights, uu, vv = self._tensor_points(g, outer, order)
        # Outer weights include the arch profile along its varying axis.
        on_u = profiles.axis[outer] == g.u_axis[outer]
        coords = np.where(on_u[:, None], uu, vv)
        weights = weights * profiles.values(outer, coords)

        if not shaped_inner:
            potentials = self._panel_potential(g, inner, points)
            return np.sum(weights * potentials, axis=1)

        # Inner arch template: Gauss quadrature along its profile axis of
        # the analytic strip integral along the other tangential axis.
        p_ax = profiles.axis[inner]
        s_ax = np.where(p_ax == g.u_axis[inner], g.v_axis[inner], g.u_axis[inner])
        nodes_in, w_in = self._interval_nodes(g.lo[inner, p_ax], g.hi[inner, p_ax], order)
        shape_in = profiles.values(inner, nodes_in)

        cp = self._coordinate(points, p_ax)
        cs = self._coordinate(points, s_ax)
        cz = self._coordinate(points, g.normal_axis[inner]) - g.offset[inner][:, None]

        dp = cp[:, :, None] - nodes_in[:, None, :]
        dz = np.broadcast_to(cz[:, :, None], dp.shape)
        b1 = (cs - g.lo[inner, s_ax][:, None])[:, :, None]
        b2 = (cs - g.hi[inner, s_ax][:, None])[:, :, None]
        strips = strip_integral(b1, b2, dp, dz)
        inner_weights = w_in * shape_in
        potentials = np.einsum("pqk,pk->pq", strips, inner_weights)
        return np.sum(weights * potentials, axis=1)

    def _profiled_fallback(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Per-pair reference evaluation for non-arch shaped templates."""
        templates = self.arrays.templates
        results = np.empty(i.size)
        for index, (ti, tj) in enumerate(zip(i, j)):
            template_i = templates[int(ti)]
            template_j = templates[int(tj)]
            results[index] = self.integrator.template_pair(
                template_i.panel, template_j.panel, template_i.profile, template_j.profile
            )
        return results
