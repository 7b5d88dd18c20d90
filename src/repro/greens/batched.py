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
therefore runs five steps:

1. **Classify** every pair on its exact geometry, with the decisions of
   :class:`~repro.greens.galerkin.GalerkinIntegrator`: the evaluation
   category (below), the near/far quadrature order and which panel is the
   smaller one.
2. **Key** every pair by exact integers: the shape classes of its two
   templates (normal axis, extents and arch parameters relative to the
   panel's ``lo`` corner), the displacement ``lo_j - lo_i`` snapped to a
   quantum of ``1e-12`` times the smallest in-plane panel extent, and the
   decision bits of step 1.
3. **Look up** the distinct keys of the call in the core's key table, which
   holds every key the core has evaluated since the table was last
   cleared (:meth:`BatchedKernelCore.clear_table`).
4. **Evaluate each missing key once** in a canonical frame: the class of
   template ``i`` at the origin, the class of template ``j`` at the snapped
   displacement, with the decisions read from the key.  The new values are
   merged into the table.
5. **Scatter** the distinct values back to the requested pairs.

The table spans calls, so an entry oracle that samples one matrix in many
calls (the H-matrix build's near field and lockstep ACA steps) evaluates
each key once per extraction rather than once per call.  It lives on the
core: the compression oracle keeps one for its whole life, while the dense
assembler clears it at the start of every chunk, so a partition is charged
exactly the integrals it evaluates whatever ran before it on the same core.
An H-matrix build also attaches a worker pool to the core
(:meth:`BatchedKernelCore.dealing`): the missing keys of a large call are
then dealt out in category-balanced slices, one per worker, and merged by
the calling thread, so every key is still evaluated once.  The dense path
attaches no pool.  The table is held in
arrays -- sorted 64-bit hashes of the key rows, the full rows, and the
values -- and a lookup only hits when the full row matches, so a hash
collision costs an evaluation, never a wrong value.  New keys are queued
and folded into the sorted arrays by the next lookup, so a table that is
never read again costs no sort.

Steps 1 and 2 are bookkeeping, so the core keeps them cheap with
structure-of-arrays tables built once per core: the centroid, ``lo`` and
``hi`` corners as ``(3, M)`` tables with one contiguous row per axis, and one
packed flag word per template (has-profile, is-arch and the normal axis).
Every per-pair read is then a 1-D gather, and every Euclidean norm is
written per axis as ``sqrt((x0*x0 + x1*x1) + x2*x2)``: the same arithmetic,
in the same order, as ``np.linalg.norm(axis=1)`` over ``(n, 3)`` rows, so no
threshold decision moves by a bit.  The quadrature kernels likewise select the coordinate of a
tensor-grid node along an axis directly (the node's ``u`` or ``v``
coordinate, or the panel offset along its normal) instead of building
``(pairs, order**2, 3)`` point clouds; ``tests/greens/test_batched_bitwise.py``
pins both equivalences bit for bit.

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

Near and singular pairs, and every rectangle-potential evaluation, use the
exact closed forms (:func:`~repro.greens.indefinite.indefinite_integral`
and :func:`~repro.greens.collocation.collocation_from_deltas`).  The
paper's Section 4.2 tabulates or fits them instead; none of its four
techniques beat these vectorised expressions in NumPy and two returned
wrong capacitances, so they are not reproduced (``docs/benchmarks.md``).

Agreement with the entry-wise ``template_pair`` reference is asserted to
1e-10 by the hypothesis property suite in
``tests/greens/test_batched_property.py``; the deduplication itself by
``tests/greens/test_pair_dedup.py``.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.basis.templates import BoundArchProfile, TemplateInstance
from repro.obs import clock
from repro.parallel.executor import WorkerPool

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.assembly
    from repro.assembly.mapping import TemplateArrays
from repro.greens.galerkin import GalerkinIntegrator
from repro.greens.policy import ApproximationPolicy
from repro.greens.quadrature import gauss_legendre
from repro.greens.collocation import collocation_from_deltas, strip_integral
from repro.greens.indefinite import indefinite_integral

__all__ = ["ArchProfileArrays", "BatchedKernelCore", "CATEGORIES", "KeySlices"]

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

#: Columns of a key row: the two shape classes, the pair code and the
#: three snapped displacement components.
_KEY_COLUMNS = 6

#: Distinct keys whose canonical frame is built and evaluated at once.
_KEY_CHUNK = 16_384

#: Fewest missing keys a call deals out to an attached worker pool; smaller
#: calls are evaluated inline.  Dealing costs a pool round trip per call: on
#: the bus 6x6 ``face_refinement=2`` H-matrix build (2-core Xeon) a lockstep
#: ACA step of about 500 keys took 2 ms inline and 4-7 ms in two thread
#: slices, while the 33,600-key near field fell from 0.134 s to 0.084 s.
_DEAL_MIN_KEYS = 4096

#: Bound of the mixed-radix row packing of :func:`_distinct_rows`.
_PACK_LIMIT = 1 << 62

#: A key row as one opaque element (its int64 columns side by side).
_KEY_ROW = np.dtype((np.void, 8 * _KEY_COLUMNS))

#: Multiplier of the key-row hash (the 64-bit golden-ratio constant).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Per-template flag word: has a profile, is a stock arch, and the normal
#: axis in the bits from ``_AXIS_SHIFT`` up.
_HAS_PROFILE = 1
_IS_ARCH = 2
_AXIS_SHIFT = 2


def _norm(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Euclidean norms of per-axis components.

    The sum order is that of ``np.linalg.norm(rows, axis=1)`` over
    ``(n, 3)`` rows, so the result is bit-identical to it.
    """
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


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
    """Panel geometry the category kernels read, one column per panel.

    The kernels evaluate pairs of panels of one frame: the canonical frame
    of the distinct keys of a call (see
    :meth:`BatchedKernelCore._canonical_frame`).  ``lo``, ``hi`` and
    ``centroid`` are ``(3, panels)`` tables, read as ``lo[axis, panel]``.
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


@dataclass
class _Grid:
    """Tensor-Gauss nodes over one panel per row.

    ``uu`` / ``vv`` are the in-plane node coordinates and ``weights`` the
    product weights, each of shape ``(rows, order**2)`` with u varying
    slowest (the per-pair ``meshgrid(indexing="ij")`` layout).
    """

    u_axis: np.ndarray
    v_axis: np.ndarray
    offset: np.ndarray
    uu: np.ndarray
    vv: np.ndarray
    weights: np.ndarray

    def coordinate(self, axis: np.ndarray) -> np.ndarray:
        """Coordinate of every node along the per-row global ``axis``.

        That is the node's ``u`` or ``v`` coordinate, or the panel offset
        along its normal.
        """
        return np.where(
            (axis == self.u_axis)[:, None],
            self.uu,
            np.where((axis == self.v_axis)[:, None], self.vv, self.offset[:, None]),
        )


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


def _hash_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """A 64-bit hash of every row of equal-length int64 key columns.

    Multiply-xorshift over the columns, wrapping in uint64; equal rows hash
    equal in every call, which is all the key table needs (it checks the
    full row on every hit).
    """
    hashes = np.zeros(columns[0].size, dtype=np.uint64)
    for column in columns:
        hashes ^= column.view(np.uint64)
        hashes *= _HASH_MULTIPLIER
        hashes ^= hashes >> np.uint64(29)
    return hashes


def _key_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The rows of key columns, each row one opaque :data:`_KEY_ROW` element.

    The table then moves and compares a whole key at once.
    """
    return np.column_stack(columns).view(_KEY_ROW).ravel()


class _KeyTable:
    """Values of the keys a core has evaluated, in sorted arrays.

    The state is one ``(hashes, rows, values)`` tuple sorted by hash,
    replaced whole when new keys are folded in, so a lookup reads a
    consistent snapshot without the lock.  :meth:`merge` only queues the
    new keys; the next lookup folds the queue into the sorted arrays.  A
    table whose keys are never looked up again (a dense chunk evaluated in
    one call) thus never pays for the sort.  Merges and folds from
    concurrent threads serialise on the lock, and a key that another
    thread folded in meanwhile is dropped rather than stored twice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=_KEY_ROW), np.empty(0))
        self._queue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def lookup(self, hashes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, values)``: which rows the table holds, and their values."""
        if self._queue:
            self._fold()
        table_hashes, table_rows, table_values = self._state
        if table_hashes.size == 0:
            return np.zeros(hashes.size, dtype=bool), np.empty(0)
        position = np.minimum(np.searchsorted(table_hashes, hashes), table_hashes.size - 1)
        hit = table_hashes[position] == hashes
        hit[hit] = table_rows[position[hit]] == rows[hit]
        return hit, table_values[position[hit]]

    def merge(self, hashes: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """Queue evaluated rows for the next lookup to fold in."""
        if hashes.size:
            with self._lock:
                self._queue.append((hashes, rows, values))

    def _fold(self) -> None:
        """Insert the queued rows whose hash the table does not hold yet.

        A row whose hash is already present (evaluated by another thread
        too, or a collision with a different row) is left out; it will
        simply be evaluated again when requested.
        """
        with self._lock:
            if not self._queue:
                return
            hashes, rows, values = (np.concatenate(part) for part in zip(*self._queue))
            self._queue = []
            hashes, first = np.unique(hashes, return_index=True)
            table_hashes, table_rows, table_values = self._state
            position = np.searchsorted(table_hashes, hashes)
            held = np.zeros(hashes.size, dtype=bool)
            inside = position < table_hashes.size
            held[inside] = table_hashes[position[inside]] == hashes[inside]
            new = first[~held]
            position = position[~held]
            self._state = (
                np.insert(table_hashes, position, hashes[~held]),
                np.insert(table_rows, position, rows[new]),
                np.insert(table_values, position, values[new]),
            )

    def __len__(self) -> int:
        self._fold()
        return int(self._state[0].size)


class KeySlices:
    """A worker pool that the core deals the missing keys of large calls to.

    Attached with :meth:`BatchedKernelCore.dealing`.  ``busy[k]`` sums the
    seconds slice ``k`` spent evaluating over the calls made while attached
    (a call evaluated inline counts as slice 0), ``dispatched`` counts the
    slices mapped over the pool and ``inline_keys`` the keys evaluated
    inline.
    """

    def __init__(self, pool: WorkerPool, workers: int):
        self.pool = pool
        self.workers = int(workers)
        self.busy = [0.0] * self.workers
        self.dispatched = 0
        self.inline_keys = 0


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
    order_near, order_far:
        Gauss-Legendre orders for nearby / well-separated outer quadratures.
    """

    def __init__(
        self,
        arrays: TemplateArrays,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
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

        u_axis, v_axis = arrays.tangential_axes()
        self._u_axis = u_axis
        self._v_axis = v_axis
        self.profiles = ArchProfileArrays.from_templates(arrays.templates, u_axis, v_axis)
        # Structure-of-arrays tables, read-only after construction: one
        # contiguous row per axis, so every per-pair read is a 1-D gather.
        self._centroid = np.ascontiguousarray(arrays.centroid.T)
        self._lo = np.ascontiguousarray(arrays.lo.T)
        self._hi = np.ascontiguousarray(arrays.hi.T)
        self._flags = (
            _HAS_PROFILE * arrays.has_profile
            + _IS_ARCH * self.profiles.is_arch
            + (arrays.normal_axis << _AXIS_SHIFT)
        ).astype(np.uint8)
        self._build_key_tables()
        self.clear_table()
        #: The worker pool missing keys are dealt to (:meth:`dealing`).
        self.slices: KeySlices | None = None
        # What the calling thread's last evaluate_pairs call evaluated.
        self._last_call = threading.local()
        # The per-pair reference integrator backs templates whose profile is
        # not a stock arch (the ShapeProfile protocol admits arbitrary
        # shapes); it shares every numerical choice with the batched paths.
        self.integrator = GalerkinIntegrator(
            permittivity,
            policy=self.policy,
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

    def clear_table(self) -> None:
        """Start a new, empty key table: later calls evaluate every key anew."""
        self._table = _KeyTable()

    @property
    def table_size(self) -> int:
        """Number of keys the key table holds."""
        return len(self._table)

    def last_evaluated(self) -> dict[str, int]:
        """Integrals evaluated by the calling thread's last :meth:`evaluate_pairs`.

        Per evaluation category, like the ``evaluated`` argument; for
        callers that reach the core through a wrapper which passes on only
        ``(i, j, counts)``.
        """
        return dict(getattr(self._last_call, "evaluated", {}))

    def _snap(self, lengths: np.ndarray) -> np.ndarray:
        """Lengths in whole quanta (int64)."""
        return np.rint(lengths / self.quantum).astype(np.int64)

    def _key_columns(self, i: np.ndarray, j: np.ndarray, code: np.ndarray) -> list[np.ndarray]:
        """The :data:`_KEY_COLUMNS` int64 key columns of pairs ``(i[p], j[p])``.

        Exact-geometry pairs stand in for themselves: template indices past
        the class numbers replace their shape classes.
        """
        exact = (code & _EXACT).astype(bool)
        offset = self._shape_template.size
        return [
            np.where(exact, offset + i, self._shape_class[i]),
            np.where(exact, offset + j, self._shape_class[j]),
            code,
            *self._displacement(i, j),
        ]

    def _displacement(self, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
        """Snapped displacement ``lo_j - lo_i`` of every pair, one array per axis."""
        return tuple(self._snap(lo[j] - lo[i]) for lo in self._lo)

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
        distinct key the key table does not hold yet, plus every per-pair
        fallback).
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        values = np.empty(i.size)
        self._last_call.evaluated = {}
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

        evaluated_keys = np.zeros(_FALLBACK, dtype=np.int64)
        if code.size:
            first, inverse = _distinct_rows(self._key_columns(i, j, code))
            i, j, code = i[first], j[first], code[first]
            del first
            distinct_values, evaluated_keys = self._lookup_or_evaluate(i, j, code)
            values[keyed] = distinct_values[inverse]

        last: dict[str, int] = {}
        for target, amounts in ((counts, requested), (evaluated, evaluated_keys), (last, evaluated_keys)):
            if target is None:
                continue
            for index, category_name in enumerate(CATEGORIES):
                _count(target, category_name, int(amounts[index]))
            _count(target, "profiled", int(fallback.size))
        self._last_call.evaluated = last
        return values

    def _lookup_or_evaluate(
        self, i: np.ndarray, j: np.ndarray, code: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values of the distinct keys of pairs ``(i[k], j[k])``.

        Keys the key table holds are read from it; the rest are evaluated
        and merged into it.  The key rows are rebuilt for the merge rather
        than kept alive through the evaluation, which holds the peak memory
        of a call where it was without the table.  Returns the values and
        the per-category count of keys evaluated.
        """
        table = self._table
        columns = self._key_columns(i, j, code)
        hashes = _hash_rows(columns)
        hit, known = table.lookup(hashes, _key_rows(columns))
        del columns
        if known.size:
            values = np.empty(i.size)
            values[hit] = known
            missing = np.flatnonzero(~hit)
            i, j, code, hashes = i[missing], j[missing], code[missing], hashes[missing]
            fresh = self._evaluate_distinct(i, j, code)
            values[missing] = fresh
        else:  # nothing held (a first call): no copies of the keys
            values = fresh = self._evaluate_distinct(i, j, code)
        table.merge(hashes, _key_rows(self._key_columns(i, j, code)), fresh)
        return values, np.bincount(code >> _CODE_SHIFT, minlength=_FALLBACK)

    # ------------------------------------------------------------------
    # Classification and keying
    # ------------------------------------------------------------------
    def _classify(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Category and decision bits of every pair, on its exact geometry.

        Returns ``code = category << _CODE_SHIFT | bits`` (int64).  Only the
        bits a category reads are set, so pairs that evaluate alike share a
        code.
        """
        c0, c1, c2 = self._centroid
        distance = _norm(c0[i] - c0[j], c1[i] - c1[j], c2[i] - c2[j])
        diagonal_i = self.arrays.diagonal[i]
        diagonal_j = self.arrays.diagonal[j]
        rho_max = 0.5 * np.maximum(diagonal_i, diagonal_j)
        rho_min = 0.5 * np.minimum(diagonal_i, diagonal_j)
        is_point = distance >= self.policy.point_distance_factor * rho_max
        is_colloc = distance >= self.policy.collocation_distance_factor * rho_min
        del distance, rho_max, rho_min

        flags_i = self._flags[i]
        flags_j = self._flags[j]
        profiled_i = (flags_i & _HAS_PROFILE).astype(bool)
        profiled_j = (flags_j & _HAS_PROFILE).astype(bool)
        arch_i = (flags_i & _IS_ARCH).astype(bool)
        arch_j = (flags_j & _IS_ARCH).astype(bool)
        normal_i = flags_i >> _AXIS_SHIFT
        parallel = normal_i == flags_j >> _AXIS_SHIFT
        # Pairs whose every profiled member is a stock arch run batched;
        # anything else (custom ShapeProfile implementations) falls back.
        arch_ok = (~profiled_i | arch_i) & (~profiled_j | arch_j)
        category = np.where(
            profiled_i | profiled_j,
            np.where(arch_ok, _PROFILED, _FALLBACK),
            np.where(is_colloc, _COLLOCATION, np.where(parallel, _PARALLEL, _ORTHOGONAL)),
        )
        category[is_point] = _POINT

        # Outer quadrature order (GalerkinIntegrator._quadrature_order).
        gap = [
            np.maximum(0.0, np.maximum(lo[i] - hi[j], lo[j] - hi[i]))
            for lo, hi in zip(self._lo, self._hi)
        ]
        near = _norm(*gap) < np.maximum(diagonal_i, diagonal_j)
        # Two parallel arches whose gap vanishes along both in-plane axes
        # (every axis but the common normal) overlap in-plane.
        exact = (category == _PROFILED) & arch_i & arch_j & parallel
        for axis, along in enumerate(gap):
            exact &= (along == 0.0) | (normal_i == axis)
        del gap
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
        lo = np.zeros((3, 2 * size))
        for row, steps in zip(lo, self._displacement(i, j)):
            row[size:] = steps * self.quantum
        hi = lo + (self._hi[:, template] - self._lo[:, template])
        lo = np.where(own, self._lo[:, pair], lo)
        hi = np.where(own, self._hi[:, pair], hi)
        rows = np.arange(2 * size)
        normal_axis = arrays.normal_axis[pair]
        axis = profiles.axis[pair]
        return _Frame(
            normal_axis=normal_axis,
            u_axis=self._u_axis[pair],
            v_axis=self._v_axis[pair],
            offset=lo[normal_axis, rows],
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
                    lo[axis, rows] + (profiles.edge[template] - self._lo[axis, template]),
                ),
                ingrowing=profiles.ingrowing[template],
                extension=profiles.extension[template],
                sign=profiles.sign[pair],
            ),
        )

    @contextmanager
    def dealing(self, pool: WorkerPool, workers: int) -> Iterator[KeySlices]:
        """Deal the missing keys of large calls to ``pool`` while the context is open.

        ``pool`` runs :meth:`evaluate_slice` on ``workers`` workers (forked
        workers inherit this core).  A call with at least
        :data:`_DEAL_MIN_KEYS` missing keys sorts them by category and deals
        them round-robin into ``workers`` slices, so every slice gets the
        same mix of cheap and costly categories; the values come back to the
        calling thread, which merges them into the key table.  A value is a
        pure function of its key, so the results are bit-identical to
        inline evaluation.
        """
        previous, self.slices = self.slices, KeySlices(pool, workers)
        try:
            yield self.slices
        finally:
            self.slices = previous

    def evaluate_slice(
        self, job: tuple[np.ndarray, np.ndarray, np.ndarray, int]
    ) -> tuple[np.ndarray, float]:
        """Values of one slice ``(i, j, code, chunk)`` of distinct keys, and its busy seconds.

        The keys are evaluated ``chunk`` at a time.
        """
        start = clock.now()
        values = self._evaluate_chunked(*job)
        return values, clock.now() - start

    def _evaluate_distinct(self, i: np.ndarray, j: np.ndarray, code: np.ndarray) -> np.ndarray:
        """Values of distinct keys (one pair per key), dealt to the attached pool if any."""
        slices = self.slices
        if slices is None:
            return self._evaluate_chunked(i, j, code)
        if slices.workers == 1 or i.size < _DEAL_MIN_KEYS:
            start = clock.now()
            values = self._evaluate_chunked(i, j, code)
            slices.busy[0] += clock.now() - start
            slices.inline_keys += i.size
            return values
        order = np.argsort(code >> _CODE_SHIFT, kind="stable")
        parts = [order[k :: slices.workers] for k in range(slices.workers)]
        # The workers together hold the frames of one inline chunk: two
        # concurrent 16,384-key frames raised the peak RSS of the bus 6x6
        # build from 116 to 162 MB, two 8,192-key frames to 126 MB.
        chunk = -(-_KEY_CHUNK // slices.workers)
        results = slices.pool.map([(i[part], j[part], code[part], chunk) for part in parts])
        values = np.empty(i.size)
        for k, (part, (part_values, seconds)) in enumerate(zip(parts, results)):
            values[part] = part_values
            slices.busy[k] += seconds
        slices.dispatched += len(parts)
        return values

    def _evaluate_chunked(
        self, i: np.ndarray, j: np.ndarray, code: np.ndarray, chunk: int = _KEY_CHUNK
    ) -> np.ndarray:
        """Values of distinct keys (one pair per key) in the canonical frame.

        Keys are evaluated ``chunk`` at a time (:data:`_KEY_CHUNK` by
        default), which bounds the memory of their frames; every value
        depends on its own key only.
        """
        values = np.empty(i.size)
        for start in range(0, i.size, chunk):
            part = slice(start, start + chunk)
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
            c0, c1, c2 = frame.centroid
            a_p, b_p = a[mask], b[mask]
            distance = _norm(c0[a_p] - c0[b_p], c1[a_p] - c1[b_p], c2[a_p] - c2[b_p])
            values[mask] = frame.moment[a_p] * frame.moment[b_p] / distance
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

    def _tensor_grid(self, g: _Frame, t: np.ndarray, order: int) -> _Grid:
        """Tensor-Gauss nodes and weights over panels ``t``."""
        u_ax = g.u_axis[t]
        v_ax = g.v_axis[t]
        nodes_u, w_u = self._interval_nodes(g.lo[u_ax, t], g.hi[u_ax, t], order)
        nodes_v, w_v = self._interval_nodes(g.lo[v_ax, t], g.hi[v_ax, t], order)
        count = t.size
        return _Grid(
            u_axis=u_ax,
            v_axis=v_ax,
            offset=g.offset[t],
            uu=np.broadcast_to(nodes_u[:, :, None], (count, order, order)).reshape(count, -1),
            vv=np.broadcast_to(nodes_v[:, None, :], (count, order, order)).reshape(count, -1),
            weights=(w_u[:, :, None] * w_v[:, None, :]).reshape(count, -1),
        )

    def _panel_potential(self, g: _Frame, t: np.ndarray, grid: _Grid) -> np.ndarray:
        """Rectangle potential of panels ``t`` at the nodes of ``grid``."""
        u_ax = g.u_axis[t]
        v_ax = g.v_axis[t]
        x = grid.coordinate(u_ax)
        y = grid.coordinate(v_ax)
        z = grid.coordinate(g.normal_axis[t]) - g.offset[t][:, None]
        return collocation_from_deltas(
            x - g.lo[u_ax, t][:, None],
            x - g.hi[u_ax, t][:, None],
            y - g.lo[v_ax, t][:, None],
            y - g.hi[v_ax, t][:, None],
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

        u_ax = g.u_axis[large]
        v_ax = g.v_axis[large]
        x = g.centroid[u_ax, small]
        y = g.centroid[v_ax, small]
        z = g.centroid[g.normal_axis[large], small] - g.offset[large]
        potential = collocation_from_deltas(
            x - g.lo[u_ax, large],
            x - g.hi[u_ax, large],
            y - g.lo[v_ax, large],
            y - g.hi[v_ax, large],
            z,
        )
        return g.area[small] * potential

    def _parallel_exact(self, g: _Frame, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Exact 16-corner closed form for parallel flat panels."""
        u_ax = g.u_axis[i]
        v_ax = g.v_axis[i]

        ui = (g.lo[u_ax, i], g.hi[u_ax, i])
        uj = (g.lo[u_ax, j], g.hi[u_ax, j])
        vi = (g.lo[v_ax, i], g.hi[v_ax, i])
        vj = (g.lo[v_ax, j], g.hi[v_ax, j])
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
            grid = self._tensor_grid(g, small[start:stop], order)
            potentials = self._panel_potential(g, large[start:stop], grid)
            values[start:stop] = np.sum(grid.weights * potentials, axis=1)
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

        grid = self._tensor_grid(g, outer, order)
        # Outer weights include the arch profile along its varying axis.
        weights = grid.weights * profiles.values(outer, grid.coordinate(profiles.axis[outer]))

        if not shaped_inner:
            potentials = self._panel_potential(g, inner, grid)
            return np.sum(weights * potentials, axis=1)

        # Inner arch template: Gauss quadrature along its profile axis of
        # the analytic strip integral along the other tangential axis.
        p_ax = profiles.axis[inner]
        s_ax = np.where(p_ax == g.u_axis[inner], g.v_axis[inner], g.u_axis[inner])
        nodes_in, w_in = self._interval_nodes(g.lo[p_ax, inner], g.hi[p_ax, inner], order)
        shape_in = profiles.values(inner, nodes_in)

        cp = grid.coordinate(p_ax)
        cs = grid.coordinate(s_ax)
        cz = grid.coordinate(g.normal_axis[inner]) - g.offset[inner][:, None]

        dp = cp[:, :, None] - nodes_in[:, None, :]
        dz = np.broadcast_to(cz[:, :, None], dp.shape)
        b1 = (cs - g.lo[s_ax, inner][:, None])[:, :, None]
        b2 = (cs - g.hi[s_ax, inner][:, None])[:, :, None]
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
