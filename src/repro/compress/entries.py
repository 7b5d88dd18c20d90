"""Entry oracle of the condensed Galerkin matrix for the compression layer.

The hierarchical compression never materialises the dense ``N x N`` matrix
``P``; it samples individual entries, rows, columns and small sub-blocks.
One entry couples two *basis functions*,

.. math:: P_{ij} = \\sum_{T_a \\in \\psi_i} \\sum_{T_b \\in \\psi_j}
          \\tilde P_{ab},

i.e. the sum of :meth:`~repro.greens.galerkin.GalerkinIntegrator.template_pair`
integrals over the templates owned by the two basis functions.  Two
evaluation paths produce identical values (to round-off):

* ``vectorized=False`` calls ``template_pair`` entry-wise — the reference;
* ``vectorized=True`` (default) expands the requested entries into flat
  template-pair index arrays and evaluates them through
  :meth:`~repro.assembly.batch.BatchGalerkinAssembler.evaluate_pairs`, the
  same numpy batch machinery the dense backends use.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler
from repro.basis.functions import BasisSet
from repro.greens.policy import ApproximationPolicy

__all__ = ["GalerkinEntries", "check_kernel_modes"]


def check_kernel_modes(near_field: str = "exact", use_numba: bool | None = None) -> None:
    """Refuse the removed kernel modes: only their defaults are accepted."""
    if near_field != "exact":
        raise ValueError(
            f"near_field={near_field!r} was removed; near and singular pairs "
            "always use the exact closed forms ('exact')"
        )
    if use_numba not in (None, False):
        raise ValueError(
            f"use_numba={use_numba!r} was removed; the numba JIT path no longer "
            "exists (None or False only)"
        )


class GalerkinEntries:
    """Sampled access to the condensed Galerkin matrix ``P``.

    Parameters mirror :class:`~repro.assembly.batch.BatchGalerkinAssembler`;
    ``vectorized`` selects the evaluation path.  ``near_field`` and
    ``use_numba`` name kernel modes that were removed: only their defaults
    (``"exact"``; ``None`` or ``False``) are accepted, and any other value
    raises :class:`ValueError` (:func:`check_kernel_modes`).
    """

    def __init__(
        self,
        basis_set: BasisSet,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
        collocation_fn=None,
        order_near: int = 6,
        order_far: int = 3,
        vectorized: bool = True,
        near_field: str = "exact",
        use_numba: bool | None = None,
    ):
        check_kernel_modes(near_field, use_numba)
        self.assembler = BatchGalerkinAssembler(
            basis_set,
            permittivity,
            policy=policy,
            collocation_fn=collocation_fn,
            order_near=order_near,
            order_far=order_far,
        )
        self.vectorized = bool(vectorized)
        self._count_lock = threading.Lock()
        arrays = self.assembler.arrays
        count = self.assembler.num_basis_functions
        # Templates are flattened in basis order, so each basis function owns
        # the contiguous template range [tstart[i], tstop[i]).
        self._tstart = np.searchsorted(arrays.owner, np.arange(count))
        self._tstop = np.searchsorted(arrays.owner, np.arange(count), side="right")
        self._tcount = self._tstop - self._tstart
        #: Number of entries sampled so far in this process (diagnostics /
        #: cost accounting); a process-mode H-matrix build samples in its
        #: workers and reports its count as ``HMatrix.entries_sampled``.
        self.entries_sampled = 0

    # ------------------------------------------------------------------
    @property
    def num_unknowns(self) -> int:
        """Dimension ``N`` of the condensed matrix."""
        return self.assembler.num_basis_functions

    def _count(self, num_entries: int) -> None:
        """Thread-safe bump of the ``entries_sampled`` diagnostic counter."""
        with self._count_lock:
            self.entries_sampled += num_entries

    def support_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-basis-function support bounding boxes (``(N, 3)`` lo/hi).

        The box of a basis function is the union of its template panel
        boxes — the geometry the cluster tree of
        :class:`~repro.compress.cluster.ClusterTree` is built over.
        """
        arrays = self.assembler.arrays
        lo = np.minimum.reduceat(arrays.lo, self._tstart, axis=0)
        hi = np.maximum.reduceat(arrays.hi, self._tstart, axis=0)
        return lo, hi

    # ------------------------------------------------------------------
    def entry(self, i: int, j: int) -> float:
        """One entry ``P[i, j]`` via entry-wise ``template_pair`` calls."""
        integrator = self.assembler.integrator
        templates = self.assembler.arrays.templates
        total = 0.0
        for a in range(self._tstart[i], self._tstop[i]):
            for b in range(self._tstart[j], self._tstop[j]):
                # Evaluate in (min, max) template order, like the dense
                # assemblers' upper-triangle sweep: the approximate levels
                # break equal-size ties by operand order, and a canonical
                # order keeps the oracle exactly symmetric.
                ta, tb = templates[min(a, b)], templates[max(a, b)]
                total += integrator.template_pair(
                    ta.panel, tb.panel, ta.profile, tb.profile
                )
        self._count(1)
        return total

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The sub-block ``P[np.ix_(rows, cols)]`` without assembling ``P``."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        entry_rows = np.repeat(rows, cols.size)
        entry_cols = np.tile(cols, rows.size)
        return self.entry_values(entry_rows, entry_cols).reshape(rows.size, cols.size)

    def symmetric_block(self, indices: np.ndarray) -> np.ndarray:
        """The diagonal sub-block ``P[np.ix_(indices, indices)]``.

        The oracle is symmetric (canonical template order), so only the
        upper triangle is evaluated and the lower is mirrored — half the
        integral work of :meth:`block` on the same index set.
        """
        indices = np.asarray(indices, dtype=np.intp)
        upper_i, upper_j = np.triu_indices(indices.size)
        values = self.entry_values(indices[upper_i], indices[upper_j])
        out = np.empty((indices.size, indices.size))
        out[upper_i, upper_j] = values
        out[upper_j, upper_i] = values
        return out

    def row(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Row sample ``P[i, cols]``."""
        return self.block(np.asarray([i]), cols)[0]

    def col(self, rows: np.ndarray, j: int) -> np.ndarray:
        """Column sample ``P[rows, j]``."""
        return self.block(rows, np.asarray([j]))[:, 0]

    # ------------------------------------------------------------------
    def entry_values(self, entry_rows: np.ndarray, entry_cols: np.ndarray) -> np.ndarray:
        """Entries ``P[entry_rows[e], entry_cols[e]]`` for parallel index lists."""
        entry_rows = np.asarray(entry_rows, dtype=np.intp)
        entry_cols = np.asarray(entry_cols, dtype=np.intp)
        num_entries = entry_rows.size
        if num_entries == 0:
            return np.zeros(0)
        if not self.vectorized:
            return np.asarray(
                [self.entry(int(i), int(j)) for i, j in zip(entry_rows, entry_cols)]
            )
        # Each entry expands into tcount_r * tcount_c template pairs laid
        # out row-major.
        nr = self._tcount[entry_rows]
        nc = self._tcount[entry_cols]
        pairs_per_entry = nr * nc
        total_pairs = int(pairs_per_entry.sum())

        entry_of_pair = np.repeat(np.arange(num_entries), pairs_per_entry)
        starts = np.cumsum(pairs_per_entry) - pairs_per_entry
        local = np.arange(total_pairs) - starts[entry_of_pair]
        nc_of_pair = nc[entry_of_pair]
        ti = self._tstart[entry_rows][entry_of_pair] + local // nc_of_pair
        tj = self._tstart[entry_cols][entry_of_pair] + local % nc_of_pair

        # Canonical (min, max) template order — see :meth:`entry`.
        values = self.assembler.evaluate_pairs(
            np.minimum(ti, tj), np.maximum(ti, tj)
        )
        out = np.zeros(num_entries)
        np.add.at(out, entry_of_pair, values)
        self._count(num_entries)
        return out
