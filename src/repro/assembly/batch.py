"""Vectorised assembler for the system-setup step.

The per-pair reference assembler (:mod:`repro.assembly.serial`) evaluates one
template pair at a time, which is faithful to Algorithm 1 but slow in pure
Python.  This module performs the *same* computation -- the same
approximation-distance decisions, the same closed forms, the same
condensation -- but evaluates the template pairs of a partition through the
batched kernel core (:class:`repro.greens.batched.BatchedKernelCore`), which
evaluates each distinct pair geometry of a numpy batch once, grouped by
evaluation category:

* ``point``        -- monopole reduction (far pairs),
* ``collocation``  -- midpoint-rule reduction,
* ``parallel``     -- exact 16-corner closed form (parallel panels),
* ``orthogonal``   -- outer Gauss quadrature over the inner closed form,
* ``profiled``     -- pairs involving arch templates (batched tensor-Gauss
  quadrature with vectorised arch weights; non-arch shaped templates fall
  back per pair to the reference integrator).

Every engine backend flows through this assembler (directly, through the
shared/distributed parallel flows, or through the compression entry oracle),
so they all share the one kernel core.  Equivalence with the reference
assembler is asserted (to floating-point round-off) in
``tests/assembly/test_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assembly.mapping import TemplateArrays, triangular_index_to_pair
from repro.basis.functions import BasisSet
from repro.greens.batched import CATEGORIES, BatchedKernelCore
from repro.greens.policy import ApproximationPolicy
from repro.obs import clock
from repro.obs.metrics import counter

__all__ = ["ChunkResult", "BatchGalerkinAssembler", "record_pair_counts", "symmetrize_upper"]

_BATCHES = counter(
    "repro_assembly_pair_batches_total", "Numpy pair-batches evaluated by the batched assembler"
)
_PAIRS = counter(
    "repro_assembly_pairs_total",
    "Template pairs requested from the kernel core, by kernel evaluation category",
    ("category",),
)
_PAIRS_EVALUATED = counter(
    "repro_assembly_pairs_evaluated_total",
    "Template-pair integrals evaluated (one per distinct pair key), by kernel evaluation category",
    ("category",),
)


def record_pair_counts(requested: dict[str, int], evaluated: dict[str, int]) -> None:
    """Add per-category requested pairs and evaluated integrals to the metrics."""
    for metric, counts in ((_PAIRS, requested), (_PAIRS_EVALUATED, evaluated)):
        for category, count in counts.items():
            if count:
                metric.inc(count, category=category)


def symmetrize_upper(upper: np.ndarray) -> np.ndarray:
    """Rebuild the full symmetric ``P`` from an upper-condensed accumulation.

    ``upper`` contains every contribution exactly once at ``(l_i, l_j)`` with
    ``l_i <= l_j`` (diagonal contributions already doubled per Algorithm 1);
    the full matrix is ``U + U^T`` with the diagonal counted once.
    """
    upper = np.asarray(upper, dtype=float)
    return upper + upper.T - np.diag(np.diag(upper))


@dataclass
class ChunkResult:
    """Outcome of assembling one partition (chunk) of the iteration space.

    ``category_counts`` are the template pairs the chunk *requested* per
    evaluation category (they sum to :attr:`num_pairs`);
    ``evaluated_counts`` the integrals the kernel core actually evaluated,
    one per distinct pair key of each batch (see
    :mod:`repro.greens.batched`).
    """

    start: int
    stop: int
    elapsed_seconds: float
    category_counts: dict[str, int] = field(default_factory=dict)
    evaluated_counts: dict[str, int] = field(default_factory=dict)

    @property
    def num_pairs(self) -> int:
        """Number of template pairs requested in this chunk."""
        return self.stop - self.start

    @property
    def num_evaluated(self) -> int:
        """Number of template-pair integrals evaluated in this chunk."""
        return sum(self.evaluated_counts.values())

    def predicted_seconds(self, unit_costs: dict[str, float]) -> float:
        """Workload-model time of the chunk: evaluated counts times unit costs.

        Used by the simulated parallel machine to remove wall-clock noise:
        the unit costs are calibrated from a measured single-node run, so the
        prediction reflects the kernel work the partition really does (the
        source of load imbalance) rather than transient scheduler jitter.
        """
        return sum(
            count * unit_costs.get(category, 0.0)
            for category, count in self.evaluated_counts.items()
        )

    def with_elapsed(self, elapsed_seconds: float) -> "ChunkResult":
        """Copy of the result with a substituted elapsed time."""
        return ChunkResult(
            start=self.start,
            stop=self.stop,
            elapsed_seconds=elapsed_seconds,
            category_counts=dict(self.category_counts),
            evaluated_counts=dict(self.evaluated_counts),
        )


class BatchGalerkinAssembler:
    """Vectorised implementation of the Algorithm 1 inner loop.

    Parameters mirror :class:`~repro.assembly.serial.SerialAssembler`; the
    additional ``batch_size`` bounds the temporary memory used per numpy
    batch.
    """

    def __init__(
        self,
        basis_set: BasisSet,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
        order_near: int = 6,
        order_far: int = 3,
        batch_size: int = 200_000,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.basis_set = basis_set
        self.core = BatchedKernelCore(
            arrays=TemplateArrays.from_basis_set(basis_set),
            permittivity=permittivity,
            policy=policy,
            order_near=order_near,
            order_far=order_far,
        )
        self.arrays = self.core.arrays
        self.permittivity = self.core.permittivity
        self.policy = self.core.policy
        self.order_near = self.core.order_near
        self.order_far = self.core.order_far
        self.batch_size = int(batch_size)
        # The per-pair fallback integrator shares every numerical choice so
        # the profiled-pair fallback stays bit-identical with the reference.
        self.integrator = self.core.integrator

    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Iteration-space size ``K = M (M + 1) / 2``."""
        return self.arrays.num_pairs

    @property
    def num_basis_functions(self) -> int:
        """Condensed matrix dimension ``N``."""
        return self.arrays.num_basis_functions

    @property
    def prefactor(self) -> float:
        """``1 / (4 pi eps)``."""
        return self.core.prefactor

    # ------------------------------------------------------------------
    def assemble(self, out: np.ndarray | None = None) -> np.ndarray:
        """Assemble the full condensed matrix ``P``."""
        matrix, _ = self.assemble_chunk(0, self.num_pairs, out=out)
        return matrix

    def assemble_chunk(
        self,
        start: int,
        stop: int,
        out: np.ndarray | None = None,
        condense_mode: str = "full",
    ) -> tuple[np.ndarray, ChunkResult]:
        """Assemble the contribution of index range ``[start, stop)``.

        Parameters
        ----------
        condense_mode:
            ``"full"`` accumulates both ``(l_i, l_j)`` and its transpose (the
            shared-memory flow, where every node writes the same full matrix);
            ``"upper"`` accumulates only ``(l_i, l_j)`` with the Algorithm 1
            doubling rule for off-diagonal template pairs that condense onto
            the diagonal of ``P`` -- the distributed flow, whose partial
            matrices cover a contiguous column range and are symmetrised by
            the main process after the merge (see
            :func:`symmetrize_upper`).

        Returns the accumulated matrix and a :class:`ChunkResult` with the
        wall-clock time and the per-category requested and evaluated pair
        counts of the chunk.  Every chunk starts from an empty key table
        (:meth:`~repro.greens.batched.BatchedKernelCore.clear_table`), so
        its evaluated counts do not depend on what the core ran before.
        """
        if condense_mode not in ("full", "upper"):
            raise ValueError(f"condense_mode must be 'full' or 'upper', got {condense_mode!r}")
        if not (0 <= start <= stop <= self.num_pairs):
            raise ValueError(f"invalid chunk [{start}, {stop}) for K={self.num_pairs}")
        n = self.num_basis_functions
        if out is None:
            out = np.zeros((n, n))
        counts = dict.fromkeys(CATEGORIES, 0)
        evaluated = dict.fromkeys(CATEGORIES, 0)
        self.core.clear_table()
        t_begin = clock.now()
        num_batches = 0
        for batch_start in range(start, stop, self.batch_size):
            batch_stop = min(batch_start + self.batch_size, stop)
            i, j = triangular_index_to_pair(
                np.arange(batch_start, batch_stop, dtype=np.int64)
            )
            values = self.core.evaluate_pairs(i, j, counts=counts, evaluated=evaluated)
            self._condense(i, j, values, out, condense_mode)
            num_batches += 1
        elapsed = clock.now() - t_begin
        _BATCHES.inc(num_batches)
        record_pair_counts(counts, evaluated)
        return out, ChunkResult(
            start=start,
            stop=stop,
            elapsed_seconds=elapsed,
            category_counts=counts,
            evaluated_counts=evaluated,
        )

    def chunk_column_range(self, start: int, stop: int) -> tuple[int, int]:
        """Column range of ``P`` touched by a chunk (paper Figure 5).

        Because templates are flattened in basis-function order, the owner
        array ``l`` is non-decreasing and a contiguous ``k`` range maps to a
        contiguous column range ``[first, last]`` (inclusive) of the
        condensed matrix.  The distributed-memory flow uses this to size the
        partial matrices it communicates.
        """
        if stop <= start:
            return (0, -1)
        _, j_first = triangular_index_to_pair(np.asarray([start]))
        _, j_last = triangular_index_to_pair(np.asarray([stop - 1]))
        owner = self.arrays.owner
        return int(owner[int(j_first[0])]), int(owner[int(j_last[0])])

    # ------------------------------------------------------------------
    # Batch machinery
    # ------------------------------------------------------------------
    def evaluate_pairs(
        self, i: np.ndarray, j: np.ndarray, counts: dict[str, int] | None = None
    ) -> np.ndarray:
        """Galerkin integrals of arbitrary template pairs ``(i[p], j[p])``.

        The pairs need not come from the triangular iteration space: the
        hierarchical compression of :mod:`repro.compress` samples scattered
        rows and columns of the condensed matrix through this entry point.
        The values include the kernel prefactor and are identical (to
        round-off) with per-pair :meth:`GalerkinIntegrator.template_pair`
        calls.  ``counts`` accumulates the requested pairs per evaluation
        category.
        """
        return self.core.evaluate_pairs(i, j, counts=counts)

    def _condense(
        self,
        i: np.ndarray,
        j: np.ndarray,
        values: np.ndarray,
        out: np.ndarray,
        condense_mode: str,
    ) -> None:
        """Accumulate evaluated template pairs into the condensed matrix.

        One ``np.bincount`` over the flattened ``row * n + col`` indices,
        whose first ``n * n`` weights are ``out`` itself: every bin starts
        from its current value and then adds its pairs in request order,
        the same sums in the same order as sequential ``np.add.at`` calls.
        """
        arrays = self.arrays
        n = out.shape[0]
        rows = arrays.owner[i]
        cols = arrays.owner[j]
        off_diagonal = i != j
        if condense_mode == "full":
            flat = [rows * n + cols, cols[off_diagonal] * n + rows[off_diagonal]]
            weights = [values, values[off_diagonal]]
        else:
            # Algorithm 1: off-diagonal template pairs condensing onto the
            # diagonal of P contribute twice.
            flat = [rows * n + cols]
            weights = [np.where(off_diagonal & (rows == cols), 2.0 * values, values)]
        out[...] = np.bincount(
            np.concatenate([np.arange(n * n), *flat]),
            weights=np.concatenate([out.ravel(), *weights]),
            minlength=n * n,
        ).reshape(n, n)
