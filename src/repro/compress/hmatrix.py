"""The hierarchical matrix operator: dense near field + low-rank far field.

:func:`build_hmatrix` runs the whole compression pipeline — cluster tree,
block partition, block assembly (dense for inadmissible blocks, ACA factors
for admissible ones) — against an entry oracle, and returns an
:class:`HMatrix`: a :class:`scipy.sparse.linalg.LinearOperator` whose matvec
costs ``O(stored entries)`` instead of ``O(N^2)``.  Kernel symmetry is
exploited at block level: only diagonal and upper blocks are assembled and
stored, and the operator applies off-diagonal blocks twice (once transposed)
— the hierarchical analogue of the dense assemblers' upper-triangle sweep.
For the products the blocks are packed once, at construction, into a CSR
near field and block-sparse far factors, so a product is three sparse
multiplications instead of a Python walk over the blocks.

The build runs in four phases, each a child span of
``assembly.build_hmatrix``:

1. ``compress.tree`` -- the cluster tree and the diagonal-plus-upper block
   list, built level by level over arrays;
2. ``compress.near`` -- every inadmissible block in ONE oracle call;
3. ``compress.far`` -- the ACAs of all admissible blocks in lockstep, one
   oracle call per ACA step answering the pending row or column sample of
   every unfinished block;
4. ``compress.pack`` -- the packed operator, in one sweep over the blocks.

Entries do not depend on how they are batched, so this is bit-identical to
per-block assembly.

The parallelism is in the kernel, not in the block list.  The oracle's
kernel core keeps one key table for the build (see
:mod:`repro.greens.batched`), and ``build_hmatrix`` opens one
:class:`~repro.parallel.executor.WorkerPool` of ``num_workers`` workers in
``executor`` mode for the whole build and attaches it to that core
(:meth:`~repro.greens.batched.BatchedKernelCore.dealing`).  An oracle call
with a few thousand missing kernel keys or more sorts them by category,
deals them round-robin into one slice per worker and maps the slices over
the pool; the values come back to the calling thread, which merges them
into the table.  Smaller calls (the lockstep ACA steps, typically) run
inline, where a pool round trip would cost more than it saves.  The modes:

* ``"serial"`` -- the slices run one after another in the current process
  (the reference the others must match);
* ``"thread"`` (default) -- one thread per slice; the kernel's NumPy calls
  release the GIL, the bookkeeping around them stays in the calling thread;
* ``"process"`` -- one forked worker per slice.  The workers inherit the
  kernel core at the fork, so only the slices' key arrays are pickled on
  the way out and their values on the way back.

Each kernel key is therefore evaluated once per build whatever the
executor or worker count, and a value is a pure function of its key, so the
operator is **bit-identical** across executors and worker counts.  On the
bus 6x6 ``face_refinement=2``, ``leaf_size=16`` system (N=360) on a 2-core
Xeon, the near field's 33,600 keys take 0.134 s on one thread and 0.084 s
dealt to two, and a cold build fell from about 0.28 s serial to 0.24 s on
two threads.  ``worker_seconds`` records the busy seconds of each slice
summed over the build's calls (inline calls count as slice 0), and
``entries_sampled`` the oracle entries the build sampled.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator

from repro.compress.aca import LowRankFactors, aca_core
from repro.compress.blocktree import Block, BlockClusterTree
from repro.compress.cluster import ClusterTree
from repro.compress.entries import GalerkinEntries
from repro.greens.batched import KeySlices
from repro.obs.trace import span
from repro.parallel.executor import WorkerPool, check_mode

__all__ = [
    "DenseBlockEntry",
    "LowRankBlockEntry",
    "HMatrix",
    "build_hmatrix",
]


@dataclass
class DenseBlockEntry:
    """One exactly-stored near-field block.

    ``mirrored`` marks off-diagonal blocks whose transpose partner is *not*
    stored: the Galerkin kernel is symmetric, so the operator applies the
    stored values a second time transposed (the block-level analogue of the
    dense assemblers' upper-triangle iteration).
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    mirrored: bool = False

    @property
    def stored_entries(self) -> int:
        """Dense entry count of the block."""
        return int(self.values.size)


@dataclass
class LowRankBlockEntry:
    """One ACA-compressed far-field block (``mirrored`` as for dense blocks)."""

    rows: np.ndarray
    cols: np.ndarray
    factors: LowRankFactors
    mirrored: bool = False

    @property
    def stored_entries(self) -> int:
        """Entry count of the stored factors, ``k (m + n)``."""
        return self.factors.stored_entries


class HMatrix(LinearOperator):
    """Hierarchically compressed symmetric-kernel operator.

    Built by :func:`build_hmatrix`; apart from the ``LinearOperator``
    interface it exposes the memory accounting the compressed backend
    reports (stored entries vs ``N^2``, compression ratio, largest block
    rank).
    """

    def __init__(
        self,
        size: int,
        dense_blocks: list[DenseBlockEntry],
        lowrank_blocks: list[LowRankBlockEntry],
        worker_seconds: list[float] | None = None,
        entries_sampled: int = 0,
    ):
        super().__init__(dtype=np.dtype(float), shape=(size, size))
        self.dense_blocks = dense_blocks
        self.lowrank_blocks = lowrank_blocks
        #: Kernel busy seconds of each worker's key slices (one entry per
        #: worker; inline evaluation counts as worker 0).
        self.worker_seconds = list(worker_seconds or [])
        #: Oracle entries the build sampled.
        self.entries_sampled = int(entries_sampled)
        # The packed operator the products apply: every near block, its
        # mirrored transpose included, in one CSR matrix, and the far
        # factors as block-sparse ``U`` (N x K) / ``V`` (K x N) whose rank
        # groups are the blocks' factors (a mirrored block adds a second
        # group, right after its first, holding ``v.T`` / ``u.T``).  A
        # mirrored group's triplets are its original's swapped, and CSR
        # conversion sorts every row, so each matrix is packed in one sweep
        # over all blocks.
        rows, cols, values, block = _block_triplets(
            [dense.rows for dense in dense_blocks],
            [dense.cols for dense in dense_blocks],
            [dense.values for dense in dense_blocks],
        )
        mirror = np.array([dense.mirrored for dense in dense_blocks], dtype=bool)[block]
        self.near = _csr(
            dense_blocks,
            (np.concatenate([rows, cols[mirror]]), np.concatenate([cols, rows[mirror]])),
            np.concatenate([values, values[mirror]]),
            (size, size),
        )
        ranks = np.array([lowrank.factors.rank for lowrank in lowrank_blocks], dtype=np.intp)
        mirrored = np.array([lowrank.mirrored for lowrank in lowrank_blocks], dtype=bool)
        group_ranks = ranks * (1 + mirrored)
        first = np.cumsum(group_ranks) - group_ranks
        rank_count = int(group_ranks.sum())
        u_rows, u_ranks, u_values, u_block = _block_triplets(
            [lowrank.rows for lowrank in lowrank_blocks],
            first,
            [lowrank.factors.u for lowrank in lowrank_blocks],
        )
        v_ranks, v_cols, v_values, v_block = _block_triplets(
            first,
            [lowrank.cols for lowrank in lowrank_blocks],
            [lowrank.factors.v for lowrank in lowrank_blocks],
        )
        u_mirror, v_mirror = mirrored[u_block], mirrored[v_block]
        self.far_u = _csr(
            lowrank_blocks,
            (
                np.concatenate([u_rows, v_cols[v_mirror]]),
                np.concatenate([u_ranks, (v_ranks + ranks[v_block])[v_mirror]]),
            ),
            np.concatenate([u_values, v_values[v_mirror]]),
            (size, rank_count),
        )
        self.far_v = _csr(
            lowrank_blocks,
            (
                np.concatenate([v_ranks, (u_ranks + ranks[u_block])[u_mirror]]),
                np.concatenate([v_cols, u_rows[u_mirror]]),
            ),
            np.concatenate([v_values, u_values[u_mirror]]),
            (rank_count, size),
        )

    # ------------------------------------------------------------------
    def _matmat(self, x: np.ndarray) -> np.ndarray:
        """Multi-vector product ``near @ x + U @ (V @ x)``.

        Three sparse products per call, whatever the number of columns:
        the blocked multi-right-hand-side GMRES of
        :func:`repro.solver.iterative.gmres_solve` traverses the operator
        once per lockstep iteration instead of once per conductor.
        """
        x = np.asarray(x, dtype=float)
        return np.asarray(self.near @ x + self.far_u @ (self.far_v @ x))

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self._matmat(np.asarray(x, dtype=float).reshape(-1, 1)).ravel()

    # ------------------------------------------------------------------
    @property
    def num_unknowns(self) -> int:
        """Operator dimension ``N``."""
        return int(self.shape[0])

    @property
    def stored_entries(self) -> int:
        """Stored entry count over all blocks."""
        return sum(b.stored_entries for b in self.dense_blocks) + sum(
            b.stored_entries for b in self.lowrank_blocks
        )

    @property
    def dense_entries(self) -> int:
        """Entry count ``N^2`` of the uncompressed matrix."""
        return self.num_unknowns * self.num_unknowns

    @property
    def compression_ratio(self) -> float:
        """``stored_entries / N^2`` (1.0 means no compression)."""
        return self.stored_entries / self.dense_entries if self.dense_entries else 0.0

    @property
    def max_block_rank(self) -> int:
        """Largest ACA rank over the far-field blocks."""
        if not self.lowrank_blocks:
            return 0
        return max(b.factors.rank for b in self.lowrank_blocks)

    @property
    def memory_bytes(self) -> int:
        """Bytes of every array the operator holds.

        The stored blocks (values or factors plus index arrays) and the
        packed CSR near field and far factors that the products apply.
        """
        arrays: list[np.ndarray] = []
        for dense in self.dense_blocks:
            arrays += [dense.rows, dense.cols, dense.values]
        for lowrank in self.lowrank_blocks:
            arrays += [lowrank.rows, lowrank.cols, lowrank.factors.u, lowrank.factors.v]
        for packed in (self.near, self.far_u, self.far_v):
            arrays += [packed.data, packed.indices, packed.indptr]
        return sum(int(array.nbytes) for array in arrays)

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator (the Jacobi preconditioner's input).

        Read from the packed near field: a block containing ``(i, i)`` has
        overlapping row and column clusters, hence separation zero, hence
        is inadmissible.
        """
        near = self.near
        rows = np.repeat(np.arange(self.shape[0]), np.diff(near.indptr))
        on_diagonal = rows == near.indices
        seen = np.zeros(self.shape[0], dtype=bool)
        seen[rows[on_diagonal]] = True
        if not np.all(seen):
            missing = np.flatnonzero(~seen)
            raise RuntimeError(
                f"{missing.size} diagonal entries not covered by near blocks "
                "(block partition is inconsistent)"
            )
        diag = np.empty(self.shape[0])
        diag[rows[on_diagonal]] = near.data[on_diagonal]
        return diag

    def dense(self) -> np.ndarray:
        """Materialise the full matrix (tests and diagnostics only)."""
        out = np.zeros(self.shape)
        for dense_block in self.dense_blocks:
            out[np.ix_(dense_block.rows, dense_block.cols)] = dense_block.values
            if dense_block.mirrored:
                out[np.ix_(dense_block.cols, dense_block.rows)] = dense_block.values.T
        for lowrank in self.lowrank_blocks:
            values = lowrank.factors.dense()
            out[np.ix_(lowrank.rows, lowrank.cols)] = values
            if lowrank.mirrored:
                out[np.ix_(lowrank.cols, lowrank.rows)] = values.T
        return out

    def stats(self) -> dict:
        """Machine-readable compression statistics."""
        return {
            "num_unknowns": self.num_unknowns,
            "stored_entries": self.stored_entries,
            "dense_entries": self.dense_entries,
            "compression_ratio": self.compression_ratio,
            "max_block_rank": self.max_block_rank,
            "num_near_blocks": len(self.dense_blocks),
            "num_far_blocks": len(self.lowrank_blocks),
            "memory_bytes": self.memory_bytes,
            "worker_seconds": list(self.worker_seconds),
        }


# ----------------------------------------------------------------------
def build_hmatrix(
    entries: GalerkinEntries,
    epsilon: float = 1e-4,
    max_rank: int = 64,
    leaf_size: int = 32,
    eta: float = 2.0,
    num_workers: int = 1,
    executor: str = "thread",
) -> HMatrix:
    """Assemble the hierarchical operator from an entry oracle.

    Parameters
    ----------
    entries:
        The condensed-matrix entry oracle.
    epsilon:
        Relative ACA stopping tolerance of the far-field blocks.
    max_rank:
        ACA rank cap per block.
    leaf_size:
        Cluster-tree leaf size (near-field block dimension).
    eta:
        Admissibility parameter (see
        :class:`~repro.compress.blocktree.BlockClusterTree`).
    num_workers:
        Workers that evaluate slices of the missing kernel keys of each
        large oracle call; the per-worker busy times are recorded on the
        returned operator.
    executor:
        ``"serial"``, ``"thread"`` (default) or ``"process"`` — see the
        module docstring.  With ``num_workers=1`` every executor degrades
        to the serial path.  The assembled operator is bit-identical across
        executors and worker counts.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    check_mode(executor)
    core = entries.assembler.core
    mode = "serial" if num_workers == 1 else executor
    work: Counter[str] = Counter()
    with span(
        "assembly.build_hmatrix",
        executor=executor,
        num_workers=num_workers,
        unknowns=entries.num_unknowns,
    ) as build_span:
        with span("compress.tree") as tree_span:
            blocks = _upper_blocks(entries, leaf_size, eta)
            if tree_span is not None:
                tree_span.attributes["blocks"] = len(blocks)
        near = [block for block in blocks if not block.admissible]
        far = [block for block in blocks if block.admissible]
        with WorkerPool(core.evaluate_slice, mode, num_workers) as pool, core.dealing(
            pool, num_workers
        ) as slices:
            with _phase("compress.near", near, work, slices):
                dense_blocks = _assemble_dense_blocks(entries, near, work)
            with _phase("compress.far", far, work, slices):
                lowrank_blocks = _assemble_lowrank_blocks(entries, far, epsilon, max_rank, work)
        with span("compress.pack", blocks=len(blocks)):
            hmatrix = HMatrix(
                size=entries.num_unknowns,
                dense_blocks=dense_blocks,
                lowrank_blocks=lowrank_blocks,
                worker_seconds=slices.busy,
                entries_sampled=work["entries_sampled"],
            )
        if build_span is not None:
            build_span.attributes.update(
                pairs_requested=work["pairs_requested"], keys_evaluated=work["keys_evaluated"]
            )
    return hmatrix


@contextmanager
def _phase(name: str, blocks: list[Block], work: Counter[str], slices: KeySlices) -> Iterator[None]:
    """A build-phase span counting its blocks and the kernel keys it evaluated.

    ``keys_evaluated`` is the phase's share of the oracle's evaluations,
    ``slices_dispatched`` the key slices it mapped over the worker pool and
    ``keys_inline`` the keys it evaluated in the calling thread.
    """
    keys, dispatched, inline = work["keys_evaluated"], slices.dispatched, slices.inline_keys
    with span(name, blocks=len(blocks)) as phase:
        yield
        if phase is not None:
            phase.attributes.update(
                keys_evaluated=work["keys_evaluated"] - keys,
                slices_dispatched=slices.dispatched - dispatched,
                keys_inline=slices.inline_keys - inline,
            )


def _upper_blocks(entries: GalerkinEntries, leaf_size: int, eta: float) -> list[Block]:
    """The deterministic diagonal-plus-upper block list of the block partition.

    The Galerkin kernel is symmetric and the block partition is mirror
    symmetric, so only the diagonal and "upper" blocks are assembled; the
    operator applies stored off-diagonal blocks twice (once transposed).
    """
    tree = ClusterTree(*entries.support_bounds(), leaf_size=leaf_size)
    block_tree = BlockClusterTree(tree, tree, eta=eta)
    first = np.array([int(node.indices.min()) for node in tree.nodes])
    rows, cols = block_tree.row_ids, block_tree.col_ids
    upper = np.flatnonzero((rows == cols) | (first[rows] < first[cols]))
    return [block_tree.blocks[k] for k in upper]


def _assemble_dense_blocks(
    entries: GalerkinEntries, blocks: list[Block], work: Counter[str]
) -> list[DenseBlockEntry]:
    """Assemble every near-field block in one oracle call.

    Off-diagonal (mirrored) blocks request their full ``rows x cols`` entry
    set; diagonal blocks are symmetric, so only the upper triangle is
    evaluated and mirrored (half the integral work, exactly like
    :meth:`GalerkinEntries.symmetric_block`).  The oracle's work counts
    accumulate in ``work``.
    """
    if not blocks:
        return []
    entry_rows: list[np.ndarray] = []
    entry_cols: list[np.ndarray] = []
    for block in blocks:
        rows = block.row.indices
        cols = block.col.indices
        if block.row is block.col:
            upper_i, upper_j = np.triu_indices(rows.size)
            entry_rows.append(rows[upper_i])
            entry_cols.append(rows[upper_j])
        else:
            entry_rows.append(np.repeat(rows, cols.size))
            entry_cols.append(np.tile(cols, rows.size))
    values = entries.entry_values(
        np.concatenate(entry_rows), np.concatenate(entry_cols), work=work
    )
    dense_blocks: list[DenseBlockEntry] = []
    offset = 0
    for block, flat_rows in zip(blocks, entry_rows):
        rows = block.row.indices
        cols = block.col.indices
        mirrored = block.row is not block.col
        block_values = values[offset : offset + flat_rows.size]
        offset += flat_rows.size
        if mirrored:
            dense = block_values.reshape(rows.size, cols.size)
        else:
            upper_i, upper_j = np.triu_indices(rows.size)
            dense = np.empty((rows.size, rows.size))
            dense[upper_i, upper_j] = block_values
            dense[upper_j, upper_i] = block_values
        dense_blocks.append(
            DenseBlockEntry(rows=rows, cols=cols, values=dense, mirrored=mirrored)
        )
    return dense_blocks


def _assemble_lowrank_blocks(
    entries: GalerkinEntries,
    blocks: list[Block],
    epsilon: float,
    max_rank: int,
    work: Counter[str],
) -> list[LowRankBlockEntry]:
    """Compress every far-field block, all ACAs in lockstep.

    Each block runs its own :func:`~repro.compress.aca.aca_core`; every
    step gathers the one pending row or column request of each unfinished
    block and answers them all with ONE oracle call.  Entries are
    elementwise independent, so the factors are bit-identical to per-block
    ACA while the oracle calls drop from the sum of the blocks' sample
    counts to the longest single run.  The oracle's work counts accumulate
    in ``work``.
    """
    cores = [aca_core(block.shape, epsilon, max_rank) for block in blocks]
    requests = {b: next(core) for b, core in enumerate(cores)}
    factors: dict[int, LowRankFactors] = {}
    while requests:
        entry_rows: list[np.ndarray] = []
        entry_cols: list[np.ndarray] = []
        for b, (kind, index) in requests.items():
            rows = blocks[b].row.indices
            cols = blocks[b].col.indices
            if kind == "row":
                entry_rows.append(np.full(cols.size, rows[index]))
                entry_cols.append(cols)
            else:
                entry_rows.append(rows)
                entry_cols.append(np.full(rows.size, cols[index]))
        values = entries.entry_values(
            np.concatenate(entry_rows), np.concatenate(entry_cols), work=work
        )
        offset = 0
        pending = list(requests)
        requests = {}
        for b, flat_rows in zip(pending, entry_rows):
            sample = values[offset : offset + flat_rows.size]
            offset += flat_rows.size
            try:
                requests[b] = cores[b].send(sample)
            except StopIteration as stop:
                factors[b] = stop.value
    return [
        LowRankBlockEntry(
            rows=block.row.indices,
            cols=block.col.indices,
            factors=factors[b],
            mirrored=block.row is not block.col,
        )
        for b, block in enumerate(blocks)
    ]


def _block_triplets(
    rows: list[np.ndarray] | np.ndarray,
    cols: list[np.ndarray] | np.ndarray,
    values: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate triplets of dense blocks ``rows[b] x cols[b]``, in one sweep.

    ``values[b]`` is block ``b``'s ``(m, n)`` array.  An index side may
    instead be an integer array of range starts: block ``b`` then spans
    the contiguous indices from ``rows[b]`` (or ``cols[b]``) on -- the rank
    range of a far factor.  Returns the rows, columns and values of every
    entry, row-major within each block, and the block of every entry.
    """
    shapes = np.array([block.shape for block in values], dtype=np.intp).reshape(-1, 2)
    m, n = shapes[:, 0], shapes[:, 1]
    sizes = m * n
    block = np.repeat(np.arange(sizes.size), sizes)
    local = np.arange(int(sizes.sum())) - (np.cumsum(sizes) - sizes)[block]
    flat_values = np.concatenate([np.ravel(v) for v in values] or [np.zeros(0)])
    return (
        _side(rows, m, block, local // n[block]),
        _side(cols, n, block, local % n[block]),
        flat_values,
        block,
    )


def _side(
    side: list[np.ndarray] | np.ndarray, counts: np.ndarray, block: np.ndarray, position: np.ndarray
) -> np.ndarray:
    """Index of every entry along one block side (index arrays or range starts)."""
    if isinstance(side, np.ndarray):
        return side[block] + position
    flat = np.concatenate(side or [np.zeros(0, dtype=np.intp)])
    return flat[(np.cumsum(counts) - counts)[block] + position]


def _csr(
    blocks: list, coords: tuple[np.ndarray, np.ndarray], values: np.ndarray, shape: tuple[int, int]
) -> csr_matrix:
    """One CSR matrix from coordinate triplets that overlap nowhere (empty without blocks)."""
    if not blocks:
        return csr_matrix(shape)
    return csr_matrix((values, coords), shape=shape)
