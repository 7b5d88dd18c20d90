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

Within a partition every oracle call is batched: the whole near field is
evaluated in one call, and the ACAs of all far blocks run in lockstep, one
call per ACA step answering the pending row or column sample of every
unfinished block.  Entries do not depend on how they are batched, so this
is bit-identical to per-block assembly.

Block assembly is worker-partitioned: the flat block list is divided into
``num_workers`` contiguous partitions with
:func:`repro.assembly.partition.partition_range` (the same equal-split idiom
as the parallel Galerkin assemblers) and the partitions are mapped over
:func:`repro.parallel.executor.map_jobs` in one of its modes:

* ``"serial"`` — partitions run one after another in the current process
  (the reference the others must match);
* ``"thread"`` (default) — one thread per partition, each calling the
  caller's own entry oracle.  Partitions overlap only while the kernel core
  is inside NumPy calls that release the GIL; the Python around them
  serialises;
* ``"process"`` — one forked worker per partition.  The workers inherit the
  caller's oracle and block list at the fork, with the closure that
  assembles a partition, so only the partition bounds are pickled on the
  way out and the block entries come back over the pipe.  A custom
  ``collocation_fn`` of the oracle runs in the workers too.

Threads do not pay on a 2-core host.  On the bus 6x6 ``face_refinement=2``,
``leaf_size=16`` system (N=360, 80 far blocks) on a 2-core Xeon, two sets
of 9 interleaved builds had medians of 0.42 / 0.47 s serial, 0.43 / 0.53 s
on 2 threads and 0.35 / 0.39 s on 2 processes.

Each partition's arithmetic is independent and the merged block lists are
ordered by partition index, so the assembled operator is **bit-identical**
across executors and worker counts.  ``worker_seconds`` records each
partition's wall-clock time measured inside its worker, and
``entries_sampled`` the sum of the oracle entries the partitions sampled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator

from repro.assembly.partition import partition_range
from repro.compress.aca import LowRankFactors, aca_core
from repro.compress.blocktree import Block, BlockClusterTree
from repro.compress.cluster import ClusterTree
from repro.compress.entries import GalerkinEntries
from repro.obs import clock
from repro.obs.trace import record_span, span
from repro.parallel.executor import check_mode, map_jobs

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
        #: Per-partition assembly wall-clock times (one entry per worker).
        self.worker_seconds = list(worker_seconds or [])
        #: Oracle entries the build sampled, summed over its partitions.
        self.entries_sampled = int(entries_sampled)
        # The packed operator the products apply: every near block, its
        # mirrored transpose included, in one CSR matrix, and the far
        # factors as block-sparse ``U`` (N x K) / ``V`` (K x N) whose rank
        # groups are the blocks' factors (a mirrored block adds a second
        # group holding ``v.T`` / ``u.T``).
        near: list[_Triplets] = []
        for dense in dense_blocks:
            near.append(_triplets(dense.rows, dense.cols, dense.values))
            if dense.mirrored:
                near.append(_triplets(dense.cols, dense.rows, dense.values.T))
        far_u: list[_Triplets] = []
        far_v: list[_Triplets] = []
        rank_offset = 0
        for lowrank in lowrank_blocks:
            u, v = lowrank.factors.u, lowrank.factors.v
            groups = [(lowrank.rows, lowrank.cols, u, v)]
            if lowrank.mirrored:
                groups.append((lowrank.cols, lowrank.rows, v.T, u.T))
            for rows, cols, left, right in groups:
                ranks = np.arange(rank_offset, rank_offset + left.shape[1])
                far_u.append(_triplets(rows, ranks, left))
                far_v.append(_triplets(ranks, cols, right))
                rank_offset += int(ranks.size)
        self.near = _csr(near, (size, size))
        self.far_u = _csr(far_u, (size, rank_offset))
        self.far_v = _csr(far_v, (rank_offset, size))

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
        Number of equal partitions of the block list, each assembled by one
        worker; the per-partition assembly times are recorded on the
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
    with span(
        "assembly.build_hmatrix",
        executor=executor,
        num_workers=num_workers,
        unknowns=entries.num_unknowns,
    ) as build_span:
        blocks = _upper_blocks(entries, leaf_size, eta)
        parts = partition_range(len(blocks), num_workers)

        mode = "serial" if num_workers == 1 else executor
        # Every mode runs the same closure over the caller's oracle; forked
        # workers inherit it, so only the partition bounds are pickled.
        partition_results = map_jobs(
            lambda part: _assemble_partition(
                entries, blocks[part.start : part.stop], epsilon, max_rank
            ),
            parts,
            mode=mode,
            workers=num_workers,
        )
        if mode == "process":
            # The fork workers cannot reach the in-process trace; their
            # wall times come back over the pipe and are re-attached as
            # synthesized spans so the tree still accounts for the work.
            for index, (_, _, seconds, _) in enumerate(partition_results):
                record_span("assembly.partition", seconds, worker=index, executor="process")

        # Deterministic merge: block lists concatenated in partition order
        # keep the result bit-identical to (and ordered like) the serial
        # sweep.
        dense_blocks: list[DenseBlockEntry] = []
        lowrank_blocks: list[LowRankBlockEntry] = []
        worker_seconds: list[float] = []
        work: Counter[str] = Counter()
        for part_dense, part_lowrank, seconds, part_work in partition_results:
            dense_blocks.extend(part_dense)
            lowrank_blocks.extend(part_lowrank)
            worker_seconds.append(seconds)
            work.update(part_work)
        if build_span is not None:
            build_span.attributes.update(
                pairs_requested=work["pairs_requested"], keys_evaluated=work["keys_evaluated"]
            )

    return HMatrix(
        size=entries.num_unknowns,
        dense_blocks=dense_blocks,
        lowrank_blocks=lowrank_blocks,
        worker_seconds=worker_seconds,
        entries_sampled=work["entries_sampled"],
    )


def _upper_blocks(entries: GalerkinEntries, leaf_size: int, eta: float) -> list[Block]:
    """The deterministic diagonal-plus-upper block list of the partition.

    The Galerkin kernel is symmetric and the block partition is mirror
    symmetric, so only the diagonal and "upper" blocks are assembled; the
    operator applies stored off-diagonal blocks twice (once transposed).
    """
    tree = ClusterTree(*entries.support_bounds(), leaf_size=leaf_size)
    block_tree = BlockClusterTree(tree, tree, eta=eta)
    return [
        block
        for block in block_tree.blocks
        if block.row is block.col
        or int(block.row.indices.min()) < int(block.col.indices.min())
    ]


def _assemble_partition(
    entries: GalerkinEntries,
    part_blocks: list[Block],
    epsilon: float,
    max_rank: int,
) -> tuple[list[DenseBlockEntry], list[LowRankBlockEntry], float, Counter[str]]:
    """Assemble one worker's partition of the block list.

    Pure with respect to shared state (each call appends only to its own
    lists; the oracle's key table only ever gains values that are pure
    functions of their keys), so partitions can run concurrently; the
    wall-clock time is measured inside the worker and therefore reflects
    true concurrent assembly under the thread/process executors.  Returns
    the blocks, that time and the partition's oracle work counts
    (``entries_sampled``, ``pairs_requested``, ``keys_evaluated``; see
    :meth:`GalerkinEntries.entry_values`).
    """
    t_begin = clock.now()
    dense_blocks: list[DenseBlockEntry] = []
    lowrank_blocks: list[LowRankBlockEntry] = []
    work: Counter[str] = Counter()
    # All inadmissible blocks of the partition are evaluated through ONE
    # batched oracle call: the entries are elementwise independent, so
    # fusing the blocks is bit-identical to per-block assembly while
    # letting the kernel core amortise its per-call vectorisation setup
    # over the whole near field.
    _assemble_dense_blocks(
        entries, [b for b in part_blocks if not b.admissible], dense_blocks, work
    )
    _assemble_lowrank_blocks(
        entries, [b for b in part_blocks if b.admissible], epsilon, max_rank, lowrank_blocks, work
    )
    return dense_blocks, lowrank_blocks, clock.now() - t_begin, work


def _assemble_dense_blocks(
    entries: GalerkinEntries,
    blocks: list[Block],
    dense_blocks: list[DenseBlockEntry],
    work: Counter[str],
) -> None:
    """Assemble every near-field block of a partition in one oracle call.

    Off-diagonal (mirrored) blocks request their full ``rows x cols`` entry
    set; diagonal blocks are symmetric, so only the upper triangle is
    evaluated and mirrored (half the integral work, exactly like
    :meth:`GalerkinEntries.symmetric_block`).  The oracle's work counts
    accumulate in ``work``.
    """
    if not blocks:
        return
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


def _assemble_lowrank_blocks(
    entries: GalerkinEntries,
    blocks: list[Block],
    epsilon: float,
    max_rank: int,
    lowrank_blocks: list[LowRankBlockEntry],
    work: Counter[str],
) -> None:
    """Compress every far-field block of a partition, all ACAs in lockstep.

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
    for b, block in enumerate(blocks):
        lowrank_blocks.append(
            LowRankBlockEntry(
                rows=block.row.indices,
                cols=block.col.indices,
                factors=factors[b],
                mirrored=block.row is not block.col,
            )
        )


_Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]


def _triplets(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> _Triplets:
    """Coordinate triplets of a dense ``rows x cols`` block."""
    return np.repeat(rows, cols.size), np.tile(cols, rows.size), values.ravel()


def _csr(parts: list[_Triplets], shape: tuple[int, int]) -> csr_matrix:
    """One CSR matrix from coordinate triplets that overlap nowhere."""
    if not parts:
        return csr_matrix(shape)
    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    return csr_matrix((values, (rows, cols)), shape=shape)
