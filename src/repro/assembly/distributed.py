"""Distributed-memory (MPI-like) system-setup flow (paper Section 5.2, Figures 5-6).

Every process owns a copy of the template definitions.  The main process
(``d = 1``) computes its partition directly into ``P``; every other process
computes its partition into a *partial matrix* covering only the contiguous
column range of ``P`` touched by its partition (adjacent partitions may
share one common column, Figure 5), sends it to the main process, and the
main process shifts and accumulates it.

As with the shared-memory flow, two execution modes exist: sequential
in-process execution (used by the simulated parallel machine -- identical
arithmetic, per-node times and communication volumes, independent of the
host's physical core count) and real ``multiprocessing`` processes with the
partial matrices transferred over pipes, which exercises the actual
send/receive path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler, ChunkResult, symmetrize_upper
from repro.assembly.shared_memory import (
    ParallelSetupResult,
    PartitionedAssembler,
    rebuild_assembler,
    record_work,
)
from repro.obs.trace import span

__all__ = ["DistributedAssembler", "PartialMatrix"]


@dataclass
class PartialMatrix:
    """The message a non-main process sends to the main process.

    Attributes
    ----------
    first_column, last_column:
        Inclusive column range of ``P`` covered by the partial matrix.
    block:
        The ``N x (last_column - first_column + 1)`` partial matrix
        ``P_{K_d}``.
    """

    first_column: int
    last_column: int
    block: np.ndarray

    @property
    def num_columns(self) -> int:
        """Width ``N_d`` of the partial matrix."""
        return self.last_column - self.first_column + 1

    @property
    def nbytes(self) -> int:
        """Message size in bytes (the communication volume of the node)."""
        return int(self.block.nbytes)


def _column_block(
    assembler: BatchGalerkinAssembler, start: int, stop: int
) -> tuple[PartialMatrix, ChunkResult]:
    """Assemble one partition into its column-restricted partial matrix."""
    full, result = assembler.assemble_chunk(start, stop, condense_mode="upper")
    first, last = assembler.chunk_column_range(start, stop)
    if last < first:
        first, last = 0, 0
    return PartialMatrix(first, last, full[:, first : last + 1].copy()), result


def _distributed_worker(job: tuple) -> tuple[PartialMatrix, ChunkResult]:
    """Worker process: assemble one partition into a column-restricted block."""
    return _column_block(*rebuild_assembler(job))


class DistributedAssembler(PartitionedAssembler):
    """MPI-like parallel assembler with partial-matrix communication.

    Parameters are those of
    :class:`~repro.assembly.shared_memory.PartitionedAssembler`.
    """

    def assemble(self) -> ParallelSetupResult:
        """Run the distributed-memory system-setup flow."""
        with span("assembly.assemble", flow="distributed", nodes=self.num_nodes) as assemble_span:
            parts = self.partitions()
            if self.pooled:
                blocks = self.map_pool(_distributed_worker, parts)
            else:
                blocks = [_column_block(self.assembler, p.start, p.stop) for p in parts]

            # Merge: the main process' own partition is blocks[0]; the
            # others arrive as column-restricted messages that are shifted
            # and added.
            n = self.assembler.num_basis_functions
            upper = np.zeros((n, n))
            for partial, _ in blocks:
                upper[:, partial.first_column : partial.last_column + 1] += partial.block
            result = ParallelSetupResult(
                matrix=symmetrize_upper(upper),
                node_results=[chunk for _, chunk in blocks],
                communication_bytes=[0] + [partial.nbytes for partial, _ in blocks[1:]],
            )
            record_work(assemble_span, result)
            return result
