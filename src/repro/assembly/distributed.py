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

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler, ChunkResult, symmetrize_upper
from repro.assembly.partition import WorkPartition, partition_range
from repro.assembly.shared_memory import ParallelSetupResult, record_work
from repro.basis.functions import BasisSet
from repro.greens.policy import ApproximationPolicy
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


def _distributed_worker(args) -> tuple[PartialMatrix, ChunkResult]:
    """Worker process: assemble one partition into a column-restricted block."""
    (
        basis_set,
        permittivity,
        policy,
        order_near,
        order_far,
        batch_size,
        near_field,
        use_numba,
        start,
        stop,
    ) = args
    assembler = BatchGalerkinAssembler(
        basis_set,
        permittivity,
        policy=policy,
        order_near=order_near,
        order_far=order_far,
        batch_size=batch_size,
        near_field=near_field,
        use_numba=use_numba,
    )
    full, result = assembler.assemble_chunk(start, stop, condense_mode="upper")
    first, last = assembler.chunk_column_range(start, stop)
    return PartialMatrix(first, last, full[:, first : last + 1].copy()), result


class DistributedAssembler:
    """MPI-like parallel assembler with partial-matrix communication."""

    def __init__(
        self,
        basis_set: BasisSet,
        permittivity: float,
        num_nodes: int = 1,
        policy: ApproximationPolicy | None = None,
        collocation_fn=None,
        order_near: int = 6,
        order_far: int = 3,
        batch_size: int = 200_000,
        near_field: str = "exact",
        use_numba: bool | None = None,
        use_processes: bool = False,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.basis_set = basis_set
        self.permittivity = float(permittivity)
        self.num_nodes = int(num_nodes)
        self.policy = policy
        self.order_near = int(order_near)
        self.order_far = int(order_far)
        self.batch_size = int(batch_size)
        self.near_field = str(near_field)
        self.use_numba = use_numba
        self.use_processes = bool(use_processes)
        self.assembler = BatchGalerkinAssembler(
            basis_set,
            permittivity,
            policy=policy,
            collocation_fn=collocation_fn,
            order_near=order_near,
            order_far=order_far,
            batch_size=batch_size,
            near_field=near_field,
            use_numba=use_numba,
        )

    # ------------------------------------------------------------------
    def partitions(self) -> list[WorkPartition]:
        """Equal division of the iteration space over the processes."""
        return partition_range(self.assembler.num_pairs, self.num_nodes)

    def worker_job(self, part: WorkPartition) -> tuple:
        """Argument tuple, pickled to a worker, from which :func:`_distributed_worker` assembles ``part``."""
        return (
            self.basis_set,
            self.permittivity,
            self.policy,
            self.order_near,
            self.order_far,
            self.batch_size,
            self.near_field,
            self.use_numba,
            part.start,
            part.stop,
        )

    def assemble(self) -> ParallelSetupResult:
        """Run the distributed-memory system-setup flow."""
        with span("assembly.assemble", flow="distributed", nodes=self.num_nodes) as assemble_span:
            parts = self.partitions()
            if self.use_processes and self.num_nodes > 1:
                partials, node_results = self._run_with_processes(parts)
            else:
                partials, node_results = self._run_sequentially(parts)

            # Merge: the main process' own partition is partials[0]; the
            # others arrive as column-restricted messages that are shifted
            # and added.
            n = self.assembler.num_basis_functions
            upper = np.zeros((n, n))
            communication_bytes = [0]
            for index, partial in enumerate(partials):
                upper[:, partial.first_column : partial.last_column + 1] += partial.block
                if index > 0:
                    communication_bytes.append(partial.nbytes)
            result = ParallelSetupResult(
                matrix=symmetrize_upper(upper),
                node_results=node_results,
                communication_bytes=communication_bytes,
            )
            record_work(assemble_span, result)
            return result

    # ------------------------------------------------------------------
    def _run_sequentially(
        self, parts: list[WorkPartition]
    ) -> tuple[list[PartialMatrix], list[ChunkResult]]:
        """Execute every process' work in-process (simulated machine mode)."""
        partials: list[PartialMatrix] = []
        node_results: list[ChunkResult] = []
        n = self.assembler.num_basis_functions
        for part in parts:
            block_full = np.zeros((n, n))
            _, result = self.assembler.assemble_chunk(
                part.start, part.stop, out=block_full, condense_mode="upper"
            )
            first, last = self.assembler.chunk_column_range(part.start, part.stop)
            if last < first:
                first, last = 0, 0
            partials.append(PartialMatrix(first, last, block_full[:, first : last + 1].copy()))
            node_results.append(result)
        return partials, node_results

    def _run_with_processes(
        self, parts: list[WorkPartition]
    ) -> tuple[list[PartialMatrix], list[ChunkResult]]:
        """Execute the non-main partitions in worker processes (Figure 6 flow)."""
        jobs = [self.worker_job(part) for part in parts]
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=min(self.num_nodes, len(jobs))) as pool:
            results = pool.map(_distributed_worker, jobs)
        partials = [partial for partial, _ in results]
        node_results = [result for _, result in results]
        return partials, node_results
