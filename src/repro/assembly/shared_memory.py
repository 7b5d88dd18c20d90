"""Shared-memory (OpenMP-like) system-setup flow (paper Section 5.1, Figure 4).

The template definitions and the output matrix ``P`` live in shared memory;
``D`` workers each compute the entries of ``P~`` in their partition within
private memory and add the result into ``P``.  Two execution modes are
provided:

* ``use_processes=False`` (default): the partitions are executed one after
  another in the current process, and the per-partition wall-clock times are
  recorded.  This is the mode used by the *simulated parallel machine*
  (:mod:`repro.parallel.machine`) -- it reproduces the exact work division
  and load balance of the parallel run, which is what determines the
  speedup/efficiency figures, without requiring as many physical cores as
  nodes.
* ``use_processes=True``: the partitions are executed by the ``process``
  mode of :func:`repro.parallel.executor.map_jobs` (one forked worker per
  node), each worker returning its private partial matrix which the main
  process accumulates -- the functional equivalent of the OpenMP flow of
  Figure 4.  The workers run a closure over the parent's assembler, which
  they inherit at the fork with the template definitions, so nothing is
  rebuilt or pickled on the way in: only the partition bounds go out and the
  partial matrices come back.  A worker that dies raises
  ``BrokenProcessPool``.

:class:`PartitionedAssembler` holds what this flow shares with the
distributed one (:mod:`repro.assembly.distributed`): the constructor and the
equal partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler, ChunkResult
from repro.assembly.partition import WorkPartition, partition_range
from repro.basis.functions import BasisSet
from repro.greens.policy import ApproximationPolicy
from repro.obs.trace import Span, span
from repro.parallel.executor import map_jobs

__all__ = ["ParallelSetupResult", "PartitionedAssembler", "SharedMemoryAssembler"]


@dataclass
class ParallelSetupResult:
    """Result of a parallel system-setup run.

    Attributes
    ----------
    matrix:
        The condensed system matrix ``P``.
    node_results:
        One :class:`ChunkResult` per node (workload and measured time).
    communication_bytes:
        Bytes each node sends to the main process.  Shared-memory flow: the
        full ``N x N`` partial matrix each worker process pickles back, and
        zero when the partitions run in-process.  Distributed flow: the
        column block each non-main node sends (zero for the main node),
        also recorded when the flow runs in-process as a model.
    """

    matrix: np.ndarray
    node_results: list[ChunkResult] = field(default_factory=list)
    communication_bytes: list[int] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        """Number of parallel nodes used."""
        return len(self.node_results)

    @property
    def max_node_seconds(self) -> float:
        """Compute time of the slowest node (the parallel critical path)."""
        return max((r.elapsed_seconds for r in self.node_results), default=0.0)

    @property
    def total_node_seconds(self) -> float:
        """Sum of all node compute times (the serial work)."""
        return sum(r.elapsed_seconds for r in self.node_results)

    @property
    def load_imbalance(self) -> float:
        """Ratio of the slowest node time to the mean node time (1.0 = perfect)."""
        if not self.node_results:
            return 1.0
        mean = self.total_node_seconds / self.num_nodes
        return self.max_node_seconds / mean if mean > 0.0 else 1.0


def record_work(assemble_span: Span | None, result: ParallelSetupResult) -> None:
    """Attach the work and traffic of a setup run to its ``assembly.assemble`` span."""
    if assemble_span is None:
        return
    assemble_span.attributes.update(
        pairs=sum(r.num_pairs for r in result.node_results),
        pairs_evaluated=sum(r.num_evaluated for r in result.node_results),
        communication_bytes=sum(result.communication_bytes),
    )


class PartitionedAssembler:
    """Constructor and partitions of the parallel flows.

    Parameters
    ----------
    basis_set, permittivity, policy, order_near, order_far, batch_size:
        Forwarded to :class:`~repro.assembly.batch.BatchGalerkinAssembler`.
    num_nodes:
        Number of parallel computing nodes ``D``.
    use_processes:
        Execute partitions in worker processes instead of sequentially.
    """

    def __init__(
        self,
        basis_set: BasisSet,
        permittivity: float,
        num_nodes: int = 1,
        policy: ApproximationPolicy | None = None,
        order_near: int = 6,
        order_far: int = 3,
        batch_size: int = 200_000,
        use_processes: bool = False,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.basis_set = basis_set
        self.num_nodes = int(num_nodes)
        self.use_processes = bool(use_processes)
        self.assembler = BatchGalerkinAssembler(
            basis_set,
            permittivity,
            policy=policy,
            order_near=order_near,
            order_far=order_far,
            batch_size=batch_size,
        )

    @property
    def pooled(self) -> bool:
        """Whether the partitions run in worker processes."""
        return self.use_processes and self.num_nodes > 1

    def partitions(self) -> list[WorkPartition]:
        """Equal division of the iteration space over the nodes."""
        return partition_range(self.assembler.num_pairs, self.num_nodes)


class SharedMemoryAssembler(PartitionedAssembler):
    """OpenMP-like parallel assembler (parameters of :class:`PartitionedAssembler`)."""

    def assemble(self) -> ParallelSetupResult:
        """Run the shared-memory system-setup flow.

        In-process, every partition adds straight into ``P``; worker
        processes each return a private partial matrix that is added here.
        """
        with span(
            "assembly.assemble", flow="shared_memory", nodes=self.num_nodes
        ) as assemble_span:
            n = self.assembler.num_basis_functions
            matrix = np.zeros((n, n))
            parts = self.partitions()
            if self.pooled:
                assembler = self.assembler
                outputs = map_jobs(
                    lambda part: assembler.assemble_chunk(part.start, part.stop),
                    parts,
                    mode="process",
                    workers=self.num_nodes,
                )
                for partial, _ in outputs:
                    matrix += partial
                communication_bytes = [int(partial.nbytes) for partial, _ in outputs]
            else:
                outputs = [self.assembler.assemble_chunk(p.start, p.stop, out=matrix) for p in parts]
                communication_bytes = [0] * self.num_nodes
            result = ParallelSetupResult(
                matrix=matrix,
                node_results=[chunk for _, chunk in outputs],
                communication_bytes=communication_bytes,
            )
            record_work(assemble_span, result)
            return result
