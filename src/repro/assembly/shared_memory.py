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
  speedup/efficiency figures, without requiring more physical cores than the
  host has (the evaluation container has a single core, see DESIGN.md).
* ``use_processes=True``: the partitions are executed by a
  ``multiprocessing`` pool (one OS process per node), each worker returning
  its private partial matrix which the main process accumulates -- the
  functional equivalent of the OpenMP flow of Figure 4.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from repro.assembly.batch import BatchGalerkinAssembler, ChunkResult
from repro.assembly.partition import WorkPartition, partition_range
from repro.basis.functions import BasisSet
from repro.greens.policy import ApproximationPolicy
from repro.obs.trace import Span, span

__all__ = ["ParallelSetupResult", "SharedMemoryAssembler"]


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


def _shared_worker(args) -> tuple[np.ndarray, ChunkResult]:
    """Process-pool worker: assemble one partition into a private matrix."""
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
    return assembler.assemble_chunk(start, stop)


class SharedMemoryAssembler:
    """OpenMP-like parallel assembler.

    Parameters
    ----------
    basis_set, permittivity, policy, collocation_fn, order_near, order_far, batch_size:
        Forwarded to :class:`~repro.assembly.batch.BatchGalerkinAssembler`.
    num_nodes:
        Number of parallel computing nodes ``D``.
    use_processes:
        Execute partitions in a real process pool instead of sequentially.
        Note that accelerated ``collocation_fn`` objects are not forwarded to
        worker processes (their tables would be rebuilt per process); the
        process mode always uses the exact closed forms.
    """

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
        """Equal division of the iteration space over the nodes."""
        return partition_range(self.assembler.num_pairs, self.num_nodes)

    def assemble(self) -> ParallelSetupResult:
        """Run the shared-memory system-setup flow."""
        with span(
            "assembly.assemble", flow="shared_memory", nodes=self.num_nodes
        ) as assemble_span:
            if self.use_processes and self.num_nodes > 1:
                result = self._assemble_with_processes()
            else:
                result = self._assemble_sequentially()
            record_work(assemble_span, result)
            return result

    # ------------------------------------------------------------------
    def _assemble_sequentially(self) -> ParallelSetupResult:
        """Execute every partition in-process, recording per-partition times."""
        n = self.assembler.num_basis_functions
        matrix = np.zeros((n, n))
        node_results: list[ChunkResult] = []
        for part in self.partitions():
            _, result = self.assembler.assemble_chunk(part.start, part.stop, out=matrix)
            node_results.append(result)
        return ParallelSetupResult(
            matrix=matrix,
            node_results=node_results,
            communication_bytes=[0] * self.num_nodes,
        )

    def _assemble_with_processes(self) -> ParallelSetupResult:
        """Execute the partitions in a multiprocessing pool (Figure 4 flow)."""
        parts = self.partitions()
        jobs = [
            (
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
            for part in parts
        ]
        n = self.assembler.num_basis_functions
        matrix = np.zeros((n, n))
        node_results: list[ChunkResult] = []
        context = multiprocessing.get_context("fork")
        communication_bytes: list[int] = []
        with context.Pool(processes=min(self.num_nodes, len(jobs))) as pool:
            for partial, result in pool.map(_shared_worker, jobs):
                matrix += partial
                node_results.append(result)
                communication_bytes.append(int(partial.nbytes))
        return ParallelSetupResult(
            matrix=matrix,
            node_results=node_results,
            communication_bytes=communication_bytes,
        )
