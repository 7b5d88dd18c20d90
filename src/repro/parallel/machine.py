"""Simulated parallel machine model.

Given the per-node compute times and communication volumes produced by the
assembly backends (:class:`~repro.assembly.shared_memory.ParallelSetupResult`),
the machine model predicts the wall-clock time of a ``D``-node run:

* **shared memory (OpenMP-like, Figure 4)** --
  ``T_D = fork_join_overhead + max_d(T_compute_d) + T_reduce + T_solve``,
  where the reduction term models each thread adding its private results into
  the shared matrix behind a critical section.
* **distributed memory (MPI-like, Figures 5-6)** --
  ``T_D = spawn_overhead + max_d(T_compute_d + T_send_d) + T_merge + T_solve``,
  with ``T_send_d = latency + bytes_d / bandwidth`` for every non-main node.

The defaults are representative of the paper's 2011-era Xeon systems
(sub-millisecond thread/process management, ~1 GB/s effective intra-node MPI
bandwidth); the Table 3 / Figure 8 benchmarks sweep them in an ablation to
show the conclusions are insensitive to the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.assembly.batch import ChunkResult
from repro.assembly.shared_memory import ParallelSetupResult

__all__ = [
    "MachineModel",
    "ParallelRunTiming",
    "SimulatedParallelMachine",
    "calibrate_unit_costs",
    "with_predicted_times",
]


def calibrate_unit_costs(node_results: Sequence[ChunkResult]) -> dict[str, float]:
    """Fit per-category template-pair costs from measured chunk timings.

    A non-negative least-squares fit of the chunks' wall-clock times against
    their per-category *evaluated* counts (one per distinct pair key, see
    :class:`~repro.assembly.batch.ChunkResult`) yields the cost of one
    template-pair integral in every category.  The simulated parallel
    machine then predicts every partition's compute time from its evaluated
    counts, which removes scheduler jitter from the efficiency figures while
    charging each partition for the kernel work it really does.
    """
    from scipy.optimize import nnls

    if not node_results:
        raise ValueError("unit-cost calibration needs at least one measured chunk")
    categories = sorted({c for r in node_results for c in r.evaluated_counts})
    design = np.array(
        [[r.evaluated_counts.get(c, 0) for c in categories] for r in node_results],
        dtype=float,
    )
    elapsed = np.array([r.elapsed_seconds for r in node_results])
    costs, _ = nnls(design, elapsed)
    return dict(zip(categories, costs))


def with_predicted_times(
    setup: ParallelSetupResult, unit_costs: dict[str, float]
) -> ParallelSetupResult:
    """Copy of a setup result with node times replaced by the workload model."""
    return ParallelSetupResult(
        matrix=setup.matrix,
        node_results=[
            r.with_elapsed(r.predicted_seconds(unit_costs)) for r in setup.node_results
        ],
        communication_bytes=list(setup.communication_bytes),
    )


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters of the modelled parallel machine.

    Attributes
    ----------
    thread_overhead_seconds:
        Fixed cost of forking/joining the shared-memory worker threads.
    process_overhead_seconds:
        Fixed cost of launching the distributed processes (per run).
    communication_latency_seconds:
        Per-message latency of the interconnect.
    communication_bandwidth_bytes_per_second:
        Sustained bandwidth of the interconnect.
    reduction_seconds_per_byte:
        Cost of accumulating a worker's private result into the shared
        matrix (shared-memory flow) or of merging a received partial matrix
        (distributed flow).
    """

    thread_overhead_seconds: float = 2.0e-4
    process_overhead_seconds: float = 2.0e-3
    communication_latency_seconds: float = 5.0e-5
    communication_bandwidth_bytes_per_second: float = 1.0e9
    reduction_seconds_per_byte: float = 2.0e-10

    def send_time(self, num_bytes: int) -> float:
        """Time to send one message of ``num_bytes``."""
        if num_bytes <= 0:
            return 0.0
        return (
            self.communication_latency_seconds
            + num_bytes / self.communication_bandwidth_bytes_per_second
        )

    def reduction_time(self, num_bytes: int) -> float:
        """Time to accumulate ``num_bytes`` into the result matrix."""
        return max(num_bytes, 0) * self.reduction_seconds_per_byte


@dataclass(frozen=True)
class ParallelRunTiming:
    """Predicted timing of one parallel run."""

    num_nodes: int
    compute_seconds: float
    communication_seconds: float
    overhead_seconds: float
    solve_seconds: float

    @property
    def setup_seconds(self) -> float:
        """System-setup part of the run (compute + communication + overhead)."""
        return self.compute_seconds + self.communication_seconds + self.overhead_seconds

    @property
    def total_seconds(self) -> float:
        """Total predicted wall-clock time."""
        return self.setup_seconds + self.solve_seconds


class SimulatedParallelMachine:
    """Predicts multi-node wall-clock times from measured per-node work."""

    def __init__(self, model: MachineModel | None = None):
        self.model = model if model is not None else MachineModel()

    # ------------------------------------------------------------------
    def shared_memory_run(
        self,
        setup: ParallelSetupResult,
        solve_seconds: float = 0.0,
        matrix_bytes: int | None = None,
    ) -> ParallelRunTiming:
        """Model an OpenMP-like run from a measured setup decomposition."""
        num_nodes = max(setup.num_nodes, 1)
        matrix_bytes = int(setup.matrix.nbytes) if matrix_bytes is None else int(matrix_bytes)
        compute = setup.max_node_seconds
        # Worker threads (all but the main one) add their private results to
        # the shared matrix one after another (critical section).
        reduction = (num_nodes - 1) * self.model.reduction_time(matrix_bytes)
        overhead = self.model.thread_overhead_seconds if num_nodes > 1 else 0.0
        return ParallelRunTiming(
            num_nodes=num_nodes,
            compute_seconds=compute,
            communication_seconds=reduction,
            overhead_seconds=overhead,
            solve_seconds=solve_seconds,
        )

    def distributed_run(
        self,
        setup: ParallelSetupResult,
        solve_seconds: float = 0.0,
    ) -> ParallelRunTiming:
        """Model an MPI-like run from a measured setup decomposition."""
        num_nodes = max(setup.num_nodes, 1)
        compute_and_send = []
        merge = 0.0
        for result, num_bytes in zip(setup.node_results, setup.communication_bytes):
            send = self.model.send_time(num_bytes)
            compute_and_send.append(result.elapsed_seconds + send)
            merge += self.model.reduction_time(num_bytes)
        compute = max(compute_and_send) if compute_and_send else 0.0
        overhead = self.model.process_overhead_seconds if num_nodes > 1 else 0.0
        return ParallelRunTiming(
            num_nodes=num_nodes,
            compute_seconds=compute,
            communication_seconds=merge,
            overhead_seconds=overhead,
            solve_seconds=solve_seconds,
        )
