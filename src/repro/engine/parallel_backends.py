"""Parallel Galerkin backends: shared-memory and distributed system setup.

These backends expose the paper's parallel system-setup flows (Sections
5.1-5.2) through the unified engine API.  Each translates its options into
an :class:`~repro.core.config.ExtractionConfig` on its flow and runs the one
Galerkin pipeline, :func:`~repro.core.engine.extract_galerkin`: instantiate
the compact basis, fill the condensed Galerkin matrix through one of the
parallel assembly flows in :mod:`repro.assembly`, and solve the assembled
system with the Jacobi-preconditioned lockstep GMRES of
:mod:`repro.solver.iterative`, by default sharing each matrix traversal
across all conductor columns:

==================== ===================================== ==================
name                 assembly flow                         communication
==================== ===================================== ==================
galerkin-shared      shared-memory workers, one shared P   none (Figure 4)
galerkin-distributed partial matrices merged by the main   partial-matrix
                     process                               messages (Fig. 5-6)
==================== ===================================== ==================

Common options
--------------
workers:
    Number of parallel workers ``D`` (default 2).
executor:
    ``"simulated"`` (default) executes the partitions one after another in
    the current process, recording per-worker times — the mode consumed by
    the simulated parallel machine and the scaling harness, independent of
    the host's physical core count.  ``"process"`` runs the partitions in
    forked worker processes (:mod:`repro.parallel.executor`), exercising
    the actual fork/pipe path.
tolerance, order_near, order_far, batch_size:
    Assembly accuracy/vectorisation knobs, as in
    :class:`~repro.core.config.ExtractionConfig`.
gmres_tolerance, max_iterations:
    Controls of the iterative solve.  GMRES stops on the
    Jacobi-preconditioned residual, relative to the preconditioned
    right-hand side; that residual bounds neither the true residual nor
    the charge error.
block_size:
    Conductor columns per lockstep GMRES block (``None`` = all in one
    block, ``1`` = one block per conductor).

The returned :class:`~repro.core.results.ExtractionResult` carries the full
:class:`~repro.assembly.shared_memory.ParallelSetupResult` — per-worker setup
times and communication volumes — plus the GMRES iteration statistics.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.config import ExtractionConfig, ParallelMode
from repro.core.engine import extract_galerkin
from repro.core.results import ExtractionResult
from repro.geometry.layout import Layout

__all__ = [
    "EXECUTOR_MODES",
    "GalerkinSharedBackend",
    "GalerkinDistributedBackend",
]

#: Executor modes of the parallel backends.
EXECUTOR_MODES = ("simulated", "process")


class _ParallelGalerkinBackend:
    """Option translation of the two parallel Galerkin backends.

    The options become an :class:`~repro.core.config.ExtractionConfig` on
    the backend's flow plus GMRES controls, and
    :func:`~repro.core.engine.extract_galerkin` runs the extraction.
    """

    name: ClassVar[str]
    description: ClassVar[str]
    #: ``"shared-memory"`` or ``"distributed"``; tells the scaling harness
    #: which machine-model run to apply.
    assembly_flow: ClassVar[str]
    #: The dense setup flow this backend runs.
    parallel_mode: ClassVar[ParallelMode]

    def extract(
        self,
        layout: Layout,
        *,
        workers: int = 2,
        executor: str = "simulated",
        tolerance: float = 0.01,
        order_near: int = 6,
        order_far: int = 3,
        batch_size: int = 200_000,
        gmres_tolerance: float = 1e-12,
        max_iterations: int = 500,
        block_size: int | None = None,
    ) -> ExtractionResult:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, got {executor!r}"
            )
        # int(): the assemblers truncate the node count, so requests with
        # workers=2.0 or True keep resolving.
        config = ExtractionConfig(
            tolerance=tolerance,
            parallel_mode=self.parallel_mode,
            num_nodes=int(workers),
            use_processes=executor == "process",
            order_near=order_near,
            order_far=order_far,
            batch_size=batch_size,
        )
        # Per-worker times and communication volumes are NOT duplicated in
        # the metadata: they live on parallel_setup and surface through the
        # result's worker_setup_seconds / worker_communication_bytes.
        return extract_galerkin(
            layout,
            config,
            lambda basis_set, setup: {
                "assembly_flow": self.assembly_flow,
                "workers": workers,
                "executor": executor,
            },
            backend=self.name,
            gmres=dict(tolerance=gmres_tolerance, max_iterations=max_iterations, block_size=block_size),
        )


class GalerkinSharedBackend(_ParallelGalerkinBackend):
    """Shared-memory (OpenMP-like) parallel Galerkin extraction."""

    name = "galerkin-shared"
    description = (
        "Parallel Galerkin BEM, shared-memory assembly (Section 5.1): "
        "D workers fill one shared condensed matrix, GMRES solve"
    )
    assembly_flow = "shared-memory"
    parallel_mode = ParallelMode.SHARED_MEMORY


class GalerkinDistributedBackend(_ParallelGalerkinBackend):
    """Distributed-memory (MPI-like) parallel Galerkin extraction."""

    name = "galerkin-distributed"
    description = (
        "Parallel Galerkin BEM, distributed partial-matrix assembly "
        "(Section 5.2): workers send column blocks to the main process, GMRES solve"
    )
    assembly_flow = "distributed"
    parallel_mode = ParallelMode.DISTRIBUTED
