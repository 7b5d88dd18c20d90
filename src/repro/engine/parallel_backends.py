"""Parallel Galerkin backends: shared-memory and distributed system setup.

These backends expose the paper's parallel system-setup flows (Sections
5.1-5.2) through the unified engine API.  Both instantiate the compact basis,
fill the condensed Galerkin matrix through one of the parallel assembly
flows in :mod:`repro.assembly`, and solve the assembled system with the
Jacobi-preconditioned GMRES of :mod:`repro.solver.iterative` — by default
in blocked multi-right-hand-side mode, sharing each matrix traversal across
all conductor columns (``block_size=1`` restores the per-conductor column
loop):

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
    Controls of the iterative solve.
block_size:
    Conductor columns per blocked-GMRES traversal group (``None`` = all in
    one lockstep block, ``1`` = the historical per-column loop).

The returned :class:`~repro.core.results.ExtractionResult` carries the full
:class:`~repro.assembly.shared_memory.ParallelSetupResult` — per-worker setup
times and communication volumes — plus the GMRES iteration statistics.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.assembly.distributed import DistributedAssembler
from repro.assembly.shared_memory import SharedMemoryAssembler
from repro.basis.instantiate import build_basis_set
from repro.core.results import ExtractionResult
from repro.geometry.layout import Layout
from repro.greens.policy import ApproximationPolicy
from repro.parallel.timing import SolverTimer
from repro.solver.capacitance import capacitance_from_solution
from repro.solver.iterative import gmres_solve

__all__ = [
    "EXECUTOR_MODES",
    "GalerkinSharedBackend",
    "GalerkinDistributedBackend",
]

#: Executor modes of the parallel backends.
EXECUTOR_MODES = ("simulated", "process")


class _ParallelGalerkinBackend:
    """Shared implementation of the two parallel Galerkin backends."""

    name: ClassVar[str]
    description: ClassVar[str]
    #: ``"shared-memory"`` or ``"distributed"``; selects the assembly flow
    #: and tells the scaling harness which machine-model run to apply.
    assembly_flow: ClassVar[str]

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

        basis_set = build_basis_set(layout)
        if basis_set.num_basis_functions == 0:
            raise ValueError("the layout produced an empty basis set")
        assembler_type = (
            SharedMemoryAssembler
            if self.assembly_flow == "shared-memory"
            else DistributedAssembler
        )
        assembler = assembler_type(
            basis_set,
            layout.permittivity,
            num_nodes=workers,
            policy=ApproximationPolicy(tolerance=tolerance),
            order_near=order_near,
            order_far=order_far,
            batch_size=batch_size,
            use_processes=executor == "process",
        )

        timer = SolverTimer()
        with timer.setup():
            parallel_setup = assembler.assemble()
            phi = basis_set.incidence_matrix(layout.num_conductors)
        matrix = parallel_setup.matrix

        with timer.solve():
            rho, stats = gmres_solve(
                lambda x: matrix @ x,
                phi,
                size=basis_set.num_basis_functions,
                tolerance=gmres_tolerance,
                max_iterations=max_iterations,
                diagonal=np.diag(matrix),
                matmat=lambda block: matrix @ block,
                block_size=block_size,
            )
            capacitance = capacitance_from_solution(phi, rho)

        return ExtractionResult(
            capacitance=capacitance,
            conductor_names=list(layout.names),
            num_basis_functions=basis_set.num_basis_functions,
            num_templates=basis_set.num_templates,
            setup_seconds=timer.setup_seconds,
            solve_seconds=timer.solve_seconds,
            memory_bytes=int(matrix.nbytes) + int(phi.nbytes),
            parallel_setup=parallel_setup,
            backend=self.name,
            num_unknowns=basis_set.num_basis_functions,
            iterations=stats,
            # Per-worker times and communication volumes are NOT duplicated
            # here: they live on parallel_setup and surface through the
            # result's worker_setup_seconds / worker_communication_bytes.
            metadata={
                "assembly_flow": self.assembly_flow,
                "workers": workers,
                "executor": executor,
                "gmres_tolerance": gmres_tolerance,
                "solver_mode": stats.mode,
                "operator_traversals": stats.operator_traversals,
            },
        )


class GalerkinSharedBackend(_ParallelGalerkinBackend):
    """Shared-memory (OpenMP-like) parallel Galerkin extraction."""

    name = "galerkin-shared"
    description = (
        "Parallel Galerkin BEM, shared-memory assembly (Section 5.1): "
        "D workers fill one shared condensed matrix, GMRES solve"
    )
    assembly_flow = "shared-memory"


class GalerkinDistributedBackend(_ParallelGalerkinBackend):
    """Distributed-memory (MPI-like) parallel Galerkin extraction."""

    name = "galerkin-distributed"
    description = (
        "Parallel Galerkin BEM, distributed partial-matrix assembly "
        "(Section 5.2): workers send column blocks to the main process, GMRES solve"
    )
    assembly_flow = "distributed"
