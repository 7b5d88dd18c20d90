"""The Galerkin extraction pipeline and the instantiable-basis extractor.

This is the system the paper describes end to end: instantiate the compact
basis over the layout (Section 2.2), fill the condensed system matrix in
parallel (Sections 3 and 5, optionally with the integration acceleration of
Section 4), solve the system and form the capacitance matrix (Section 2.1).

:func:`extract_galerkin` runs that sequence for all four Galerkin backends.
They differ only in the setup and solve it is handed:

==================== ======================================= ==============
backend              setup                                   solve
==================== ======================================= ==============
instantiable         dense, flow of ``config.parallel_mode`` direct
galerkin-shared      dense, shared-memory flow (Section 5.1) blocked GMRES
galerkin-distributed dense, distributed flow (Section 5.2)   blocked GMRES
galerkin-aca         H-matrix (:func:`build_hmatrix`)        blocked GMRES
==================== ======================================= ==============

The last three translate their options into an :class:`ExtractionConfig`
and call the pipeline (:mod:`repro.engine.parallel_backends`,
:mod:`repro.compress.backend`).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro.accel.engine import AccelerationTechnique, make_evaluator
from repro.assembly.distributed import DistributedAssembler
from repro.assembly.shared_memory import ParallelSetupResult, SharedMemoryAssembler
from repro.basis.functions import BasisSet
from repro.basis.instantiate import build_basis_set
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import HMatrix, build_hmatrix
from repro.core.config import ExtractionConfig, ParallelMode
from repro.core.results import ExtractionResult
from repro.geometry.layout import Layout
from repro.parallel.timing import SolverTimer
from repro.solver.capacitance import capacitance_from_solution
from repro.solver.dense import solve_dense
from repro.solver.iterative import gmres_solve

__all__ = ["CapacitanceExtractor", "extract_galerkin"]

#: What the setup step hands the solve: the dense matrix of a parallel
#: flow, or the compressed operator.
Setup = Union[ParallelSetupResult, HMatrix]


class CapacitanceExtractor:
    """End-to-end capacitance extraction with instantiable basis functions.

    Parameters
    ----------
    config:
        Extraction configuration; the defaults reproduce the paper's
        single-node, non-accelerated setup.
    """

    def __init__(self, config: ExtractionConfig | None = None):
        self.config = config if config is not None else ExtractionConfig()

    def extract(self, layout: Layout) -> ExtractionResult:
        """Extract the capacitance matrix of a layout (dense setup, direct solve)."""
        config = self.config.validate()

        def describe(basis_set: BasisSet, setup: ParallelSetupResult) -> dict:
            return {
                "basis_summary": basis_set.summary(),
                "acceleration": config.technique().value,
                "parallel_mode": config.parallel_mode.value,
                "num_nodes": setup.num_nodes,
                "node_seconds": [r.elapsed_seconds for r in setup.node_results],
                "category_counts": _merge_counts(setup),
            }

        return extract_galerkin(layout, config, describe)


def extract_galerkin(
    layout: Layout,
    config: ExtractionConfig,
    describe: Callable[[BasisSet, Setup], dict],
    *,
    backend: str = "instantiable",
    compression: dict | None = None,
    gmres: dict | None = None,
) -> ExtractionResult:
    """Basis, setup, incidence, solve and capacitance: the one Galerkin pipeline.

    Parameters
    ----------
    config:
        A validated configuration: basis instantiation, integration
        accuracy, acceleration technique and the dense setup flow
        (``parallel_mode``, ``num_nodes``, ``use_processes``).
    describe:
        The backend's metadata, built from the basis set and the setup.
    backend:
        Registry name recorded on the result.
    compression:
        ``None`` fills the dense matrix through the configured flow; the
        :func:`~repro.compress.hmatrix.build_hmatrix` options build the
        H-matrix instead.
    gmres:
        ``None`` solves the dense matrix directly; the ``tolerance``,
        ``max_iterations`` and ``block_size`` of
        :func:`~repro.solver.iterative.gmres_solve` run the blocked
        Jacobi-preconditioned GMRES, whose statistics join the metadata.
    """
    basis_set = build_basis_set(layout, config.instantiation)
    if basis_set.num_basis_functions == 0:
        raise ValueError("the layout produced an empty basis set")

    collocation_fn = None
    accel_memory = 0
    technique = config.technique()
    if technique is not AccelerationTechnique.ANALYTICAL:
        evaluator = make_evaluator(technique, **config.acceleration_options)
        collocation_fn = evaluator.from_deltas
        accel_memory = evaluator.memory_bytes

    timer = SolverTimer()
    with timer.setup():
        setup: Setup
        if compression is None:
            setup = _assemble(config, basis_set, layout.permittivity, collocation_fn)
        else:
            entries = GalerkinEntries(
                basis_set,
                layout.permittivity,
                policy=config.policy(),
                collocation_fn=collocation_fn,
                order_near=config.order_near,
                order_far=config.order_far,
            )
            setup = build_hmatrix(entries, **compression)
    compressed = isinstance(setup, HMatrix)
    operator = setup if compressed else setup.matrix

    with timer.solve():
        phi = basis_set.incidence_matrix(layout.num_conductors)
        stats = None
        if gmres is None:
            rho = solve_dense(operator, phi)
        else:
            rho, stats = gmres_solve(
                lambda x: operator @ x,
                phi,
                size=basis_set.num_basis_functions,
                diagonal=setup.diagonal() if compressed else np.diag(operator),
                matmat=lambda block: operator @ block,
                **gmres,
            )
        capacitance = capacitance_from_solution(phi, rho)

    metadata = describe(basis_set, setup)
    if stats is not None:
        metadata.update(
            gmres_tolerance=gmres["tolerance"],
            solver_mode=stats.mode,
            operator_traversals=stats.operator_traversals,
        )
    operator_bytes = setup.memory_bytes if compressed else int(operator.nbytes)
    return ExtractionResult(
        capacitance=capacitance,
        conductor_names=list(layout.names),
        num_basis_functions=basis_set.num_basis_functions,
        num_templates=basis_set.num_templates,
        setup_seconds=timer.setup_seconds,
        solve_seconds=timer.solve_seconds,
        memory_bytes=operator_bytes + int(phi.nbytes) + int(accel_memory),
        parallel_setup=None if compressed else setup,
        metadata=metadata,
        backend=backend,
        num_unknowns=basis_set.num_basis_functions,
        iterations=stats,
        stored_entries=setup.stored_entries if compressed else 0,
        compression_ratio=setup.compression_ratio if compressed else None,
        max_block_rank=setup.max_block_rank if compressed else 0,
    )


def _assemble(
    config: ExtractionConfig, basis_set: BasisSet, permittivity: float, collocation_fn
) -> ParallelSetupResult:
    """Fill the dense matrix through the configured parallel system-setup flow."""
    mode = config.parallel_mode
    common = dict(
        policy=config.policy(),
        collocation_fn=collocation_fn,
        order_near=config.order_near,
        order_far=config.order_far,
        batch_size=config.batch_size,
    )
    if mode is ParallelMode.DISTRIBUTED:
        return DistributedAssembler(
            basis_set,
            permittivity,
            num_nodes=config.num_nodes,
            use_processes=config.use_processes,
            **common,
        ).assemble()
    shared = mode is ParallelMode.SHARED_MEMORY
    return SharedMemoryAssembler(
        basis_set,
        permittivity,
        num_nodes=config.num_nodes if shared else 1,
        use_processes=config.use_processes and shared,
        **common,
    ).assemble()


def _merge_counts(parallel_setup: ParallelSetupResult) -> dict[str, int]:
    """Sum the per-node evaluation-category counters."""
    merged: dict[str, int] = {}
    for result in parallel_setup.node_results:
        for key, value in result.category_counts.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged
