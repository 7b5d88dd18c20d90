"""The ``galerkin-aca`` engine backend: ACA-compressed Galerkin extraction.

Translates its options into an :class:`~repro.core.config.ExtractionConfig`
plus :func:`~repro.compress.hmatrix.build_hmatrix` options and runs the one
Galerkin pipeline, :func:`~repro.core.engine.extract_galerkin`.  The
pipeline instantiates the paper's basis set, compresses the condensed
Galerkin matrix into an :class:`~repro.compress.hmatrix.HMatrix` (dense near
field, ACA low-rank far field — never materialising ``N x N``; block
assembly runs on the parallel executor selected by
``num_workers``/``executor``), and solves with the Jacobi-preconditioned
GMRES shared by every iterative backend — by default in *blocked*
multi-right-hand-side mode, where every stored block is traversed once per
lockstep iteration instead of once per conductor.  The returned result
carries the compression statistics (``stored_entries``,
``compression_ratio``, ``max_block_rank``) alongside the usual timings and
the solver telemetry.
"""

from __future__ import annotations

from repro.basis.instantiate import InstantiationConfig
from repro.compress.entries import check_kernel_modes
from repro.core.config import ExtractionConfig
from repro.core.results import ExtractionResult
from repro.geometry.layout import Layout

__all__ = ["GalerkinACABackend"]


class GalerkinACABackend:
    """Hierarchical low-rank compressed Galerkin extraction."""

    name = "galerkin-aca"
    description = (
        "Compressed Galerkin BEM: block cluster tree + ACA low-rank far "
        "field (sub-quadratic storage), Jacobi-preconditioned GMRES"
    )

    def extract(
        self,
        layout: Layout,
        *,
        epsilon: float = 1e-4,
        max_rank: int = 64,
        leaf_size: int = 32,
        eta: float = 2.0,
        num_workers: int = 1,
        executor: str = "thread",
        face_refinement: int = 1,
        tolerance: float = 0.01,
        order_near: int = 6,
        order_far: int = 3,
        near_field: str = "exact",
        use_numba: bool | None = None,
        gmres_tolerance: float = 1e-12,
        max_iterations: int = 500,
        block_size: int | None = None,
    ) -> ExtractionResult:
        """Extract ``layout`` through the compressed pipeline.

        Parameters
        ----------
        epsilon:
            Relative ACA stopping tolerance of the far-field blocks.
        max_rank:
            ACA rank cap per block.
        leaf_size:
            Cluster-tree leaf size (near-field block dimension).
        eta:
            Admissibility parameter; larger admits more (coarser) far
            blocks.
        num_workers:
            Partitions of the block-assembly work, each assembled by one
            worker of ``executor`` (per-worker times are recorded in the
            result metadata).
        executor:
            Block-assembly executor: ``"serial"``, ``"thread"`` (default)
            or ``"process"`` — see :func:`repro.compress.hmatrix.build_hmatrix`.
            The operator is bit-identical across executors.
        face_refinement:
            Subdivision of every conductor face into ``r x r`` face basis
            functions — the knob that scales ``N`` for compression studies.
        tolerance, order_near, order_far:
            Integration accuracy knobs, as in the other Galerkin backends.
        near_field, use_numba:
            Removed kernel modes, kept so that requests naming their
            defaults still resolve: only ``near_field="exact"`` and
            ``use_numba=None``/``False`` are accepted (see
            :class:`~repro.compress.entries.GalerkinEntries`).
        gmres_tolerance, max_iterations:
            Controls of the iterative solve.
        block_size:
            Conductor columns per blocked-GMRES traversal group: ``None``
            (default) solves all right-hand sides in one lockstep block,
            ``1`` falls back to the historical per-column loop.
        """
        # Imported here: the pipeline's module imports this package.
        from repro.core.engine import extract_galerkin

        check_kernel_modes(near_field, use_numba)
        compression = dict(
            epsilon=epsilon, max_rank=max_rank, leaf_size=leaf_size, eta=eta,
            num_workers=num_workers, executor=executor,
        )
        config = ExtractionConfig(
            tolerance=tolerance,
            instantiation=InstantiationConfig(face_refinement=face_refinement),
            order_near=order_near,
            order_far=order_far,
        )
        return extract_galerkin(
            layout,
            config,
            lambda basis_set, hmatrix: {
                **compression,
                "face_refinement": face_refinement,
                "num_near_blocks": len(hmatrix.dense_blocks),
                "num_far_blocks": len(hmatrix.lowrank_blocks),
                "worker_assembly_seconds": list(hmatrix.worker_seconds),
                "entries_sampled": hmatrix.entries_sampled,
                "near_field": near_field,
            },
            backend=self.name,
            compression=compression,
            gmres=dict(tolerance=gmres_tolerance, max_iterations=max_iterations, block_size=block_size),
        )
