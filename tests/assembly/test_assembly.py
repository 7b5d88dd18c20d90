"""Tests for index mapping, partitioning and the assembler backends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import (
    BatchGalerkinAssembler,
    DistributedAssembler,
    SerialAssembler,
    SharedMemoryAssembler,
    TemplateArrays,
    num_template_pairs,
    pair_to_triangular_index,
    partition_range,
    triangular_index_to_pair,
)
from repro.assembly.batch import symmetrize_upper
from repro.basis import build_basis_set


class TestTriangularMapping:
    def test_first_indices(self):
        i, j = triangular_index_to_pair(np.arange(6))
        assert list(i) == [0, 0, 1, 0, 1, 2]
        assert list(j) == [0, 1, 1, 2, 2, 2]

    def test_num_pairs(self):
        assert num_template_pairs(0) == 0
        assert num_template_pairs(5) == 15

    @given(st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, k):
        i, j = triangular_index_to_pair(np.asarray([k]))
        assert 0 <= i[0] <= j[0]
        assert pair_to_triangular_index(i, j)[0] == k

    def test_inverse_requires_upper_triangle(self):
        with pytest.raises(ValueError):
            pair_to_triangular_index(np.asarray([2]), np.asarray([1]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            triangular_index_to_pair(np.asarray([-1]))


class TestPartition:
    def test_sizes_differ_by_at_most_one(self):
        parts = partition_range(103, 10)
        sizes = [p.size for p in parts]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_covers_range_exactly(self):
        parts = partition_range(57, 4)
        covered = np.concatenate([p.indices() for p in parts])
        assert np.array_equal(covered, np.arange(57))

    def test_single_node(self):
        parts = partition_range(10, 1)
        assert len(parts) == 1 and parts[0].size == 10

    def test_more_nodes_than_work(self):
        parts = partition_range(3, 8)
        assert sum(p.size for p in parts) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_range(-1, 2)
        with pytest.raises(ValueError):
            partition_range(5, 0)

    @given(
        total=st.integers(min_value=0, max_value=100_000),
        nodes=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, total, nodes):
        parts = partition_range(total, nodes)
        assert len(parts) == nodes
        assert parts[0].start == 0
        assert parts[-1].stop == total
        for before, after in zip(parts, parts[1:]):
            assert before.stop == after.start
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestTemplateArrays:
    def test_arrays_match_basis_set(self, crossing_layout):
        basis_set = build_basis_set(crossing_layout)
        arrays = TemplateArrays.from_basis_set(basis_set)
        assert arrays.num_templates == basis_set.num_templates
        assert arrays.num_basis_functions == basis_set.num_basis_functions
        assert arrays.num_pairs == num_template_pairs(basis_set.num_templates)
        assert np.all(arrays.area > 0.0)
        assert np.all(arrays.moment > 0.0)

    def test_tangential_axes_consistent(self, crossing_layout):
        arrays = TemplateArrays.from_basis_set(build_basis_set(crossing_layout))
        u_axis, v_axis = arrays.tangential_axes()
        assert np.all(u_axis != arrays.normal_axis)
        assert np.all(v_axis != arrays.normal_axis)
        assert np.all(u_axis < v_axis)


class TestAssemblerEquivalence:
    def test_batch_matches_serial(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        serial = SerialAssembler(basis_set, permittivity).assemble()
        batch = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        scale = np.max(np.abs(serial))
        assert np.max(np.abs(serial - batch)) / scale < 1e-12

    def test_matrix_is_symmetric_positive_definite(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        matrix = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        assert np.allclose(matrix, matrix.T, rtol=1e-12)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > 0.0

    def test_chunked_assembly_equals_full(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        assembler = BatchGalerkinAssembler(basis_set, permittivity)
        full = assembler.assemble()
        n = assembler.num_basis_functions
        accumulated = np.zeros((n, n))
        boundaries = np.linspace(0, assembler.num_pairs, 5, dtype=int)
        for start, stop in zip(boundaries, boundaries[1:]):
            assembler.assemble_chunk(int(start), int(stop), out=accumulated)
        assert np.allclose(accumulated, full, rtol=1e-12)

    def test_upper_condensation_symmetrises_to_full(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        assembler = BatchGalerkinAssembler(basis_set, permittivity)
        full = assembler.assemble()
        upper, _ = assembler.assemble_chunk(0, assembler.num_pairs, condense_mode="upper")
        assert np.allclose(symmetrize_upper(upper), full, rtol=1e-12)

    def test_invalid_chunk_rejected(self, crossing_layout, permittivity):
        assembler = BatchGalerkinAssembler(build_basis_set(crossing_layout), permittivity)
        with pytest.raises(ValueError):
            assembler.assemble_chunk(0, assembler.num_pairs + 1)
        with pytest.raises(ValueError):
            assembler.assemble_chunk(0, 1, condense_mode="diagonal")

    def test_chunk_result_counts_cover_all_pairs(self, crossing_layout, permittivity):
        assembler = BatchGalerkinAssembler(build_basis_set(crossing_layout), permittivity)
        _, result = assembler.assemble_chunk(0, assembler.num_pairs)
        assert sum(result.category_counts.values()) == assembler.num_pairs
        assert result.num_pairs == assembler.num_pairs

    def test_small_batch_size_equivalent(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        reference = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        small_batches = BatchGalerkinAssembler(basis_set, permittivity, batch_size=17).assemble()
        assert np.allclose(reference, small_batches, rtol=1e-12)


class TestParallelBackends:
    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 5])
    def test_shared_memory_matches_single_node(self, crossing_layout, permittivity, num_nodes):
        basis_set = build_basis_set(crossing_layout)
        reference = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        result = SharedMemoryAssembler(
            basis_set, permittivity, num_nodes=num_nodes
        ).assemble()
        assert np.allclose(result.matrix, reference, rtol=1e-12)
        assert result.num_nodes == num_nodes
        assert result.communication_bytes == [0] * num_nodes

    @pytest.mark.parametrize("num_nodes", [1, 2, 4, 7])
    def test_distributed_matches_single_node(self, crossing_layout, permittivity, num_nodes):
        basis_set = build_basis_set(crossing_layout)
        reference = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        result = DistributedAssembler(basis_set, permittivity, num_nodes=num_nodes).assemble()
        assert np.allclose(result.matrix, reference, rtol=1e-12)
        # The main node never communicates; the others send their partial matrices.
        assert result.communication_bytes[0] == 0
        if num_nodes > 1:
            assert all(b > 0 for b in result.communication_bytes[1:])

    def test_workload_partitions_are_balanced(self, small_bus_layout, permittivity):
        basis_set = build_basis_set(small_bus_layout)
        assembler = SharedMemoryAssembler(basis_set, permittivity, num_nodes=4)
        sizes = [p.size for p in assembler.partitions()]
        assert max(sizes) - min(sizes) <= 1

    def test_setup_result_statistics(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        result = SharedMemoryAssembler(basis_set, permittivity, num_nodes=3).assemble()
        assert result.max_node_seconds <= result.total_node_seconds
        assert result.load_imbalance >= 1.0

    def test_invalid_node_count(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        with pytest.raises(ValueError):
            SharedMemoryAssembler(basis_set, permittivity, num_nodes=0)
        with pytest.raises(ValueError):
            DistributedAssembler(basis_set, permittivity, num_nodes=0)

    @pytest.mark.parametrize("assembler_type", [SharedMemoryAssembler, DistributedAssembler])
    def test_process_pool_rejects_custom_collocation(
        self, crossing_layout, permittivity, assembler_type
    ):
        """Worker processes rebuild the exact kernel, so an evaluator cannot ride along."""
        from repro.accel import make_evaluator

        basis_set = build_basis_set(crossing_layout)
        evaluator = make_evaluator("fast_subroutines").from_deltas
        with pytest.raises(ValueError, match="cannot be sent to worker processes"):
            assembler_type(
                basis_set,
                permittivity,
                num_nodes=2,
                collocation_fn=evaluator,
                use_processes=True,
            )
        # In-process partitions and a single node keep the evaluator.
        for num_nodes, use_processes in [(2, False), (1, True)]:
            accelerated = assembler_type(
                basis_set,
                permittivity,
                num_nodes=num_nodes,
                collocation_fn=evaluator,
                use_processes=use_processes,
            )
            assert accelerated.assembler.collocation_fn is evaluator

    @pytest.mark.parametrize("assembler_type", [SharedMemoryAssembler, DistributedAssembler])
    def test_worker_job_rebuilds_the_parent_assembler(
        self, crossing_layout, permittivity, assembler_type
    ):
        """The job tuple carries every evaluation choice the worker needs."""
        from repro.assembly.shared_memory import rebuild_assembler
        from repro.greens.policy import ApproximationPolicy

        basis_set = build_basis_set(crossing_layout)
        parallel = assembler_type(
            basis_set,
            permittivity,
            num_nodes=3,
            policy=ApproximationPolicy(tolerance=0.05),
            order_near=5,
            order_far=2,
            batch_size=97,
        )
        parent = parallel.assembler
        for part in parallel.partitions():
            rebuilt, start, stop = rebuild_assembler(parallel.worker_job(part))
            assert (start, stop) == (part.start, part.stop)
            assert rebuilt.policy == parent.policy
            assert (rebuilt.order_near, rebuilt.order_far) == (5, 2)
            assert rebuilt.batch_size == 97
            expected, expected_chunk = parent.assemble_chunk(start, stop)
            matrix, chunk = rebuilt.assemble_chunk(start, stop)
            np.testing.assert_array_equal(matrix, expected)
            assert chunk.num_evaluated == expected_chunk.num_evaluated

    @pytest.mark.parametrize("num_nodes", [2, 3])
    def test_worker_functions_match_in_process_flows(
        self, crossing_layout, permittivity, num_nodes
    ):
        """Run the process-pool workers in-process: same matrices as the sequential flows.

        The shared-memory workers return private matrices that are summed,
        while the sequential flow accumulates into one, so only the
        summation order differs there; the distributed blocks are identical.
        """
        from repro.assembly.distributed import _distributed_worker
        from repro.assembly.shared_memory import _shared_worker

        basis_set = build_basis_set(crossing_layout)
        shared = SharedMemoryAssembler(basis_set, permittivity, num_nodes=num_nodes)
        summed = sum(_shared_worker(shared.worker_job(p))[0] for p in shared.partitions())
        np.testing.assert_allclose(summed, shared.assemble().matrix, rtol=1e-12, atol=0.0)

        distributed = DistributedAssembler(basis_set, permittivity, num_nodes=num_nodes)
        n = distributed.assembler.num_basis_functions
        upper = np.zeros((n, n))
        for part in distributed.partitions():
            partial, _ = _distributed_worker(distributed.worker_job(part))
            upper[:, partial.first_column : partial.last_column + 1] += partial.block
        np.testing.assert_array_equal(symmetrize_upper(upper), distributed.assemble().matrix)

    @pytest.mark.parametrize(
        "num_nodes, use_processes, pooled",
        [(1, False, False), (1, True, False), (2, False, False), (2, True, True)],
    )
    def test_pool_is_used_only_for_several_nodes(
        self, crossing_layout, permittivity, num_nodes, use_processes, pooled
    ):
        basis_set = build_basis_set(crossing_layout)
        for assembler_type in (SharedMemoryAssembler, DistributedAssembler):
            parallel = assembler_type(
                basis_set, permittivity, num_nodes=num_nodes, use_processes=use_processes
            )
            assert parallel.pooled is pooled

    def test_column_ranges_cover_matrix(self, crossing_layout, permittivity):
        basis_set = build_basis_set(crossing_layout)
        assembler = DistributedAssembler(basis_set, permittivity, num_nodes=3)
        batch = assembler.assembler
        last = -1
        for part in assembler.partitions():
            first, stop = batch.chunk_column_range(part.start, part.stop)
            # Adjacent partitions may share a common column (paper Figure 5).
            assert first <= stop
            assert first <= last + 1
            last = max(last, stop)
        assert last == batch.num_basis_functions - 1


class TestAcceleratedAssembly:
    def test_fast_subroutine_assembly_close_to_exact(self, crossing_layout, permittivity):
        from repro.accel import make_evaluator

        basis_set = build_basis_set(crossing_layout)
        exact = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        evaluator = make_evaluator("fast_subroutines")
        accelerated = BatchGalerkinAssembler(
            basis_set, permittivity, collocation_fn=evaluator.from_deltas
        ).assemble()
        # Only the quadrature/collocation categories go through the evaluator,
        # so the matrices agree to well below the 1 % technique error.
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - accelerated)) / scale < 0.01


class TestQuadratureRuleCache:
    def test_assembly_does_not_thrash_the_rule_cache(self, crossing_layout, permittivity):
        """The Gauss-Legendre cache must be unbounded and eviction-free.

        A bounded LRU here would silently recompute rules millions of times
        once the distinct-order count crossed the bound mid-assembly.
        """
        from repro.greens.quadrature import gauss_legendre

        gauss_legendre.cache_clear()
        basis_set = build_basis_set(crossing_layout)
        BatchGalerkinAssembler(basis_set, permittivity).assemble()
        info = gauss_legendre.cache_info()
        assert info.maxsize is None
        # One miss per distinct order (near/far plus any interval variants);
        # everything else must be served from the cache.
        assert info.misses <= 8
        assert info.currsize == info.misses
