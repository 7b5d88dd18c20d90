"""The ``galerkin-aca`` backend: registration, accuracy, compression, workers.

Acceptance criteria of the compression subsystem: the compressed backend
matches the dense ``instantiable`` capacitance to <= 1 % relative error on
the 3x3 crossing bus at the default ACA tolerance, stores at most half of
the dense ``N^2`` entries once ``N >= 1500``, and is bit-identical across
block-assembly worker counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import ExtractionResult
from repro.engine import available_backends, get_backend
from repro.solver.capacitance import compare_capacitance


@pytest.fixture(scope="module")
def dense_result(small_bus_layout):
    return get_backend("instantiable").extract(small_bus_layout)


@pytest.fixture(scope="module")
def aca_result(small_bus_layout):
    return get_backend("galerkin-aca").extract(small_bus_layout)


class TestRegistration:
    def test_backend_registered(self):
        assert "galerkin-aca" in available_backends()

    def test_name_and_description(self):
        backend = get_backend("galerkin-aca")
        assert backend.name == "galerkin-aca"
        assert "ACA" in backend.description


class TestAccuracy:
    def test_matches_dense_backend_within_one_percent(self, dense_result, aca_result):
        comparison = compare_capacitance(
            aca_result.capacitance, dense_result.capacitance
        )
        assert comparison.max_relative_error <= 0.01

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_are_bit_identical(self, small_bus_layout, aca_result, workers):
        result = get_backend("galerkin-aca").extract(
            small_bus_layout, num_workers=workers
        )
        np.testing.assert_array_equal(result.capacitance, aca_result.capacitance)
        assert result.metadata["num_workers"] == workers
        assert len(result.metadata["worker_assembly_seconds"]) == workers


class TestResultPlumbing:
    def test_result_carries_compression_stats(self, aca_result):
        assert type(aca_result) is ExtractionResult
        assert aca_result.backend == "galerkin-aca"
        assert aca_result.stored_entries > 0
        assert aca_result.compression_ratio is not None
        assert 0.0 < aca_result.compression_ratio <= 1.0
        assert aca_result.iterations is not None
        assert aca_result.iterations.total_iterations > 0
        summary = aca_result.as_dict()
        assert summary["stored_entries"] == aca_result.stored_entries
        assert summary["compression_ratio"] == aca_result.compression_ratio
        assert summary["max_block_rank"] == aca_result.max_block_rank

    def test_dense_backends_report_no_compression(self, dense_result):
        assert dense_result.compression_ratio is None
        assert dense_result.stored_entries == 0
        assert "compression_ratio" not in dense_result.as_dict()

    def test_metadata_echoes_options(self, small_bus_layout):
        result = get_backend("galerkin-aca").extract(
            small_bus_layout, epsilon=1e-3, eta=3.0, leaf_size=24, max_rank=20
        )
        metadata = result.metadata
        assert metadata["epsilon"] == 1e-3
        assert metadata["eta"] == 3.0
        assert metadata["leaf_size"] == 24
        assert metadata["max_rank"] == 20
        assert metadata["num_near_blocks"] >= 1


class TestEntriesSampled:
    @pytest.mark.parametrize(
        "executor", ["thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_pooled_count_equals_serial(self, small_bus_layout, executor):
        serial, pooled = (
            get_backend("galerkin-aca").extract(
                small_bus_layout, executor=e, face_refinement=2, leaf_size=8, num_workers=2
            )
            for e in ("serial", executor)
        )
        np.testing.assert_array_equal(pooled.capacitance, serial.capacitance)
        assert pooled.metadata["entries_sampled"] == serial.metadata["entries_sampled"] > 0


class TestValidation:
    def test_rejects_invalid_workers(self, small_bus_layout):
        with pytest.raises(ValueError, match="num_workers"):
            get_backend("galerkin-aca").extract(small_bus_layout, num_workers=0)

    def test_rejects_invalid_epsilon(self, small_bus_layout):
        with pytest.raises(ValueError, match="epsilon"):
            get_backend("galerkin-aca").extract(small_bus_layout, epsilon=2.0)


class TestLargeProblemCompression:
    def test_stores_at_most_half_of_dense_at_1500_unknowns(self, small_bus_layout):
        """The headline storage bound: <= 50 % of N^2 at N >= 1500."""
        result = get_backend("galerkin-aca").extract(
            small_bus_layout, face_refinement=7
        )
        assert result.num_unknowns >= 1500
        assert result.stored_entries <= 0.5 * result.num_unknowns**2
        assert result.max_block_rank >= 1
        assert result.metadata["num_far_blocks"] > 0
