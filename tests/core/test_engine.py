"""End-to-end tests of the public CapacitanceExtractor API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CapacitanceExtractor, ExtractionConfig
from repro.accel import AccelerationTechnique
from repro.basis.instantiate import InstantiationConfig
from repro.core.config import ParallelMode
from repro.core.reference import reference_capacitance
from repro.geometry import generators
from repro.solver import compare_capacitance

UM = generators.UM


class TestExtractionConfig:
    def test_defaults(self):
        config = ExtractionConfig()
        assert config.parallel_mode is ParallelMode.SERIAL
        assert config.technique() is AccelerationTechnique.ANALYTICAL

    def test_string_coercion(self):
        config = ExtractionConfig(parallel_mode="distributed", acceleration="fast_subroutines")
        assert config.parallel_mode is ParallelMode.DISTRIBUTED
        assert config.technique() is AccelerationTechnique.FAST_SUBROUTINES

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ExtractionConfig(num_nodes=0)


class TestExtractorOnCrossingWires:
    @pytest.fixture(scope="class")
    def result(self, crossing_layout):
        return CapacitanceExtractor().extract(crossing_layout)

    def test_matrix_shape_and_names(self, result):
        assert result.capacitance.shape == (2, 2)
        assert result.conductor_names == ["source", "target"]

    def test_symmetry_and_signs(self, result):
        capacitance = result.capacitance
        assert np.allclose(capacitance, capacitance.T)
        assert capacitance[0, 0] > 0.0
        assert capacitance[0, 1] < 0.0

    def test_accuracy_against_refined_reference(self, result, crossing_layout):
        reference = reference_capacitance(
            crossing_layout, cells_per_edge=3, max_panels=800, max_iterations=2
        )
        comparison = compare_capacitance(result.capacitance, reference)
        # The paper reports 2.8 % on its industrial example; the elementary
        # crossing should be at least that accurate.
        assert comparison.max_relative_error < 0.05

    def test_setup_dominates_runtime(self, result):
        # Paper Section 3: >95 % of the runtime is the system setup.  The
        # share of wall-clock time depends on the host, so the setup's work
        # is asserted instead: every pair of the M (M + 1) / 2 iteration
        # space is requested once, and each distinct pair key is evaluated
        # once.
        nodes = result.parallel_setup.node_results
        num_templates = result.num_templates
        requested = sum(sum(r.category_counts.values()) for r in nodes)
        evaluated = sum(r.num_evaluated for r in nodes)
        assert requested == num_templates * (num_templates + 1) // 2
        assert 0 < evaluated < requested
        assert 0.0 < result.setup_fraction <= 1.0

    def test_accessors(self, result):
        assert result.self_capacitance("source") > 0.0
        assert result.coupling_capacitance("source", "target") > 0.0
        with pytest.raises(KeyError):
            result.self_capacitance("missing")
        with pytest.raises(ValueError):
            result.coupling_capacitance("source", "source")
        summary = result.as_dict()
        assert summary["num_basis_functions"] == result.num_basis_functions
        assert np.asarray(summary["capacitance_farad"]).shape == (2, 2)

    def test_compactness_vs_pwc(self, result, crossing_layout):
        from repro.pwc import PWCSolver

        pwc = PWCSolver(cells_per_edge=3).solve(crossing_layout)
        # The compact basis uses far fewer unknowns and far less matrix memory.
        assert result.num_basis_functions < pwc.num_panels / 3
        assert result.memory_bytes < pwc.memory_bytes / 5

    def test_capacitance_femtofarad_scaling(self, result):
        assert np.allclose(result.capacitance_femtofarad(), result.capacitance * 1e15)


class TestExtractorModes:
    def test_parallel_modes_agree_with_serial(self, crossing_layout):
        serial = CapacitanceExtractor(ExtractionConfig()).extract(crossing_layout)
        shared = CapacitanceExtractor(
            ExtractionConfig(parallel_mode=ParallelMode.SHARED_MEMORY, num_nodes=3)
        ).extract(crossing_layout)
        distributed = CapacitanceExtractor(
            ExtractionConfig(parallel_mode=ParallelMode.DISTRIBUTED, num_nodes=4)
        ).extract(crossing_layout)
        assert np.allclose(shared.capacitance, serial.capacitance, rtol=1e-10)
        assert np.allclose(distributed.capacitance, serial.capacitance, rtol=1e-10)
        assert shared.parallel_setup.num_nodes == 3
        assert distributed.parallel_setup.num_nodes == 4

    def test_accelerated_extraction_close_to_plain(self, crossing_layout):
        plain = CapacitanceExtractor().extract(crossing_layout)
        accelerated = CapacitanceExtractor(
            ExtractionConfig(acceleration=AccelerationTechnique.FAST_SUBROUTINES)
        ).extract(crossing_layout)
        comparison = compare_capacitance(accelerated.capacitance, plain.capacitance)
        assert comparison.max_relative_error < 0.02
        assert accelerated.metadata["acceleration"] == "fast_subroutines"

    def test_accelerated_process_mode_is_refused(self, crossing_layout):
        """Process workers cannot carry the evaluator; the run must not fall back silently."""
        config = ExtractionConfig(
            acceleration="fast_subroutines",
            parallel_mode="shared_memory",
            num_nodes=2,
            use_processes=True,
        )
        with pytest.raises(ValueError, match="cannot be sent to worker processes"):
            CapacitanceExtractor(config).extract(crossing_layout)

    def test_face_refinement_improves_or_matches_accuracy(self, crossing_layout):
        reference = reference_capacitance(
            crossing_layout, cells_per_edge=3, max_panels=800, max_iterations=2
        )
        coarse = CapacitanceExtractor().extract(crossing_layout)
        fine = CapacitanceExtractor(
            ExtractionConfig(instantiation=InstantiationConfig(face_refinement=2))
        ).extract(crossing_layout)
        error_coarse = compare_capacitance(coarse.capacitance, reference).max_relative_error
        error_fine = compare_capacitance(fine.capacitance, reference).max_relative_error
        assert error_fine < error_coarse * 1.5
        assert fine.num_basis_functions > coarse.num_basis_functions

    def test_induced_basis_improves_coupling_accuracy(self, crossing_layout):
        reference = reference_capacitance(
            crossing_layout, cells_per_edge=3, max_panels=800, max_iterations=2
        )
        with_induced = CapacitanceExtractor().extract(crossing_layout)
        without = CapacitanceExtractor(
            ExtractionConfig(instantiation=InstantiationConfig(include_induced=False))
        ).extract(crossing_layout)
        error_with = compare_capacitance(with_induced.capacitance, reference).max_relative_error
        error_without = compare_capacitance(without.capacitance, reference).max_relative_error
        assert error_with <= error_without

    def test_metadata_counts(self, crossing_layout):
        result = CapacitanceExtractor().extract(crossing_layout)
        counts = result.metadata["category_counts"]
        basis = result.metadata["basis_summary"]
        assert sum(counts.values()) == result.num_templates * (result.num_templates + 1) // 2
        assert basis["num_basis_functions"] == result.num_basis_functions


class TestExtractorOnBus:
    def test_three_by_three_bus(self, small_bus_layout):
        result = CapacitanceExtractor().extract(small_bus_layout)
        capacitance = result.capacitance
        assert capacitance.shape == (6, 6)
        assert np.allclose(capacitance, capacitance.T)
        assert np.all(np.diag(capacitance) > 0.0)
        # Off-diagonal (coupling) entries of a Maxwell capacitance matrix are
        # non-positive; with the compact basis, far shielded pairs may come
        # out marginally positive at the few-percent-of-C_self level.
        off_diagonal = capacitance - np.diag(np.diag(capacitance))
        assert np.all(off_diagonal <= 0.03 * np.max(np.diag(capacitance)))
        crossing_couplings = [
            capacitance[result.index_of(f"lower_{i}"), result.index_of(f"upper_{j}")]
            for i in range(3)
            for j in range(3)
        ]
        assert all(c < 0.0 for c in crossing_couplings)
        # Every lower wire crosses every upper wire identically, so the
        # centre-to-centre couplings should be nearly equal.
        coupling_a = result.coupling_capacitance("lower_1", "upper_1")
        coupling_b = result.coupling_capacitance("lower_1", "upper_0")
        assert coupling_a == pytest.approx(coupling_b, rel=0.25)

    def test_template_ratio_in_paper_range(self, small_bus_layout):
        result = CapacitanceExtractor().extract(small_bus_layout)
        ratio = result.num_templates / result.num_basis_functions
        assert 1.2 <= ratio <= 3.0
