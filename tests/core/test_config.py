"""Unit tests of ``ExtractionConfig.validate``."""

from __future__ import annotations

import pytest

from repro.core.config import ExtractionConfig, ParallelMode


class TestValidate:
    def test_valid_config_returns_self(self):
        config = ExtractionConfig()
        assert config.validate() is config

    def test_rejects_num_nodes_below_one(self):
        config = ExtractionConfig()
        config.num_nodes = 0
        with pytest.raises(ValueError, match="num_nodes"):
            config.validate()
        config.num_nodes = -3
        with pytest.raises(ValueError, match="num_nodes"):
            config.validate()

    def test_rejects_non_integer_num_nodes(self):
        config = ExtractionConfig()
        config.num_nodes = 2.5
        with pytest.raises(ValueError, match="num_nodes"):
            config.validate()
        config.num_nodes = True  # bools are not node counts
        with pytest.raises(ValueError, match="num_nodes"):
            config.validate()

    def test_accepts_numpy_integer_num_nodes(self):
        import numpy as np

        config = ExtractionConfig(num_nodes=np.int64(4))
        assert config.num_nodes == 4
        assert isinstance(config.num_nodes, int)

    def test_rejects_negative_tolerance(self):
        config = ExtractionConfig()
        config.tolerance = -0.01
        with pytest.raises(ValueError, match="tolerance"):
            config.validate()

    def test_rejects_tolerance_at_bounds(self):
        config = ExtractionConfig()
        for bad in (0.0, 1.0, 1.5):
            config.tolerance = bad
            with pytest.raises(ValueError, match="tolerance"):
                config.validate()

    def test_rejects_unknown_parallel_mode_string(self):
        config = ExtractionConfig()
        config.parallel_mode = "quantum"
        with pytest.raises(ValueError, match="unknown parallel mode"):
            config.validate()

    def test_error_lists_valid_parallel_modes(self):
        config = ExtractionConfig()
        config.parallel_mode = "quantum"
        with pytest.raises(ValueError, match="shared_memory"):
            config.validate()

    def test_rejects_non_mode_parallel_mode(self):
        config = ExtractionConfig()
        config.parallel_mode = 42
        with pytest.raises(ValueError, match="parallel_mode"):
            config.validate()

    def test_rejects_bad_orders_and_batch(self):
        config = ExtractionConfig()
        config.order_near = 0
        with pytest.raises(ValueError, match="order"):
            config.validate()
        config = ExtractionConfig()
        config.batch_size = 0
        with pytest.raises(ValueError, match="batch_size"):
            config.validate()

    def test_rejects_removed_acceleration_option(self):
        # The integration-acceleration techniques were deleted; naming one
        # fails loudly rather than silently running the analytic kernel.
        with pytest.raises(TypeError, match="acceleration"):
            ExtractionConfig(acceleration="fast_subroutines")

    def test_validate_normalises_strings(self):
        config = ExtractionConfig()
        config.parallel_mode = "shared_memory"
        config.validate()
        assert config.parallel_mode is ParallelMode.SHARED_MEMORY

    def test_constructor_rejections_still_active(self):
        with pytest.raises(ValueError):
            ExtractionConfig(tolerance=-0.5)
        with pytest.raises(ValueError):
            ExtractionConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ExtractionConfig(parallel_mode="quantum")

    def test_engine_calls_validate(self, crossing_layout):
        from repro.core.engine import CapacitanceExtractor

        extractor = CapacitanceExtractor(ExtractionConfig())
        extractor.config.num_nodes = 0  # mutated after construction
        with pytest.raises(ValueError, match="num_nodes"):
            extractor.extract(crossing_layout)
