"""Tests of the Zipf popularity model of service load."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.loadtest import zipf_probabilities


class TestZipfProbabilities:
    def test_normalised_and_monotone(self):
        probabilities = zipf_probabilities(10, exponent=1.1)
        assert len(probabilities) == 10
        assert sum(probabilities) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(probabilities, probabilities[1:]))

    def test_exponent_one_is_harmonic(self):
        probabilities = zipf_probabilities(3, exponent=1.0)
        harmonic = 1.0 + 1 / 2 + 1 / 3
        assert probabilities[0] == pytest.approx(1.0 / harmonic)

    def test_higher_exponent_concentrates_mass(self):
        flat = zipf_probabilities(8, exponent=0.5)
        steep = zipf_probabilities(8, exponent=2.0)
        assert steep[0] > flat[0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="pool_size"):
            zipf_probabilities(0)
        with pytest.raises(ValueError, match="exponent"):
            zipf_probabilities(4, exponent=-1.0)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.1, 2.0])
    @pytest.mark.parametrize("pool_size", [1, 2, 16, 256])
    def test_rank_law(self, pool_size, exponent):
        probabilities = zipf_probabilities(pool_size, exponent=exponent)
        assert probabilities.shape == (pool_size,)
        assert np.all(probabilities > 0.0)
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        ranks = np.arange(1, pool_size + 1)
        np.testing.assert_allclose(probabilities[0] / probabilities, ranks**exponent, rtol=1e-12)


class TestZipfTraffic:
    """A Zipf-drawn request stream is mostly repeats, and the service caches them."""

    POOL_SIZE = 4
    NUM_REQUESTS = 24

    def draw(self, seed):
        rng = np.random.default_rng(seed)
        return rng.choice(
            self.POOL_SIZE, size=self.NUM_REQUESTS, p=zipf_probabilities(self.POOL_SIZE)
        )

    def test_same_seed_draws_the_same_stream(self):
        np.testing.assert_array_equal(self.draw(11), self.draw(11))

    def test_repeats_are_served_from_the_cache(self):
        from repro.engine import ExtractionRequest
        from repro.engine.service import ExtractionService
        from repro.workloads import get_workload

        family = get_workload("wire_array")
        pool = [family.layout(n_wires=2 + rank) for rank in range(self.POOL_SIZE)]
        service = ExtractionService(executor="serial")
        statuses = []
        for rank in self.draw(3):
            request = ExtractionRequest(layout=pool[rank], backend="instantiable")
            statuses.extend(service.extract_batch([request]).statuses)

        distinct = len(set(self.draw(3).tolist()))
        counts = {
            name: sum(status.status == name for status in statuses)
            for name in ("completed", "cached")
        }
        assert counts == {"completed": distinct, "cached": self.NUM_REQUESTS - distinct}
        assert counts["cached"] / self.NUM_REQUESTS > 0.5
        info = service.cache_info()
        assert info["misses"] == distinct <= self.POOL_SIZE
        assert info["hits"] == self.NUM_REQUESTS - distinct
