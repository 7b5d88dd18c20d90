"""Tests of the batched estimator: budgets, adaptivity, reproducibility."""

from __future__ import annotations

import multiprocessing.pool

import numpy as np
import pytest

from repro.frw import estimator as estimator_module
from repro.frw.estimator import estimate_capacitance
from repro.frw.scene import build_scene
from repro.geometry.conductor import Box, Conductor
from repro.geometry.layout import Layout
from repro.obs.trace import start_trace


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        Layout(
            [
                Conductor("left", [Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]),
                Conductor("right", [Box((1.5, 0.0, 0.0), (2.5, 1.0, 1.0))]),
            ]
        )
    )


class TestValidation:
    def test_parameter_bounds(self, scene):
        with pytest.raises(ValueError, match="num_walks"):
            estimate_capacitance(scene, num_walks=1)
        with pytest.raises(ValueError, match="batch_size"):
            estimate_capacitance(scene, num_walks=64, batch_size=1)
        with pytest.raises(ValueError, match="target_rel_std"):
            estimate_capacitance(scene, num_walks=64, target_rel_std=0.0)
        with pytest.raises(ValueError, match="num_workers"):
            estimate_capacitance(scene, num_walks=64, num_workers=-1)


class TestFixedBudget:
    def test_shapes_and_accounting(self, scene):
        estimate = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=1)
        assert estimate.capacitance.shape == (2, 2)
        assert estimate.stderr.shape == (2, 2)
        assert np.isfinite(estimate.stderr).all() and (estimate.stderr > 0.0).all()
        assert estimate.num_walks.tolist() == [512, 512]
        assert estimate.num_batches.tolist() == [4, 4]
        # Pairs are the antithetic sample unit.
        assert estimate.num_samples.tolist() == [256, 256]
        outcomes = (
            estimate.hits.sum(axis=1)
            + estimate.escaped
            + estimate.truncated
            + estimate.buried
        )
        assert outcomes.tolist() == [512, 512]
        assert estimate.rel_std > 0.0
        assert estimate.walk_seconds >= 0.0

    def test_short_circuit_signature(self, scene):
        estimate = estimate_capacitance(scene, num_walks=4096, seed=2)
        matrix = estimate.capacitance
        assert matrix[0, 0] > 0.0 and matrix[1, 1] > 0.0
        assert matrix[0, 1] < 0.0 and matrix[1, 0] < 0.0
        # The two independently estimated rows agree within a few sigma.
        coupling_sigma = np.hypot(estimate.stderr[0, 1], estimate.stderr[1, 0])
        assert abs(matrix[0, 1] - matrix[1, 0]) < 5.0 * coupling_sigma

    def test_odd_budget_rounded_to_pairs(self, scene):
        estimate = estimate_capacitance(scene, num_walks=101, batch_size=50, antithetic=True)
        assert estimate.num_walks.tolist() == [102, 102]


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, scene):
        first = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=7)
        second = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=7)
        np.testing.assert_array_equal(first.capacitance, second.capacitance)
        np.testing.assert_array_equal(first.stderr, second.stderr)
        np.testing.assert_array_equal(first.hits, second.hits)

    def test_different_seeds_differ(self, scene):
        first = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=7)
        second = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=8)
        assert not np.array_equal(first.capacitance, second.capacitance)

    def test_batch_size_is_part_of_the_stream_identity(self, scene):
        # The seed schedule is keyed per batch, so a different split is a
        # different (equally valid) random stream.
        first = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=7)
        second = estimate_capacitance(scene, num_walks=512, batch_size=256, seed=7)
        assert not np.array_equal(first.capacitance, second.capacitance)

    @pytest.mark.multiprocess
    def test_worker_count_invariance(self, scene):
        # The headline guarantee: the fork pool must return bit-identical
        # estimates at every width, because the stream belongs to the batch.
        serial = estimate_capacitance(scene, num_walks=512, batch_size=64, seed=3)
        for workers in (2, 4):
            parallel = estimate_capacitance(
                scene, num_walks=512, batch_size=64, seed=3, num_workers=workers
            )
            np.testing.assert_array_equal(serial.capacitance, parallel.capacitance)
            np.testing.assert_array_equal(serial.stderr, parallel.stderr)
            np.testing.assert_array_equal(serial.num_batches, parallel.num_batches)


class TestAdaptiveMode:
    def test_stops_once_target_met(self, scene):
        estimate = estimate_capacitance(
            scene, num_walks=256, batch_size=128, target_rel_std=0.5, seed=4
        )
        assert estimate.rel_std <= 0.5
        assert estimate.num_walks[0] == 256  # a loose target needs one round

    def test_appends_rounds_until_target(self, scene):
        estimate = estimate_capacitance(
            scene,
            num_walks=256,
            batch_size=128,
            target_rel_std=0.08,
            max_walks=65536,
            seed=4,
        )
        assert estimate.rel_std <= 0.08
        assert estimate.num_walks[0] > 256
        assert estimate.num_walks[0] % 256 == 0  # whole rounds only

    @pytest.mark.multiprocess
    def test_rounds_share_one_pool(self, scene, monkeypatch):
        opened = []
        init = multiprocessing.pool.Pool.__init__

        def counting_init(pool, *args, **kwargs):
            opened.append(pool)
            init(pool, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
        estimate = estimate_capacitance(
            scene,
            num_walks=256,
            batch_size=128,
            target_rel_std=0.08,
            max_walks=65536,
            seed=4,
            num_workers=2,
        )
        assert estimate.num_walks[0] > 256  # several rounds ...
        assert len(opened) == 1  # ... on one pool

    def test_walk_cap_bounds_the_budget(self, scene):
        estimate = estimate_capacitance(
            scene,
            num_walks=256,
            batch_size=128,
            target_rel_std=1e-9,  # unreachable
            max_walks=1024,
            seed=4,
        )
        assert estimate.num_walks[0] <= 1024
        assert estimate.rel_std > 1e-9


class TestTelemetry:
    def test_serial_round_is_one_group_span(self, scene):
        observed = estimator_module._GROUP_SECONDS.count()
        with start_trace("frw") as trace:
            estimate = estimate_capacitance(scene, num_walks=512, batch_size=128, seed=1)
        groups = [s for s in trace.spans if s.name == "frw.group"]
        assert len(groups) == 1  # serially the whole round walks as one group
        attributes = groups[0].attributes
        assert attributes["batches"] == 8  # 2 conductors x 4 batches
        assert attributes["walks"] == 1024
        assert attributes["hops"] == int(estimate.hops.sum())
        assert 0 < attributes["steps"] <= attributes["hops"]
        assert estimate.walk_seconds == pytest.approx(groups[0].seconds)
        assert estimator_module._GROUP_SECONDS.count() == observed + 1

    @pytest.mark.multiprocess
    def test_pool_round_splits_into_worker_groups(self, scene):
        with start_trace("frw") as trace:
            estimate = estimate_capacitance(
                scene, num_walks=512, batch_size=128, seed=1, num_workers=2
            )
        groups = [s for s in trace.spans if s.name == "frw.group"]
        assert [g.attributes["batches"] for g in groups] == [4, 4]
        assert all(g.attributes["executor"] == "process" for g in groups)
        assert sum(g.attributes["hops"] for g in groups) == int(estimate.hops.sum())
