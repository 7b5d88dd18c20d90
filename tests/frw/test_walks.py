"""Tests of the walk batches: accounting, pairing, determinism, lockstep groups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frw.estimator import estimate_capacitance
from repro.frw.scene import build_scene
from repro.frw.walks import run_walk_batch, run_walk_batches
from repro.geometry.conductor import Box, Conductor
from repro.geometry.generators import bus_crossing
from repro.geometry.layout import Layout


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
    def test_num_walks_must_be_positive(self, scene):
        with pytest.raises(ValueError, match="num_walks"):
            run_walk_batch(scene, 0, 0, np.random.default_rng(0))

    def test_antithetic_needs_even_walks(self, scene):
        with pytest.raises(ValueError, match="even"):
            run_walk_batch(scene, 0, 33, np.random.default_rng(0), antithetic=True)

    def test_max_hops_must_be_positive(self, scene):
        with pytest.raises(ValueError, match="max_hops"):
            run_walk_batch(scene, 0, 8, np.random.default_rng(0), max_hops=0)


class TestAccounting:
    def test_every_walk_is_accounted_for(self, scene):
        result = run_walk_batch(scene, 0, 256, np.random.default_rng(1), antithetic=False)
        assert result.source == 0
        assert result.num_samples == 256
        outcomes = int(result.hits.sum()) + result.escaped + result.truncated
        assert outcomes + result.buried == 256
        assert result.buried == 0  # a lone box never buries its own starts
        assert result.hits.shape == (2,)
        assert result.hops > 0

    def test_antithetic_counts_pairs_as_samples(self, scene):
        result = run_walk_batch(scene, 0, 256, np.random.default_rng(1), antithetic=True)
        assert result.num_samples == 128
        outcomes = int(result.hits.sum()) + result.escaped + result.truncated
        assert outcomes + result.buried == 256

    def test_tiny_hop_limit_truncates(self, scene):
        result = run_walk_batch(
            scene, 0, 64, np.random.default_rng(2), antithetic=False, max_hops=1
        )
        assert result.truncated > 0
        outcomes = int(result.hits.sum()) + result.escaped + result.truncated
        assert outcomes + result.buried == 64

    def test_buried_starts_counted_separately(self):
        # An L-shaped conductor buries some starts inside its own inflated
        # union; they must land in `buried`, not inflate `escaped`.
        layout = Layout(
            [
                Conductor(
                    "ell",
                    [
                        Box((0.0, 0.0, 0.0), (2.0, 1.0, 1.0)),
                        Box((0.0, 0.0, 0.0), (1.0, 2.0, 1.0)),
                    ],
                ),
                Conductor("far", [Box((5.0, 0.0, 0.0), (6.0, 1.0, 1.0))]),
            ]
        )
        scene = build_scene(layout)
        result = run_walk_batch(scene, 0, 2048, np.random.default_rng(4), antithetic=False)
        assert result.buried > 0
        outcomes = int(result.hits.sum()) + result.escaped + result.truncated
        assert outcomes + result.buried == 2048

    def test_sign_structure_of_the_sums(self, scene):
        # With a healthy budget the sampled row has the short-circuit
        # signature: positive self term, negative coupling.
        result = run_walk_batch(scene, 0, 4096, np.random.default_rng(3))
        assert result.sums[0] > 0.0
        assert result.sums[1] < 0.0
        assert (result.sumsq >= 0.0).all()


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, scene):
        first = run_walk_batch(scene, 1, 512, np.random.default_rng(42))
        second = run_walk_batch(scene, 1, 512, np.random.default_rng(42))
        np.testing.assert_array_equal(first.sums, second.sums)
        np.testing.assert_array_equal(first.sumsq, second.sumsq)
        np.testing.assert_array_equal(first.hits, second.hits)
        assert first.escaped == second.escaped
        assert first.hops == second.hops

    def test_tuple_seed_keys_distinct_streams(self, scene):
        # The estimator keys generators by (seed, conductor, batch); distinct
        # keys must give distinct walks.
        first = run_walk_batch(scene, 0, 512, np.random.default_rng((0, 0, 0)))
        second = run_walk_batch(scene, 0, 512, np.random.default_rng((0, 0, 1)))
        assert not np.array_equal(first.sums, second.sums)


@pytest.fixture(scope="module")
def ell_scene():
    """An L-shaped source (buries some starts) and a far second conductor."""
    return build_scene(
        Layout(
            [
                Conductor(
                    "ell",
                    [
                        Box((0.0, 0.0, 0.0), (2.0, 1.0, 1.0)),
                        Box((0.0, 0.0, 0.0), (1.0, 2.0, 1.0)),
                    ],
                ),
                Conductor("far", [Box((5.0, 0.0, 0.0), (6.0, 1.0, 1.0))]),
            ]
        )
    )


class TestLockstepGroups:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("max_hops", [3, 1000])
    def test_group_matches_each_batch_alone(self, ell_scene, antithetic, max_hops):
        # Each batch keeps its own stream and draw schedule, so walking it
        # next to batches of other sources and sizes changes nothing --
        # not its statistics, and not how far its generator advanced.
        batches = [(0, 96, 11), (1, 64, 12), (0, 40, 13), (1, 128, 14)]

        def specs():
            return [(source, size, np.random.default_rng(seed)) for source, size, seed in batches]

        grouped_specs = specs()
        group = run_walk_batches(ell_scene, grouped_specs, antithetic, max_hops)
        alone_specs = specs()
        alone = [
            run_walk_batches(ell_scene, [spec], antithetic, max_hops) for spec in alone_specs
        ]

        assert len(group.batches) == len(batches)
        assert group.steps == max(single.steps for single in alone)
        assert group.hops == sum(single.hops for single in alone)
        assert group.seconds >= 0.0
        for ours, single in zip(group.batches, alone):
            theirs = single.batches[0]
            for field in ("source", "num_samples", "escaped", "truncated", "buried", "hops"):
                assert getattr(ours, field) == getattr(theirs, field), field
            for field in ("sums", "sumsq", "hits"):
                np.testing.assert_array_equal(getattr(ours, field), getattr(theirs, field))
        for grouped, single in zip(grouped_specs, alone_specs):
            assert grouped[2].bit_generator.state == single[2].bit_generator.state

        # The scene exercises every outcome the schedule has to survive.
        totals = {
            field: sum(getattr(b, field) for b in group.batches)
            for field in ("escaped", "truncated", "buried")
        }
        assert totals["buried"] > 0
        assert totals["escaped"] > 0
        if max_hops == 3:
            assert totals["truncated"] > 0

    def test_empty_group_rejected(self, ell_scene):
        with pytest.raises(ValueError, match="at least one batch"):
            run_walk_batches(ell_scene, [])

    def test_pinned_stream(self):
        # Literals recorded before the lockstep walker replaced the
        # per-batch loop.  Any change to a batch's draw schedule moves the
        # estimate by the sampling noise (percent level) and fails here;
        # the float tolerance only absorbs platform libm rounding.
        scene = build_scene(bus_crossing(n_lower=2, n_upper=2))
        estimate = estimate_capacitance(scene, seed=0, num_walks=1024, batch_size=256)
        capacitance = [
            [
                2.7139802282232407e-16, -9.1322465228928024e-17,
                -5.4977006946970330e-17, -6.1465433560358048e-17,
            ],
            [
                -6.9116990634677168e-17, 2.5017602433058149e-16,
                -4.1378342082750818e-17, -5.6545440207304582e-17,
            ],
            [
                -4.1386380052633062e-17, -4.5457750701451106e-17,
                2.3852292374953688e-16, -8.6055600777528391e-17,
            ],
            [
                -4.4601527352148776e-17, -3.4411317461463274e-17,
                -1.0259411438405067e-16, 2.6224237728223111e-16,
            ],
        ]
        stderr = [
            [
                2.8298988409532905e-17, 1.8502374513124225e-17,
                1.4878776271706151e-17, 1.7124169860569090e-17,
            ],
            [
                1.7765450449939892e-17, 2.8982684175958094e-17,
                1.4062806963715320e-17, 1.5769994930672882e-17,
            ],
            [
                1.4341360323977514e-17, 1.4241764535093710e-17,
                2.8473435854287834e-17, 2.0011400531312652e-17,
            ],
            [
                1.5266266986678635e-17, 1.4913649603296677e-17,
                1.8969137658109454e-17, 2.8296544829252929e-17,
            ],
        ]
        np.testing.assert_allclose(estimate.capacitance, capacitance, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(estimate.stderr, stderr, rtol=1e-12, atol=0.0)
        assert estimate.hops.tolist() == [16892, 17119, 17438, 17532]


class TestEstimateQuality:
    def test_isolated_cube_matches_reference_value(self):
        # The self-capacitance of a unit cube in free space is the classic
        # benchmark C = 0.6607 * 4*pi*eps0*a (~73.5 pF for a 1 m cube); a
        # second cube 48 edge lengths away perturbs it by ~1 %.
        layout = Layout(
            [
                Conductor("cube", [Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]),
                Conductor("far", [Box((49.0, 0.0, 0.0), (50.0, 1.0, 1.0))]),
            ]
        )
        scene = build_scene(layout, capture_fraction=0.005)
        result = run_walk_batch(scene, 0, 8192, np.random.default_rng(5))
        mean = result.sums[0] / result.num_samples
        expected = scene.permittivity * 4.0 * np.pi * 0.6607
        assert mean == pytest.approx(expected, rel=0.08)
