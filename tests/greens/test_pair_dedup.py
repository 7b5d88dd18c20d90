"""Deduplication of template pairs in the batched kernel core.

:meth:`BatchedKernelCore.evaluate_pairs` classifies every requested pair on
its exact geometry, keys it by its shape classes, snapped displacement and
decision bits, and evaluates each distinct key once in a canonical frame.
These tests pin the properties that design promises: a pair's value does
not depend on the batch it arrives in, the key absorbs rigid translations,
pairs whose decisions differ are never merged, and templates with a
non-stock profile are never merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.batch import BatchGalerkinAssembler
from repro.assembly.mapping import TemplateArrays, triangular_index_to_pair
from repro.basis import build_basis_set
from repro.basis.templates import ArchProfile, TemplateInstance, make_arch_template
from repro.geometry import generators
from repro.geometry.layout import Layout
from repro.geometry.panel import Panel
from repro.greens.batched import BatchedKernelCore, _distinct_rows
from repro.greens.galerkin import GalerkinIntegrator

PERMITTIVITY = 8.854187817e-12


def _core(layout: Layout) -> BatchedKernelCore:
    return BatchGalerkinAssembler(build_basis_set(layout), layout.permittivity).core


@lru_cache(maxsize=None)
def _bus_batch() -> tuple[BatchedKernelCore, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of a bus 3x3 in both orders, evaluated in one batch."""
    core = _core(generators.bus_crossing(3, 3))
    upper_i, upper_j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
    i = np.concatenate([upper_i, upper_j])
    j = np.concatenate([upper_j, upper_i])
    return core, i, j, core.evaluate_pairs(i, j)


class TestBatchIndependence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sub_batches_match_the_full_batch(self, data):
        """Any sub-batch, in any order and with repeats, is bit-identical."""
        core, i, j, full = _bus_batch()
        picks = np.asarray(
            data.draw(st.lists(st.integers(0, i.size - 1), min_size=1, max_size=400))
        )
        np.testing.assert_array_equal(core.evaluate_pairs(i[picks], j[picks]), full[picks])

    def test_evaluated_counts_are_distinct_keys(self):
        """Requested counts cover every pair; evaluated counts far fewer."""
        core = _core(generators.bus_crossing(6, 6))
        i, j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
        requested: dict[str, int] = {}
        evaluated: dict[str, int] = {}
        core.evaluate_pairs(i, j, counts=requested, evaluated=evaluated)
        assert sum(requested.values()) == i.size
        assert set(evaluated) <= set(requested)
        assert all(0 < evaluated[c] <= requested[c] for c in evaluated)
        assert 3 * sum(evaluated.values()) < i.size


class TestDistinctRows:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**61),
                st.integers(0, 3),
                st.integers(-(2**62), 2**62),
                st.sampled_from([0, 10**11, -(10**11), 3 * 10**11]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_grouping_is_exact(self, rows):
        """Packing, gcd division and the rank fallback group rows exactly."""
        table = np.array(rows, dtype=np.int64)
        first, inverse = _distinct_rows(list(table.T))
        _, expected = np.unique(table, axis=0, return_inverse=True)
        # Same partition of the rows, each group represented by its first row.
        np.testing.assert_array_equal(table[first][inverse], table)
        assert np.unique(inverse).size == np.unique(expected).size == first.size
        assert np.all(first == np.array([np.flatnonzero(inverse == k)[0] for k in range(first.size)]))


class TestTranslation:
    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(-(10**14), 10**14), min_size=3, max_size=3))
    def test_translated_layout_keeps_keys_and_values(self, steps):
        """A rigid translation leaves every key and every value in place.

        The translation is drawn in whole quanta of the key: off that grid a
        snapped coordinate can cross a rounding boundary.  Pairs whose
        decisions sit exactly on a threshold can flip under the ulp noise a
        translation adds (a known accuracy issue of the decisions
        themselves, not of the key); they are left out.
        """
        layout = generators.bus_crossing(3, 3)
        base = _core(layout)
        shift = np.asarray(steps, dtype=float) * base.quantum
        moved = _core(
            Layout([c.translated(shift) for c in layout.conductors], permittivity=layout.permittivity)
        )
        assert moved.quantum == base.quantum
        i, j = triangular_index_to_pair(np.arange(base.arrays.num_pairs))
        kept = base._classify(i, j) == moved._classify(i, j)
        assert np.count_nonzero(kept) > 0.8 * i.size
        base_evaluated: dict[str, int] = {}
        moved_evaluated: dict[str, int] = {}
        before = base.evaluate_pairs(i[kept], j[kept], evaluated=base_evaluated)
        after = moved.evaluate_pairs(i[kept], j[kept], evaluated=moved_evaluated)
        assert moved_evaluated == base_evaluated
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))


class TestDecisionsStayInTheKey:
    def test_threshold_tie_pairs_keep_their_own_values(self):
        """Bus 10x10 pairs (649, 698) and (133, 182) share their relative
        geometry, but their box separation equals the near/far scale to the
        last bit and they fall on opposite sides of it: one is integrated at
        ``order_near``, the other at ``order_far``.  Merged, one of them
        would be 7 % off."""
        core = _core(generators.bus_crossing(10, 10))
        i = np.array([649, 133])
        j = np.array([698, 182])
        # Same shape classes and snapped displacement: only a decision differs.
        assert core._shape_class[i[0]] == core._shape_class[i[1]]
        assert core._shape_class[j[0]] == core._shape_class[j[1]]
        displacement = core._displacement(i, j)
        np.testing.assert_array_equal(displacement[0], displacement[1])

        evaluated: dict[str, int] = {}
        values = core.evaluate_pairs(i, j, evaluated=evaluated)
        assert evaluated == {"profiled": 2}
        templates = core.arrays.templates
        for value, a, b in zip(values, i, j):
            reference = core.integrator.template_pair(
                templates[a].panel, templates[b].panel, templates[a].profile, templates[b].profile
            )
            assert abs(value - reference) <= 1e-10 * abs(reference)
        assert abs(values[0] - values[1]) > 0.05 * abs(values[1])


    def test_overlapping_arch_pairs_keep_their_exact_geometry(self):
        """Two arches on (nearly) the same plane whose supports overlap put
        quadrature points on the log-singular line of the strip integral,
        where the value depends on the last bits of the separation.  The
        pair 1e-106 apart and the exactly coplanar pair share classes,
        snapped displacement and decisions, yet their values differ by
        60 %."""
        arch = ArchProfile(axis="u", edge=0.0, ingrowing_length=1.0, extension_length=1.0)
        templates = [
            make_arch_template(
                Panel(normal_axis=0, offset=offset, u_range=(0.0, 1.0), v_range=(0.0, 1.0)), arch
            )
            for offset in (0.0, 2.1254708959799105e-106, 5.0, 5.0)
        ]
        core = BatchedKernelCore(
            TemplateArrays.from_templates(templates, np.arange(len(templates))), PERMITTIVITY
        )
        evaluated: dict[str, int] = {}
        values = core.evaluate_pairs(np.array([0, 2]), np.array([1, 3]), evaluated=evaluated)
        assert evaluated == {"profiled": 2}
        reference = GalerkinIntegrator(PERMITTIVITY)
        for value, (a, b) in zip(values, [(0, 1), (2, 3)]):
            exact = reference.template_pair(
                templates[a].panel, templates[b].panel, templates[a].profile, templates[b].profile
            )
            assert abs(value - exact) <= 1e-10 * abs(exact)


@dataclass(frozen=True)
class LinearRamp:
    """A shape profile outside the stock arch family (linear along u)."""

    support: tuple[float, float]
    axis: str = "u"

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        lo, hi = self.support
        return 1.0 + (np.asarray(coords, dtype=float) - lo) / (hi - lo)

    def integral(self) -> float:
        lo, hi = self.support
        return 1.5 * (hi - lo)


def _ramp(x: float) -> TemplateInstance:
    panel = Panel(normal_axis=2, offset=0.0, u_range=(x, x + 1.0), v_range=(0.0, 1.0))
    return TemplateInstance(panel=panel, profile=LinearRamp((x, x + 1.0)))  # type: ignore[arg-type]


def _flat(x: float, z: float) -> TemplateInstance:
    panel = Panel(normal_axis=2, offset=z, u_range=(x, x + 1.0), v_range=(0.0, 1.0))
    return TemplateInstance(panel=panel)


class TestFallbackProfiles:
    def test_non_stock_profiles_are_never_merged(self):
        """Congruent ramp templates at equal displacements stay separate."""
        templates = [
            _ramp(0.0),  # 0
            _flat(0.0, 0.5),  # 1: near partner of 0
            _ramp(10.0),  # 2: translated copy of 0
            _flat(10.0, 0.5),  # 3: near partner of 2, same displacement
            _flat(0.0, 40.0),  # 4: far partner of 0 and 1 (point level)
            _flat(10.0, 40.0),  # 5: far partner of 2 and 3, same displacement
        ]
        core = BatchedKernelCore(
            TemplateArrays.from_templates(templates, np.arange(len(templates))), PERMITTIVITY
        )
        i = np.array([0, 2, 0, 2, 1, 3])
        j = np.array([1, 3, 4, 5, 4, 5])
        requested: dict[str, int] = {}
        evaluated: dict[str, int] = {}
        values = core.evaluate_pairs(i, j, counts=requested, evaluated=evaluated)
        # Ramp pairs: two near (per-pair reference) and two point-level, all
        # evaluated; the flat point-level control pairs (1, 4) and (3, 5)
        # share one key.
        assert requested == {"profiled": 2, "point": 4}
        assert evaluated == {"profiled": 2, "point": 3}
        reference = GalerkinIntegrator(PERMITTIVITY)
        for value, a, b in zip(values, i, j):
            exact = reference.template_pair(
                templates[a].panel, templates[b].panel, templates[a].profile, templates[b].profile
            )
            assert abs(value - exact) <= 1e-10 * abs(exact)
