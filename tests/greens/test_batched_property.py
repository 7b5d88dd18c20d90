"""Property tests: the batched kernel core vs the entry-wise reference.

The batched core (:class:`repro.greens.batched.BatchedKernelCore`) must
reproduce the per-pair
:meth:`~repro.greens.galerkin.GalerkinIntegrator.template_pair` values to
``1e-10`` relative across random panel geometries — every evaluation
category (point, collocation, parallel exact, orthogonal exact, profiled)
and the canonical ``(min, max)`` template-order convention included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.mapping import TemplateArrays
from repro.basis.templates import ArchProfile, TemplateInstance, make_arch_template
from repro.geometry.panel import Panel
from repro.greens.batched import BatchedKernelCore
from repro.greens.collocation import collocation_corner, collocation_from_deltas
from repro.greens.galerkin import GalerkinIntegrator

PERMITTIVITY = 8.854187817e-12


def _finite(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw) -> Panel:
    """Axis-aligned rectangles of assorted orientation, position and size."""
    normal_axis = draw(st.integers(min_value=0, max_value=2))
    offset = draw(_finite(-3.0, 3.0))
    u1 = draw(_finite(-2.0, 2.0))
    v1 = draw(_finite(-2.0, 2.0))
    # Widths bounded away from zero so the geometry stays non-degenerate.
    u2 = u1 + draw(_finite(0.05, 2.0))
    v2 = v1 + draw(_finite(0.05, 2.0))
    return Panel(normal_axis=normal_axis, offset=offset, u_range=(u1, u2), v_range=(v1, v2))


@st.composite
def templates(draw) -> TemplateInstance:
    """Flat or arch-profiled template on a random panel."""
    panel = draw(panels())
    if draw(st.booleans()):
        return TemplateInstance(panel=panel)
    axis = draw(st.sampled_from(["u", "v"]))
    extent = panel.u_range if axis == "u" else panel.v_range
    inward_sign = draw(st.sampled_from([1, -1]))
    edge = extent[0] if inward_sign == 1 else extent[1]
    arch = ArchProfile(
        axis=axis,
        edge=edge,
        ingrowing_length=draw(_finite(0.05, 1.5)),
        extension_length=draw(_finite(0.05, 1.5)),
        inward_sign=inward_sign,
    )
    return make_arch_template(panel, arch)


def _agreement(template_i: TemplateInstance, template_j: TemplateInstance) -> None:
    pair = [template_i, template_j]
    arrays = TemplateArrays.from_templates(pair, np.arange(2))
    core = BatchedKernelCore(arrays, PERMITTIVITY)
    reference = GalerkinIntegrator(PERMITTIVITY)
    # Canonical (min, max) order — index 0 always the smaller index, like
    # the assemblers' upper-triangle sweep and the compression oracle.
    batched = core.evaluate_pairs(np.array([0]), np.array([1]))[0]
    exact = reference.template_pair(
        template_i.panel, template_j.panel, template_i.profile, template_j.profile
    )
    scale = max(abs(exact), abs(batched), 1e-300)
    assert abs(batched - exact) / scale <= 1e-10


class TestBatchedMatchesEntrywise:
    @settings(max_examples=80, deadline=None)
    @given(templates(), templates())
    def test_random_geometry_pairs(self, template_i, template_j):
        """Random orientation/position/profile pairs agree to 1e-10."""
        _agreement(template_i, template_j)

    @settings(max_examples=40, deadline=None)
    @given(panels(), _finite(0.0, 0.3))
    def test_near_coplanar_pairs(self, panel, gap):
        """Nearly-touching parallel pairs exercise the near-field path."""
        shifted = Panel(
            normal_axis=panel.normal_axis,
            offset=panel.offset + gap,
            u_range=panel.u_range,
            v_range=panel.v_range,
        )
        _agreement(TemplateInstance(panel=panel), TemplateInstance(panel=shifted))

    def test_diagonal_pair(self):
        """The singular self-pair (template with itself)."""
        panel = Panel(normal_axis=2, offset=0.0, u_range=(0.0, 1.0), v_range=(0.0, 1.0))
        template = TemplateInstance(panel=panel)
        _agreement(template, template)

    def test_all_categories_visited(self):
        """A constructed set that hits every evaluation category at once."""
        base = Panel(normal_axis=2, offset=0.0, u_range=(0.0, 1.0), v_range=(0.0, 1.0))
        instances = [
            TemplateInstance(panel=base),
            TemplateInstance(  # parallel, near
                panel=Panel(normal_axis=2, offset=0.3, u_range=(0.2, 1.2), v_range=(0.0, 1.0))
            ),
            TemplateInstance(  # orthogonal, near
                panel=Panel(normal_axis=0, offset=0.5, u_range=(0.0, 1.0), v_range=(0.0, 1.0))
            ),
            TemplateInstance(  # far: point / collocation levels
                panel=Panel(normal_axis=2, offset=40.0, u_range=(0.0, 1.0), v_range=(0.0, 1.0))
            ),
            make_arch_template(  # profiled
                Panel(normal_axis=2, offset=0.1, u_range=(0.0, 1.0), v_range=(0.0, 1.0)),
                ArchProfile(axis="u", edge=0.0, ingrowing_length=0.3, extension_length=0.2),
            ),
        ]
        arrays = TemplateArrays.from_templates(instances, np.arange(len(instances)))
        core = BatchedKernelCore(arrays, PERMITTIVITY)
        reference = GalerkinIntegrator(PERMITTIVITY)
        count = len(instances)
        i_idx, j_idx = np.triu_indices(count)
        counts: dict[str, int] = {}
        batched = core.evaluate_pairs(i_idx, j_idx, counts=counts)
        exact = np.array(
            [
                reference.template_pair(
                    instances[i].panel,
                    instances[j].panel,
                    instances[i].profile,
                    instances[j].profile,
                )
                for i, j in zip(i_idx, j_idx)
            ]
        )
        np.testing.assert_allclose(batched, exact, rtol=1e-10, atol=0.0)
        assert sum(counts.values()) == i_idx.size


class TestFusedCollocationClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(
        _finite(-3.0, 3.0),
        _finite(-3.0, 3.0),
        _finite(-3.0, 3.0),
        _finite(-3.0, 3.0),
        st.one_of(st.just(0.0), _finite(-2.0, 2.0)),
    )
    def test_matches_corner_sum(self, a1, a2, b1, b2, c):
        """The fused form is the signed 4-corner sum to round-off."""
        fused = collocation_from_deltas(a1, a2, b1, b2, c)
        corners = (
            collocation_corner(a1, b1, c)
            - collocation_corner(a2, b1, c)
            - collocation_corner(a1, b2, c)
            + collocation_corner(a2, b2, c)
        )
        scale = max(abs(float(corners)), 1.0)
        assert abs(float(fused) - float(corners)) / scale <= 1e-12


class TestRemovedKernelModes:
    """``near_field="table"`` and the numba JIT path are gone.

    The H-matrix oracle and the ``galerkin-aca`` backend keep both keywords
    so that requests naming their defaults still resolve; any other value
    is refused with a message naming the removal.
    """

    @pytest.fixture(scope="class")
    def layout(self):
        from repro.geometry import generators

        return generators.crossing_wires()

    @pytest.mark.parametrize(
        "option, match",
        [
            ({"near_field": "table"}, "near_field='table' was removed"),
            ({"use_numba": True}, "use_numba=True was removed"),
        ],
    )
    def test_removed_modes_rejected(self, layout, option, match):
        from repro.basis import build_basis_set
        from repro.compress.entries import GalerkinEntries
        from repro.engine import ExtractionService, get_backend

        basis_set = build_basis_set(layout)
        with pytest.raises(ValueError, match=match):
            GalerkinEntries(basis_set, layout.permittivity, **option)
        with pytest.raises(ValueError, match=match):
            get_backend("galerkin-aca").extract(layout, **option)
        # The service contains backend failures and re-raises them, naming
        # the original error.
        with pytest.raises(RuntimeError, match=f"ValueError: {match}"):
            ExtractionService().extract(layout, backend="galerkin-aca", **option)

    def test_explicit_defaults_match_omitted(self, layout):
        from repro.engine import ExtractionService

        service = ExtractionService()
        plain = service.extract(layout, backend="galerkin-aca")
        explicit = service.extract(
            layout, backend="galerkin-aca", near_field="exact", use_numba=False
        )
        np.testing.assert_array_equal(explicit.capacitance, plain.capacitance)
        assert explicit.metadata["near_field"] == "exact"
        assert "jit_active" not in explicit.metadata

    def test_kernel_core_has_one_evaluation_path(self, layout):
        from repro.assembly.batch import BatchGalerkinAssembler
        from repro.basis import build_basis_set

        basis_set = build_basis_set(layout)
        with pytest.raises(TypeError):
            BatchGalerkinAssembler(basis_set, layout.permittivity, near_field="exact")
        with pytest.raises(TypeError):
            BatchGalerkinAssembler(basis_set, layout.permittivity, use_numba=False)
