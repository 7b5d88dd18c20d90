"""Bitwise guards of the kernel core's structure-of-arrays arithmetic.

The kernel core (:mod:`repro.greens.batched`) writes every Euclidean norm
per axis and selects quadrature-node coordinates per axis instead of
gathering them from ``(n, 3)`` rows.  Its near/far and point/collocation
decisions are compared against thresholds that many pairs of a regular
layout meet to the last bit, so these forms must equal the row forms they
replace bit for bit, not merely to round-off.  The references below are the
row forms themselves; if numpy ever changes the summation order of
``np.linalg.norm(axis=1)``, these tests fail instead of tie decisions moving
silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.mapping import TemplateArrays, triangular_index_to_pair
from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.geometry import generators
from repro.geometry.layout import Layout
from repro.greens.batched import _CODE_SHIFT, _EXACT, _FALLBACK, BatchedKernelCore, _norm


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit patterns (so ``-0.0`` differs from ``0.0``)."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def _adversarial_rows() -> np.ndarray:
    tiny = np.finfo(float).smallest_subnormal
    rows = [
        [0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [-0.0, -0.0, -0.0],
        [tiny, -tiny, tiny],
        [3 * tiny, 0.0, -7 * tiny],
        [1e-160, 1e-160, 1e-160],
        [1e-150, -1e-150, 1e-150],
        [1e150, -1e150, 1e150],
        [1e153, 1e153, -1e153],
        [1e-150, 1e150, -0.0],
        [-1.0, 2.0, -3.0],
        [0.1, -0.2, 0.3],
        # Sums that depend on the order of the additions:
        # (1 + 1e-16) + 1e-16 == 1, but 1 + (1e-16 + 1e-16) > 1.
        [1.0, 1e-8, 1e-8],
        [1e-8, 1e-8, 1.0],
        [1e-8, 1.0, 1e-8],
        [3.0, -4.0, 1e-7],
    ]
    rng = np.random.default_rng(7)
    scales = 10.0 ** rng.integers(-150, 150, size=(64, 1))
    random = rng.standard_normal((64, 3)) * scales * rng.choice([1e-3, 1.0, 1e3], size=(64, 3))
    return np.concatenate([np.asarray(rows), random])


class TestPerAxisNorm:
    def test_equals_the_row_norm_bitwise(self):
        rows = _adversarial_rows()
        expected = np.linalg.norm(rows, axis=1)
        columns = np.ascontiguousarray(rows.T)
        assert_bitwise_equal(_norm(*columns), expected)

    def test_rows_tell_the_summation_orders_apart(self):
        # The guard only guards if some row sums differently in another order.
        squares = _adversarial_rows() ** 2
        left = (squares[:, 0] + squares[:, 1]) + squares[:, 2]
        right = squares[:, 0] + (squares[:, 1] + squares[:, 2])
        assert np.any(left != right)

    def test_equals_the_row_norm_on_layout_centroids(self):
        arrays = TemplateArrays.from_basis_set(build_basis_set(generators.bus_crossing(4, 4)))
        i, j = triangular_index_to_pair(np.arange(arrays.num_pairs))
        delta = arrays.centroid[i] - arrays.centroid[j]
        assert_bitwise_equal(
            _norm(*np.ascontiguousarray(delta.T)), np.linalg.norm(delta, axis=1)
        )


def _one_hot_coordinate(grid, normal_axis: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """The row form: a ``(panels, order**2, 3)`` point cloud, then a gather."""
    one = lambda selected: (np.arange(3)[None, :] == selected[:, None]).astype(float)  # noqa: E731
    points = (
        grid.uu[:, :, None] * one(grid.u_axis)[:, None, :]
        + grid.vv[:, :, None] * one(grid.v_axis)[:, None, :]
        + grid.offset[:, None, None] * one(normal_axis)[:, None, :]
    )
    return np.take_along_axis(points, axis[:, None, None], axis=2)[:, :, 0]


def _layouts():
    bus = generators.bus_crossing(3, 3)
    # Negative coordinates make the one-hot products signed zeros.
    shifted = Layout(
        [c.translated((-7e-6, -5e-6, -3e-6)) for c in bus.conductors],
        permittivity=bus.permittivity,
    )
    return {
        "bus3x3": bus,
        "bus3x3-shifted": shifted,
        "transistor": generators.transistor_interconnect(),
    }


class TestPerAxisQuadratureCoordinates:
    @pytest.mark.parametrize("name", sorted(_layouts()))
    @pytest.mark.parametrize("order", [2, 6])
    def test_equal_the_one_hot_point_cloud(self, name, order):
        layout = _layouts()[name]
        basis_set = build_basis_set(layout, InstantiationConfig(face_refinement=2))
        core = BatchedKernelCore(TemplateArrays.from_basis_set(basis_set), layout.permittivity)
        i, j = triangular_index_to_pair(np.arange(core.arrays.num_pairs))
        code = core._classify(i, j)
        keyed = (code >> _CODE_SHIFT) != _FALLBACK
        i, j, code = i[keyed], j[keyed], code[keyed]
        # Frames of canonical keys and of exact-geometry keys alike.
        frame = core._canonical_frame(i, j, (code & _EXACT).astype(bool))
        panels = np.arange(frame.normal_axis.size)
        grid = core._tensor_grid(frame, panels, order)
        rng = np.random.default_rng(order)
        for axis in (
            frame.u_axis,
            frame.v_axis,
            frame.normal_axis,
            rng.integers(0, 3, size=panels.size),
        ):
            assert_bitwise_equal(
                grid.coordinate(axis), _one_hot_coordinate(grid, frame.normal_axis, axis)
            )
