"""Physics of the closed-form rectangle potential on the near-field domain.

``collocation_from_deltas`` is the only evaluator of the rectangle potential
``f = \\int\\int dx' dy' / |r - r'|`` (paper eq. (13)): every assembler, the
H-matrix oracle and the Galerkin reduction call it directly.  These tests
check it against what the integral must satisfy -- independent quadrature,
homogeneity, symmetry, additivity, harmonicity and the surface-charge jump
-- on the near-field domain where the panel integrals are hardest: source
rectangles 0.2-2 wide, field points within 2 of the rectangle and 0.1-2
above its plane.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.panel import Panel
from repro.greens.collocation import collocation_from_deltas, collocation_potential, strip_integral
from repro.greens.kernels import panel_potential_quadrature
from repro.greens.quadrature import gauss_legendre_interval


def _near_field(rng, count=400, z_range=(0.1, 2.0)):
    """Corner offsets ``(a1, a2, b1, b2, c)`` from the near-field domain."""
    width = rng.uniform(0.2, 2.0, count)
    height = rng.uniform(0.2, 2.0, count)
    x = rng.uniform(-2.0, 2.0, count)
    y = rng.uniform(-2.0, 2.0, count)
    z = rng.uniform(*z_range, count)
    return x + width / 2, x - width / 2, y + height / 2, y - height / 2, z


def _semi_analytic(a1, a2, b1, b2, c, pieces=16, order=16):
    """Reference value: composite Gauss over ``x'`` of the exact strip integral.

    The inner ``y'`` integral is the 1-D closed form; the outer one is split
    into ``pieces`` sub-intervals so the ``|c|``-wide peak of the integrand
    is resolved at the smallest heights of the domain.
    """
    total = np.zeros(np.shape(a1))
    for k in np.ndindex(np.shape(a1)):
        edges = np.linspace(a2[k], a1[k], pieces + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes, weights = gauss_legendre_interval(lo, hi, order)
            total[k] += np.sum(weights * strip_integral(b1[k], b2[k], nodes, c[k]))
    return total


class TestAgainstQuadrature:
    @pytest.mark.parametrize(
        "z_range", [(0.5, 2.0), (0.1, 0.5), (0.1, 0.11)], ids=["above", "close", "grazing"]
    )
    def test_matches_semi_analytic_reference(self, rng, z_range):
        deltas = _near_field(rng, count=60, z_range=z_range)
        exact = collocation_from_deltas(*deltas)
        np.testing.assert_allclose(exact, _semi_analytic(*deltas), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("normal_axis", [0, 1, 2])
    def test_panel_orientation_matches_tensor_quadrature(self, normal_axis):
        panel = Panel(normal_axis=normal_axis, offset=0.3, u_range=(-0.5, 0.7), v_range=(0.1, 1.3))
        point = np.full(3, 0.4)
        point[normal_axis] = 1.6
        exact = collocation_potential(panel, point[None, :])[0]
        reference = panel_potential_quadrature(panel, point, order=40)
        assert exact == pytest.approx(reference, rel=1e-10)


class TestInvariances:
    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 10.0, 1e4])
    def test_homogeneous_of_degree_one(self, rng, scale):
        # Lengths in metres or microns give the same potential per unit
        # length: f(s * deltas) = s * f(deltas).
        deltas = _near_field(rng)
        scaled = collocation_from_deltas(*[d * scale for d in deltas])
        np.testing.assert_allclose(scaled, scale * collocation_from_deltas(*deltas), rtol=1e-12)

    def test_reflection_across_u(self, rng):
        a1, a2, b1, b2, c = _near_field(rng)
        mirrored = collocation_from_deltas(-a2, -a1, b1, b2, c)
        np.testing.assert_allclose(mirrored, collocation_from_deltas(a1, a2, b1, b2, c), rtol=1e-13)

    def test_reflection_across_v(self, rng):
        a1, a2, b1, b2, c = _near_field(rng)
        mirrored = collocation_from_deltas(a1, a2, -b2, -b1, c)
        np.testing.assert_allclose(mirrored, collocation_from_deltas(a1, a2, b1, b2, c), rtol=1e-13)

    def test_swapping_in_plane_axes(self, rng):
        a1, a2, b1, b2, c = _near_field(rng)
        swapped = collocation_from_deltas(b1, b2, a1, a2, c)
        np.testing.assert_allclose(swapped, collocation_from_deltas(a1, a2, b1, b2, c), rtol=1e-13)

    def test_even_in_height(self, rng):
        a1, a2, b1, b2, c = _near_field(rng)
        below = collocation_from_deltas(a1, a2, b1, b2, -c)
        np.testing.assert_array_equal(below, collocation_from_deltas(a1, a2, b1, b2, c))

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_additive_under_splitting(self, rng, axis, fraction):
        # Splitting the source rectangle in two splits its potential.
        a1, a2, b1, b2, c = _near_field(rng)
        whole = collocation_from_deltas(a1, a2, b1, b2, c)
        if axis == "u":
            cut = a1 + fraction * (a2 - a1)
            parts = collocation_from_deltas(a1, cut, b1, b2, c) + collocation_from_deltas(cut, a2, b1, b2, c)
        else:
            cut = b1 + fraction * (b2 - b1)
            parts = collocation_from_deltas(a1, a2, b1, cut, c) + collocation_from_deltas(a1, a2, cut, b2, c)
        np.testing.assert_allclose(parts, whole, rtol=1e-12)

    @pytest.mark.parametrize("axis", ["u", "v"])
    def test_degenerate_rectangle_is_zero(self, rng, axis):
        # The signed corner terms cancel to round-off of the O(1) potential.
        a1, a2, b1, b2, c = _near_field(rng)
        if axis == "u":
            values = collocation_from_deltas(a1, a1, b1, b2, c)
        else:
            values = collocation_from_deltas(a1, a2, b2, b2, c)
        np.testing.assert_allclose(values, 0.0, rtol=0.0, atol=1e-15)


class TestPotentialTheory:
    @pytest.mark.parametrize(
        "point", [(0.1, -0.2, 0.3), (1.5, 0.4, 0.2)], ids=["above-footprint", "beside-footprint"]
    )
    def test_harmonic_off_the_panel(self, point):
        # The potential of a surface charge solves Laplace's equation away
        # from the surface; a 7-point stencil sees only discretisation error.
        (u1, u2), (v1, v2) = (-0.5, 0.6), (-0.4, 0.7)

        def f(x, y, z):
            return float(collocation_from_deltas(x - u1, x - u2, y - v1, y - v2, z))

        h = 1e-3
        x, y, z = point
        laplacian = (
            f(x + h, y, z) + f(x - h, y, z)
            + f(x, y + h, z) + f(x, y - h, z)
            + f(x, y, z + h) + f(x, y, z - h)
            - 6.0 * f(x, y, z)
        ) / (h * h)
        second = abs(f(x, y, z + h) - 2.0 * f(x, y, z) + f(x, y, z - h)) / (h * h)
        assert abs(laplacian) < 1e-4 * second

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.45, -0.3)], ids=["centre", "near-edge"])
    def test_normal_derivative_above_the_surface_is_minus_two_pi(self, point):
        # Unit surface charge: by Gauss's law the normal derivative jumps by
        # -4 pi across the rectangle, split evenly as -2 pi just above it and
        # +2 pi just below it (the potential is even in z).
        x, y = point
        h = 1e-7

        def f(z):
            return float(collocation_from_deltas(x + 0.5, x - 0.5, y + 0.4, y - 0.4, z))

        above = (f(2 * h) - f(h)) / h
        assert above == pytest.approx(-2.0 * math.pi, rel=1e-5)

    def test_no_jump_outside_the_footprint(self):
        # Beside the rectangle the potential is smooth and even in z, so its
        # normal derivative vanishes on the plane.
        h = 1e-7

        def f(z):
            return float(collocation_from_deltas(1.5 + 0.5, 1.5 - 0.5, 0.4, -0.4, z))

        assert abs(f(h) - f(0.0)) / h < 1e-5

    def test_decreases_with_height(self, rng):
        a1, a2, b1, b2, c = _near_field(rng)
        lower = collocation_from_deltas(a1, a2, b1, b2, c)
        higher = collocation_from_deltas(a1, a2, b1, b2, c + 0.05)
        assert np.all(higher < lower)

    def test_bounded_by_nearest_and_farthest_source_point(self, rng):
        # Every source point lies between distance |c| and the farthest
        # corner, so area / r_max <= f <= area / |c|.
        a1, a2, b1, b2, c = _near_field(rng)
        values = collocation_from_deltas(a1, a2, b1, b2, c)
        area = (a1 - a2) * (b1 - b2)
        r_max = np.sqrt(np.maximum(a1**2, a2**2) + np.maximum(b1**2, b2**2) + c**2)
        assert np.all(values >= area / r_max)
        assert np.all(values <= area / np.abs(c))

    def test_far_field_error_is_quadrupole(self):
        # About the centroid the dipole term vanishes, so the relative error
        # of the monopole approximation falls as 1 / R^2: a quarter per
        # doubling of the distance.
        direction = np.asarray([0.6, 0.48, 0.64])

        def monopole_error(distance):
            x, y, z = distance * direction
            value = float(collocation_from_deltas(x + 0.5, x - 0.5, y + 0.3, y - 0.3, z))
            return abs(value - 0.6 / distance) / value

        ratio = monopole_error(20.0) / monopole_error(40.0)
        assert ratio == pytest.approx(4.0, rel=0.02)


class TestEvaluation:
    def test_broadcasts_like_numpy(self, rng):
        a1, a2, b1, b2, c = (d.reshape(20, 20) for d in _near_field(rng))
        grid = collocation_from_deltas(a1, a2, b1, b2, 0.7)
        assert grid.shape == (20, 20)
        flat = collocation_from_deltas(a1.ravel(), a2.ravel(), b1.ravel(), b2.ravel(), np.full(400, 0.7))
        np.testing.assert_array_equal(grid.ravel(), flat)

    @pytest.mark.parametrize("c", [0.0, 5e-324, 1e-200, 1e-12])
    def test_in_plane_limit_is_finite_and_continuous(self, rng, c):
        # Field points in (or within round-off of) the source plane, inside
        # and outside the footprint, converge to the in-plane value.
        a1, a2, b1, b2, _ = _near_field(rng)
        values = collocation_from_deltas(a1, a2, b1, b2, c)
        assert np.all(np.isfinite(values))
        plane = collocation_from_deltas(a1, a2, b1, b2, 0.0)
        np.testing.assert_allclose(values, plane, rtol=1e-10)
