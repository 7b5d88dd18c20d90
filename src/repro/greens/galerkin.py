"""Panel-pair Galerkin integrator.

This is the sequential kernel executed inside every parallel computing node
of Algorithm 1: given two templates (a rectangular support plus an optional
1-D shape profile), compute

.. math::  \\tilde P_{ij} = \\frac{1}{4 \\pi \\varepsilon}
    \\int_{s_i} \\int_{s_j} \\frac{T_i(r) \\, T_j(r')}{\\lVert r - r' \\rVert}
    \\, ds' \\, ds .

Evaluation strategy (paper Section 4.1):

* constant-constant, parallel panels: exact closed form through the
  16-corner sum of the indefinite integral (eq. (9));
* constant-constant, orthogonal panels: outer Gauss-Legendre quadrature over
  the smaller panel of the inner 2-D closed-form collocation integral;
* pairs beyond the approximation distance: the collocation (midpoint) or
  point (monopole) reductions selected by
  :class:`~repro.greens.policy.ApproximationPolicy`;
* templates with 1-D shape variation: Gauss quadrature along the varying
  direction(s), analytic strip/rectangle integrals for the remaining
  directions -- this is exactly the rearrangement of paper eq. (7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.geometry.panel import Panel
from repro.greens.collocation import collocation_from_deltas, strip_integral
from repro.greens.indefinite import galerkin_parallel_rectangles
from repro.greens.policy import ApproximationPolicy, EvaluationLevel
from repro.greens.quadrature import gauss_legendre_interval

__all__ = ["ShapeProfile", "GalerkinIntegrator", "IntegrationCounters"]

class ShapeProfile(Protocol):
    """A 1-D template shape along one tangential axis of a panel.

    Implementations live in :mod:`repro.basis.templates`; the integrator only
    needs the axis the shape varies along ("u" or "v"), point evaluation and
    the integral of the shape over its support.
    """

    axis: str

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        """Evaluate the shape at absolute coordinates along its axis."""
        ...  # pragma: no cover - protocol

    def integral(self) -> float:
        """Integral of the shape over its support (used for point reductions)."""
        ...  # pragma: no cover - protocol


@dataclass
class IntegrationCounters:
    """Counts of panel-pair evaluations by level, for load modelling and tests."""

    exact_parallel: int = 0
    exact_quadrature: int = 0
    collocation: int = 0
    point: int = 0
    profile_quadrature: int = 0

    def total(self) -> int:
        """Total number of panel-pair evaluations."""
        return (
            self.exact_parallel
            + self.exact_quadrature
            + self.collocation
            + self.point
            + self.profile_quadrature
        )

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dictionary."""
        return {
            "exact_parallel": self.exact_parallel,
            "exact_quadrature": self.exact_quadrature,
            "collocation": self.collocation,
            "point": self.point,
            "profile_quadrature": self.profile_quadrature,
        }


class GalerkinIntegrator:
    """Computes Galerkin integrals between (possibly shaped) panel templates.

    Parameters
    ----------
    permittivity:
        Absolute permittivity of the uniform medium.
    policy:
        Approximation-distance policy; defaults to the paper's 1 % tolerance.
    order_near, order_far:
        Gauss-Legendre orders used for outer quadratures on nearby and
        well-separated pairs respectively.
    """

    def __init__(
        self,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
        order_near: int = 6,
        order_far: int = 3,
    ):
        if permittivity <= 0.0:
            raise ValueError(f"permittivity must be positive, got {permittivity}")
        self.permittivity = float(permittivity)
        self.policy = policy if policy is not None else ApproximationPolicy()
        if order_near < 1 or order_far < 1:
            raise ValueError("quadrature orders must be >= 1")
        self.order_near = int(order_near)
        self.order_far = int(order_far)
        self.counters = IntegrationCounters()

    # ------------------------------------------------------------------
    @property
    def prefactor(self) -> float:
        """The ``1 / (4 pi eps)`` kernel prefactor."""
        return 1.0 / (4.0 * math.pi * self.permittivity)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def template_pair(
        self,
        panel_i: Panel,
        panel_j: Panel,
        profile_i: ShapeProfile | None = None,
        profile_j: ShapeProfile | None = None,
    ) -> float:
        """Galerkin integral between two templates, including the kernel prefactor."""
        if profile_i is None and profile_j is None:
            raw = self._constant_pair(panel_i, panel_j)
        else:
            raw = self._profiled_pair(panel_i, panel_j, profile_i, profile_j)
        return self.prefactor * raw

    # ------------------------------------------------------------------
    # Constant-constant pairs
    # ------------------------------------------------------------------
    def _constant_pair(self, panel_i: Panel, panel_j: Panel) -> float:
        level = self.policy.level(panel_i, panel_j)
        if level is EvaluationLevel.POINT:
            self.counters.point += 1
            distance = panel_i.centroid_distance(panel_j)
            return panel_i.area * panel_j.area / distance
        if level is EvaluationLevel.COLLOCATION:
            self.counters.collocation += 1
            # Collapse the smaller panel to its centroid (its size controls
            # the midpoint-rule error) and keep the other panel exact.
            small, large = self._order_by_size(panel_i, panel_j)
            value = self._panel_potential(large, small.centroid[None, :])[0]
            return small.area * value
        if panel_i.is_parallel_to(panel_j):
            self.counters.exact_parallel += 1
            separation = panel_i.offset - panel_j.offset
            return galerkin_parallel_rectangles(
                panel_i.u_range, panel_i.v_range, panel_j.u_range, panel_j.v_range, separation
            )
        # Orthogonal panels: outer quadrature over the smaller panel of the
        # exact collocation potential of the other.
        self.counters.exact_quadrature += 1
        small, large = self._order_by_size(panel_i, panel_j)
        order = self._quadrature_order(small, large)
        pts, weights = self._tensor_nodes(small, order, order)
        values = self._panel_potential(large, pts)
        return float(weights @ values)

    # ------------------------------------------------------------------
    # Pairs involving shaped (arch) templates
    # ------------------------------------------------------------------
    def _profiled_pair(
        self,
        panel_i: Panel,
        panel_j: Panel,
        profile_i: ShapeProfile | None,
        profile_j: ShapeProfile | None,
    ) -> float:
        # Orient so the first panel always carries a profile.
        if profile_i is None:
            panel_i, panel_j = panel_j, panel_i
            profile_i, profile_j = profile_j, profile_i
        assert profile_i is not None

        level = self.policy.level(panel_i, panel_j)
        if level is EvaluationLevel.POINT:
            self.counters.point += 1
            q_i = self._template_moment(panel_i, profile_i)
            q_j = self._template_moment(panel_j, profile_j)
            distance = panel_i.centroid_distance(panel_j)
            return q_i * q_j / distance

        self.counters.profile_quadrature += 1
        order = self._quadrature_order(panel_i, panel_j)
        pts, weights = self._weighted_nodes(panel_i, profile_i, order)
        if profile_j is None:
            values = self._panel_potential(panel_j, pts)
            return float(weights @ values)
        values = self._shaped_panel_potential(panel_j, profile_j, pts, order)
        return float(weights @ values)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _order_by_size(panel_i: Panel, panel_j: Panel) -> tuple[Panel, Panel]:
        """Return (smaller, larger) by diagonal."""
        if panel_i.diagonal <= panel_j.diagonal:
            return panel_i, panel_j
        return panel_j, panel_i

    def _quadrature_order(self, panel_i: Panel, panel_j: Panel) -> int:
        """Pick a quadrature order based on pair proximity."""
        separation = panel_i.separation(panel_j)
        scale = max(panel_i.diagonal, panel_j.diagonal)
        return self.order_near if separation < scale else self.order_far

    def _panel_potential(self, panel: Panel, points: np.ndarray) -> np.ndarray:
        """Rectangle potential of ``panel`` at ``points`` (closed form)."""
        x = points[:, panel.u_axis]
        y = points[:, panel.v_axis]
        z = points[:, panel.normal_axis] - panel.offset
        u1, u2 = panel.u_range
        v1, v2 = panel.v_range
        return collocation_from_deltas(x - u1, x - u2, y - v1, y - v2, z)

    def _tensor_nodes(self, panel: Panel, order_u: int, order_v: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor Gauss nodes (as 3-D points) and weights over a panel."""
        u_nodes, u_weights = gauss_legendre_interval(panel.u_range[0], panel.u_range[1], order_u)
        v_nodes, v_weights = gauss_legendre_interval(panel.v_range[0], panel.v_range[1], order_v)
        uu, vv = np.meshgrid(u_nodes, v_nodes, indexing="ij")
        ww = np.outer(u_weights, v_weights).ravel()
        pts = np.empty((uu.size, 3))
        pts[:, panel.normal_axis] = panel.offset
        pts[:, panel.u_axis] = uu.ravel()
        pts[:, panel.v_axis] = vv.ravel()
        return pts, ww

    def _weighted_nodes(
        self, panel: Panel, profile: ShapeProfile, order: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tensor Gauss nodes over ``panel`` with weights including the profile."""
        pts, weights = self._tensor_nodes(panel, order, order)
        axis = panel.u_axis if profile.axis == "u" else panel.v_axis
        weights = weights * profile(pts[:, axis])
        return pts, weights

    def _template_moment(self, panel: Panel, profile: ShapeProfile | None) -> float:
        """Total "charge moment" of a template: ``\\int T ds``."""
        if profile is None:
            return panel.area
        if profile.axis == "u":
            return profile.integral() * panel.v_span
        return profile.integral() * panel.u_span

    def _shaped_panel_potential(
        self,
        panel: Panel,
        profile: ShapeProfile,
        points: np.ndarray,
        order: int,
    ) -> np.ndarray:
        """Potential of a shaped panel at field points.

        Gauss quadrature along the profile axis, analytic strip integral along
        the other tangential axis (the innermost closed form of eq. (7)).
        """
        if profile.axis == "u":
            p_axis, s_axis = panel.u_axis, panel.v_axis
            p_range, s_range = panel.u_range, panel.v_range
        else:
            p_axis, s_axis = panel.v_axis, panel.u_axis
            p_range, s_range = panel.v_range, panel.u_range

        nodes, weights = gauss_legendre_interval(p_range[0], p_range[1], order)
        shape_values = profile(nodes)

        # Distances from every field point to every strip.
        dp = points[:, p_axis][:, None] - nodes[None, :]
        dz = (points[:, panel.normal_axis] - panel.offset)[:, None]
        b1 = points[:, s_axis][:, None] - s_range[0]
        b2 = points[:, s_axis][:, None] - s_range[1]
        strips = strip_integral(b1, b2, dp, np.broadcast_to(dz, dp.shape))
        return strips @ (weights * shape_values)
