"""Closed-form collocation integrals over axis-aligned rectangles.

The central quantity is the potential integral of a uniformly charged
rectangle evaluated at an arbitrary point,

.. math::  f_{2D}(r) = \\int_{y'_1}^{y'_2} \\int_{x'_1}^{x'_2}
              \\frac{dx' \\, dy'}{\\lVert r - r' \\rVert},

the "2-D analytical expression" of paper eq. (13) (without the dielectric
prefactor).  Its closed form is the signed sum over the four rectangle
corners of :func:`collocation_corner`,

.. math::  g(a, b, c) = a \\operatorname{asinh}\\frac{b}{\\sqrt{a^2+c^2}}
              + b \\operatorname{asinh}\\frac{a}{\\sqrt{b^2+c^2}}
              - c \\arctan\\frac{a b}{c \\, r},

with :math:`r = \\sqrt{a^2+b^2+c^2}`.  All functions are fully vectorised
over the field points; the corner function accepts arrays of any shape.

The 1-D analytic strip integral :func:`strip_integral` (a single
``asinh`` difference) is the innermost closed form used when a template has
shape variation along one axis: the outer direction is then handled by
Gaussian quadrature, which is exactly the dimension-reduction strategy of
paper Section 4.1.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.panel import Panel

__all__ = [
    "collocation_corner",
    "collocation_from_deltas",
    "collocation_potential",
    "strip_integral",
]

#: Relative floor used to regularise degenerate denominators; the affected
#: terms have a vanishing prefactor, so the floor never biases the result.
_TINY = 1e-300


def collocation_corner(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Corner (double antiderivative) function of the rectangle potential.

    ``d^2 g / (da db) = 1 / sqrt(a^2 + b^2 + c^2)``.  The function is even in
    ``c`` and symmetric under ``a <-> b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    r = np.sqrt(a * a + b * b + c * c)
    den_a = np.sqrt(a * a + c * c)
    den_b = np.sqrt(b * b + c * c)
    term_a = a * np.arcsinh(b / np.maximum(den_a, _TINY))
    term_b = b * np.arcsinh(a / np.maximum(den_b, _TINY))
    # The arctangent of the ratio (rather than atan2) keeps the corner
    # function even in c, as the underlying integral is (oddness of atan
    # lets |c| replace c); the term vanishes with its prefactor when c == 0,
    # and the _TINY floor covers subnormal c where c * c underflows and a
    # touching corner makes r exactly 0.
    ratio = a * b / np.where(c == 0.0, np.inf, np.maximum(np.abs(c) * r, _TINY))
    term_c = -np.abs(c) * np.arctan(ratio)
    # When the corner coincides with the field point (a = b = c = 0) every
    # term has a vanishing prefactor; force exact zeros there.
    zero = (den_a == 0.0) & (den_b == 0.0)
    result = term_a + term_b + term_c
    if np.any(zero):
        result = np.where(zero, 0.0, result)
    return result


def collocation_from_deltas(
    a1: np.ndarray,
    a2: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """Definite rectangle potential from corner coordinate differences.

    ``a1 = x - x'_1``, ``a2 = x - x'_2``, ``b1 = y - y'_1``, ``b2 = y - y'_2``
    and ``c`` is the out-of-plane offset.

    Algebraically this is the signed 4-corner sum of
    :func:`collocation_corner`, but evaluated in a fused form that shares
    the squares, the in-plane denominators and the corner distances across
    the four corners: 8 square roots and 8 ``asinh`` instead of the 12 and
    8 of four independent corner evaluations, and roughly half the cheap
    elementwise traffic -- which matters because this function sits at the
    bottom of the assembly hot path and is memory-bandwidth bound there.
    Agreement with the corner-sum form is exact to round-off (asserted in
    the greens test suite).
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    c = np.asarray(c, dtype=float)

    c2 = c * c
    a1s = a1 * a1
    a2s = a2 * a2
    b1s = b1 * b1
    b2s = b2 * b2
    # In-plane denominators, floored like the corner function's guard (the
    # multiplying prefactor vanishes wherever the floor engages).
    da1 = np.maximum(np.sqrt(a1s + c2), _TINY)
    da2 = np.maximum(np.sqrt(a2s + c2), _TINY)
    db1 = np.maximum(np.sqrt(b1s + c2), _TINY)
    db2 = np.maximum(np.sqrt(b2s + c2), _TINY)

    term = a1 * (np.arcsinh(b1 / da1) - np.arcsinh(b2 / da1)) - a2 * (
        np.arcsinh(b1 / da2) - np.arcsinh(b2 / da2)
    )
    term += b1 * (np.arcsinh(a1 / db1) - np.arcsinh(a2 / db1)) - b2 * (
        np.arcsinh(a1 / db2) - np.arcsinh(a2 / db2)
    )

    # The arctangent of the ratio (rather than atan2) keeps the integral
    # even in c (oddness of atan lets |c| replace c throughout); the whole
    # term vanishes with its prefactor when c == 0 (the final where also
    # discards the 0 * inf corner-distance NaNs that only arise in that
    # plane).  The _TINY floor covers subnormal c where c * c underflows,
    # making a corner distance exactly 0 at a touching corner (0/0).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cr = np.where(c == 0.0, np.inf, np.abs(c))
        atan_sum = np.arctan(a1 * b1 / np.maximum(cr * np.sqrt(a1s + b1s + c2), _TINY))
        atan_sum -= np.arctan(a2 * b1 / np.maximum(cr * np.sqrt(a2s + b1s + c2), _TINY))
        atan_sum -= np.arctan(a1 * b2 / np.maximum(cr * np.sqrt(a1s + b2s + c2), _TINY))
        atan_sum += np.arctan(a2 * b2 / np.maximum(cr * np.sqrt(a2s + b2s + c2), _TINY))
        term_c = np.where(c == 0.0, 0.0, -np.abs(c) * atan_sum)
    return term + term_c


def collocation_potential(panel: Panel, points: np.ndarray) -> np.ndarray:
    """Potential integral of a uniformly charged panel at field points.

    Parameters
    ----------
    panel:
        The source rectangle (unit charge density, no dielectric prefactor).
    points:
        Field points, shape ``(..., 3)``.

    Returns
    -------
    numpy.ndarray
        ``\\int_panel ds' / |r - r'|`` for every field point, shape ``(...)``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have a trailing axis of size 3, got shape {pts.shape}")
    x = pts[..., panel.u_axis]
    y = pts[..., panel.v_axis]
    z = pts[..., panel.normal_axis] - panel.offset
    u1, u2 = panel.u_range
    v1, v2 = panel.v_range
    return collocation_from_deltas(x - u1, x - u2, y - v1, y - v2, z)


def strip_integral(
    b1: np.ndarray,
    b2: np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
) -> np.ndarray:
    """1-D analytic integral ``\\int_{v'_1}^{v'_2} dv' / |r - r'|``.

    With ``b1 = y - v'_1``, ``b2 = y - v'_2``, ``a`` the in-plane offset along
    the other tangential axis and ``c`` the out-of-plane offset, the result is
    ``asinh(b1 / d) - asinh(b2 / d)`` with ``d = sqrt(a^2 + c^2)``.

    The singular case ``d = 0`` (the field point lying on the integration
    line) never occurs for the template pairs this is used on (it would mean
    two overlapping conductor surfaces); the denominator is floored to keep
    the expression finite for round-off-level ``d``.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.sqrt(a * a + c * c)
    d = np.maximum(d, _TINY)
    return np.arcsinh(np.asarray(b1, dtype=float) / d) - np.arcsinh(np.asarray(b2, dtype=float) / d)
