"""Multivariable rational fitting (paper Section 4.2.4).

The closed-form expression of the integral is numerically ill-conditioned
(corner substitutions cancel leading digits), so the paper proposes fitting
a multivariable rational function

.. math::  f(w) = \\frac{f_N(w)}{f_D(w)},

with total-degree-bounded polynomial numerator and denominator, by solving
the linearised optimisation problem of eq. (12):

.. math::  \\min_{\\beta} \\sum_i | \\tilde f(w_i) f_D(w_i) - f_N(w_i) |
           \\quad \\text{s.t.} \\sum \\beta_D = 1 .

The paper uses the STINS semidefinite-programming tool for this; because the
problem is linear in the coefficients once the normalisation constraint is
eliminated, an ordinary linear least-squares solve produces the same kind of
fit.  Rational functions are particularly suited to kernels
that decay with distance, which is why the denominator easily captures the
``1/r`` falloff.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from repro.greens.collocation import collocation_from_deltas

__all__ = ["multi_indices", "polynomial_design_matrix", "RationalFit", "RationalFitEvaluator"]


def multi_indices(num_variables: int, max_degree: int) -> np.ndarray:
    """All multi-indices ``alpha`` with ``|alpha| <= max_degree``.

    Returns an array of shape ``(n_terms, num_variables)`` ordered by total
    degree and then lexicographically, starting with the constant term.
    """
    if num_variables < 1:
        raise ValueError(f"num_variables must be >= 1, got {num_variables}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    indices: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(num_variables), degree):
            alpha = [0] * num_variables
            for var in combo:
                alpha[var] += 1
            indices.append(tuple(alpha))
    return np.asarray(indices, dtype=np.intp)


def polynomial_design_matrix(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Evaluate the monomials ``w**alpha`` for every point and multi-index.

    ``points`` has shape ``(n, k)``; the result has shape ``(n, n_terms)``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_terms = indices.shape[0]
    design = np.ones((pts.shape[0], n_terms))
    for t in range(n_terms):
        for var, power in enumerate(indices[t]):
            if power:
                design[:, t] *= pts[:, var] ** int(power)
    return design


class RationalFit:
    """A fitted multivariable rational function of degree ``(n, m)``.

    Parameters
    ----------
    numerator_degree, denominator_degree:
        Total-degree bounds of the numerator and denominator polynomials.
    """

    def __init__(self, num_variables: int, numerator_degree: int = 4, denominator_degree: int = 4):
        self.num_variables = int(num_variables)
        self.numerator_degree = int(numerator_degree)
        self.denominator_degree = int(denominator_degree)
        self._num_indices = multi_indices(self.num_variables, self.numerator_degree)
        self._den_indices = multi_indices(self.num_variables, self.denominator_degree)
        self.numerator_coefficients: np.ndarray | None = None
        self.denominator_coefficients: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total number of free coefficients (after the normalisation constraint)."""
        return self._num_indices.shape[0] + self._den_indices.shape[0] - 1

    @property
    def memory_bytes(self) -> int:
        """Memory footprint of the stored coefficients (essentially zero, as in the paper)."""
        if self.numerator_coefficients is None or self.denominator_coefficients is None:
            return 0
        return int(self.numerator_coefficients.nbytes + self.denominator_coefficients.nbytes)

    # ------------------------------------------------------------------
    def fit(self, samples: np.ndarray, values: np.ndarray,
            relative_weighting: bool = True) -> float:
        """Fit the coefficients to training data.

        The constraint ``sum(beta_D) = 1`` is eliminated by substituting the
        constant denominator coefficient ``beta_{D,0} = 1 - sum(others)``,
        after which the residual ``f_tilde * f_D - f_N`` is linear in the
        remaining coefficients and solved by least squares.  With
        ``relative_weighting`` each training row is scaled by ``1/|f_tilde|``
        so the fit controls *relative* error, which is what the 1 % accuracy
        target of the paper refers to.

        Returns
        -------
        float
            Root-mean-square (weighted) training residual.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        values = np.asarray(values, dtype=float).ravel()
        if samples.shape[0] != values.size:
            raise ValueError("samples and values must have matching first dimensions")
        phi_num = polynomial_design_matrix(samples, self._num_indices)
        phi_den = polynomial_design_matrix(samples, self._den_indices)

        # Residual: f~ * (beta_D0 * 1 + sum_k beta_Dk phi_k) - sum_j beta_Nj phi_j
        # with beta_D0 = 1 - sum_k beta_Dk.  Unknowns: [beta_N, beta_D(1:)].
        den_rest = phi_den[:, 1:] - phi_den[:, :1]
        design = np.hstack([-phi_num, values[:, None] * den_rest])
        target = -values * phi_den[:, 0]
        if relative_weighting:
            weights = 1.0 / np.maximum(np.abs(values), 1e-12 * np.max(np.abs(values)))
            design = design * weights[:, None]
            target = target * weights
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)

        n_num = self._num_indices.shape[0]
        self.numerator_coefficients = solution[:n_num]
        den_rest_coeff = solution[n_num:]
        den0 = 1.0 - float(np.sum(den_rest_coeff))
        self.denominator_coefficients = np.concatenate([[den0], den_rest_coeff])

        residual = design @ solution - target
        return float(np.sqrt(np.mean(residual**2)))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the fitted rational function at ``points`` of shape ``(n, k)``."""
        if self.numerator_coefficients is None or self.denominator_coefficients is None:
            raise RuntimeError("RationalFit must be fitted before evaluation")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        numerator = polynomial_design_matrix(pts, self._num_indices) @ self.numerator_coefficients
        denominator = polynomial_design_matrix(pts, self._den_indices) @ self.denominator_coefficients
        return numerator / denominator


class RationalFitEvaluator:
    """Collocation integral via rational fitting (technique 4).

    The definite integral is homogeneous of degree one, so queries are
    normalised by their largest coordinate and the rational function is
    fitted over the compact normalised domain.  Training samples are drawn
    from the geometrically meaningful region (``a1 > a2``, ``b1 > b2``,
    ``c >= 0``, i.e. genuine panel corner offsets).
    """

    name = "rational_fit"

    def __init__(
        self,
        numerator_degree: int = 4,
        denominator_degree: int = 4,
        training_samples: int = 4000,
        seed: int = 2011,
        reference: Callable[..., np.ndarray] | None = None,
    ):
        self.reference = reference if reference is not None else collocation_from_deltas
        self.fit = RationalFit(5, numerator_degree, denominator_degree)
        rng = np.random.default_rng(seed)
        samples = self._sample_normalised_deltas(rng, training_samples)
        values = self.reference(*[samples[:, k] for k in range(5)])
        self.training_rms = self.fit.fit(samples, values)

    # ------------------------------------------------------------------
    @staticmethod
    def _sample_normalised_deltas(rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw normalised corner-offset vectors covering the near-field domain."""
        width = rng.uniform(0.1, 2.0, size=count)
        height = rng.uniform(0.1, 2.0, size=count)
        x = rng.uniform(-2.0, 2.0, size=count)
        y = rng.uniform(-2.0, 2.0, size=count)
        z = rng.uniform(0.05, 2.0, size=count)
        a1 = x + width / 2.0
        a2 = x - width / 2.0
        b1 = y + height / 2.0
        b2 = y - height / 2.0
        stacked = np.stack([a1, a2, b1, b2, z], axis=1)
        scale = np.max(np.abs(stacked), axis=1)
        return stacked / scale[:, None]

    @property
    def memory_bytes(self) -> int:
        """Coefficient storage only -- effectively zero, matching Table 1."""
        return self.fit.memory_bytes

    def from_deltas(self, a1, a2, b1, b2, c) -> np.ndarray:
        """Fitted definite integral for corner coordinate differences."""
        a1, a2, b1, b2, c = np.broadcast_arrays(
            np.asarray(a1, dtype=float),
            np.asarray(a2, dtype=float),
            np.asarray(b1, dtype=float),
            np.asarray(b2, dtype=float),
            np.asarray(c, dtype=float),
        )
        shape = a1.shape
        stacked = np.stack(
            [a1.ravel(), a2.ravel(), b1.ravel(), b2.ravel(), np.abs(c).ravel()], axis=1
        )
        scale = np.max(np.abs(stacked), axis=1)
        scale = np.where(scale == 0.0, 1.0, scale)
        values = self.fit(stacked / scale[:, None]) * scale
        return values.reshape(shape)

    __call__ = from_deltas
