"""Reference (per-pair) implementation of the system-setup inner loop.

This is Algorithm 1 written as plainly as possible: loop over the linear
index ``k``, convert to the template pair, evaluate the Galerkin integral
with :class:`~repro.greens.galerkin.GalerkinIntegrator`, and condense into
``P``.  It deliberately shares no code with the batched kernel core of
:mod:`repro.greens.batched` above the innermost closed forms, which makes
it the independent per-pair correctness oracle for the vectorised
:class:`~repro.assembly.batch.BatchGalerkinAssembler` (and for every
backend built on it); large problems use the batch assembler.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.mapping import TemplateArrays, triangular_index_to_pair
from repro.basis.functions import BasisSet
from repro.greens.galerkin import GalerkinIntegrator
from repro.greens.policy import ApproximationPolicy

__all__ = ["SerialAssembler"]


class SerialAssembler:
    """Per-pair assembler of the condensed system matrix ``P``.

    Parameters
    ----------
    basis_set:
        The instantiated basis functions.
    permittivity:
        Absolute permittivity of the medium.
    policy:
        Approximation-distance policy shared with the integrator.
    """

    def __init__(
        self,
        basis_set: BasisSet,
        permittivity: float,
        policy: ApproximationPolicy | None = None,
        order_near: int = 6,
        order_far: int = 3,
    ):
        self.basis_set = basis_set
        self.arrays = TemplateArrays.from_basis_set(basis_set)
        self.integrator = GalerkinIntegrator(
            permittivity,
            policy=policy,
            order_near=order_near,
            order_far=order_far,
        )

    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Iteration-space size ``K``."""
        return self.arrays.num_pairs

    def assemble_chunk(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Assemble the contribution of the index range ``[start, stop)``.

        Returns the (possibly pre-allocated) ``N x N`` matrix with the chunk
        contribution added.
        """
        n = self.arrays.num_basis_functions
        if out is None:
            out = np.zeros((n, n))
        if not (0 <= start <= stop <= self.num_pairs):
            raise ValueError(f"invalid chunk [{start}, {stop}) for K={self.num_pairs}")
        owner = self.arrays.owner
        templates = self.arrays.templates
        for k in range(start, stop):
            i, j = triangular_index_to_pair(np.asarray([k]))
            i, j = int(i[0]), int(j[0])
            template_i = templates[i]
            template_j = templates[j]
            value = self.integrator.template_pair(
                template_i.panel,
                template_j.panel,
                template_i.profile,
                template_j.profile,
            )
            row, col = int(owner[i]), int(owner[j])
            if i == j:
                out[row, col] += value
            else:
                out[row, col] += value
                out[col, row] += value
        return out

    def assemble(self) -> np.ndarray:
        """Assemble the full matrix ``P``."""
        return self.assemble_chunk(0, self.num_pairs)
