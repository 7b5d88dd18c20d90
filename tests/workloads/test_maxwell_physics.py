"""Every deterministic backend returns a physical Maxwell capacitance matrix.

For each registered workload family (quick instance, the backend options the
family declares) and each deterministic backend, the extracted matrix must
obey the physics of a Maxwell capacitance matrix rather than merely sit near
the golden reference:

- symmetric (reciprocity),
- positive diagonal (self-capacitances),
- negative couplings (raising one conductor's potential draws opposite
  charge onto every other conductor),
- positive row sums (every conductor keeps a capacitance to infinity), i.e.
  strictly diagonally dominant,
- positive definite (the electrostatic energy of any potential vector is
  positive).

The Monte Carlo ``frw`` backend is gated by the accuracy suite's stochastic
mode instead: its matrix carries sampling noise of its reported error bars.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import get_backend
from repro.workloads import available_workloads, get_workload

DETERMINISTIC_BACKENDS = (
    "instantiable",
    "pwc-dense",
    "fastcap",
    "galerkin-shared",
    "galerkin-distributed",
    "galerkin-aca",
)

#: Round-off band of the symmetry check, relative to the largest
#: self-capacitance.
SYMMETRY_RTOL = 1e-10


@pytest.mark.parametrize("backend", DETERMINISTIC_BACKENDS)
@pytest.mark.parametrize("workload", available_workloads())
def test_capacitance_matrix_is_maxwell(workload, backend):
    family = get_workload(workload)
    layout = family.layout()
    options = dict(family.backend_options.get(backend, {}))
    result = get_backend(backend).extract(layout, **options)
    capacitance = result.capacitance

    count = layout.num_conductors
    assert capacitance.shape == (count, count)
    assert np.all(np.isfinite(capacitance))
    diagonal = np.diag(capacitance)
    assert np.all(diagonal > 0.0)
    scale = np.max(diagonal)
    assert np.max(np.abs(capacitance - capacitance.T)) <= SYMMETRY_RTOL * scale
    couplings = capacitance[~np.eye(count, dtype=bool)]
    assert np.all(couplings < 0.0)
    assert np.all(capacitance.sum(axis=1) > 0.0)
    assert np.min(np.linalg.eigvalsh(0.5 * (capacitance + capacitance.T))) > 0.0
