"""Extractions whose GMRES blocks hold one column each.

A one-conductor layout, or a request with ``block_size=1``, solves every
right-hand side in a lockstep block of its own.  These cases once ran a
separate restarted per-column GMRES; the reference matrices below are that
solver's results, and the lockstep solve must reproduce them to within the
backend's GMRES tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import get_backend
from repro.geometry import generators

#: ``(generator, backend, options, GMRES tolerance, reference matrix)``.
CASES = [
    ("single_plate", "fastcap", {}, 1e-5, [[4.573045716611955e-16]]),
    ("single_plate", "galerkin-aca", {}, 1e-12, [[4.571463438152488e-16]]),
    ("single_plate", "galerkin-shared", {}, 1e-12, [[4.571463438152487e-16]]),
    (
        "crossing_wires",
        "galerkin-aca",
        {"block_size": 1},
        1e-12,
        [
            [2.8720447572227133e-16, -1.335939616877147e-16],
            [-1.335939616877147e-16, 2.872233369265145e-16],
        ],
    ),
]


@pytest.mark.parametrize(
    "generator, backend, options, tolerance, reference",
    CASES,
    ids=[f"{c[0]}-{c[1]}{'-block1' if c[2] else ''}" for c in CASES],
)
def test_single_column_blocks_match_the_reference(generator, backend, options, tolerance, reference):
    layout = getattr(generators, generator)()
    result = get_backend(backend).extract(layout, **options)
    reference = np.asarray(reference)
    error = np.max(np.abs(result.capacitance - reference)) / np.max(np.abs(reference))
    assert error <= tolerance
    stats = result.iterations
    # One column per block: every iteration is a traversal of its own.
    assert stats.operator_traversals == stats.total_iterations


@pytest.mark.xfail(
    strict=True,
    reason="the lockstep solve stops on the Jacobi-preconditioned residual, which "
    "the previous restarted solver's true-residual stop did not; on this "
    "loosely converged fastcap solve the two stop 3.0e-5 apart (tolerance 1e-5)",
)
def test_plate_over_ground_fastcap_one_column_blocks_match_the_reference():
    from repro.workloads.registry import get_workload

    workload = get_workload("plate_over_ground")
    options = {**workload.options_for("fastcap"), "block_size": 1}
    result = get_backend("fastcap").extract(workload.layout(), **options)
    reference = np.array(
        [
            [8.16234803253924e-16, -3.35065669874724e-16],
            [-3.35065669874724e-16, 3.7402350384233994e-16],
        ]
    )
    error = np.max(np.abs(result.capacitance - reference)) / np.max(np.abs(reference))
    assert error <= 1e-5
