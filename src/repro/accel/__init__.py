"""Integration acceleration techniques (paper Section 4.2).

Four techniques accelerate the evaluation of the closed-form panel
integrals, on top of (and orthogonally to) the parallelisation:

1. :mod:`repro.accel.tabulation` -- direct tabulation of the definite
   integral on a regular grid (Section 4.2.1).
2. :mod:`repro.accel.indefinite_table` -- tabulation of the *indefinite*
   integral (corner function), reducing the table dimensionality at the cost
   of extra interpolations (Section 4.2.2).
3. :mod:`repro.accel.fastmath` -- tabulation of the expensive elementary
   subroutines (log/atan/asinh) exploiting the IEEE-754 representation
   (Section 4.2.3).
4. :mod:`repro.accel.rational` -- multivariable rational fitting of the
   integral (Section 4.2.4), with the constrained least-squares fit standing
   in for the STINS optimiser of the paper.

:mod:`repro.accel.engine` wires a chosen technique into the Galerkin
integrator used by the system-setup step: the evaluator is passed as the
``collocation_fn`` of the batched kernel core (:mod:`repro.greens.batched`),
which otherwise uses the exact closed forms.
"""

from repro.accel.engine import (
    AccelerationTechnique,
    CollocationEvaluator,
    make_evaluator,
)
from repro.accel.fastmath import FastLog, FastAtan, FastAsinh
from repro.accel.tabulation import RegularGridTable, DirectTableEvaluator
from repro.accel.indefinite_table import IndefiniteTableEvaluator
from repro.accel.rational import RationalFit, RationalFitEvaluator

__all__ = [
    "AccelerationTechnique",
    "CollocationEvaluator",
    "make_evaluator",
    "FastLog",
    "FastAtan",
    "FastAsinh",
    "RegularGridTable",
    "DirectTableEvaluator",
    "IndefiniteTableEvaluator",
    "RationalFit",
    "RationalFitEvaluator",
]
