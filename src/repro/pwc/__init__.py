"""Piecewise-constant (PWC) BEM substrate.

The standard BEM formulation with piecewise-constant basis functions: every
discretisation panel carries one constant-charge basis function, the system
is dense and of the size of the panel count.  This substrate serves three
roles in the reproduction:

* the *reference-accuracy* generator (the paper compares against a finely
  discretised FASTCAP solution refined until two successive refinements
  agree to 0.1 %);
* the basis on which the FASTCAP-like multipole solver and the pFFT solver
  are built (they replace the dense matrix-vector product, not the
  formulation);
* the solver of the elementary crossing-wire problems from which the arch
  shapes of the instantiable basis functions are extracted.
"""

from repro.pwc.assembly import PWCSystem
from repro.pwc.solver import PWCSolver
from repro.pwc.refine import refined_reference

__all__ = ["PWCSystem", "PWCSolver", "refined_reference"]
