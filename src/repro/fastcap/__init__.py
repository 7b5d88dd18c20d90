"""FASTCAP-like multipole-accelerated capacitance solver (paper reference [4]).

FASTCAP solves the piecewise-constant collocation BEM with a Krylov
iterative method whose matrix-vector product is approximated by a
hierarchical multipole expansion, avoiding the dense matrix entirely.  This
package implements that architecture from scratch:

* :mod:`repro.fastcap.octree` -- hierarchical spatial clustering of panels
  with Cartesian multipole moments (monopole, dipole, quadrupole).
* :mod:`repro.fastcap.fmm` -- the multipole-accelerated matrix-vector
  product: exact near-field interactions (precomputed sparse blocks) plus
  far-field multipole evaluations gated by a multipole acceptance criterion.
* :mod:`repro.fastcap.solver` -- panel discretisation, GMRES solve per
  conductor and capacitance assembly, with the timing/memory bookkeeping the
  Table 2 comparison needs.

The expansion order and acceptance criterion reproduce FASTCAP's behaviour
(a few-percent accuracy at a fraction of the dense cost); see DESIGN.md for
the exact substitutions.
"""

from repro.fastcap.octree import ClusterTree, ClusterNode
from repro.fastcap.fmm import MultipoleOperator
from repro.fastcap.solver import FastCapSolver

__all__ = [
    "ClusterTree",
    "ClusterNode",
    "MultipoleOperator",
    "FastCapSolver",
]
