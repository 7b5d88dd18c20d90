"""Hierarchical low-rank compression of the Galerkin system (``repro.compress``).

The dense backends store the full ``N x N`` condensed matrix, which walls
off the paper's scalability regime at modest ``N``.  This subsystem builds a
kernel-independent hierarchical (H-matrix) representation instead — dense
near field plus ACA-compressed low-rank far field — bringing storage and
matvec cost down to ``O(N k log N)``.

Module map (each module implements one H-matrix concept):

==================  =====================================================
module              H-matrix concept
==================  =====================================================
``cluster``         *cluster tree*: geometry-adaptive binary bisection of
                    the unknowns; cluster bounding boxes and diameters
``blocktree``       *block cluster tree*: recursive partition of the index
                    product into admissible (far) and inadmissible (near)
                    blocks via the ``min(diam) <= eta * dist`` test — the
                    H-matrix generalisation of the Barnes-Hut criterion of
                    :mod:`repro.fastcap.fmm`
``aca``             *adaptive cross approximation*: partially pivoted,
                    builds rank-``k`` factors ``U V`` of an admissible
                    block from ``k`` sampled rows and columns; the
                    arithmetic is one coroutine that requests samples,
                    driven per block or for many blocks in lockstep
``entries``         *matrix entry oracle*: sampled entries of the condensed
                    Galerkin matrix (sums of
                    ``GalerkinIntegrator.template_pair`` integrals), with a
                    vectorised batch path
``hmatrix``         *hierarchical matrix*: the assembled LinearOperator —
                    worker-partitioned assembly with one oracle call per
                    lockstep ACA step, products through the packed CSR
                    near field and block-sparse far factors, storage
                    accounting
``backend``         the ``galerkin-aca`` engine backend tying it together
                    with the Jacobi-preconditioned GMRES solve
==================  =====================================================
"""

from repro.compress.aca import LowRankFactors, aca_core, aca_partial_pivoting
from repro.compress.backend import GalerkinACABackend
from repro.compress.blocktree import Block, BlockClusterTree
from repro.compress.cluster import ClusterNode, ClusterTree
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import HMatrix, build_hmatrix

__all__ = [
    "Block",
    "BlockClusterTree",
    "ClusterNode",
    "ClusterTree",
    "GalerkinACABackend",
    "GalerkinEntries",
    "HMatrix",
    "LowRankFactors",
    "aca_core",
    "aca_partial_pivoting",
    "build_hmatrix",
]
