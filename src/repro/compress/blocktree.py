"""Block cluster tree: admissible partition of the matrix index product.

A *block* pairs a row cluster with a column cluster.  The recursion starts
from ``(root, root)`` and classifies every visited block:

* **admissible** (far field): the clusters are well separated, so the kernel
  restricted to the block is numerically low-rank and is compressed by ACA;
* **inadmissible leaf** (near field): both clusters are tree leaves, the
  block stays dense;
* otherwise the larger cluster (both, when both still have children) is
  split and the recursion descends.

The admissibility test is the standard strong criterion

.. math:: \\min(\\mathrm{diam}\\,t, \\mathrm{diam}\\,s)
          \\le \\eta \\cdot \\mathrm{dist}(t, s),

the H-matrix generalisation of the Barnes-Hut ratio test used by
:class:`repro.fastcap.fmm.MultipoleOperator` (there:
``(r_t + r_s) / distance < theta``, i.e. cluster size small relative to the
separation).  Larger ``eta`` admits more blocks (better compression, larger
low-rank truncation error at fixed rank); ``eta`` of 1-3 is customary.

The recursion runs level by level over arrays of cluster pairs: every
candidate pair of a level gets its box gap, distance and test at once, with
the arithmetic of :meth:`ClusterNode.distance_to` and
:attr:`ClusterNode.diameter` (see :func:`~repro.compress.cluster.box_norms`),
so no decision moves by a bit.  Every pair remembers its path of child
ranks, and the blocks are emitted in the depth-first order of the
recursion, row children outermost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.cluster import ClusterNode, ClusterTree, box_norms

__all__ = ["Block", "BlockClusterTree"]


@dataclass
class Block:
    """One leaf of the block cluster tree."""

    row: ClusterNode
    col: ClusterNode
    admissible: bool

    @property
    def shape(self) -> tuple[int, int]:
        """Block dimensions ``(m, n)``."""
        return (self.row.size, self.col.size)

    @property
    def num_entries(self) -> int:
        """Dense entry count ``m * n`` of the block."""
        return self.row.size * self.col.size


class BlockClusterTree:
    """The admissible/inadmissible block partition of ``rows x cols``.

    Parameters
    ----------
    row_tree, col_tree:
        Cluster trees of the row and column index sets (the same tree for
        the symmetric Galerkin system).
    eta:
        Admissibility parameter of the separation test.
    """

    def __init__(self, row_tree: ClusterTree, col_tree: ClusterTree, eta: float = 2.0):
        if eta <= 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.row_tree = row_tree
        self.col_tree = col_tree
        self.eta = float(eta)
        #: Row and column node numbers and admissibility of every block,
        #: in the order of :attr:`blocks`.
        self.row_ids, self.col_ids, self.admissible = self._partition()
        self.blocks = [
            Block(row=row_tree.nodes[r], col=col_tree.nodes[c], admissible=bool(a))
            for r, c, a in zip(self.row_ids.tolist(), self.col_ids.tolist(), self.admissible)
        ]

    # ------------------------------------------------------------------
    def _partition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The leaf blocks of the recursion from ``(root, root)``, depth first.

        A pair that is admissible, or whose clusters are both leaves, is a
        block; otherwise the cluster(s) that still have children are split
        (both when both do, so block aspect ratios stay bounded) and the
        child pairs go to the next level.
        """
        rt, ct = self.row_tree, self.col_tree
        rows = np.zeros(1, dtype=np.intp)
        cols = np.zeros(1, dtype=np.intp)
        paths = np.zeros((1, 1), dtype=np.intp)
        found: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        while rows.size:
            gap = np.maximum(
                0.0, np.maximum(rt.box_lo[rows] - ct.box_hi[cols], ct.box_lo[cols] - rt.box_hi[rows])
            )
            distance = box_norms(gap)
            admissible = (distance > 0.0) & (
                np.minimum(rt.diameters[rows], ct.diameters[cols]) <= self.eta * distance
            )
            row_children = rt.child_ids[rows]
            col_children = ct.child_ids[cols]
            row_leaf = row_children[:, 0] < 0
            col_leaf = col_children[:, 0] < 0
            final = admissible | (row_leaf & col_leaf)
            found.append((rows[final], cols[final], admissible[final], paths[final]))

            split = ~final
            row_options = np.where(row_leaf[split, None], rows[split, None], row_children[split])
            col_options = np.where(col_leaf[split, None], cols[split, None], col_children[split])
            row_count = np.where(row_leaf[split], 1, 2)
            col_count = np.where(col_leaf[split], 1, 2)
            count = row_count * col_count
            parent = np.repeat(np.arange(count.size), count)
            rank = np.arange(parent.size) - (np.cumsum(count) - count)[parent]
            rows = row_options[parent, rank // col_count[parent]]
            cols = col_options[parent, rank % col_count[parent]]
            paths = np.column_stack([paths[split][parent], rank])
        depth = max(found_paths.shape[1] for *_, found_paths in found)
        padded = np.concatenate(
            [np.pad(found_paths, ((0, 0), (0, depth - found_paths.shape[1]))) for *_, found_paths in found]
        )
        # No block's path is a prefix of another's, so the lexicographic
        # order of the padded paths is the depth-first order.
        order = np.lexsort(padded.T[::-1])
        row_ids, col_ids, admissible = (
            np.concatenate([part[field] for part in found])[order] for field in range(3)
        )
        return row_ids, col_ids, admissible

    # ------------------------------------------------------------------
    @property
    def admissible_blocks(self) -> list[Block]:
        """The far-field (low-rank) blocks."""
        return [b for b in self.blocks if b.admissible]

    @property
    def inadmissible_blocks(self) -> list[Block]:
        """The near-field (dense) blocks."""
        return [b for b in self.blocks if not b.admissible]

    @property
    def num_entries(self) -> int:
        """Total entry count over all blocks (must equal ``N_rows * N_cols``)."""
        return sum(b.num_entries for b in self.blocks)

    def admissible_fraction(self) -> float:
        """Fraction of matrix entries covered by admissible blocks."""
        total = self.num_entries
        if total == 0:
            return 0.0
        return sum(b.num_entries for b in self.admissible_blocks) / total
