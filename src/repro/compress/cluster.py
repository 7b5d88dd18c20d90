"""Geometry-adaptive binary cluster tree over panel-supported unknowns.

The tree recursively bisects the index set of the unknowns: each node owns a
contiguous-free *index array*, an axis-aligned bounding box enclosing every
owned support panel, and (unless it is a leaf) two children obtained by
splitting the owned indices at the median of their support centres along the
longest axis of the node box.  Median splits keep the tree depth
``O(log N)`` regardless of how unevenly the geometry fills space, which is
what "geometry-adaptive" buys over the fixed octant subdivision of
:class:`repro.fastcap.octree.ClusterTree` — and unlike the octree, this tree
works for *any* panel set (templates of the instantiable basis, PWC panels,
arbitrary point supports), not just the collocation path.

The tree is built level by level over arrays: every cluster of a level is
a contiguous segment of one permutation of the unknowns, its box is a
segmented min/max reduction and its split a segmented stable sort.  The
nodes are numbered in level order, and :attr:`ClusterTree.box_lo`,
:attr:`~ClusterTree.box_hi`, :attr:`~ClusterTree.diameters` and
:attr:`~ClusterTree.child_ids` hold their geometry as arrays, which feed the
array admissibility test of :mod:`repro.compress.blocktree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["ClusterNode", "ClusterTree", "box_norms"]


def box_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an ``(n, 3)`` array.

    Bit-identical to ``np.linalg.norm`` of each row on its own, which
    squares a 1-D vector through the BLAS dot: a stacked ``(1 x 3) @
    (3 x 1)`` product runs that same dot once per row.  (A sum of squares
    in NumPy rounds differently in about one row in ten, which could move
    an admissibility decision that sits on its threshold.)
    """
    rows = np.ascontiguousarray(vectors, dtype=float)
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))


@dataclass
class ClusterNode:
    """One cluster: an index set plus the bounding box of its supports."""

    indices: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    children: list["ClusterNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        """Whether the node has no children."""
        return not self.children

    @property
    def size(self) -> int:
        """Number of unknowns owned by the cluster."""
        return int(self.indices.size)

    @property
    def diameter(self) -> float:
        """Diagonal of the bounding box."""
        return float(np.linalg.norm(self.hi - self.lo))

    def distance_to(self, other: "ClusterNode") -> float:
        """Distance between the two bounding boxes (zero when they overlap)."""
        gap = np.maximum(0.0, np.maximum(self.lo - other.hi, other.lo - self.hi))
        return float(np.linalg.norm(gap))


class ClusterTree:
    """Binary cluster tree over per-unknown support bounding boxes.

    Parameters
    ----------
    lo, hi:
        ``(N, 3)`` arrays: the axis-aligned bounding box of every unknown's
        support (for an instantiable basis function, the union of its
        template panels; for a PWC panel, the panel itself).
    leaf_size:
        Clusters with at most this many unknowns are not subdivided.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, leaf_size: int = 32):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim != 2 or lo.shape[1] != 3 or lo.shape != hi.shape:
            raise ValueError(
                f"lo and hi must both have shape (N, 3), got {lo.shape} and {hi.shape}"
            )
        if lo.shape[0] == 0:
            raise ValueError("cannot build a cluster tree without unknowns")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.lo = lo
        self.hi = hi
        self.leaf_size = int(leaf_size)
        self.centers = 0.5 * (lo + hi)
        #: Every node, numbered in level order (the root is node 0).
        self.nodes: list[ClusterNode] = []
        self._build()
        self.root = self.nodes[0]
        self.leaves = [node for node in self.iter_nodes() if node.is_leaf]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Build the tree level by level over segments of one permutation.

        A node's box is the min/max over its unknowns; a node above the
        leaf size splits at the median of its support centres along the
        longest axis of its box (a stable sort, so coincident centres keep
        their order), the lower half first.  The median split always
        produces two non-empty halves, so the levels end even for
        coincident centres.
        """
        order = np.arange(self.lo.shape[0], dtype=np.intp)
        starts = np.zeros(1, dtype=np.intp)
        parents = np.full(1, -1, dtype=np.intp)
        box_lo: list[np.ndarray] = []
        box_hi: list[np.ndarray] = []
        child_ids: list[np.ndarray] = []
        while starts.size:
            sizes = np.diff(np.append(starts, order.size))
            lo = np.minimum.reduceat(self.lo[order], starts, axis=0)
            hi = np.maximum.reduceat(self.hi[order], starts, axis=0)
            first = len(self.nodes)
            for k in range(starts.size):
                node = ClusterNode(
                    indices=order[starts[k] : starts[k] + sizes[k]], lo=lo[k], hi=hi[k]
                )
                self.nodes.append(node)
                if parents[k] >= 0:
                    self.nodes[parents[k]].children.append(node)
            box_lo.append(lo)
            box_hi.append(hi)
            child_ids.append(np.full((starts.size, 2), -1, dtype=np.intp))

            split = np.flatnonzero(sizes > self.leaf_size)
            if not split.size:
                break
            segment = np.repeat(np.arange(split.size), sizes[split])
            within = np.arange(segment.size) - (np.cumsum(sizes[split]) - sizes[split])[segment]
            members = order[starts[split][segment] + within]
            axis = np.argmax(hi[split] - lo[split], axis=1)
            ranked = np.lexsort((self.centers[members, axis[segment]], segment))
            order = members[ranked]
            halves = np.column_stack([sizes[split] // 2, sizes[split] - sizes[split] // 2])
            starts = (np.cumsum(halves.ravel()) - halves.ravel()).astype(np.intp)
            parents = np.repeat(first + split, 2)
            child_ids[-1][split] = len(self.nodes) + np.arange(2 * split.size).reshape(-1, 2)
        #: ``(C, 3)`` box corners, ``(C,)`` box diagonals and ``(C, 2)``
        #: child node numbers (``-1`` for a leaf) of the nodes.
        self.box_lo = np.concatenate(box_lo)
        self.box_hi = np.concatenate(box_hi)
        self.diameters = box_norms(self.box_hi - self.box_lo)
        self.child_ids = np.concatenate(child_ids)

    # ------------------------------------------------------------------
    @property
    def num_unknowns(self) -> int:
        """Number of unknowns the tree is built over."""
        return int(self.lo.shape[0])

    def iter_nodes(self) -> Iterator[ClusterNode]:
        """Yield every node of the tree (pre-order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    @property
    def depth(self) -> int:
        """Maximum depth of the tree (1 for a single-leaf tree)."""

        def _depth(node: ClusterNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(_depth(child) for child in node.children)

        return _depth(self.root)
