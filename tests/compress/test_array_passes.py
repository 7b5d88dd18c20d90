"""The array passes of the H-matrix build against per-node references.

The cluster tree, the block partition and the packed operator are built
in array sweeps; the references below are the recursive, per-node
formulations they replace.  Block order, index arrays and admissibility
must match exactly (the rank-group order of the far factors fixes the
product's summation order, and regular layouts put blocks exactly on the
admissibility threshold), and so must the packed CSR arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.compress.blocktree import BlockClusterTree
from repro.compress.cluster import ClusterTree, box_norms
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import _upper_blocks, build_hmatrix
from repro.geometry import generators


class _Node:
    """A reference cluster: index array, box and children."""

    def __init__(self, indices, lo, hi):
        self.indices, self.lo, self.hi, self.children = indices, lo, hi, []

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def distance_to(self, other: _Node) -> float:
        gap = np.maximum(0.0, np.maximum(self.lo - other.hi, other.lo - self.hi))
        return float(np.linalg.norm(gap))


def _reference_tree(lo, hi, leaf_size, indices=None) -> _Node:
    """Recursive median bisection along the longest box axis."""
    if indices is None:
        indices = np.arange(lo.shape[0])
    node = _Node(indices, lo[indices].min(axis=0), hi[indices].max(axis=0))
    if indices.size > leaf_size:
        axis = int(np.argmax(node.hi - node.lo))
        order = np.argsort(0.5 * (lo + hi)[indices, axis], kind="stable")
        half = indices.size // 2
        node.children = [
            _reference_tree(lo, hi, leaf_size, indices[order[:half]]),
            _reference_tree(lo, hi, leaf_size, indices[order[half:]]),
        ]
    return node


def _reference_blocks(row: _Node, col: _Node, eta: float, out: list) -> list:
    """Depth-first recursion with the per-node admissibility test."""
    distance = row.distance_to(col)
    if distance > 0.0 and min(row.diameter, col.diameter) <= eta * distance:
        out.append((row, col, True))
    elif not row.children and not col.children:
        out.append((row, col, False))
    else:
        for r in row.children or [row]:
            for c in col.children or [col]:
                _reference_blocks(r, c, eta, out)
    return out


def _ties(blocks, eta: float) -> int:
    return sum(
        min(row.diameter, col.diameter) == eta * row.distance_to(col) for row, col, _ in blocks
    )


def _entries(layout, face_refinement: int) -> GalerkinEntries:
    basis_set = build_basis_set(layout, InstantiationConfig(face_refinement=face_refinement))
    return GalerkinEntries(basis_set, layout.permittivity)


_LAYOUTS = {
    "bus6x6": (lambda: generators.bus_crossing(6, 6), 2, 16, 2.0),
    "manhattan1": (lambda: generators.random_manhattan(seed=1), 2, 8, 2.0),
    "manhattan2": (lambda: generators.random_manhattan(seed=2), 2, 8, 2.0),
    "manhattan3": (lambda: generators.random_manhattan(seed=3), 1, 4, 1.5),
    # Twelve blocks sit exactly on min(diam) == eta * dist.
    "bus2x2-ties": (lambda: generators.bus_crossing(2, 2), 2, 4, 1.0),
}


@pytest.fixture(scope="module", params=sorted(_LAYOUTS))
def case(request):
    make, face_refinement, leaf_size, eta = _LAYOUTS[request.param]
    return request.param, _entries(make(), face_refinement), leaf_size, eta


def test_box_norms_match_per_row_linalg_norm():
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5000, 3))
    rows[::3, 1] = 0.0
    rows[::7] *= 1e-6
    expected = np.array([np.linalg.norm(row) for row in rows])
    np.testing.assert_array_equal(box_norms(rows), expected)


def test_block_list_matches_the_recursive_reference(case):
    name, entries, leaf_size, eta = case
    lo, hi = entries.support_bounds()
    reference = _reference_blocks(*[_reference_tree(lo, hi, leaf_size)] * 2, eta, [])
    if name.endswith("ties"):
        assert _ties(reference, eta) > 0
    tree = ClusterTree(lo, hi, leaf_size=leaf_size)
    blocks = BlockClusterTree(tree, tree, eta=eta).blocks
    assert len(blocks) == len(reference)
    for block, (row, col, admissible) in zip(blocks, reference):
        np.testing.assert_array_equal(block.row.indices, row.indices)
        np.testing.assert_array_equal(block.col.indices, col.indices)
        np.testing.assert_array_equal(block.row.lo, row.lo)
        np.testing.assert_array_equal(block.row.hi, row.hi)
        assert block.admissible == admissible

    upper = [
        (row, col, admissible)
        for row, col, admissible in reference
        if row is col or int(row.indices.min()) < int(col.indices.min())
    ]
    kept = _upper_blocks(entries, leaf_size, eta)
    assert len(kept) == len(upper)
    for block, (row, col, admissible) in zip(kept, upper):
        np.testing.assert_array_equal(block.row.indices, row.indices)
        np.testing.assert_array_equal(block.col.indices, col.indices)
        assert block.admissible == admissible


def _triplets(rows, cols, values):
    return np.repeat(rows, cols.size), np.tile(cols, rows.size), values.ravel()


def _reference_csr(parts, shape):
    if not parts:
        return csr_matrix(shape)
    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    return csr_matrix((values, (rows, cols)), shape=shape)


def test_packed_operator_matches_per_block_triplets(case):
    _, entries, leaf_size, eta = case
    hmatrix = build_hmatrix(entries, leaf_size=leaf_size, eta=eta, executor="serial")
    size = hmatrix.shape[0]
    near = []
    for dense in hmatrix.dense_blocks:
        near.append(_triplets(dense.rows, dense.cols, dense.values))
        if dense.mirrored:
            near.append(_triplets(dense.cols, dense.rows, dense.values.T))
    far_u, far_v, offset = [], [], 0
    for lowrank in hmatrix.lowrank_blocks:
        u, v = lowrank.factors.u, lowrank.factors.v
        groups = [(lowrank.rows, lowrank.cols, u, v)]
        if lowrank.mirrored:
            groups.append((lowrank.cols, lowrank.rows, v.T, u.T))
        for rows, cols, left, right in groups:
            ranks = np.arange(offset, offset + left.shape[1])
            far_u.append(_triplets(rows, ranks, left))
            far_v.append(_triplets(ranks, cols, right))
            offset += ranks.size
    references = {
        "near": _reference_csr(near, (size, size)),
        "far_u": _reference_csr(far_u, (size, offset)),
        "far_v": _reference_csr(far_v, (offset, size)),
    }
    for name, reference in references.items():
        packed = getattr(hmatrix, name)
        assert packed.shape == reference.shape
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(packed, part), getattr(reference, part))
            assert getattr(packed, part).dtype == getattr(reference, part).dtype
