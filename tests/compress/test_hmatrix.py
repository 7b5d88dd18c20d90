"""Entry oracle and HMatrix operator: equivalence with the dense assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.batch import BatchGalerkinAssembler
from repro.basis.instantiate import InstantiationConfig, build_basis_set
from repro.compress.aca import LowRankFactors, aca_partial_pivoting
from repro.compress.entries import GalerkinEntries
from repro.compress.hmatrix import (
    DenseBlockEntry,
    HMatrix,
    LowRankBlockEntry,
    _upper_blocks,
    build_hmatrix,
)
from repro.geometry import generators
from repro.greens.collocation import collocation_from_deltas


@pytest.fixture(scope="module")
def refined_bus():
    """A refined 3x3 bus: large enough for admissible (far) blocks."""
    layout = generators.bus_crossing(3, 3)
    basis_set = build_basis_set(layout, InstantiationConfig(face_refinement=2))
    return layout, basis_set


@pytest.fixture(scope="module")
def dense_reference(refined_bus):
    layout, basis_set = refined_bus
    return BatchGalerkinAssembler(basis_set, layout.permittivity).assemble()


@pytest.fixture(scope="module")
def entries(refined_bus):
    layout, basis_set = refined_bus
    return GalerkinEntries(basis_set, layout.permittivity)


class TestGalerkinEntries:
    def test_vectorized_block_matches_dense_assembly(self, entries, dense_reference):
        n = entries.num_unknowns
        block = entries.block(np.arange(n), np.arange(n))
        np.testing.assert_allclose(block, dense_reference, rtol=1e-10, atol=0)

    def test_entrywise_path_matches_vectorized(self, refined_bus, entries):
        layout, basis_set = refined_bus
        reference = GalerkinEntries(basis_set, layout.permittivity, vectorized=False)
        rows = np.asarray([0, 3, 17, entries.num_unknowns - 1])
        cols = np.asarray([1, 3, 29])
        np.testing.assert_allclose(
            entries.block(rows, cols), reference.block(rows, cols), rtol=1e-12
        )

    def test_row_and_col_samples(self, entries, dense_reference):
        cols = np.arange(entries.num_unknowns)
        np.testing.assert_allclose(entries.row(5, cols), dense_reference[5], rtol=1e-10)
        np.testing.assert_allclose(
            entries.col(cols, 7), dense_reference[:, 7], rtol=1e-10
        )

    def test_support_bounds_shapes(self, entries):
        lo, hi = entries.support_bounds()
        assert lo.shape == (entries.num_unknowns, 3)
        assert hi.shape == lo.shape
        assert np.all(lo <= hi)


class TestHMatrix:
    @pytest.fixture(scope="class")
    def hmatrix(self, entries):
        return build_hmatrix(entries, epsilon=1e-6, leaf_size=12, eta=2.0)

    def test_contains_compressed_far_blocks(self, hmatrix):
        assert hmatrix.lowrank_blocks
        assert hmatrix.max_block_rank >= 1
        assert hmatrix.compression_ratio < 1.0

    def test_dense_reconstruction_close_to_reference(self, hmatrix, dense_reference):
        error = np.linalg.norm(hmatrix.dense() - dense_reference) / np.linalg.norm(
            dense_reference
        )
        assert error <= 1e-5

    def test_matvec_matches_dense(self, hmatrix, dense_reference, rng):
        x = rng.normal(size=hmatrix.shape[1])
        np.testing.assert_allclose(
            hmatrix.matvec(x), dense_reference @ x, rtol=1e-5, atol=0
        )

    def test_diagonal_matches_dense(self, hmatrix, dense_reference):
        np.testing.assert_allclose(
            hmatrix.diagonal(), np.diag(dense_reference), rtol=1e-10
        )

    def test_stored_entries_accounting(self, hmatrix):
        dense_stored = sum(b.stored_entries for b in hmatrix.dense_blocks)
        lowrank_stored = sum(b.stored_entries for b in hmatrix.lowrank_blocks)
        assert hmatrix.stored_entries == dense_stored + lowrank_stored
        for block in hmatrix.lowrank_blocks:
            m, n = block.factors.shape
            assert block.stored_entries == block.factors.rank * (m + n)
        stats = hmatrix.stats()
        assert stats["stored_entries"] == hmatrix.stored_entries
        assert stats["num_near_blocks"] == len(hmatrix.dense_blocks)
        assert 0.0 < stats["compression_ratio"] < 1.0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_worker_partitions_do_not_change_the_operator(
        self, entries, hmatrix, executor, num_workers
    ):
        partitioned = build_hmatrix(
            entries,
            epsilon=1e-6,
            leaf_size=12,
            eta=2.0,
            num_workers=num_workers,
            executor=executor,
        )
        np.testing.assert_array_equal(partitioned.dense(), hmatrix.dense())
        assert len(partitioned.worker_seconds) == num_workers
        assert all(seconds >= 0.0 for seconds in partitioned.worker_seconds)

    @pytest.mark.multiprocess
    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_process_executor_is_bit_identical(self, entries, hmatrix, num_workers):
        partitioned = build_hmatrix(
            entries,
            epsilon=1e-6,
            leaf_size=12,
            eta=2.0,
            num_workers=num_workers,
            executor="process",
        )
        np.testing.assert_array_equal(partitioned.dense(), hmatrix.dense())
        assert len(partitioned.worker_seconds) == num_workers

    def test_matmat_matches_per_column_matvec(self, hmatrix, rng):
        x = rng.normal(size=(hmatrix.shape[1], 4))
        columns = np.column_stack([hmatrix.matvec(x[:, j]) for j in range(4)])
        np.testing.assert_allclose(hmatrix.matmat(x), columns, rtol=1e-12, atol=0)

    def test_matmat_matches_dense(self, hmatrix, dense_reference, rng):
        x = rng.normal(size=(hmatrix.shape[1], 3))
        np.testing.assert_allclose(
            hmatrix.matmat(x), dense_reference @ x, rtol=1e-5, atol=0
        )

    @pytest.mark.multiprocess
    def test_custom_collocation_runs_in_process_workers(self, refined_bus, hmatrix):
        # A lambda cannot be pickled: the forked workers inherit it with the
        # closure over the caller's oracle.
        layout, basis_set = refined_bus
        custom = GalerkinEntries(
            basis_set,
            layout.permittivity,
            collocation_fn=lambda *deltas: 2.0 * collocation_from_deltas(*deltas),
        )
        options = dict(epsilon=1e-6, leaf_size=12, eta=2.0, num_workers=2)
        thread = build_hmatrix(custom, executor="thread", **options)
        process = build_hmatrix(custom, executor="process", **options)
        np.testing.assert_array_equal(process.dense(), thread.dense())
        assert not np.array_equal(thread.dense(), hmatrix.dense())

    @pytest.mark.parametrize(
        "executor", ["thread", pytest.param("process", marks=pytest.mark.multiprocess)]
    )
    def test_entries_sampled_sums_the_partitions(self, refined_bus, executor):
        layout, basis_set = refined_bus
        oracle = GalerkinEntries(basis_set, layout.permittivity)
        serial = build_hmatrix(oracle, leaf_size=12)
        pooled = build_hmatrix(
            GalerkinEntries(basis_set, layout.permittivity),
            leaf_size=12,
            num_workers=3,
            executor=executor,
        )
        assert pooled.entries_sampled == serial.entries_sampled == oracle.entries_sampled > 0

    def test_validation(self, entries):
        with pytest.raises(ValueError, match="num_workers"):
            build_hmatrix(entries, num_workers=0)
        with pytest.raises(ValueError, match="epsilon"):
            build_hmatrix(entries, epsilon=1.5)
        with pytest.raises(ValueError, match="max_rank"):
            build_hmatrix(entries, max_rank=0)
        with pytest.raises(ValueError, match="executor"):
            build_hmatrix(entries, executor="gpu")

    def test_epsilon_controls_the_error(self, entries, dense_reference):
        norm = np.linalg.norm(dense_reference)
        errors = []
        for epsilon in (1e-2, 1e-6):
            hmatrix = build_hmatrix(entries, epsilon=epsilon, leaf_size=12, eta=2.0)
            errors.append(np.linalg.norm(hmatrix.dense() - dense_reference) / norm)
        assert errors[1] <= errors[0]
        assert errors[1] <= 1e-5


class TestSymmetricStorage:
    def test_upper_blocks_cover_every_entry_exactly_once(self, entries):
        hmatrix = build_hmatrix(entries, epsilon=1e-4, leaf_size=12, eta=2.0)
        n = hmatrix.shape[0]
        coverage = np.zeros((n, n), dtype=int)
        for blocks in (hmatrix.dense_blocks, hmatrix.lowrank_blocks):
            for block in blocks:
                coverage[np.ix_(block.rows, block.cols)] += 1
                if block.mirrored:
                    # Off-diagonal: the transpose partner is applied, not stored.
                    coverage[np.ix_(block.cols, block.rows)] += 1
                else:
                    # Non-mirrored blocks are the diagonal ones.
                    assert np.array_equal(np.sort(block.rows), np.sort(block.cols))
        assert np.all(coverage == 1)
        assert hmatrix.stored_entries < n * n


class TestLockstepACA:
    """All far blocks of a partition share one oracle call per ACA step."""

    EPSILON, LEAF_SIZE, ETA = 1e-6, 8, 2.0

    def _per_block_runs(self, entries):
        """Per-block ACA driven by row/col oracles: factors and request counts."""
        runs = []
        for block in _upper_blocks(entries, self.LEAF_SIZE, self.ETA):
            if not block.admissible:
                continue
            rows, cols = block.row.indices, block.col.indices
            requests = [0]

            def row_fn(i, rows=rows, cols=cols, requests=requests):
                requests[0] += 1
                return entries.row(int(rows[i]), cols)

            def col_fn(j, rows=rows, cols=cols, requests=requests):
                requests[0] += 1
                return entries.col(rows, int(cols[j]))

            factors = aca_partial_pivoting(
                row_fn, col_fn, block.shape, epsilon=self.EPSILON, max_rank=64
            )
            runs.append((rows, cols, factors, requests[0]))
        return runs

    def test_factors_are_bit_identical_to_per_block_aca(self, entries):
        hmatrix = build_hmatrix(
            entries, epsilon=self.EPSILON, leaf_size=self.LEAF_SIZE, eta=self.ETA
        )
        runs = self._per_block_runs(entries)
        assert len(runs) == len(hmatrix.lowrank_blocks) > 1
        for block, (rows, cols, factors, _) in zip(hmatrix.lowrank_blocks, runs):
            np.testing.assert_array_equal(block.rows, rows)
            np.testing.assert_array_equal(block.cols, cols)
            np.testing.assert_array_equal(block.factors.u, factors.u)
            np.testing.assert_array_equal(block.factors.v, factors.v)

    def test_oracle_calls_follow_the_longest_run(self, entries, monkeypatch):
        runs = self._per_block_runs(entries)
        longest = max(requests for *_, requests in runs)
        total = sum(requests for *_, requests in runs)
        calls = []
        entry_values = entries.entry_values

        def counted(entry_rows, entry_cols):
            calls.append(len(entry_rows))
            return entry_values(entry_rows, entry_cols)

        monkeypatch.setattr(entries, "entry_values", counted)
        build_hmatrix(
            entries,
            epsilon=self.EPSILON,
            leaf_size=self.LEAF_SIZE,
            eta=self.ETA,
            executor="serial",
        )
        # One call for the fused near field, then one per lockstep step.
        assert len(calls) == 1 + longest
        assert len(calls) < total


def _symmetric(rng, size):
    values = rng.normal(size=(size, size))
    return values + values.T


def _factors(rng, m, n, k):
    return LowRankFactors(u=rng.normal(size=(m, k)), v=rng.normal(size=(k, n)))


def _no_far_blocks(entries, rng):
    return build_hmatrix(entries, leaf_size=entries.num_unknowns)


def _rank_zero_far_block(entries, rng):
    a, b = np.array([0, 3, 5, 6]), np.array([1, 2, 4, 7])
    return HMatrix(
        8,
        [
            DenseBlockEntry(a, a, _symmetric(rng, 4)),
            DenseBlockEntry(b, b, _symmetric(rng, 4)),
        ],
        [LowRankBlockEntry(a, b, _factors(rng, 4, 4, 0), mirrored=True)],
    )


def _mixed_mirroring(entries, rng):
    a, b, c = np.array([0, 4, 8]), np.array([1, 5, 7, 9]), np.array([2, 3, 6])
    return HMatrix(
        10,
        [
            DenseBlockEntry(a, a, _symmetric(rng, 3)),
            DenseBlockEntry(b, b, _symmetric(rng, 4)),
            DenseBlockEntry(c, c, _symmetric(rng, 3)),
            DenseBlockEntry(a, b, rng.normal(size=(3, 4)), mirrored=True),
            DenseBlockEntry(c, b, rng.normal(size=(3, 4))),
        ],
        [
            LowRankBlockEntry(a, c, _factors(rng, 3, 3, 2), mirrored=True),
            LowRankBlockEntry(b, c, _factors(rng, 4, 3, 1)),
        ],
    )


class TestPackedOperator:
    """The packed products and diagonal agree with the block-wise dense()."""

    @pytest.fixture(params=[_no_far_blocks, _rank_zero_far_block, _mixed_mirroring])
    def operator(self, request, entries, rng):
        return request.param(entries, rng)

    def test_products_and_diagonal_match_dense(self, operator, rng):
        dense = operator.dense()
        x = rng.normal(size=(operator.shape[1], 3))
        for actual, expected in (
            (operator.matvec(x[:, 0]), dense @ x[:, 0]),
            (operator.matmat(x), dense @ x),
        ):
            assert actual.shape == expected.shape
            assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)
        np.testing.assert_array_equal(operator.diagonal(), np.diag(dense))

    def test_no_far_blocks_packs_an_empty_far_field(self, entries):
        operator = _no_far_blocks(entries, None)
        assert not operator.lowrank_blocks
        assert operator.far_u.shape == (operator.shape[0], 0)
        assert operator.far_v.shape == (0, operator.shape[0])

    def test_uncovered_diagonal_raises(self, rng):
        a, b = np.array([0, 1]), np.array([2, 3])
        operator = HMatrix(4, [DenseBlockEntry(a, a, _symmetric(rng, 2))], [])
        with pytest.raises(RuntimeError, match="2 diagonal entries"):
            operator.diagonal()
        covered = HMatrix(
            4,
            [
                DenseBlockEntry(a, a, _symmetric(rng, 2)),
                DenseBlockEntry(a, b, rng.normal(size=(2, 2)), mirrored=True),
            ],
            [],
        )
        with pytest.raises(RuntimeError, match="2 diagonal entries"):
            covered.diagonal()

    def test_memory_counts_the_packed_form(self, operator):
        packed = sum(
            array.nbytes
            for matrix in (operator.near, operator.far_u, operator.far_v)
            for array in (matrix.data, matrix.indices, matrix.indptr)
        )
        assert operator.memory_bytes >= 8 * operator.stored_entries + packed
