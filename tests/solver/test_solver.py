"""Tests for the dense/iterative solvers and capacitance post-processing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solver import (
    CapacitanceComparison,
    IterativeStats,
    capacitance_from_solution,
    capacitance_matrix,
    cholesky_solve,
    compare_capacitance,
    gmres_solve,
    jacobi_preconditioner,
    solve_dense,
)


def _spd_system(rng, size=12):
    """A random symmetric positive definite system."""
    a = rng.normal(size=(size, size))
    matrix = a @ a.T + size * np.eye(size)
    rhs = rng.normal(size=(size, 3))
    return matrix, rhs


class TestDenseSolvers:
    def test_cholesky_solves_spd(self, rng):
        matrix, rhs = _spd_system(rng)
        x = cholesky_solve(matrix, rhs)
        assert np.allclose(matrix @ x, rhs)

    def test_cholesky_rejects_indefinite(self, rng):
        matrix = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_solve(matrix, np.ones(3))

    def test_solve_dense_falls_back_to_lu(self):
        matrix = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        rhs = np.asarray([1.0, 2.0])
        assert np.allclose(solve_dense(matrix, rhs), [2.0, 1.0])

    def test_shape_validation(self, rng):
        matrix, rhs = _spd_system(rng)
        with pytest.raises(ValueError):
            solve_dense(matrix[:, :-1], rhs)
        with pytest.raises(ValueError):
            solve_dense(matrix, rhs[:-1])


class TestGMRES:
    def test_matches_direct_solve(self, rng):
        matrix, rhs = _spd_system(rng)
        direct = np.linalg.solve(matrix, rhs)
        iterative, stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=matrix.shape[0], tolerance=1e-10,
            diagonal=np.diag(matrix),
        )
        assert np.allclose(iterative, direct, rtol=1e-6)
        assert stats.total_iterations > 0
        assert stats.max_iterations <= matrix.shape[0]

    def test_single_vector_rhs(self, rng):
        matrix, rhs = _spd_system(rng)
        solution, _ = gmres_solve(lambda x: matrix @ x, rhs[:, 0], size=matrix.shape[0])
        assert solution.shape == (matrix.shape[0],)

    def test_size_mismatch_rejected(self, rng):
        matrix, rhs = _spd_system(rng)
        with pytest.raises(ValueError):
            gmres_solve(lambda x: matrix @ x, rhs, size=matrix.shape[0] + 1)

    def test_positive_info_raises_nonconvergence(self, rng):
        matrix, rhs = _spd_system(rng)
        # An impossible tolerance within one iteration cannot converge.
        with pytest.raises(RuntimeError, match="did not converge"):
            gmres_solve(
                lambda x: matrix @ x, rhs, size=matrix.shape[0],
                tolerance=1e-300, max_iterations=1,
            )


class TestJacobiPreconditioner:
    def test_applies_inverse_diagonal(self):
        preconditioner = jacobi_preconditioner(np.asarray([2.0, 4.0]))
        np.testing.assert_allclose(preconditioner.matvec(np.ones(2)), [0.5, 0.25])

    def test_zero_diagonal_entry_names_the_index(self):
        with pytest.raises(ValueError, match=r"entry 1 is 0\.0"):
            jacobi_preconditioner(np.asarray([1.0, 0.0, 3.0]))

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="entry 2"):
            jacobi_preconditioner(np.asarray([1.0, 2.0, np.nan]))

    def test_multiple_offenders_are_counted(self):
        with pytest.raises(ValueError, match="2 offending entries"):
            jacobi_preconditioner(np.asarray([0.0, 1.0, np.inf]))

    def test_gmres_solve_rejects_bad_diagonal(self, rng):
        matrix, rhs = _spd_system(rng)
        diagonal = np.diag(matrix).copy()
        diagonal[3] = 0.0
        with pytest.raises(ValueError, match="entry 3"):
            gmres_solve(lambda x: matrix @ x, rhs, size=matrix.shape[0], diagonal=diagonal)


class TestBlockedGMRES:
    @pytest.mark.parametrize("block_size", [1, None])
    def test_matches_direct_solve_to_1e12(self, rng, block_size):
        matrix, rhs = _spd_system(rng, size=24)
        direct = np.linalg.solve(matrix, rhs)
        solution, _ = gmres_solve(
            lambda x: matrix @ x, rhs, size=24, tolerance=1e-12,
            diagonal=np.diag(matrix), matmat=lambda block: matrix @ block,
            block_size=block_size,
        )
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(solution - direct)) <= 1e-12 * scale

    def test_blocked_shares_operator_traversals(self, rng):
        matrix, rhs = _spd_system(rng, size=24)
        _, column_stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=24, diagonal=np.diag(matrix), block_size=1,
        )
        _, blocked_stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=24, diagonal=np.diag(matrix),
            matmat=lambda block: matrix @ block,
        )
        assert column_stats.operator_traversals == column_stats.total_iterations
        assert blocked_stats.operator_traversals == blocked_stats.max_iterations
        assert blocked_stats.operator_traversals < column_stats.operator_traversals

    def test_matvec_alone_builds_the_block_product(self, rng):
        matrix, rhs = _spd_system(rng, size=16)
        products = []

        def matvec(x):
            products.append(x.shape)
            return matrix @ x

        solution, stats = gmres_solve(
            matvec, rhs, size=16, tolerance=1e-12, diagonal=np.diag(matrix)
        )
        assert np.allclose(solution, np.linalg.solve(matrix, rhs), rtol=1e-9)
        assert set(products) == {(16,)}
        assert len(products) == stats.total_iterations

    @pytest.mark.parametrize("block_size", [1, None])
    def test_one_iteration_short_fails_to_converge(self, block_size):
        # diag(1..k): the Krylov space of the ones vector reaches the exact
        # solution only at iteration k, so k - 1 iterations cannot converge.
        k = 6
        matrix = np.diag(np.arange(1.0, k + 1))
        rhs = np.ones((k, 2))
        common = dict(size=k, tolerance=1e-10, matmat=lambda block: matrix @ block,
                      block_size=block_size)
        _, stats = gmres_solve(lambda x: matrix @ x, rhs, max_iterations=k, **common)
        assert stats.iterations_per_rhs == [k, k]
        with pytest.raises(RuntimeError, match=f"did not converge within {k - 1} iterations"):
            gmres_solve(lambda x: matrix @ x, rhs, max_iterations=k - 1, **common)

    def test_intermediate_block_size_chunks_columns(self, rng):
        matrix, rhs = _spd_system(rng, size=20)
        direct = np.linalg.solve(matrix, rhs)
        blocked, stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=20, tolerance=1e-10,
            diagonal=np.diag(matrix), matmat=lambda block: matrix @ block,
            block_size=2,
        )
        assert len(stats.iterations_per_rhs) == rhs.shape[1]
        assert np.allclose(blocked, direct, rtol=1e-6)

    def test_zero_rhs_column_is_solved_for_free(self, rng):
        matrix, rhs = _spd_system(rng, size=16)
        rhs[:, 1] = 0.0
        blocked, stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=16, diagonal=np.diag(matrix),
            matmat=lambda block: matrix @ block,
        )
        assert np.all(blocked[:, 1] == 0.0)
        assert stats.iterations_per_rhs[1] == 0

    def test_blocked_nonconvergence_raises(self, rng):
        matrix, rhs = _spd_system(rng, size=16)
        with pytest.raises(RuntimeError, match="GMRES did not converge"):
            gmres_solve(
                lambda x: matrix @ x, rhs, size=16, tolerance=1e-300,
                matmat=lambda block: matrix @ block, max_iterations=2,
            )

    def test_invalid_block_size_rejected(self, rng):
        matrix, rhs = _spd_system(rng)
        with pytest.raises(ValueError, match="block_size"):
            gmres_solve(
                lambda x: matrix @ x, rhs, size=matrix.shape[0],
                matmat=lambda block: matrix @ block, block_size=0,
            )


class TestLockstepEdgeCases:
    """Cases where the columns of one block part ways.

    The pinned iteration counts are those of the per-column loop the
    lockstep sweep replaced; each solve must also match the direct solve.
    """

    @staticmethod
    def _solve(matrix, rhs, block_size, **options):
        solution, stats = gmres_solve(
            lambda x: matrix @ x, rhs, size=matrix.shape[0], tolerance=1e-12,
            matmat=lambda block: matrix @ block, block_size=block_size, **options,
        )
        direct = np.linalg.solve(matrix, rhs)
        assert np.max(np.abs(solution - direct)) <= 1e-12 * np.max(np.abs(direct))
        return solution, stats

    @pytest.mark.parametrize("block_size", [1, None])
    def test_zero_column_inside_a_block(self, block_size):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(20, 20))
        matrix = a @ a.T + 20 * np.eye(20)
        rhs = rng.normal(size=(20, 3))
        rhs[:, 1] = 0.0
        solution, stats = self._solve(matrix, rhs, block_size, diagonal=np.diag(matrix))
        assert np.all(solution[:, 1] == 0.0)
        assert stats.iterations_per_rhs == [19, 0, 19]

    @pytest.mark.parametrize("block_size", [1, None])
    def test_identity_breaks_down_happily_after_one_iteration(self, block_size):
        rhs = np.random.default_rng(3).normal(size=(8, 2))
        solution, stats = self._solve(np.eye(8), rhs, block_size)
        assert stats.iterations_per_rhs == [1, 1]
        assert stats.operator_traversals == (2 if block_size == 1 else 1)

    @pytest.mark.parametrize("block_size", [1, None])
    def test_columns_converge_at_different_iterations(self, block_size):
        # A right-hand side spanning p eigenvectors converges in p iterations.
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        matrix = (q * np.arange(1.0, 13.0)) @ q.T
        rhs = np.column_stack([q[:, :p].sum(axis=1) for p in (1, 3, 12, 5)])
        _, stats = self._solve(matrix, rhs, block_size)
        assert stats.iterations_per_rhs == [1, 3, 12, 5]
        assert stats.operator_traversals == (21 if block_size == 1 else 12)


class TestIterativeStatsTelemetry:
    def test_result_as_dict_round_trips_telemetry(self):
        import json

        from repro.core.results import ExtractionResult

        result = ExtractionResult(
            capacitance=np.eye(2),
            conductor_names=["a", "b"],
            iterations=IterativeStats(iterations_per_rhs=[7, 9], operator_traversals=9),
        )
        summary = json.loads(json.dumps(result.as_dict()))
        assert summary["total_iterations"] == 16
        assert summary["iterations_per_rhs"] == [7, 9]
        assert summary["max_iterations"] == 9
        assert "solver_mode" not in summary
        assert summary["operator_traversals"] == 9


class TestCapacitance:
    def test_capacitance_matrix_is_symmetric(self, rng):
        matrix, _ = _spd_system(rng, size=8)
        phi = np.zeros((8, 2))
        phi[:4, 0] = 1.0
        phi[4:, 1] = 1.0
        capacitance = capacitance_matrix(matrix, phi)
        assert capacitance.shape == (2, 2)
        assert np.allclose(capacitance, capacitance.T)

    def test_capacitance_from_solution_validates_shapes(self):
        with pytest.raises(ValueError):
            capacitance_from_solution(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_physical_signs_for_two_conductor_problem(self, crossing_layout, permittivity):
        from repro.assembly import BatchGalerkinAssembler
        from repro.basis import build_basis_set

        basis_set = build_basis_set(crossing_layout)
        system = BatchGalerkinAssembler(basis_set, permittivity).assemble()
        phi = basis_set.incidence_matrix(2)
        capacitance = capacitance_matrix(system, phi)
        # Maxwell capacitance matrix: positive diagonal, negative couplings,
        # diagonally dominant.
        assert capacitance[0, 0] > 0.0 and capacitance[1, 1] > 0.0
        assert capacitance[0, 1] < 0.0
        assert capacitance[0, 0] >= -capacitance[0, 1]


class TestComparison:
    def test_identical_matrices_have_zero_error(self):
        reference = np.asarray([[2.0, -1.0], [-1.0, 2.0]])
        comparison = compare_capacitance(reference.copy(), reference)
        assert comparison.max_relative_error == 0.0
        assert comparison.within(0.01)

    def test_detects_diagonal_error(self):
        reference = np.asarray([[2.0, -1.0], [-1.0, 2.0]])
        computed = reference.copy()
        computed[0, 0] *= 1.05
        comparison = compare_capacitance(computed, reference)
        assert comparison.max_relative_error == pytest.approx(0.05)
        assert comparison.self_capacitance_error == pytest.approx(0.05)

    def test_insignificant_couplings_ignored(self):
        reference = np.asarray([[2.0, -1e-6], [-1e-6, 2.0]])
        computed = reference.copy()
        computed[0, 1] *= 10.0
        comparison = compare_capacitance(computed, reference)
        assert comparison.max_relative_error == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_capacitance(np.eye(2), np.eye(3))

    def test_comparison_is_dataclass_with_fields(self):
        reference = np.asarray([[2.0, -1.0], [-1.0, 2.0]])
        comparison = compare_capacitance(reference, reference)
        assert isinstance(comparison, CapacitanceComparison)
        assert comparison.reference_norm == pytest.approx(2.0)
