"""Tests for the dense linear-algebra kernel."""

import math

import numpy as np
import pytest

from blockcd.bounds import beta_estimate
from blockcd.linalg import (
    least_squares_min_norm,
    spectral_norm,
    strict_lower_truncate,
    sym_eig_extremes,
)
from blockcd.problems import (
    compute_constants,
    make_toeplitz_instance,
    oracle_from_quadratic,
    toeplitz_matrix,
)


class TestSpectralNorm:
    def test_identity(self):
        result = spectral_norm(np.eye(2))
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.residual <= 1e-10

    def test_nilpotent_single_singular_value(self):
        assert spectral_norm([[0.0, 1.0], [0.0, 0.0]]).value == pytest.approx(1.0, abs=1e-12)

    def test_tridiagonal_pattern_k4(self):
        # largest eigenvalue of the K=4 tridiagonal all-ones pattern
        value = spectral_norm(toeplitz_matrix(4)).value
        assert value == pytest.approx(1.0 + 2.0 * math.cos(math.pi / 5.0), abs=1e-10)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
            a = spectral_norm(m).value
            b = spectral_norm(m.T).value
            assert abs(a - b) <= 2e-10 * max(1.0, a)

    def test_rejects_empty_and_bad_inputs(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            spectral_norm([[np.nan, 0.0], [0.0, 1.0]])

    def test_large_strict_lower_toeplitz_hessian_matches_svd(self):
        # larger than any battery or workload matrix, with clustered top
        # singular values
        problem = make_toeplitz_instance(1030)[0]
        oracle = oracle_from_quadratic(problem, compute_constants(problem))
        lower = strict_lower_truncate(oracle.hessian)
        result = spectral_norm(lower)
        assert result.value == float(np.linalg.svd(lower, compute_uv=False)[0])
        assert (result.iterations, result.residual) == (0, 0.0)

    @pytest.mark.parametrize("k", [260, 280, 300])
    def test_strict_lower_toeplitz_hessian_uses_dense_path(self, k):
        # the top singular values of these matrices cluster
        problem = make_toeplitz_instance(k)[0]
        oracle = oracle_from_quadratic(problem, compute_constants(problem))
        lower = strict_lower_truncate(oracle.hessian)
        result = spectral_norm(lower)
        dense = float(np.linalg.svd(lower, compute_uv=False)[0])
        assert result.iterations == 0
        assert result.value == pytest.approx(dense, rel=1e-12)
        beta = beta_estimate(oracle)
        assert beta.exact <= beta.estimate


class TestSymEigExtremes:
    def test_diagonal(self):
        assert sym_eig_extremes(np.diag([4.0, 9.0])) == pytest.approx((4.0, 9.0))

    def test_one_by_one(self):
        assert sym_eig_extremes([[3.5]]) == pytest.approx((3.5, 3.5))

    def test_gram_of_tridiagonal_k10(self):
        # top eigenvalue of T^T T equals (1 + 2 cos(pi/11))^2
        t = toeplitz_matrix(10)
        low, high = sym_eig_extremes(t.T @ t)
        assert high == pytest.approx((1.0 + 2.0 * math.cos(math.pi / 11.0)) ** 2,
                                     rel=1e-12)
        assert low >= -1e-12

    def test_agrees_with_spectral_norm_squared(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.normal(size=(8, 5))
            _, high = sym_eig_extremes(m.T @ m)
            assert high == pytest.approx(spectral_norm(m).value ** 2,
                                         rel=1e-9, abs=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig_extremes([[0.0, 1.0], [0.0, 0.0]])

    def test_ordering(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6))
        low, high = sym_eig_extremes(m + m.T)
        assert low <= high


class TestTriangularTruncation:
    def test_strict_lower_zeroes_diagonal(self):
        out = strict_lower_truncate([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(out, [[0.0, 0.0], [3.0, 0.0]])

    def test_strict_lower_of_diagonal_is_zero(self):
        np.testing.assert_array_equal(strict_lower_truncate(np.diag([1.0, 2.0])),
                                      np.zeros((2, 2)))

    def test_strict_lower_of_ones(self):
        out = strict_lower_truncate(np.ones((3, 3)))
        np.testing.assert_array_equal(out, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            strict_lower_truncate(np.ones((2, 3)))

    def test_truncation_norm_bound_all_sizes(self):
        # ||tril(Z)|| / ||Z|| <= log(n)/pi + 1 + 1/pi for every size 2..64,
        # 100 seeded Gaussian samples each.
        rng = np.random.default_rng(7)
        for n in range(2, 65):
            bound = math.log(n) / math.pi + 1.0 + 1.0 / math.pi
            zs = rng.normal(size=(100, n, n))
            for z in zs:
                ratio = (np.linalg.svd(np.tril(z), compute_uv=False)[0]
                         / np.linalg.svd(z, compute_uv=False)[0])
                assert ratio <= bound

    def test_truncation_norm_bound_hilbert_family(self):
        # Z_ij = 1 / (i - j + 1/2), whose truncation ratio grows like ln(n)/pi,
        # within the bound at every size 2..64
        for n in range(2, 65):
            bound = math.log(n) / math.pi + 1.0 + 1.0 / math.pi
            index = np.arange(n)
            z = 1.0 / (index[:, None] - index[None, :] + 0.5)
            ratio = spectral_norm(np.tril(z)).value / spectral_norm(z).value
            assert ratio <= bound
            # the ln(n)/pi growth that Gaussian samples do not show
            assert ratio >= math.log(n) / math.pi + 0.35


class TestLeastSquaresMinNorm:
    def test_identity(self):
        np.testing.assert_allclose(least_squares_min_norm(np.eye(2), [3.0, 5.0]),
                                   [3.0, 5.0])

    def test_underdetermined_min_norm(self):
        # rows of [[1, 1]]: solutions x1 + x2 = 2; min norm is (1, 1)
        np.testing.assert_allclose(least_squares_min_norm([[1.0, 1.0]], [2.0]),
                                   [1.0, 1.0], atol=1e-14)

    def test_overdetermined_normal_equations_oracle(self):
        m = np.array([[1.0], [1.0]])
        rhs = np.array([1.0, 3.0])
        expected = np.linalg.solve(m.T @ m, m.T @ rhs)  # = [2.0]
        np.testing.assert_allclose(least_squares_min_norm(m, rhs), expected)

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(10, 4))
        rhs = rng.normal(size=10)
        x = least_squares_min_norm(m, rhs)
        residual = m @ x - rhs
        np.testing.assert_allclose(m.T @ residual, np.zeros(4), atol=1e-10)

    def test_minimal_norm_on_rank_deficient(self):
        # rank-1 matrix: adding any nullspace direction must increase ||x||
        rng = np.random.default_rng(6)
        m = np.outer(rng.normal(size=5), rng.normal(size=3))
        rhs = rng.normal(size=5)
        x = least_squares_min_norm(m, rhs)
        base_resid = np.linalg.norm(m @ x - rhs)
        _, _, vt = np.linalg.svd(m)
        for null_dir in vt[1:]:
            for eps in (1e-3, 0.1, 1.0):
                candidate = x + eps * null_dir
                assert np.linalg.norm(m @ candidate - rhs) == pytest.approx(
                    base_resid, rel=1e-9, abs=1e-12)
                assert np.linalg.norm(candidate) > np.linalg.norm(x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_min_norm(np.eye(3), [1.0, 2.0])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(least_squares_min_norm(np.zeros((3, 2)), [1.0, 2.0, 3.0]),
                                      np.zeros(2))
