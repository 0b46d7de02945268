"""Tests for problem definitions, proximal operators and generators."""

import json
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcd.problems import (
    BlockPartition,
    CompositeQuadraticProblem,
    NonsmoothTerm,
    FieldError,
    compute_constants,
    dual_point,
    duality_gap,
    eval_objective,
    load_problem,
    make_lasso_instance,
    make_table1_diagonal_qp,
    make_table1_full_qp,
    make_toeplitz_instance,
    nonsmooth_total,
    oracle_from_quadratic,
    prox,
    prox_blocks,
    prox_scalar,
    smooth_value,
    toeplitz_matrix,
    toeplitz_start,
)
from blockcd import problems, solvers
from blockcd.bounds import BoundSpec, InapplicableBound, evaluate, log2nk
from blockcd.battery import get_instance
from blockcd.linalg import RANK_RTOL, sym_eig_extremes
from blockcd.rng import SplitMix64
from oracles import block_gradient, nonsmooth_value, normal, uniform

TERMS = st.one_of(
    st.just(NonsmoothTerm.zero()),
    st.builds(NonsmoothTerm.l1, st.floats(0.0, 5.0)),
    st.builds(NonsmoothTerm.group_l2, st.floats(0.0, 5.0)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 4.0)).map(
        lambda pair: NonsmoothTerm.box(pair[0], pair[0] + pair[1])))


def identity_problem(k, h=None):
    eye = np.eye(k)
    return CompositeQuadraticProblem(
        partition=BlockPartition(k, 1),
        a_blocks=tuple(eye[:, [i]] for i in range(k)),
        b=np.zeros(k),
        h=tuple(h or (NonsmoothTerm.zero() for _ in range(k))),
    )


class TestTypes:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BlockPartition(0, 1)
        assert BlockPartition(4, 3).dimension == 12

    def test_term_validation(self):
        with pytest.raises(ValueError):
            NonsmoothTerm.l1(-0.5)
        with pytest.raises(ValueError):
            NonsmoothTerm.box(2.0, 1.0)
        with pytest.raises(ValueError):
            NonsmoothTerm("huber")

    def test_block_shape_validation(self):
        with pytest.raises(ValueError):
            CompositeQuadraticProblem(
                partition=BlockPartition(2, 1),
                a_blocks=(np.ones((3, 1)), np.ones((2, 1))),
                b=np.zeros(3),
                h=(NonsmoothTerm.zero(), NonsmoothTerm.zero()))

    def test_oracle_validation(self):
        for make in (make_table1_diagonal_qp, make_table1_full_qp):
            with pytest.raises(ValueError):
                make(0, 1.0)
            with pytest.raises(ValueError):
                make(3, 0.0)
        from blockcd.problems import SmoothProblemOracle
        # coordinate constant above the global one is rejected
        with pytest.raises(ValueError):
            SmoothProblemOracle(dimension=2, lipschitz_global=1.0,
                                lipschitz_coordinate=np.array([1.0, 2.0]),
                                hessian=np.eye(2))
        # a Hessian entry above sqrt(L_i L_j) is rejected
        with pytest.raises(ValueError, match="sqrt"):
            SmoothProblemOracle(dimension=2, lipschitz_global=2.0,
                                lipschitz_coordinate=np.ones(2),
                                hessian=np.full((2, 2), 1.5))
        # a zero column has L_i = 0, which the view accepts; L_i < 0 it rejects
        SmoothProblemOracle(dimension=2, lipschitz_global=1.0,
                            lipschitz_coordinate=np.array([1.0, 0.0]),
                            hessian=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            SmoothProblemOracle(dimension=2, lipschitz_global=1.0,
                                lipschitz_coordinate=np.array([1.0, -1e-300]),
                                hessian=np.diag([1.0, 0.0]))


class TestObjective:
    def test_identity_zero(self):
        p = identity_problem(3)
        assert eval_objective(p, np.zeros(3)) == 0.0

    def test_scalar_lasso_value(self):
        # 1/2 (2*1 - 4)^2 + 1*|1| = 2 + 1 = 3
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1),
            a_blocks=(np.array([[2.0]]),),
            b=np.array([4.0]),
            h=(NonsmoothTerm.l1(1.0),))
        assert eval_objective(p, [1.0]) == pytest.approx(3.0)

    def test_box_infeasible_is_inf(self):
        p = identity_problem(2, h=[NonsmoothTerm.box(-1, 1), NonsmoothTerm.box(-1, 1)])
        assert eval_objective(p, [0.5, 2.0]) == math.inf
        assert eval_objective(p, [0.5, 1.0]) == pytest.approx(0.5 * (0.25 + 1.0))

    def test_toeplitz_matches_brute_force(self):
        # canonical value equals ||T x||^2 for the unscaled pattern
        p, x0 = make_toeplitz_instance(10)
        t = toeplitz_matrix(10)
        assert eval_objective(p, x0) == pytest.approx(
            float(np.linalg.norm(t @ x0) ** 2), rel=1e-14)
        assert smooth_value(p, x0) == pytest.approx(eval_objective(p, x0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_objective(identity_problem(3), np.zeros(4))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), block_count=st.integers(1, 5), block_size=st.integers(1, 3))
    def test_nonsmooth_total_matches_per_block_sum(self, data, block_count, block_size):
        terms = data.draw(st.lists(TERMS, min_size=block_count, max_size=block_count))
        n = block_count * block_size
        p = CompositeQuadraticProblem(
            partition=BlockPartition(block_count, block_size),
            a_blocks=(np.zeros((1, block_size)),) * block_count, b=np.zeros(1),
            h=tuple(terms))
        x = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
        # points just inside and just outside the feasibility slack of a box
        for k, term in enumerate(terms):
            if term.kind == "box" and data.draw(st.booleans()):
                slack = 1e-12 * max(1.0, abs(term.lo), abs(term.hi))
                x[k * block_size] = term.hi + data.draw(st.sampled_from([0.5, 2.0])) * slack
        expected = 0.0
        for k, term in enumerate(terms):
            expected += nonsmooth_value(term, x[k * block_size:(k + 1) * block_size])
        total = nonsmooth_total(p, x)
        if expected == math.inf:
            assert total == math.inf
        else:
            assert total == pytest.approx(expected, rel=1e-14, abs=1e-300)


class TestBlockGradient:
    def test_zero_residual(self):
        p = identity_problem(3)
        np.testing.assert_array_equal(block_gradient(p, 1, np.zeros(3)), [0.0])

    def test_one_dimensional(self):
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1),
            a_blocks=(np.array([[1.0]]),),
            b=np.array([1.0]),
            h=(NonsmoothTerm.zero(),))
        np.testing.assert_allclose(block_gradient(p, 0, [0.0]), [-1.0])

    def test_finite_difference_oracle_toeplitz(self):
        p, x0 = make_toeplitz_instance(10)
        grad = block_gradient(p, 1, x0)
        h = 1e-6
        bumped_up, bumped_dn = x0.copy(), x0.copy()
        bumped_up[1] += h
        bumped_dn[1] -= h
        fd = (smooth_value(p, bumped_up) - smooth_value(p, bumped_dn)) / (2 * h)
        assert grad[0] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_finite_difference_property_random_points(self):
        problems = [make_toeplitz_instance(8)[0],
                    make_lasso_instance(12, 6, 0.1, seed=4)[0],
                    make_table1_full_qp(5, 3.0),
                    make_table1_diagonal_qp(5, 3.0)]
        gen = SplitMix64(99)
        h = 1e-6
        for p in problems:
            dim = p.partition.dimension
            for _ in range(20):
                x = gen.normal_vector(dim)
                for k in range(p.partition.block_count):
                    grad = block_gradient(p, k, x)
                    for j in range(p.partition.block_size):
                        up, dn = x.copy(), x.copy()
                        idx = k * p.partition.block_size + j
                        up[idx] += h
                        dn[idx] -= h
                        fd = (smooth_value(p, up) - smooth_value(p, dn)) / (2 * h)
                        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_bad_block_index(self):
        with pytest.raises(ValueError):
            block_gradient(identity_problem(2), 5, np.zeros(2))



class TestProx:
    def test_l1_soft_threshold(self):
        np.testing.assert_allclose(prox(NonsmoothTerm.l1(1.0), np.array([3.0]), 1.0), [2.0])
        np.testing.assert_allclose(prox(NonsmoothTerm.l1(1.0), np.array([-0.5]), 1.0), [0.0])

    def test_group_shrinkage(self):
        v = np.array([1.2, 1.6])  # norm 2
        np.testing.assert_allclose(prox(NonsmoothTerm.group_l2(1.0), v, 1.0), v / 2.0)

    def test_group_inside_ball_maps_to_zero(self):
        v = np.array([0.3, 0.4])  # norm 0.5 <= weight * step
        np.testing.assert_array_equal(prox(NonsmoothTerm.group_l2(1.0), v, 1.0),
                                      np.zeros(2))

    def test_zero_is_identity(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox(NonsmoothTerm.zero(), v, 0.5), v)

    def test_box_clips(self):
        np.testing.assert_array_equal(
            prox(NonsmoothTerm.box(-1.0, 1.0), np.array([-3.0, 0.2, 2.0]), 1.0),
            [-1.0, 0.2, 1.0])

    def test_nonexpansive(self):
        gen = SplitMix64(13)
        terms = [NonsmoothTerm.zero(), NonsmoothTerm.l1(0.7),
                 NonsmoothTerm.group_l2(1.3), NonsmoothTerm.box(-0.5, 2.0)]
        for term in terms:
            for _ in range(25):
                v1 = gen.normal_vector(4)
                v2 = gen.normal_vector(4)
                d_out = np.linalg.norm(prox(term, v1, 0.8) - prox(term, v2, 0.8))
                assert d_out <= np.linalg.norm(v1 - v2) + 1e-12

    def test_group_scalar_equals_l1(self):
        gen = SplitMix64(17)
        for _ in range(50):
            v = gen.normal_vector(1) * 3
            step = 0.1 + uniform(gen)
            np.testing.assert_allclose(
                prox(NonsmoothTerm.group_l2(0.9), v, step),
                prox(NonsmoothTerm.l1(0.9), v, step), atol=1e-15)

    def test_prox_is_exact_minimizer(self):
        # golden-section oracle on the scalar prox objective; the point
        # comparison allows for the comparison-noise floor of golden
        # section, the value comparison is tight
        from oracles import golden_section_min

        gen = SplitMix64(19)
        for term in (NonsmoothTerm.l1(0.6), NonsmoothTerm.box(-0.4, 0.9)):
            lo, hi = (term.lo, term.hi) if term.kind == "box" else (-10.0, 10.0)
            for _ in range(10):
                v = np.array([3.0 * normal(gen)])
                step = 0.2 + uniform(gen)

                def objective(u):
                    return (nonsmooth_value(term, np.array([u]))
                            + (u - v[0]) ** 2 / (2.0 * step))

                best = golden_section_min(objective, lo, hi)
                found = prox(term, v, step)[0]
                assert found == pytest.approx(best, abs=5e-7)
                assert objective(found) <= objective(best) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(term=TERMS, v=st.floats(-1e3, 1e3), step=st.floats(1e-3, 1e3))
    def test_scalar_prox_equals_array_prox(self, term, v, step):
        assert prox_scalar(term, v, step) == prox(term, np.array([v]), step)[0]

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            prox(NonsmoothTerm.l1(1.0), np.array([1.0]), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), block_count=st.integers(1, 5), block_size=st.integers(1, 4),
           step=st.floats(1e-3, 1e3))
    def test_prox_blocks_equals_block_prox(self, data, block_count, block_size, step):
        terms = data.draw(st.lists(TERMS, min_size=block_count, max_size=block_count))
        dim = block_count * block_size
        p = CompositeQuadraticProblem(
            partition=BlockPartition(block_count, block_size),
            a_blocks=tuple(np.ones((1, block_size)) for _ in range(block_count)),
            b=np.zeros(1), h=tuple(terms))
        v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
        u = prox_blocks(p, v, step)
        eps = np.finfo(float).eps
        for k, term in enumerate(terms):
            sl = p.block_slice(k)
            # the block norm may differ in its last bits, so agreement is
            # to a few ulps of the block's scale
            scale = float(np.abs(v[sl]).max())
            np.testing.assert_allclose(u[sl], prox(term, v[sl], step),
                                       rtol=4 * eps, atol=4 * eps * scale)
        assert nonsmooth_total(p, u) < math.inf
        with pytest.raises(ValueError):
            prox_blocks(p, v, 0.0)


def mixed_problem(rows=10, block_size=2, seed=5):
    """Gaussian blocks with every kind of term: zero, l1 and group_l2 of
    weight 0 (unpenalized), l1 and group_l2 of positive weight, and a box."""
    gen = SplitMix64(seed)
    terms = (NonsmoothTerm.zero(), NonsmoothTerm.l1(0.0), NonsmoothTerm.group_l2(0.0),
             NonsmoothTerm.l1(0.3), NonsmoothTerm.group_l2(0.4), NonsmoothTerm.box(-0.5, 1.0))
    return CompositeQuadraticProblem(
        partition=BlockPartition(len(terms), block_size),
        a_blocks=tuple(gen.normal_matrix(rows, block_size) for _ in terms),
        b=gen.normal_vector(rows), h=terms)


class TestDualPoint:
    def test_unpenalized_blocks_projected_and_penalties_scaled_into_their_balls(self):
        p = mixed_problem()
        residual = 10.0 * SplitMix64(6).normal_vector(p.rows)
        theta, u = dual_point(p, residual)
        scale = float(np.linalg.norm(p.full_matrix(), 2) * np.linalg.norm(residual))
        np.testing.assert_allclose(u, (p.full_matrix().T @ theta).reshape(6, 2),
                                   rtol=0, atol=1e-14 * scale)
        # zero and weight-0 blocks: A_k^T theta = 0 up to rounding
        assert float(np.abs(u[:3]).max()) <= 1e-13 * scale
        # the penalized blocks end inside their balls, the tighter one on its boundary
        ratios = [float(np.abs(u[3]).max()) / 0.3, float(np.linalg.norm(u[4])) / 0.4]
        assert max(ratios) == pytest.approx(1.0, rel=1e-14)
        assert min(ratios) <= 1.0
        # theta is the residual minus its projection on the unpenalized
        # columns' range, scaled down
        unpenalized = np.hstack(p.a_blocks[:3])
        projected = residual - unpenalized @ np.linalg.lstsq(unpenalized, residual, rcond=None)[0]
        shrink = float(theta @ projected) / float(projected @ projected)
        assert 0.0 < shrink < 1.0
        np.testing.assert_allclose(theta, shrink * projected, rtol=0, atol=1e-13 * scale)

    def test_feasible_residual_is_its_own_dual_point(self):
        gen = SplitMix64(8)
        p = CompositeQuadraticProblem(
            partition=BlockPartition(2, 2), a_blocks=(gen.normal_matrix(3, 2),) * 2,
            b=np.zeros(3), h=(NonsmoothTerm.l1(100.0), NonsmoothTerm.box(0.0, 1.0)))
        residual = gen.normal_vector(3)
        theta, _ = dual_point(p, residual)
        np.testing.assert_array_equal(theta, residual)

    def test_gap_is_primal_minus_dual_value(self):
        # duality_gap sums Fenchel-Young terms; it equals f(x) - D(theta)
        p = mixed_problem()
        gen = SplitMix64(9)
        for _ in range(5):
            x = prox_blocks(p, gen.normal_vector(p.partition.dimension), 1.0)
            residual = p.residual(x)
            f_value, gap = duality_gap(p, x, residual)
            theta, u = dual_point(p, residual)
            z = -u[5]  # the box [-0.5, 1] has support function sum_i max(lo z_i, hi z_i)
            support = float(np.maximum(-0.5 * z, 1.0 * z).sum())
            dual = -0.5 * float(theta @ theta) - float(theta @ p.b) - support
            assert f_value == eval_objective(p, x)
            assert gap == pytest.approx(f_value - dual, rel=1e-12, abs=1e-12)
            assert gap > 0.0

    def test_gap_vanishes_at_a_known_optimum(self):
        # A = [1], b = 2, weight 1: x* = 1, r = -1, theta = -1
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1), a_blocks=(np.array([[1.0]]),),
            b=np.array([2.0]), h=(NonsmoothTerm.l1(1.0),))
        assert duality_gap(p, np.array([1.0]), np.array([-1.0])) == (1.5, 0.0)
        # off the optimum the gap bounds f(x) - f* = 1.625 - 1.5
        f_value, gap = duality_gap(p, np.array([0.5]), np.array([-1.5]))
        assert f_value == 1.625 and gap >= 0.125

    def test_infeasible_point_has_infinite_gap(self):
        p = mixed_problem()
        x = np.zeros(p.partition.dimension)
        x[-1] = 2.0
        assert duality_gap(p, x, p.residual(x)) == (math.inf, math.inf)


class TestGram:
    def test_one_read_only_product(self):
        p, _ = make_toeplitz_instance(6)
        full = p.full_matrix()
        assert p.gram is p.gram
        assert p.gram.tobytes() == (full.T @ full).tobytes()
        assert not p.gram.flags.writeable
        with pytest.raises(ValueError):
            p.gram[0, 0] = 1.0

    def test_constants_smooth_view_and_sweep_share_it(self):
        p, x0 = make_toeplitz_instance(6)
        with mock.patch.object(problems, "sym_eig_extremes",
                               wraps=sym_eig_extremes) as eigensolve:
            constants = compute_constants(p)
        assert eigensolve.call_args_list[0].args[0] is p.gram
        assert oracle_from_quadratic(p, constants).hessian is p.gram
        sweep, _ = solvers._make_sweep(p, x0.copy(), constants.L_k)
        assert sweep.args[1] is p.gram


class TestConstants:
    def test_single_diagonal_block(self):
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 2),
            a_blocks=(np.diag([1.0, 2.0]),),
            b=np.zeros(2),
            h=(NonsmoothTerm.zero(),))
        c = compute_constants(p)
        assert c.L == pytest.approx(4.0)
        assert c.L_k[0] == pytest.approx(4.0)
        assert c.sigma_k[0] ** 2 == pytest.approx(1.0)
        assert c.rank_case == "full_column"

    def test_toeplitz_constants(self):
        p, _ = make_toeplitz_instance(10)
        c = compute_constants(p)
        # global constant is twice the squared top eigenvalue of the pattern
        assert c.L == pytest.approx(2.0 * (1.0 + 2.0 * math.cos(math.pi / 11.0)) ** 2,
                                    rel=1e-12)
        assert c.L <= 18.0
        # block constants are twice the squared column norms: 4 at the two
        # edge columns, 6 in the interior
        np.testing.assert_allclose(np.sort(c.L_k)[:2], [4.0, 4.0], rtol=1e-12)
        np.testing.assert_allclose(np.sort(c.L_k)[2:], np.full(8, 6.0), rtol=1e-12)

    def test_ordering_invariant(self):
        p, _ = make_lasso_instance(14, 6, 0.1, seed=21)
        c = compute_constants(p)
        assert c.L_min <= c.L_max <= c.L * (1 + 1e-12)

    def test_block_diagonal_domination(self):
        # K * blkdiag(A_k^T A_k) - A^T A is positive semidefinite
        for p in (make_toeplitz_instance(8)[0],
                  make_lasso_instance(10, 5, 0.1, seed=3)[0]):
            k_count = p.partition.block_count
            n = p.partition.block_size
            full = p.full_matrix()
            blkdiag = np.zeros((k_count * n, k_count * n))
            for k in range(k_count):
                blk = p.a_blocks[k].T @ p.a_blocks[k]
                blkdiag[k * n:(k + 1) * n, k * n:(k + 1) * n] = blk
            low, _ = sym_eig_extremes(k_count * blkdiag - full.T @ full)
            assert low >= -1e-9

    def test_gamma_is_exactly_zero_when_rows_exceed_block_size(self):
        for p in (make_toeplitz_instance(12)[0],
                  make_lasso_instance(10, 5, 0.1, seed=3)[0],
                  get_instance("thm2_case1").problem):
            assert p.rows > p.partition.block_size
            c = compute_constants(p)
            assert np.all(c.gamma_k == 0.0)
            assert c.gamma_min == 0.0

    def test_gamma_is_the_smallest_singular_value_when_rows_at_most_block_size(self):
        for p in (get_instance("thm2_case2").problem, make_table1_full_qp(7, 2.0)):
            assert p.rows <= p.partition.block_size
            c = compute_constants(p)
            for k, a in enumerate(p.a_blocks):
                assert c.gamma_k[k] == np.linalg.svd(a, compute_uv=False)[-1] > 0.0

    @settings(max_examples=150, deadline=None)
    @given(block_count=st.integers(1, 6), rows=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_blocks_read_their_gram_entry(self, block_count, rows, seed):
        # only the full Gram goes through sym_eig_extremes; each L_k has the
        # bits that call gives on the column's 1 x 1 Gram, and a column's
        # sigma and gamma are its one singular value
        gen = SplitMix64(seed)
        a = gen.normal_matrix(rows, block_count) * np.exp(3.0 * gen.normal_vector(block_count))
        p = CompositeQuadraticProblem(
            partition=BlockPartition(block_count, 1),
            a_blocks=tuple(a[:, [k]] for k in range(block_count)), b=np.zeros(rows),
            h=(NonsmoothTerm.zero(),) * block_count)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("blockcd.problems.sym_eig_extremes",
                          lambda m: calls.append(m.shape) or sym_eig_extremes(m))
            c = compute_constants(p)
        assert calls == [(block_count, block_count)]
        for k, column in enumerate(p.a_blocks):
            _, high = sym_eig_extremes(column.T @ column)
            (s,) = np.linalg.svd(column, compute_uv=False)
            assert c.L_k[k] == high and c.sigma_k[k] == s
            assert c.gamma_k[k] == (s if rows == 1 else 0.0)

    @settings(max_examples=150, deadline=None)
    @given(block_count=st.integers(1, 6), block_size=st.integers(1, 4),
           rows=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([0.0, 9.0]), dependence=st.sampled_from([None, 1e-8, 0.0]))
    def test_constants_match_svd_definitions(self, block_count, block_size, rows, seed,
                                             spread, dependence):
        # column scales up to e^(+-spread); with a ``dependence``, each
        # block's last column is its first plus that much noise
        rng = np.random.default_rng(seed)
        blocks = (rng.normal(size=(block_count, rows, block_size))
                  * np.exp(rng.uniform(-spread, spread, size=(block_count, 1, block_size))))
        if dependence is not None and block_size > 1:
            blocks[:, :, -1] = blocks[:, :, 0] + dependence * rng.normal(size=(block_count, rows))
        p = CompositeQuadraticProblem(
            partition=BlockPartition(block_count, block_size), a_blocks=tuple(blocks),
            b=np.zeros(rows), h=(NonsmoothTerm.zero(),) * block_count)
        with mock.patch.object(problems, "sym_eig_extremes", wraps=sym_eig_extremes) as eigensolve:
            c = compute_constants(p)
        assert [call.args[0] for call in eigensolve.call_args_list] == [p.gram]
        top = np.linalg.svd(p.full_matrix(), compute_uv=False)[0]
        assert c.L == pytest.approx(top ** 2, rel=1e-10)
        column_full = row_full = True
        for k, a in enumerate(p.a_blocks):
            # every block_lk trajectory steps by L_k: it keeps the per-block
            # eigensolve's bits
            assert c.L_k[k] == sym_eig_extremes(a.T @ a)[1]
            # sigma_k and gamma_k are the smallest singular value, or 0 at
            # or below the rank cutoff, or 0 beyond min(m, N)
            s = np.linalg.svd(a, compute_uv=False)
            full = bool(s[-1] > RANK_RTOL * s[0])
            kept = s[-1] if full else 0.0
            assert c.sigma_k[k] == (kept if rows >= block_size else 0.0)
            assert c.gamma_k[k] == (kept if rows <= block_size else 0.0)
            column_full &= rows >= block_size and full
            row_full &= rows <= block_size and full
        assert (c.sigma_min > 0) == column_full
        assert (c.gamma_min > 0) == row_full
        expected = ("full_column" if column_full
                    else "full_row" if row_full else "neither")
        assert c.rank_case == expected
        try:
            evaluate(BoundSpec(kind="thm2_case1", constants=c, r0_upper=1.0), 1)
            evaluated = True
        except InapplicableBound:
            evaluated = False
        assert evaluated == (c.rank_case == "full_column" and log2nk(c) is not None)

    def test_rank_one_blocks_are_rank_deficient(self):
        # an outer product's second singular value is roundoff, below the
        # RANK_RTOL cutoff, so sigma_k counts as 0
        rng = np.random.default_rng(11)
        for _ in range(400):
            a = np.outer(rng.normal(size=3), rng.normal(size=2))
            p = CompositeQuadraticProblem(
                partition=BlockPartition(1, 2), a_blocks=(a,), b=np.zeros(3),
                h=(NonsmoothTerm.zero(),))
            c = compute_constants(p)
            assert c.rank_case == "neither" and c.sigma_min == 0.0


class TestGenerators:
    def test_table1_diagonal_values(self):
        p = make_table1_diagonal_qp(2, 1.0)
        assert eval_objective(p, np.array([1.0, 1.0])) == pytest.approx(1.0)
        np.testing.assert_allclose(
            [block_gradient(p, k, np.array([1.0, 1.0]))[0] for k in range(2)], [1.0, 1.0])
        assert eval_objective(p, np.zeros(2)) == 0.0

    def test_table1_diagonal_constants(self):
        c = compute_constants(make_table1_diagonal_qp(3, 2.0))
        np.testing.assert_allclose(c.L_k, [2.0, 2.0, 2.0], rtol=1e-15)
        assert c.L == pytest.approx(2.0, rel=1e-15)

    def test_table1_full_value(self):
        # (4 / 8) * 16 = 8
        p = make_table1_full_qp(4, 4.0)
        assert eval_objective(p, np.ones(4)) == pytest.approx(8.0)

    def test_table1_full_constants_exact(self):
        # L = K makes each column sqrt(L/K) = 1, so L_k = 1 exactly
        p = make_table1_full_qp(4, 4.0)
        c = compute_constants(p)
        np.testing.assert_array_equal(c.L_k, np.full(4, 1.0))
        # the Hessian is (L/K) * ones, with spectral norm L
        np.testing.assert_array_equal(p.full_matrix().T @ p.full_matrix(), np.ones((4, 4)))
        assert c.L == pytest.approx(4.0, rel=1e-12)

    def test_table1_full_gradient_at_basis_vector(self):
        p = make_table1_full_qp(4, 4.0)
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose([block_gradient(p, k, e1)[0] for k in range(4)],
                                   np.full(4, 1.0))

    def test_table1_qp_values_match_closed_forms(self):
        # (L/2) sum_i x_i^2 and (L/(2K)) (sum_i x_i)^2
        gen = SplitMix64(23)
        diag, full = make_table1_diagonal_qp(5, 2.5), make_table1_full_qp(5, 2.5)
        for _ in range(10):
            x = gen.normal_vector(5)
            assert eval_objective(diag, x) == pytest.approx(1.25 * float(x @ x), rel=1e-12)
            assert eval_objective(full, x) == pytest.approx(0.25 * float(x.sum()) ** 2,
                                                            rel=1e-12)

    def test_toeplitz_pattern_k3(self):
        np.testing.assert_array_equal(toeplitz_matrix(3),
                                      [[1, 1, 0], [1, 1, 1], [0, 1, 1]])

    def test_toeplitz_blocks_are_scaled_columns(self):
        p, _ = make_toeplitz_instance(4)
        t = toeplitz_matrix(4)
        for k in range(4):
            np.testing.assert_allclose(p.a_blocks[k][:, 0], math.sqrt(2.0) * t[:, k])

    def test_toeplitz_start_k5(self):
        np.testing.assert_allclose(toeplitz_start(5), [1.0, 0.125, 0.75, 1.0, 1.0])

    def test_toeplitz_optimum_is_zero(self):
        p, _ = make_toeplitz_instance(6)
        assert eval_objective(p, np.zeros(6)) == 0.0

    def test_toeplitz_requires_three_blocks(self):
        with pytest.raises(ValueError):
            make_toeplitz_instance(2)

    def test_lasso_shapes_and_rank(self):
        p, x0 = make_lasso_instance(30, 20, 0.1, seed=0)
        assert p.partition.block_count == 20
        assert p.rows == 30
        assert x0.shape == (20,)
        c = compute_constants(p)
        assert c.rank_case == "full_column"

    def test_lasso_deterministic_per_seed(self):
        p1, _ = make_lasso_instance(8, 4, 0.1, seed=5)
        p2, _ = make_lasso_instance(8, 4, 0.1, seed=5)
        p3, _ = make_lasso_instance(8, 4, 0.1, seed=6)
        np.testing.assert_array_equal(p1.full_matrix(), p2.full_matrix())
        assert not np.array_equal(p1.full_matrix(), p3.full_matrix())

    def test_oracle_from_quadratic(self):
        p, _ = make_toeplitz_instance(6)
        c = compute_constants(p)
        o = oracle_from_quadratic(p, c)
        assert o.dimension == 6
        assert o.lipschitz_global == c.L
        np.testing.assert_array_equal(o.lipschitz_coordinate, c.L_k)
        np.testing.assert_array_equal(o.hessian, p.full_matrix().T @ p.full_matrix())

    def test_oracle_from_quadratic_rejects_nonsmooth(self):
        p, _ = make_lasso_instance(8, 4, 0.1, seed=1)
        with pytest.raises(ValueError):
            oracle_from_quadratic(p, compute_constants(p))


class TestLoader:
    def test_lasso_round_trip(self):
        loaded = load_problem({"kind": "lasso", "rows": 10, "block_count": 5,
                               "weight": 0.2, "seed": 3})
        direct, _ = make_lasso_instance(10, 5, 0.2, seed=3)
        np.testing.assert_array_equal(loaded.problem.full_matrix(),
                                      direct.full_matrix())

    def test_explicit_problem(self):
        spec = {
            "kind": "explicit", "block_count": 2, "block_size": 1,
            "a_blocks": [[[1.0], [0.0]], [[0.0], [1.0]]],
            "b": [1.0, 2.0],
            "h": [{"kind": "l1", "weight": 0.5}, {"kind": "box", "lo": -1, "hi": 1}],
        }
        loaded = load_problem(spec)
        assert loaded.problem.h[0].kind == "l1"
        assert loaded.problem.h[1].hi == 1.0

    def test_json_text_and_file(self, tmp_path):
        text = json.dumps({"kind": "toeplitz", "block_count": 5})
        loaded = load_problem(text)
        assert loaded.problem.partition.block_count == 5
        path = tmp_path / "problem.json"
        path.write_text(text)
        loaded2 = load_problem(str(path))
        np.testing.assert_array_equal(loaded.x0, loaded2.x0)

    def test_error_paths(self):
        with pytest.raises(FieldError, match=r"\$\.kind"):
            load_problem({"kind": "mystery"})
        with pytest.raises(FieldError, match=r"\$\.block_count"):
            load_problem({"kind": "toeplitz", "block_count": 1})
        with pytest.raises(FieldError, match=r"\$\.a_blocks\[1\]"):
            load_problem({"kind": "explicit", "block_count": 2, "block_size": 1,
                          "a_blocks": [[[1.0]], [[1.0, 2.0]]], "b": [0.0]})
        with pytest.raises(FieldError, match=r"^\$\.b: has length 0, expected 1"):
            load_problem({"kind": "explicit", "block_count": 1, "block_size": 1,
                          "a_blocks": [[[1.0]]], "b": []})
        with pytest.raises(FieldError, match=r"^\$\.a_blocks\[1\]: has 2 rows"):
            load_problem({"kind": "explicit", "block_count": 2, "block_size": 1,
                          "a_blocks": [[[1.0]], [[1.0], [2.0]]], "b": [0.0]})
        with pytest.raises(FieldError, match=r"\$\.h\[0\]"):
            load_problem({"kind": "explicit", "block_count": 1, "block_size": 1,
                          "a_blocks": [[[1.0]]], "b": [0.0],
                          "h": [{"kind": "l1", "weight": -1}]})
        with pytest.raises(FieldError, match=r"\$"):
            load_problem("not json at all {")
        with pytest.raises(FieldError, match=r"^\$\.x0\[0\]: expected a finite number, got "
                                             r"Infinity$"):
            load_problem({"kind": "explicit", "block_count": 2, "block_size": 1,
                          "a_blocks": [[[1.0]], [[2.0]]], "b": [0.0], "x0": [math.inf, 0]})
        # RFC 8259 has no NaN or Infinity, so a text holding one is not JSON
        with pytest.raises(FieldError, match=r"^\$: not valid JSON \(NaN is not a JSON number"):
            load_problem('{"kind": "explicit", "block_count": 2, "block_size": 1, '
                         '"a_blocks": [[[1.0]], [[2.0]]], "b": [0.0], "x0": [NaN, 0]}')

    @staticmethod
    def deep_spec():
        """An explicit problem with 3 blocks of 5 rows x 4 columns whose
        numbers mix ints and floats, -0.0 and ints beyond 2^63."""
        gen = SplitMix64(8)
        a_blocks = gen.normal_matrix(3, 20).reshape(3, 5, 4).tolist()
        a_blocks[1][2][3], a_blocks[2][0][0], a_blocks[0][4][1] = 7, 2 ** 63 + 1, -0.0
        a_blocks[2][4][2] = -(2 ** 70 + 1)
        return {"kind": "explicit", "block_count": 3, "block_size": 4, "a_blocks": a_blocks,
                "b": gen.normal_vector(5).tolist()[:4] + [3],
                "x0": [0] * 11 + [2 ** 64 - 1]}

    def test_numbers_read_at_once_have_the_walks_bits(self):
        spec = self.deep_spec()
        fast = load_problem(spec)
        with mock.patch.object(problems, "_plain_numbers", return_value=False):
            walked = load_problem(spec)
        for ours, theirs in zip((*fast.problem.a_blocks, fast.problem.b, fast.x0),
                                (*walked.problem.a_blocks, walked.problem.b, walked.x0)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert fast.problem.a_blocks[0][4, 1].hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("where, bad, message", [
        (("a_blocks", 2, 3, 1), True, "$.a_blocks[2][3][1]: expected a finite number, got true"),
        (("a_blocks", 2, 3, 1), "1.5",
         '$.a_blocks[2][3][1]: expected a finite number, got "1.5"'),
        (("a_blocks", 2, 3, 1), None, "$.a_blocks[2][3][1]: expected a finite number, got null"),
        (("a_blocks", 2, 3, 1), [1.0],
         "$.a_blocks[2][3][1]: expected a finite number, got a list of length 1"),
        (("a_blocks", 2, 3, 1), 10 ** 400,
         "$.a_blocks[2][3][1]: expected a finite number, got "
         "1000000000000000000000000000000000000..."),
        (("a_blocks", 2, 3, 1), math.inf,
         "$.a_blocks[2][3][1]: expected a finite number, got Infinity"),
        (("a_blocks", 2, 3, 1), math.nan,
         "$.a_blocks[2][3][1]: expected a finite number, got NaN"),
        (("a_blocks", 2, 3), [1.0, 2.0, 3.0],
         "$.a_blocks[2][3]: expected a list of 4 finite numbers, got a list of length 3"),
        (("a_blocks", 2), [[1.0] * 4] * 4, "$.a_blocks[2]: has 4 rows, a_blocks[0] has 5"),
        (("b", 4), False, "$.b[4]: expected a finite number, got false"),
        (("b", 4), -math.inf, "$.b[4]: expected a finite number, got -Infinity"),
        (("x0", 11), 2 ** 1024, "$.x0[11]: expected a finite number, got "
         "1797693134862315907729305190789024733..."),
        (("x0", 11), "0", '$.x0[11]: expected a finite number, got "0"'),
    ])
    def test_bad_deep_number_keeps_its_error(self, where, bad, message):
        spec = self.deep_spec()
        *parents, last = where
        entry = spec
        for step in parents:
            entry = entry[step]
        entry[last] = bad
        with pytest.raises(FieldError) as raised:
            load_problem(spec)
        assert str(raised.value) == message
        with mock.patch.object(problems, "_plain_numbers", return_value=False):
            with pytest.raises(FieldError) as walked:
                load_problem(spec)
        assert str(walked.value) == message

    def test_fields_are_reported_under_the_given_path(self):
        with pytest.raises(FieldError, match=r"^\$\.problem\.block_count: expected an integer "
                                             r">= 3, got 2$"):
            load_problem({"kind": "toeplitz", "block_count": 2}, "$.problem")
        with pytest.raises(FieldError, match=r"^\$\.problem\.h\[1\]\.weight: expected a "
                                             r"finite nonnegative number, got -1$"):
            load_problem({"kind": "explicit", "block_count": 2, "block_size": 1,
                          "a_blocks": [[[1.0]], [[2.0]]], "b": [0.0],
                          "h": [{"kind": "zero"}, {"kind": "l1", "weight": -1}]}, "$.problem")
        with pytest.raises(FieldError, match=r"^\$\.problem: cannot read file: "):
            load_problem("/nonexistent/problem.json", "$.problem")

    def test_table1_loader_builds_the_quadratic(self):
        for kind, make in (("table1_diag", make_table1_diagonal_qp),
                           ("table1_full", make_table1_full_qp)):
            loaded = load_problem({"kind": kind, "block_count": 4, "lipschitz": 4.0})
            np.testing.assert_array_equal(loaded.problem.full_matrix(),
                                          make(4, 4.0).full_matrix())
            np.testing.assert_array_equal(loaded.x0, np.ones(4))
            assert not hasattr(loaded, "oracle")
