"""Tests for the complexity-envelope evaluators and radius estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcd.bounds import (
    BOUND_KINDS,
    BoundSpec,
    InapplicableBound,
    beta_estimate,
    bound_report_csv,
    evaluate,
    r0_upper_estimate,
)
from blockcd.problems import (
    BlockPartition,
    CompositeQuadraticProblem,
    NonsmoothTerm,
    ProblemConstants,
    compute_constants,
    eval_objective,
    make_lasso_instance,
    make_table1_diagonal_qp,
    make_table1_full_qp,
    make_toeplitz_instance,
    oracle_from_quadratic,
    toeplitz_start,
)
from blockcd.solvers import reference_optimum


def simple_constants(k=4, n=1, L=10.0, lk=None, sigma=1.0, gamma=1.0):
    lk = np.full(k, L / 2 if lk is None else lk, dtype=float) if not isinstance(lk, np.ndarray) else lk
    return ProblemConstants(
        block_count=k, block_size=n, L=L, L_k=lk,
        L_max=float(lk.max()), L_min=float(lk.min()),
        sigma_k=np.full(k, sigma), gamma_k=np.full(k, gamma),
        sigma_min=sigma, gamma_min=gamma, rank_case="full_column")


class TestEvaluate:
    def test_gd_worked_example(self):
        # 2 * 18 * 1 / (1 + 4) = 7.2
        c = simple_constants(L=18.0)
        spec = BoundSpec(kind="gd", constants=c, r0_upper=1.0)
        assert evaluate(spec, 1) == pytest.approx(7.2)

    def test_thm1_uniform_when_radius_term_dominates(self):
        # with delta0 below the radius term the bound is exactly
        # 12 log^2(2NK) L R0^2 / (r+1)
        c = simple_constants(k=5, n=1, L=3.0)
        log_sq = math.log(2 * 1 * 5) ** 2
        r0 = 2.0
        spec = BoundSpec(kind="thm1_uniform", constants=c, r0_upper=r0,
                         delta0=4.0 * log_sq * 3.0 * r0 ** 2 * 0.5)
        for r in (1, 2, 10):
            assert evaluate(spec, r) == pytest.approx(
                12.0 * log_sq * 3.0 * r0 ** 2 / (r + 1), rel=1e-15)

    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_prior_beck_to_coro1_ratio_exact(self, k):
        # P_k = L and L_k = L/K: the prior bound is exactly (1+K) times the
        # new one.  L = K keeps every float operation exact.
        c = ProblemConstants(block_count=k, block_size=1, L=float(k), L_k=np.ones(k),
                             L_max=1.0, L_min=1.0)
        common = dict(constants=c, r0_upper=1.0, p_max=float(k), p_min=float(k))
        coro = BoundSpec(kind="coro1", **common)
        beck = BoundSpec(kind="prior_beck", **common)
        # power-of-two cycle indices keep the final division exact
        for r in (1, 2, 4):
            assert evaluate(beck, r) / evaluate(coro, r) == float(1 + k)
            assert evaluate(coro, r) == 4.0 * k / r
        for r in (3, 7):
            assert evaluate(beck, r) / evaluate(coro, r) == pytest.approx(
                1 + k, rel=1e-12)

    def test_all_kinds_non_increasing_and_scale_with_radius(self):
        c = simple_constants(k=6, n=2, L=7.0, sigma=0.5, gamma=0.4)
        for kind in BOUND_KINDS:
            spec1 = BoundSpec(kind=kind, constants=c, r0_upper=1.5, delta0=0.0,
                              beta=3.0, p_max=7.0, p_min=3.5)
            spec2 = BoundSpec(kind=kind, constants=c, r0_upper=3.0, delta0=0.0,
                              beta=3.0, p_max=7.0, p_min=3.5)
            values = [evaluate(spec1, r) for r in range(1, 30)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v > 0 for v in values)
            # doubling R0 quadruples the bound (delta0 = 0)
            assert evaluate(spec2, 5) == pytest.approx(4.0 * evaluate(spec1, 5),
                                                       rel=1e-12)

    def test_inapplicable_signals(self):
        c = simple_constants(sigma=0.0)
        with pytest.raises(InapplicableBound, match="sigma_min"):
            evaluate(BoundSpec(kind="thm2_case1", constants=c, r0_upper=1.0), 1)
        c_small = ProblemConstants(block_count=2, block_size=1, L=1.0,
                                   L_k=np.ones(2), L_max=1.0, L_min=1.0)
        with pytest.raises(InapplicableBound, match="K\\*N"):
            evaluate(BoundSpec(kind="thm1_uniform", constants=c_small,
                               r0_upper=1.0), 1)
        with pytest.raises(InapplicableBound, match="p_max"):
            evaluate(BoundSpec(kind="thm3", constants=c_small, r0_upper=1.0,
                               beta=1.0), 1)
        with pytest.raises(InapplicableBound, match="gamma"):
            evaluate(BoundSpec(kind="thm2_case2",
                               constants=simple_constants(gamma=0.0),
                               r0_upper=1.0), 1)

    def test_cycle_index_must_be_positive(self):
        spec = BoundSpec(kind="gd", constants=simple_constants(), r0_upper=1.0)
        with pytest.raises(ValueError):
            evaluate(spec, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundSpec(kind="thm9", constants=simple_constants(), r0_upper=1.0)

    def test_array_of_cycles_rejects_an_index_below_one(self):
        spec = BoundSpec(kind="gd", constants=simple_constants(), r0_upper=1.0)
        with pytest.raises(ValueError):
            evaluate(spec, np.array([3, 0, 5]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(BOUND_KINDS))
    def test_array_matches_scalar_bit_for_bit(self, data, kind):
        # every kind is a constant over (r + shift), so each entry of the
        # array form has the scalar call's bits
        positive = st.floats(1e-6, 1e6)
        nonnegative = st.sampled_from([0.0]) | positive
        k = data.draw(st.integers(1, 40))
        lk = np.array(data.draw(st.lists(nonnegative, min_size=k, max_size=k)))
        sigma, gamma = data.draw(nonnegative), data.draw(nonnegative)
        constants = ProblemConstants(
            block_count=k, block_size=data.draw(st.integers(1, 4)),
            L=max(data.draw(positive), float(lk.max())), L_k=lk,
            L_max=float(lk.max()), L_min=float(lk.min()),
            sigma_k=np.full(k, sigma), gamma_k=np.full(k, gamma),
            sigma_min=sigma, gamma_min=gamma)
        spec = BoundSpec(kind=kind, constants=constants, r0_upper=data.draw(nonnegative),
                         delta0=data.draw(nonnegative),
                         beta=data.draw(st.none() | nonnegative),
                         c_prior=data.draw(positive),
                         p_max=data.draw(st.none() | positive),
                         p_min=data.draw(st.none() | nonnegative))
        cycles = np.array(data.draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=20)))
        try:
            expected = np.array([evaluate(spec, int(r)) for r in cycles])
        except InapplicableBound:
            with pytest.raises(InapplicableBound):
                evaluate(spec, cycles)
            return
        actual = evaluate(spec, cycles)
        assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


def smooth_view(p):
    return oracle_from_quadratic(p, compute_constants(p))


class TestBetaEstimate:
    def test_uniform_coordinate_constants(self):
        # L_k = L: the Frobenius route gives K L, the row route sqrt(K) L
        est = beta_estimate(smooth_view(make_table1_diagonal_qp(9, 2.0)))
        assert est.estimate == pytest.approx(3.0 * 2.0)  # sqrt(9) * L
        assert est.exact == pytest.approx(0.0, abs=1e-12)  # diagonal Hessian

    def test_small_coordinate_constants(self):
        # L_k = L/K: sum L_k = L wins for K >= 1
        est = beta_estimate(smooth_view(make_table1_full_qp(16, 2.0)))
        assert est.estimate == pytest.approx(2.0)
        assert est.exact <= est.estimate

    @pytest.mark.parametrize("k", [2, 10, 100])
    @pytest.mark.parametrize("flavor", ["diag", "full"])
    def test_exact_below_estimate_on_all_builtins(self, k, flavor):
        maker = make_table1_diagonal_qp if flavor == "diag" else make_table1_full_qp
        est = beta_estimate(smooth_view(maker(k, 3.0)))
        assert est.exact <= est.estimate * (1 + 1e-12)


class TestRadiusEstimate:
    def test_strongly_convex_scalar(self):
        # g = x^2/2 from x0 = 3: delta0 = 4.5, mu = 1, radius max(3, 3) = 3
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1), a_blocks=(np.eye(1),), b=np.zeros(1),
            h=(NonsmoothTerm.zero(),))
        c = compute_constants(p)
        est = r0_upper_estimate(p, np.array([3.0]), 4.5, np.zeros(1), 0.0, c)
        assert est.value == pytest.approx(3.0, rel=1e-12)
        assert est.certified

    def test_start_at_optimum_is_zero(self):
        p = make_table1_diagonal_qp(3, 2.0)
        c = compute_constants(p)
        est = r0_upper_estimate(p, np.zeros(3), eval_objective(p, np.zeros(3)),
                                np.zeros(3), 0.0, c)
        assert est.value == 0.0
        assert est.certified

    def test_toeplitz_initial_distance(self):
        # ||x0 - 0||^2 = K - 2 + 1/64 + 9/16
        k = 10
        x0 = toeplitz_start(k)
        assert float(x0 @ x0) == pytest.approx(k - 2 + 1 / 64 + 9 / 16, rel=1e-15)

    def test_box_route(self):
        p = CompositeQuadraticProblem(
            partition=BlockPartition(2, 3),
            a_blocks=(np.ones((2, 3)), np.ones((2, 3))),
            b=np.zeros(2),
            h=(NonsmoothTerm.box(-1.0, 1.0), NonsmoothTerm.box(0.0, 1.0)))
        c = compute_constants(p)
        est = r0_upper_estimate(p, np.zeros(6), eval_objective(p, np.zeros(6)),
                                np.zeros(6), 0.0, c)
        assert est.certified
        assert est.method == "box diameter"
        assert est.value == pytest.approx(math.sqrt(3 * 4 + 3 * 1))

    def test_l1_route(self):
        p, x0 = make_lasso_instance(4, 8, 0.5, seed=1)  # fat: mu = 0
        c = compute_constants(p)
        ref = reference_optimum(p, c)
        est = r0_upper_estimate(p, x0, eval_objective(p, x0), ref.x_star, ref.f_star, c)
        assert est.certified
        assert est.method == "l1 coercivity"
        f0 = 0.5 * float(p.b @ p.b)
        assert est.value == pytest.approx(2.0 * f0 / 0.5, rel=1e-12)

    def test_strong_convexity_route_for_tall_lasso(self):
        p, x0 = make_lasso_instance(30, 20, 0.1, seed=0)
        c = compute_constants(p)
        ref = reference_optimum(p, c)
        est = r0_upper_estimate(p, x0, eval_objective(p, x0), ref.x_star, ref.f_star, c)
        assert est.certified
        assert est.method == "strong-convexity level set"

    @pytest.mark.parametrize("term", [NonsmoothTerm.box(-1e308, 1e308), NonsmoothTerm.l1(1e-310)],
                             ids=["box", "l1"])
    def test_overflowing_route_certifies_nothing(self, term):
        # the box diameter and the l1 coercivity radius overflow to inf;
        # a certified radius is finite, so the heuristic one takes over
        p = CompositeQuadraticProblem(
            partition=BlockPartition(3, 1),
            a_blocks=(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), np.ones((2, 1))),
            b=np.array([1.0, 2.0]), h=(term,) * 3)
        x0 = np.zeros(3)
        est = r0_upper_estimate(p, x0, eval_objective(p, x0), np.ones(3), 0.0,
                                compute_constants(p))
        assert (est.certified, est.method) == (False, "heuristic iterate radius")
        assert est.value == 2.0 * math.sqrt(3.0)

    def test_heuristic_route_flagged(self):
        # smooth, rank deficient, unconstrained: nothing certifies the level set
        a = np.outer(np.ones(3), np.ones(2))
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 2), a_blocks=(a,), b=np.zeros(3),
            h=(NonsmoothTerm.zero(),))
        c = compute_constants(p)
        est = r0_upper_estimate(p, np.ones(2), eval_objective(p, np.ones(2)),
                                np.zeros(2), 0.0, c)
        assert not est.certified
        assert est.value == pytest.approx(2.0 * math.sqrt(2.0))

    def test_mu_is_the_gram_minimum_eigenvalue(self):
        # the radius reads mu from the constants' one eigensolve of A^T A,
        # bit for bit what a separate eigensolve gives
        problems = [make_toeplitz_instance(10)[0], make_table1_diagonal_qp(5, 2.0),
                    make_lasso_instance(30, 20, 0.1, seed=0)[0],
                    make_lasso_instance(4, 8, 0.5, seed=1)[0]]
        for p in problems:
            full = p.full_matrix()
            assert compute_constants(p).mu == float(np.linalg.eigvalsh(full.T @ full)[0])


class TestBoundReportCSV:
    def test_small_problem_emits_empty_log_columns(self, tmp_path):
        c = ProblemConstants(block_count=2, block_size=1, L=1.0,
                             L_k=np.ones(2), L_max=1.0, L_min=1.0)
        specs = [("gd", BoundSpec(kind="gd", constants=c, r0_upper=1.0)),
                 ("thm1_uniform", BoundSpec(kind="thm1_uniform", constants=c,
                                            r0_upper=1.0))]
        path = tmp_path / "bounds.csv"
        bound_report_csv(specs, 3, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "cycle,gd,thm1_uniform"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] != ""
            assert cells[2] == ""

    def test_values_round_trip(self, tmp_path):
        p, _ = make_toeplitz_instance(6)
        c = compute_constants(p)
        spec = BoundSpec(kind="thm2_scalar", constants=c, r0_upper=2.0, delta0=1.0)
        path = tmp_path / "bounds.csv"
        bound_report_csv([("b", spec)], 5, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        for r, line in enumerate(lines, start=1):
            assert float(line.split(",")[1]) == evaluate(spec, r)
