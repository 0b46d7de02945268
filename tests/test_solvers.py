"""Tests for the four solvers and trajectory recording."""

import math
import re
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockcd.linalg import RANK_RTOL, least_squares_min_norm
from blockcd.problems import (
    BlockPartition,
    CompositeQuadraticProblem,
    NonsmoothTerm,
    compute_constants,
    duality_gap,
    eval_objective,
    make_lasso_instance,
    make_table1_diagonal_qp,
    make_table1_full_qp,
    make_toeplitz_instance,
    prox_blocks,
    smooth_value,
    sparse_rows,
    SPARSE_ROW_NONZEROS,
)
from blockcd import battery, linalg, solvers
from blockcd.rng import SplitMix64
from blockcd.solvers import (
    ORDER_KINDS,
    BlockOrder,
    SolverRun,
    StepsizePolicy,
    reference_optimum,
    run_bcd_exact,
    run_bcpg,
    run_cgd,
    run_gd,
    run_lockstep,
    trajectory_to_csv,
)
from oracles import (
    assert_finished,
    block_objective,
    block_prox_gradient_min,
    nonsmooth_value,
    piecewise_quadratic_argmin,
    recorded_visits,
    replay_block_sweeps,
    replay_coordinate_sweeps,
    replay_scalar_sweeps,
)


def random_quadratic(seed, rows=9, blocks=6):
    """Seeded scalar-block smooth quadratic (no nonsmooth terms)."""
    gen = SplitMix64(seed)
    a = gen.normal_matrix(rows, blocks)
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(blocks, 1),
        a_blocks=tuple(a[:, [i]] for i in range(blocks)),
        b=gen.normal_vector(rows),
        h=tuple(NonsmoothTerm.zero() for _ in range(blocks)))
    return problem, gen.normal_vector(blocks)


class TestPolicies:
    def test_exact_bcd_accepts_zero_weights_on_zero_columns(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        p = CompositeQuadraticProblem(
            partition=BlockPartition(3, 1), a_blocks=tuple(a[:, [i]] for i in range(3)),
            b=np.array([1.0, 2.0]), h=tuple(NonsmoothTerm.zero() for _ in range(3)))
        c = compute_constants(p)
        assert c.L_k[1] == 0.0
        np.testing.assert_array_equal(
            SolverRun(algorithm="exact_bcd").realize_stepsizes(c), c.L_k)
        for algorithm in ("bcpg", "cgd"):
            with pytest.raises(ValueError, match="finite and positive"):
                SolverRun(algorithm=algorithm).realize_stepsizes(c)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            StepsizePolicy.fixed([1.0, -1e-300, 2.0]).realize(c, positive=False)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=3),
                          np.array([0.0, 5.0, 0.0]), c)
        np.testing.assert_array_equal(t.stepsizes, c.L_k)
        assert t.xs[1][1] == 0.0 and t.weighted_movement[0] == pytest.approx(
            math.sqrt(c.L_k[0] * t.xs[1][0] ** 2 + c.L_k[2] * t.xs[1][2] ** 2))

    def test_negative_zero_weights_move_plus_zero(self):
        # P_k = -0.0 is accepted on zero columns; a movement sum runs from
        # +0.0, so a cycle whose every term is -0.0 records +0.0, not -0.0
        p = CompositeQuadraticProblem(
            partition=BlockPartition(2, 1), a_blocks=(np.zeros((1, 1)),) * 2,
            b=np.ones(1), h=(NonsmoothTerm.zero(),) * 2)
        run = SolverRun(algorithm="exact_bcd", stepsizes=StepsizePolicy.fixed([-0.0, -0.0]),
                        max_cycles=2)
        t = run_bcd_exact(p, run, np.ones(2), compute_constants(p))
        assert t.xs[1].tolist() == [0.0, 0.0]
        assert t.weighted_movement.tobytes() == np.zeros(2).tobytes()

    def test_realized_values(self):
        p, _ = make_toeplitz_instance(6)
        c = compute_constants(p)
        np.testing.assert_allclose(StepsizePolicy.global_l().realize(c),
                                   np.full(6, c.L))
        np.testing.assert_allclose(StepsizePolicy.block_lk().realize(c), c.L_k)

    def test_fixed_below_block_constant_rejected(self):
        p, _ = make_toeplitz_instance(6)
        c = compute_constants(p)
        with pytest.raises(ValueError, match="below the block"):
            StepsizePolicy.fixed([1.0] * 6).realize(c)
        # exactly the block constants are accepted
        StepsizePolicy.fixed(list(c.L_k)).realize(c)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                StepsizePolicy.fixed([bad] * 6).realize(c)

    def test_order_stream_determinism(self):
        order = BlockOrder.random_permutation(42)
        s1 = order.stream(7)
        s2 = order.stream(7)
        for _ in range(10):
            assert next(s1) == next(s2)

    def test_sampled_with_replacement_rejected(self):
        # K draws with replacement can skip a block within a cycle, so no
        # per-cycle result of the paper covers that order
        assert ORDER_KINDS == ("cyclic", "random_permutation")
        with pytest.raises(ValueError, match="unknown block order"):
            BlockOrder("sampled_with_replacement", seed=3)


class TestBCPG:
    def test_separable_one_cycle_to_zero(self):
        # with P_k = L each scalar step is an exact Newton step
        qp = make_table1_diagonal_qp(4, 2.0)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=1)
        t = run_bcpg(qp, run, np.array([1.0, -2.0, 0.5, 3.0]), compute_constants(qp))
        np.testing.assert_array_equal(t.xs[1], np.zeros(4))

    def test_zero_term_reduces_to_gradient_step(self):
        p, x0 = random_quadratic(100)
        c = compute_constants(p)
        run = SolverRun(algorithm="bcpg", max_cycles=1)
        t = run_bcpg(p, run, x0, constants=c)
        # replay the sweep by hand
        x = x0.copy()
        full = p.full_matrix()
        for k in range(6):
            res = full @ x - p.b
            grad = p.a_blocks[k].T @ res
            x[k] = x[k] - grad[0] / c.L_k[k]
        np.testing.assert_allclose(t.xs[1], x, atol=1e-14)

    def test_matches_exact_bcd_on_toeplitz(self):
        p, x0 = make_toeplitz_instance(10)
        c = compute_constants(p)
        t1 = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=30), x0, constants=c)
        t2 = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=30),
                           x0, constants=c)
        assert np.abs(t1.xs - t2.xs).max() <= 1e-12

    def test_infeasible_start_rejected(self):
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1), a_blocks=(np.array([[1.0]]),),
            b=np.zeros(1), h=(NonsmoothTerm.box(-1.0, 1.0),))
        with pytest.raises(ValueError, match="box"):
            run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=1), np.array([2.0]),
                     compute_constants(p))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, value):
        # all four solvers share the start check
        p, x0 = make_lasso_instance(4, 2, 0.1, seed=1)
        x0[1] = value
        for solver, algorithm in ((run_bcpg, "bcpg"), (run_bcd_exact, "exact_bcd")):
            with pytest.raises(ValueError, match="x0 has non-finite entries"):
                solver(p, SolverRun(algorithm=algorithm, max_cycles=1), x0,
                       compute_constants(p))
        smooth = make_table1_diagonal_qp(2, 2.0)
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            run_cgd(smooth, SolverRun(algorithm="cgd", max_cycles=1), x0[:2],
                    compute_constants(smooth))
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            run_gd(smooth, SolverRun(algorithm="gd", max_cycles=1), x0[:2],
                   compute_constants(smooth))

    def test_optimality_condition_probe(self):
        # at every block step, rebuilt from the recorded cycles, for random
        # directions u: <grad + P (new - old), u - new> + h(u) - h(new) >= 0
        # with grad the block gradient before the step, recomputed here
        p, x0 = make_lasso_instance(12, 6, 0.3, seed=2)
        c = compute_constants(p)
        t = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=5), x0, constants=c)
        full = p.full_matrix()
        gen = SplitMix64(55)
        for k, x, new in recorded_visits(p, t.xs, t.orders):
            term = p.h[k]
            p_k = t.stepsizes[k]
            old = x[p.block_slice(k)]
            grad = p.a_blocks[k].T @ (full @ x - p.b)
            for _ in range(10):
                u = 3.0 * gen.normal_vector(1)
                inner = float((grad + p_k * (new - old)) @ (u - new))
                gap = inner + nonsmooth_value(term, u) - nonsmooth_value(term, new)
                assert gap >= -1e-8 * max(1.0, abs(inner))

    def test_gap_tolerance_stops_early(self):
        qp = make_table1_diagonal_qp(4, 2.0)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=50, gap_tolerance=1e-12)
        t = run_bcpg(qp, run, np.ones(4), compute_constants(qp), f_star=0.0)
        assert t.cycles == 1  # separable case converges in one cycle

    @pytest.mark.parametrize("algorithm, tolerance", [
        ("bcpg", 1e-6), ("exact_bcd", 1e-8), ("cgd", 1e-3), ("gd", 1e-6)])
    def test_gap_tolerance_stops_between_evaluations(self, algorithm, tolerance):
        # the values are evaluated every GAP_CHECK_EVERY cycles; the run
        # still ends on the first iterate within the tolerance, and its
        # iterates are those of the same run without a tolerance
        p, x0 = make_toeplitz_instance(5)
        c = compute_constants(p)
        f_star = reference_optimum(p, c).f_star
        solve = {"bcpg": run_bcpg, "exact_bcd": run_bcd_exact, "cgd": run_cgd, "gd": run_gd}
        run = SolverRun(algorithm=algorithm, max_cycles=1000, gap_tolerance=tolerance)
        t = solve[algorithm](p, run, x0, c, f_star=f_star)
        assert t.cycles % solvers.GAP_CHECK_EVERY != 0
        assert t.gap[-1] <= tolerance and (t.gap[1:-1] > tolerance).all()
        assert t.xs.shape[0] == t.f.shape[0] == t.grad_norm.shape[0] == t.cycles + 1
        assert len(t.orders) == t.weighted_movement.shape[0] == t.cycles
        full = solve[algorithm](p, replace(run, max_cycles=t.cycles + 20, gap_tolerance=0.0),
                                x0, c)
        assert_same_bits(t.xs, full.xs[:t.cycles + 1])
        assert_same_bits(t.weighted_movement, full.weighted_movement[:t.cycles])
        assert_close(t.f, full.f[:t.cycles + 1])

    def test_history_grows_with_the_run_not_max_cycles(self):
        # a cap of 10^9 cycles allocates nothing in proportion to it
        p, x0 = make_toeplitz_instance(5)
        c = compute_constants(p)
        f_star = reference_optimum(p, c).f_star
        run = SolverRun(algorithm="bcpg", max_cycles=10**9, gap_tolerance=1e-6)
        tracemalloc.start()
        try:
            t = run_bcpg(p, run, x0, c, f_star=f_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.cycles == 14 and t.f[-1] - f_star <= 1e-6 < t.f[-2] - f_star
        assert peak < 200_000

    def test_determinism_bit_identical(self):
        p, x0 = make_lasso_instance(12, 6, 0.1, seed=9)
        run = SolverRun(algorithm="bcpg", max_cycles=20,
                        order=BlockOrder.random_permutation(5))
        t1 = run_bcpg(p, run, x0, compute_constants(p))
        t2 = run_bcpg(p, run, x0, compute_constants(p))
        np.testing.assert_array_equal(t1.xs, t2.xs)
        np.testing.assert_array_equal(t1.f, t2.f)


class TestExactBCD:
    def test_toeplitz_one_pass_values(self):
        p, x0 = make_toeplitz_instance(10)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=1), x0,
                          compute_constants(p))
        expected = np.array([-0.5] * 8 + [-1.0 / 6.0, 5.0 / 12.0])
        np.testing.assert_allclose(t.xs[1], expected, atol=1e-12)

    def test_single_block_reaches_optimum_in_one_cycle(self):
        gen = SplitMix64(41)
        a = gen.normal_matrix(6, 3)
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 3), a_blocks=(a,),
            b=gen.normal_vector(6), h=(NonsmoothTerm.zero(),))
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=1),
                          np.zeros(3), compute_constants(p))
        expected = np.linalg.lstsq(a, p.b, rcond=None)[0]
        np.testing.assert_allclose(t.xs[1], expected, atol=1e-10)

    def test_scalar_l1_step_matches_bracketing_oracle(self):
        # rebuild each step from the recorded cycles and compare it with an
        # independent piecewise-quadratic minimizer
        p, x0 = make_lasso_instance(8, 4, 0.4, seed=6)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=2), x0,
                          compute_constants(p))
        full = p.full_matrix()
        for k, x, new in recorded_visits(p, t.xs, t.orders):
            rest = full @ x - p.b - p.a_blocks[k][:, 0] * x[k]

            def phi(z):
                return (0.5 * float(np.sum((p.a_blocks[k][:, 0] * z + rest) ** 2))
                        + nonsmooth_value(p.h[k], np.array([z])))

            best = piecewise_quadratic_argmin(phi, -10.0, 10.0)
            assert new[0] == pytest.approx(best, abs=1e-8)
            assert phi(new[0]) <= phi(best) + 1e-12

    def test_rank_deficient_block_min_norm_selection(self):
        # rank-1 block with no nonsmooth term: among minimizers, the
        # minimum-norm one is chosen
        gen = SplitMix64(43)
        a = np.outer(gen.normal_vector(4), gen.normal_vector(2))
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 2), a_blocks=(a,),
            b=gen.normal_vector(4), h=(NonsmoothTerm.zero(),))
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=1),
                          np.zeros(2), compute_constants(p))
        x1 = t.xs[1]
        _, _, vt = np.linalg.svd(a)
        null_dir = vt[1]
        # same objective along the nullspace, larger norm
        assert eval_objective(p, x1 + 0.5 * null_dir) == pytest.approx(
            eval_objective(p, x1), rel=1e-10)
        assert np.linalg.norm(x1 + 0.5 * null_dir) > np.linalg.norm(x1)

    def test_zero_scalar_column_takes_point_nearest_zero(self):
        # a zero column leaves h_k alone: the minimum-norm minimizer is 0,
        # or the box point closest to 0
        a = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        p = CompositeQuadraticProblem(
            partition=BlockPartition(3, 1), a_blocks=tuple(a[:, [i]] for i in range(3)),
            b=np.array([1.0, 1.0]),
            h=(NonsmoothTerm.zero(), NonsmoothTerm.box(0.5, 1.0), NonsmoothTerm.zero()))
        run = SolverRun(algorithm="exact_bcd", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=1)
        t = run_bcd_exact(p, run, np.array([3.0, 0.75, 0.0]), compute_constants(p))
        np.testing.assert_allclose(t.xs[1], [0.0, 0.5, 0.6], atol=1e-15)

    def test_box_constrained_block_loop(self):
        # N > 1 with a box term exercises the active-set solve
        gen = SplitMix64(47)
        a = gen.normal_matrix(3, 2)
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 2), a_blocks=(a,),
            b=gen.normal_vector(3) + 4.0, h=(NonsmoothTerm.box(-0.5, 0.5),))
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=3),
                          np.zeros(2), compute_constants(p))
        x1 = t.xs[-1]
        assert np.all(np.abs(x1) <= 0.5 + 1e-12)
        # exact minimizer: projected-gradient fixed point
        grad = a.T @ (a @ x1 - p.b)
        fixed = np.clip(x1 - grad, -0.5, 0.5)
        np.testing.assert_allclose(fixed, x1, atol=1e-9)


@st.composite
def exact_block_cases(draw):
    """One block solve: A with N <= 4 columns and rank 0..N (a product of
    an m x r and an r x N factor: r = 0 is the all-zero block, r = 1 a
    rank-one block), a rest vector, a term of any kind and a start in its
    domain."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    cells = st.integers(-3, 3).map(lambda v: v / 2.0) | st.floats(-3.0, 3.0)
    # factor entries are 0 or at least 1e-100 in size: with subnormal
    # entries the minimizer itself can exceed the largest double
    # (test_solution_scales_with_the_data covers data near both ends)
    factor_cells = cells.filter(lambda v: v == 0.0 or abs(v) >= 1e-100)

    def matrix(r, c):
        return np.array(draw(st.lists(factor_cells, min_size=r * c,
                                      max_size=r * c))).reshape(r, c)

    a = matrix(rows, rank) @ matrix(rank, n)
    rest = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)))
    kind = draw(st.sampled_from(["zero", "l1", "group_l2", "box"]))
    if kind == "box":
        lo = draw(st.integers(-4, 2)) / 2.0
        term = NonsmoothTerm.box(lo, lo + draw(st.sampled_from([0.0, 0.5, 2.0])))
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        current = term.lo + (term.hi - term.lo) * np.array(fractions)
    else:
        term = NonsmoothTerm(kind, weight=draw(st.sampled_from([0.0, 0.1, 0.7, 2.0])))
        current = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    return a, rest, term, current


# KKT residuals are measured relative to the gradient's scale
# |A| (|A| |z| + |rest|) + w, with |.| the sum of magnitudes; rounding and
# the RANK_RTOL = 1e-9 cut of tiny singular values keep them near 1e-9 of
# it at worst.
KKT_RTOL = 1e-8


def kkt_residual(a, rest, term, z):
    """The largest violation of the optimality conditions of
    min 1/2 ||A z + rest||^2 + h(z) at z, relative to the gradient's scale.

    The problem is first divided by sigma_max(A)^2 (A and rest by
    sigma_max, w by its square), which keeps its minimizers and keeps
    every product below inside the range of doubles."""
    weight = term.weight if term.kind in ("l1", "group_l2") else 0.0
    top = float(np.linalg.norm(a, 2))
    if top > 0.0:
        a, rest, weight = a / top, rest / top, weight / top / top
    if weight == math.inf:
        return 0.0 if not z.any() else math.inf
    grad = a.T @ (a @ z + rest)
    size = float(np.abs(a).sum())
    scale = max(size * (size * float(np.abs(z).sum()) + float(np.abs(rest).sum())) + weight,
                1e-300)
    if term.kind == "zero":
        return float(np.abs(grad).max()) / scale
    if term.kind == "group_l2":
        if not z.any():
            return max(0.0, float(np.linalg.norm(grad)) - weight) / scale
        direction = z / np.abs(z).max()
        return float(np.linalg.norm(grad + weight * direction / np.linalg.norm(direction))) / scale
    if term.kind == "l1":
        moved = np.abs(grad + weight * np.sign(z))
        still = np.maximum(np.abs(grad) - weight, 0.0)
        return float(np.where(z != 0.0, moved, still).max()) / scale
    assert np.all(z >= term.lo) and np.all(z <= term.hi)
    if term.lo == term.hi:
        return 0.0
    wrong = np.where(z == term.lo, -grad, np.where(z == term.hi, grad, np.abs(grad)))
    return max(0.0, float(wrong.max())) / scale


def rank_cut_slack(a, rest, z):
    """A bound on |f(z) - f~(z)|, where f~ replaces A by a matrix within
    RANK_RTOL sigma_max(A) of it, as the solves do when they treat tiny
    singular values as zero: a point that is exact for f~ may trail any
    other point by the sum of this bound at the two points."""
    shift = RANK_RTOL * float(np.linalg.norm(a, 2)) * float(np.linalg.norm(z))
    return shift * (float(np.linalg.norm(a @ z + rest)) + shift)


class TestExactBlockSolve:
    """The finite exact block solve against the optimality conditions and a
    long proximal-gradient run."""

    @settings(max_examples=200, deadline=None)
    @given(case=exact_block_cases())
    def test_kkt_and_no_worse_than_proximal_gradient(self, case):
        a, rest, term, current = case
        block = solvers._ExactBlock.of(a, term)
        z = solvers._exact_block_minimize(block, rest, current.copy())
        assert z.shape == current.shape and np.isfinite(z).all()
        assert kkt_residual(a, rest, term, z) <= KKT_RTOL
        value = block_objective(a, rest, term, z)
        reference = block_prox_gradient_min(a, rest, term, current)
        slack = (1e-12 * max(1.0, abs(value)) + rank_cut_slack(a, rest, z)
                 + rank_cut_slack(a, rest, reference))
        assert value <= block_objective(a, rest, term, reference) + slack
        # a second solve from the answer, through the cached faces, is as good
        again = solvers._exact_block_minimize(block, rest, z.copy())
        assert block_objective(a, rest, term, again) <= value + slack

    def test_all_zero_block_takes_the_point_nearest_zero(self):
        a = np.zeros((3, 2))
        for term, expected in ((NonsmoothTerm.box(0.5, 1.0), [0.5, 0.5]),
                               (NonsmoothTerm.l1(0.3), [0.0, 0.0]),
                               (NonsmoothTerm.group_l2(0.3), [0.0, 0.0]),
                               (NonsmoothTerm.zero(), [0.0, 0.0])):
            z = solvers._exact_block_minimize(solvers._ExactBlock.of(a, term),
                                              np.ones(3), np.array([0.75, 0.9]))
            np.testing.assert_array_equal(z, expected)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    @pytest.mark.parametrize("kind", ["zero", "l1", "group_l2", "box"])
    def test_solution_scales_with_the_data(self, kind, scale):
        # rest, w and the box scaled by s scale the minimizer by s, also
        # where ||rest||^2 would leave the range of doubles
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        rest = np.array([1.0, -2.0, 0.5])

        def solve(factor):
            term = (NonsmoothTerm.box(-0.5 * factor, 0.5 * factor) if kind == "box"
                    else NonsmoothTerm(kind, weight=0.5 * factor))
            return solvers._exact_block_minimize(solvers._ExactBlock.of(a, term),
                                                 rest * factor, np.zeros(2))

        np.testing.assert_allclose(solve(scale) / scale, solve(1.0), rtol=1e-12)

    def test_rank_one_box_block_tie_break(self):
        # A z = z_0 + 2 z_1, so every point of the box [0, 0.7]^2 with
        # z_0 + 2 z_1 = 2 is a minimizer.  The minimum-norm one, (0.4, 0.8),
        # leaves the box, so the active set decides from the current block.
        a = np.array([[1.0, 2.0]])
        rest = np.array([-2.0])
        block = solvers._ExactBlock.of(a, NonsmoothTerm.box(0.0, 0.7))
        z = solvers._exact_block_minimize(block, rest, np.array([0.1, 0.2]))
        np.testing.assert_allclose(z, [0.6, 0.7], atol=1e-15)
        z = solvers._exact_block_minimize(block, rest, np.array([0.7, 0.0]))
        np.testing.assert_allclose(z, [0.7, 0.65], atol=1e-15)
        # in a box that holds it, the minimum-norm minimizer is taken
        block = solvers._ExactBlock.of(a, NonsmoothTerm.box(0.0, 1.0))
        z = solvers._exact_block_minimize(block, rest, np.array([0.7, 0.0]))
        np.testing.assert_allclose(z, [0.4, 0.8], atol=1e-15)

    @pytest.mark.parametrize("term", [NonsmoothTerm.zero(), NonsmoothTerm.l1(0.8),
                                      NonsmoothTerm.group_l2(1.5),
                                      NonsmoothTerm.box(-0.3, 0.3)],
                             ids=lambda term: term.kind)
    def test_one_block_problem_reaches_f_star_in_one_cycle(self, term):
        gen = SplitMix64(53)
        a = gen.normal_matrix(7, 3)
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 3), a_blocks=(a,),
            b=gen.normal_vector(7) * 3.0, h=(term,))
        x0 = np.zeros(3)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=2), x0,
                          compute_constants(p))
        # a is full column rank, so the objective is strongly convex and the
        # long proximal-gradient run reaches f* to rounding
        f_star = block_objective(a, -p.b, term, block_prox_gradient_min(a, -p.b, term, x0))
        assert t.f[1] == pytest.approx(f_star, rel=1e-12, abs=1e-12)
        assert t.f[2] == pytest.approx(t.f[1], rel=1e-13, abs=1e-13)


class TestCGD:
    def test_chain_first_coordinate(self):
        # fully coupled case: d_1 = (L/K) sum(x) = 4 and the step zeroes x_1
        qp = make_table1_full_qp(4, 4.0)
        run = SolverRun(algorithm="cgd", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=1)
        t = run_cgd(qp, run, np.ones(4), compute_constants(qp))
        assert t.xs[1][0] == pytest.approx(1.0 - 4.0 / 4.0)

    def test_chain_matches_scripted_pass(self):
        qp = make_table1_full_qp(4, 4.0)
        run = SolverRun(algorithm="cgd", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=3)
        t = run_cgd(qp, run, np.ones(4), compute_constants(qp))
        # independent scripted chain
        x = np.ones(4)
        for _ in range(3):
            for k in range(4):
                x[k] -= (4.0 / 4.0) * x.sum() / 4.0
        np.testing.assert_allclose(t.xs[-1], x, atol=1e-14)

    def test_equals_bcpg_on_quadratic(self):
        p, x0 = random_quadratic(300)
        c = compute_constants(p)
        t_cgd = run_cgd(p, SolverRun(algorithm="cgd", max_cycles=20), x0, c)
        t_bcpg = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=20), x0,
                          constants=c)
        assert np.abs(t_cgd.xs - t_bcpg.xs).max() <= 1e-12

    def test_stationary_start_is_fixed(self):
        qp = make_table1_diagonal_qp(3, 1.5)
        t = run_cgd(qp, SolverRun(algorithm="cgd", max_cycles=5), np.zeros(3),
                    compute_constants(qp))
        np.testing.assert_array_equal(t.xs[-1], np.zeros(3))
        assert t.f[-1] == 0.0

    def test_rejects_nonsmooth_and_vector_blocks(self):
        p, x0 = make_lasso_instance(8, 4, 0.1, seed=11)
        pairs = CompositeQuadraticProblem(
            partition=BlockPartition(2, 2), a_blocks=(np.eye(4)[:, :2], np.eye(4)[:, 2:]),
            b=np.ones(4), h=(NonsmoothTerm.zero(), NonsmoothTerm.zero()))
        for problem, start in ((p, x0), (pairs, np.zeros(4))):
            with pytest.raises(ValueError, match="scalar blocks"):
                run_cgd(problem, SolverRun(algorithm="cgd", max_cycles=1), start,
                        compute_constants(problem))


class TestGD:
    def test_one_dimensional_one_step(self):
        qp = make_table1_diagonal_qp(1, 3.0)  # g = (3/2) x^2, step 1/3
        t = run_gd(qp, SolverRun(algorithm="gd", max_cycles=1), np.array([2.0]),
                   compute_constants(qp))
        assert t.xs[1][0] == pytest.approx(0.0, abs=1e-15)

    def test_monotone_descent(self):
        qp = make_table1_full_qp(10, 4.0)
        p, x0 = make_toeplitz_instance(8)
        for target, x0 in ((qp, np.ones(10)), (p, x0)):
            t = run_gd(target, SolverRun(algorithm="gd", max_cycles=50), x0,
                       compute_constants(target))
            assert np.all(np.diff(t.f) <= 1e-10)

    def test_classic_envelope_fully_coupled(self):
        qp = make_table1_full_qp(10, 4.0)
        c = compute_constants(qp)
        x0 = np.ones(10)
        t = run_gd(qp, SolverRun(algorithm="gd", max_cycles=100), x0, c)
        radius_sq = float(np.sum(x0 ** 2))  # the optimum is 0
        for r in range(1, t.cycles + 1):
            bound = 2.0 * radius_sq * c.L / (r + 4)
            assert t.f[r] - 0.0 <= bound * (1 + 1e-12)

    def test_accepts_smooth_problem(self):
        p, x0 = make_toeplitz_instance(6)
        t = run_gd(p, SolverRun(algorithm="gd", max_cycles=10), x0, compute_constants(p))
        assert t.f[-1] < t.f[0]

    def test_rejects_nonsmooth(self):
        p, x0 = make_lasso_instance(8, 4, 0.1, seed=11)
        with pytest.raises(ValueError, match="smooth"):
            run_gd(p, SolverRun(algorithm="gd", max_cycles=1), x0, compute_constants(p))

    def test_one_gradient_per_iterate(self, monkeypatch):
        # every solver refreshes one residual per sweep it takes and takes f
        # and the gradient norm of all iterates from one stacked residual, and
        # its start check computes none; on table1_full_K6 cgd, bcpg and
        # exact_bcd reach an exact fixed point at cycle 3, and sweep no more
        qp = make_table1_full_qp(6, 2.0)
        c = compute_constants(qp)
        residual = CompositeQuadraticProblem.residual
        for solve, algorithm in ((run_gd, "gd"), (run_cgd, "cgd"), (run_bcpg, "bcpg"),
                                 (run_bcd_exact, "exact_bcd")):
            run = SolverRun(algorithm=algorithm, max_cycles=5)
            reference = solve(qp, run, np.ones(6), c)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(CompositeQuadraticProblem, "residual",
                              lambda p, x: calls.append(1) or residual(p, x))
                t = solve(qp, run, np.ones(6), c)
            assert t.cycles == 5
            taken = 5 if algorithm == "gd" else 3
            assert sweeps_taken(t) == taken
            assert len(calls) == taken + 1  # one before each sweep, one for all values
            assert t.grad_norm.tobytes() == reference.grad_norm.tobytes()
            assert t.f.tobytes() == reference.f.tobytes()

    def test_given_constants_are_used(self):
        # gd steps by 1/L of the constants it is given
        p, x0 = make_toeplitz_instance(6)
        doubled = replace(compute_constants(p), L=2.0 * compute_constants(p).L)
        t = run_gd(p, SolverRun(algorithm="gd", max_cycles=1), x0, doubled)
        np.testing.assert_array_equal(t.stepsizes, np.full(6, doubled.L))
        grad = p.full_matrix().T @ (p.full_matrix() @ x0 - p.b)
        assert t.xs[1].tobytes() == (x0 - grad / doubled.L).tobytes()


class TestMonotonicityEverywhere:
    @pytest.mark.parametrize("order_kind", ["cyclic", "random_permutation"])
    def test_all_algorithms_descend(self, order_kind):
        order = (BlockOrder.cyclic() if order_kind == "cyclic"
                 else BlockOrder(order_kind, seed=3))
        p, x0 = make_lasso_instance(12, 6, 0.2, seed=8)
        c = compute_constants(p)
        for policy in (StepsizePolicy.global_l(), StepsizePolicy.block_lk()):
            t = run_bcpg(p, SolverRun(algorithm="bcpg", order=order,
                                      stepsizes=policy, max_cycles=60), x0,
                         constants=c)
            assert np.all(np.diff(t.f) <= 1e-10)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", order=order,
                                       max_cycles=60), x0, constants=c)
        assert np.all(np.diff(t.f) <= 1e-10)
        qp = make_table1_full_qp(6, 2.0)
        t = run_cgd(qp, SolverRun(algorithm="cgd", order=order, max_cycles=60),
                    np.ones(6), compute_constants(qp))
        assert np.all(np.diff(t.f) <= 1e-10)


class TestReferenceOptimum:
    def test_toeplitz(self):
        p, _ = make_toeplitz_instance(10)
        ref = reference_optimum(p, compute_constants(p))
        np.testing.assert_allclose(ref.x_star, np.zeros(10), atol=1e-12)
        assert ref.f_star == pytest.approx(0.0, abs=1e-15)
        assert ref.certified

    def test_scalar_lasso_soft_threshold(self):
        # A = [1], b = 2, weight 1: minimizer 1, value 0.5 + 1 = 1.5
        p = CompositeQuadraticProblem(
            partition=BlockPartition(1, 1), a_blocks=(np.array([[1.0]]),),
            b=np.array([2.0]), h=(NonsmoothTerm.l1(1.0),))
        ref = reference_optimum(p, compute_constants(p))
        assert ref.x_star[0] == pytest.approx(1.0, abs=1e-10)
        assert ref.f_star == pytest.approx(1.5, abs=1e-10)
        assert ref.certified

    def test_table1_oracles(self):
        qp = make_table1_diagonal_qp(5, 2.0)
        ref = reference_optimum(qp, compute_constants(qp))
        np.testing.assert_array_equal(ref.x_star, np.zeros(5))
        assert ref.f_star == 0.0
        assert ref.certified
        assert ref.gap == 0.0

    def test_lasso_is_certified_by_its_gap(self):
        p, _ = make_lasso_instance(30, 20, 0.1, seed=3)
        ref = reference_optimum(p, compute_constants(p))
        assert ref.certified
        assert 0.0 <= ref.gap <= solvers.REFERENCE_GAP_RTOL * max(1.0, abs(ref.f_star))
        assert ref.f_star == eval_objective(p, ref.x_star)
        assert ref.note.startswith("accelerated proximal gradient reference: ")
        assert ref.note.endswith(f" iterations, then an exact solve on its face; "
                                 f"duality gap {ref.gap:.3e}")

    def test_all_zero_matrix_takes_the_prox_of_zero(self):
        # L = 0: the smooth part is the constant 1/2 ||b||^2
        p = CompositeQuadraticProblem(
            partition=BlockPartition(4, 2), a_blocks=(np.zeros((3, 2)),) * 4,
            b=np.array([1.0, -2.0, 0.5]),
            h=(NonsmoothTerm.l1(0.5), NonsmoothTerm.box(0.5, 2.0),
               NonsmoothTerm.group_l2(1.0), NonsmoothTerm.zero()))
        constants = compute_constants(p)
        assert constants.L == 0.0
        ref = reference_optimum(p, constants)
        np.testing.assert_array_equal(ref.x_star, [0, 0, 0.5, 0.5, 0, 0, 0, 0])
        assert ref.f_star == 0.5 * float(p.b @ p.b)
        assert ref.certified and ref.gap == 0.0
        assert "0 iterations" in ref.note

    def test_iteration_cap_leaves_it_uncertified(self):
        p, _ = make_lasso_instance(30, 20, 0.1, seed=3)
        ref = reference_optimum(p, compute_constants(p), max_iterations=3)
        assert not ref.certified
        assert ref.gap > solvers.REFERENCE_GAP_RTOL * max(1.0, abs(ref.f_star))
        # the gap is that of the returned point, evaluated at the cap
        assert ref.gap == duality_gap(p, ref.x_star, p.residual(ref.x_star))[1]
        assert ref.note == (f"accelerated proximal gradient reference: 3 iterations, duality "
                            f"gap {ref.gap:.3e} (certificate not met; treat as best available)")


class TestTrajectoryCSV:
    def test_round_trip_is_exact(self, tmp_path):
        p, x0 = make_lasso_instance(10, 5, 0.2, seed=14)
        c = compute_constants(p)
        t = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=7), x0, c,
                     reference_optimum(p, c).f_star)
        path = tmp_path / "t.csv"
        trajectory_to_csv(t, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "cycle,f,gap,weighted_movement,grad_norm"
        assert len(lines) == t.cycles + 2
        for r, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == r
            assert float(cells[1]) == t.f[r]  # 17 digits round-trip exactly
            assert float(cells[2]) == t.gap[r]
            if r < t.cycles:
                assert float(cells[3]) == t.weighted_movement[r]
            else:
                assert cells[3] == ""
            assert cells[4] == ""  # composite problem: no gradient column

    def test_smooth_problem_has_gradient_column(self, tmp_path):
        p, x0 = make_toeplitz_instance(5)
        t = run_gd(p, SolverRun(algorithm="gd", max_cycles=3), x0, compute_constants(p))
        path = tmp_path / "t.csv"
        trajectory_to_csv(t, path)
        last = path.read_text(encoding="utf-8").strip().split("\n")[-1]
        assert float(last.split(",")[4]) == t.grad_norm[-1]


KINDS = ("zero", "l1", "group_l2", "box")


@st.composite
def scalar_problems(draw, kinds=KINDS):
    """Small scalar-block problems with half-integer data (zero columns
    included), one nonsmooth term per block, and a feasible start."""
    k_count = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 7))
    cells = st.integers(-3, 3).map(lambda v: v / 2.0)
    a = np.array(draw(st.lists(cells, min_size=rows * k_count, max_size=rows * k_count)))
    a = a.reshape(rows, k_count)
    b = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)))
    terms = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=k_count, max_size=k_count)):
        if kind in ("l1", "group_l2"):
            terms.append(NonsmoothTerm(kind, weight=draw(st.sampled_from([0.0, 0.1, 0.7, 2.0]))))
        elif kind == "box":
            lo = draw(st.sampled_from([-1.0, -0.25, 0.0, 0.5]))
            terms.append(NonsmoothTerm.box(lo, lo + draw(st.sampled_from([0.0, 0.5, 2.0]))))
        else:
            terms.append(NonsmoothTerm.zero())
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(k_count, 1),
        a_blocks=tuple(a[:, [i]] for i in range(k_count)), b=b, h=tuple(terms))
    x0 = np.array(draw(st.lists(cells, min_size=k_count, max_size=k_count)))
    for k, term in enumerate(terms):
        if term.kind == "box":
            x0[k] = min(max(x0[k], term.lo), term.hi)
    order_kind = draw(st.sampled_from(ORDER_KINDS))
    order = BlockOrder(order_kind, seed=draw(st.integers(0, 2**32 - 1)))
    return problem, x0, order


def assert_close(actual, expected, rtol=1e-12):
    """Agreement to rtol relative to the largest magnitude involved."""
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rtol * scale


class TestScalarKernel:
    """The Gram-update kernel against plain per-visit replays."""

    @settings(max_examples=150, deadline=None)
    @given(case=scalar_problems(), algorithm=st.sampled_from(["bcpg", "exact_bcd"]),
           policy=st.sampled_from(["block_lk", "global_l"]),
           cycles=st.integers(1, 25))
    def test_block_solvers_match_replay(self, case, algorithm, policy, cycles):
        problem, x0, order = case
        constants = compute_constants(problem)
        assume(np.all(constants.L_k > 0) if policy == "block_lk" else constants.L > 0)
        run = SolverRun(algorithm=algorithm, order=order, max_cycles=cycles,
                        stepsizes=StepsizePolicy(policy))
        solver = run_bcpg if algorithm == "bcpg" else run_bcd_exact
        t = solver(problem, run, x0, constants=constants)
        xs, f, movement = replay_scalar_sweeps(problem, t.orders, x0, t.stepsizes,
                                               exact=algorithm == "exact_bcd")
        assert_close(t.xs, xs)
        assert_close(t.f, f)
        assert_close(t.weighted_movement, movement)

    @settings(max_examples=100, deadline=None)
    @given(case=scalar_problems(kinds=("zero",)), cycles=st.integers(1, 25))
    def test_cgd_matches_replay(self, case, cycles):
        problem, x0, order = case
        constants = compute_constants(problem)
        assume(np.all(constants.L_k > 0))
        t = run_cgd(problem, SolverRun(algorithm="cgd", order=order, max_cycles=cycles), x0,
                    constants)
        a = problem.full_matrix()
        xs, f, movement = replay_coordinate_sweeps(
            lambda x: smooth_value(problem, x), lambda x: a.T @ (a @ x - problem.b),
            t.orders, x0, t.stepsizes)
        assert_close(t.xs, xs)
        assert_close(t.f, f)
        assert_close(t.weighted_movement, movement)

    @settings(max_examples=100, deadline=None)
    @given(case=scalar_problems(kinds=("zero",)), policy=st.sampled_from(["block_lk", "global_l"]),
           cycles=st.integers(1, 25))
    def test_cgd_is_bcpg_bit_for_bit(self, case, policy, cycles):
        # cgd is bcpg with scalar blocks and h_k = 0, on the same kernel
        problem, x0, order = case
        constants = compute_constants(problem)
        assume(np.all(constants.L_k > 0) if policy == "block_lk" else constants.L > 0)
        f_star = reference_optimum(problem, constants).f_star
        t_cgd, t_bcpg = (
            solve(problem, SolverRun(algorithm=algorithm, order=order, max_cycles=cycles,
                                     stepsizes=StepsizePolicy(policy)), x0, constants, f_star)
            for solve, algorithm in ((run_cgd, "cgd"), (run_bcpg, "bcpg")))
        for attribute in ("xs", "f", "gap", "weighted_movement", "grad_norm"):
            assert_same_bits(getattr(t_cgd, attribute), getattr(t_bcpg, attribute))
        assert np.array_equal(t_cgd.orders, t_bcpg.orders)


@st.composite
def block_problems(draw, kinds=KINDS):
    """Small problems with blocks of 2 or 3 columns, half-integer data
    (zero columns included) and one nonsmooth term per block."""
    k_count = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    rows = draw(st.integers(1, 7))
    cells = st.integers(-3, 3).map(lambda v: v / 2.0)
    a = np.array(draw(st.lists(cells, min_size=rows * k_count * n,
                               max_size=rows * k_count * n))).reshape(rows, k_count * n)
    b = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)))
    terms = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=k_count, max_size=k_count)):
        if kind in ("l1", "group_l2"):
            terms.append(NonsmoothTerm(kind, weight=draw(st.sampled_from([0.0, 0.1, 0.7, 2.0]))))
        elif kind == "box":
            lo = draw(st.sampled_from([-1.0, -0.25, 0.0, 0.5]))
            terms.append(NonsmoothTerm.box(lo, lo + draw(st.sampled_from([0.0, 0.5, 2.0]))))
        else:
            terms.append(NonsmoothTerm.zero())
    return CompositeQuadraticProblem(
        partition=BlockPartition(k_count, n),
        a_blocks=tuple(a[:, k * n:(k + 1) * n] for k in range(k_count)), b=b, h=tuple(terms))


class TestReferenceCertificate:
    """The reference's duality gap against long bcpg runs: f_star - gap is
    a lower bound on every value a run reaches, and f_star is above every
    lower bound the gap gives at a run's iterates."""

    @settings(max_examples=100, deadline=None)
    @given(problem=st.one_of(scalar_problems().map(lambda case: case[0]), block_problems()))
    def test_gap_brackets_bcpg_runs(self, problem):
        constants = compute_constants(problem)
        assume(not problem.is_smooth() and constants.L > 0)
        ref = reference_optimum(problem, constants)
        assert ref.gap >= 0.0
        assert math.isfinite(eval_objective(problem, ref.x_star))
        start = prox_blocks(problem, np.zeros(problem.partition.dimension), 1.0)
        t = run_bcpg(problem, SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                                        max_cycles=60), start, constants)
        tol = 1e-12 * max(1.0, float(np.abs(t.f).max()), abs(ref.f_star))
        assert ref.f_star - ref.gap <= float(t.f.min()) + tol
        for x in t.xs:
            f_value, gap = duality_gap(problem, x, problem.residual(x))
            assert gap >= 0.0
            assert f_value - gap <= ref.f_star + tol


FACE_NOTE = re.compile(r"accelerated proximal gradient reference: (\d+) iterations, "
                       r"then an exact solve on its face; duality gap \S+$")


def fista_only(problem, constants):
    """The reference with the face helper giving every face a key of its
    own, so that no face settles and only accelerated proximal gradient
    can finish it."""
    face = solvers._face
    with mock.patch.object(solvers, "_face", lambda p, x: face(p, x)._replace(key=object())):
        return reference_optimum(problem, constants)


def group_problem():
    """Two blocks of two Gaussian columns: group_l2 of weight 0.1, nonzero
    at the optimum, and l1 of weight 0.1."""
    gen = np.random.default_rng(5)
    a, b = gen.normal(size=(8, 4)), gen.normal(size=8)
    return CompositeQuadraticProblem(
        partition=BlockPartition(2, 2), a_blocks=(a[:, :2], a[:, 2:]), b=b,
        h=(NonsmoothTerm.group_l2(0.1), NonsmoothTerm.l1(0.1)))


def assert_wrong_candidates_rejected(p, mutant):
    """Under ``mutant`` (a context manager), candidates are evaluated and
    rejected, and the reference is the FISTA-only one, bit for bit."""
    constants = compute_constants(p)
    evaluations = []

    def counting_gap(problem, x, residual):
        evaluations.append(x)
        return duality_gap(problem, x, residual)

    with mock.patch.object(solvers, "duality_gap", counting_gap):
        fista = fista_only(p, constants)
        fista_evaluations = len(evaluations)
        with mutant:
            ref = reference_optimum(p, constants)
    assert len(evaluations) > 2 * fista_evaluations  # candidates were tried
    assert_same_bits(ref.x_star, fista.x_star)
    assert (ref.f_star, ref.gap, ref.certified, ref.note) == (
        fista.f_star, fista.gap, fista.certified, fista.note)
    assert "exact solve" not in ref.note


class TestReferenceFaceSolve:
    """The exact solve on the face that accelerated proximal gradient
    identifies: it finishes the battery's references in tens of
    iterations, and it is accepted only through the duality gap."""

    @settings(max_examples=300, deadline=None)
    @given(problem=st.one_of(scalar_problems().map(lambda case: case[0]), block_problems(),
                             block_problems(kinds=("group_l2", "l1", "box"))))
    def test_agrees_with_the_fista_path(self, problem):
        # the last strategy gives group_l2 blocks of positive weight that
        # stay nonzero in about a third of its problems, mixed with l1 and
        # box terms: the face route solves them by Newton steps
        constants = compute_constants(problem)
        assume(not problem.is_smooth() and constants.L > 0)
        ref, fista = reference_optimum(problem, constants), fista_only(problem, constants)
        if fista.certified:
            assert ref.certified
        # each f* is within its gap of the optimum, up to the rounding of f
        rounding = 64 * np.finfo(float).eps * max(1.0, abs(fista.f_star))
        assert math.isfinite(ref.f_star)
        assert abs(ref.f_star - fista.f_star) <= ref.gap + fista.gap + rounding
        assert ref.gap == duality_gap(problem, ref.x_star, problem.residual(ref.x_star))[1]

    @pytest.mark.parametrize("name", battery.lasso_names() + ["thm2_case2", "thm2_case3_box"])
    def test_battery_takes_the_face_route(self, name):
        reference = battery.get_instance(name).reference
        match = FACE_NOTE.match(reference.note)
        assert match and int(match.group(1)) <= 60
        assert reference.certified and math.isfinite(reference.f_star)

    def test_nonzero_group_block_takes_the_face_route(self):
        p = group_problem()
        constants = compute_constants(p)
        ref = reference_optimum(p, constants)
        assert np.any(ref.x_star[:2] != 0.0)
        assert ref.certified
        assert FACE_NOTE.match(ref.note) and ref.note.endswith(f"duality gap {ref.gap:.3e}")
        fista = fista_only(p, constants)
        assert fista.certified and "exact solve" not in fista.note
        assert abs(ref.f_star - fista.f_star) <= ref.gap + fista.gap

    def test_group_block_reaching_zero_unsettles_the_face(self):
        # block 2 is nonzero at the gap evaluation of iteration 10 and 0 at
        # iteration 20: the two faces differ, so nothing is solved until the
        # face is the same at iterations 20 and 30
        gen = np.random.default_rng(90)
        a, b = gen.normal(size=(6, 6)), gen.normal(size=6)
        p = CompositeQuadraticProblem(
            partition=BlockPartition(3, 2), a_blocks=(a[:, :2], a[:, 2:4], a[:, 4:]), b=b,
            h=(NonsmoothTerm.group_l2(1.0), NonsmoothTerm.l1(0.3), NonsmoothTerm.group_l2(1.5)))
        face, newton = solvers._face, solvers._newton_on_face
        faces, solves = [], []

        def spy_face(problem, x):
            faces.append(face(problem, x))
            return faces[-1]

        def spy_newton(problem, found, x):
            solves.append(len(faces))
            return newton(problem, found, x)

        with (mock.patch.object(solvers, "_face", spy_face),
              mock.patch.object(solvers, "_newton_on_face", spy_newton)):
            ref = reference_optimum(p, compute_constants(p))
        assert [found.curved.tolist() for found in faces] == [[], [0, 2], [0], [0]]
        assert faces[1].key != faces[2].key
        assert solves == [4]  # one Newton solve, at iteration 30
        assert ref.certified and FACE_NOTE.match(ref.note).group(1) == "30"
        assert np.all(ref.x_star[4:] == 0.0) and np.all(ref.x_star[:2] != 0.0)

    def test_wrong_candidate_is_never_returned(self):
        # the face's linear term with its signs flipped gives a candidate
        # that is no minimizer; the gap rejects it and FISTA runs on as if
        # no candidate had been tried
        face = solvers._face
        flipped = mock.patch.object(
            solvers, "_face", lambda problem, x: face(problem, x)._replace(
                linear=-face(problem, x).linear))
        assert_wrong_candidates_rejected(make_lasso_instance(30, 20, 0.1, seed=3)[0], flipped)

    def test_wrong_newton_candidate_is_never_returned(self):
        # Newton steps with the group term's curvature dropped (no slope w u,
        # no Hessian term) reach the face's minimizer without the group
        # penalty; the gap rejects it
        calls = []

        def dropped(rows, weight):
            calls.append(rows)
            return np.zeros(rows.shape), np.zeros(rows.shape + rows.shape[1:])

        assert_wrong_candidates_rejected(
            group_problem(), mock.patch.object(solvers, "_group_curvature", dropped))
        assert calls


class TestZeroRightHandSide:
    """A nonsmooth-free problem with b = 0 has the minimum-norm minimizer
    x* = 0, returned without factoring A."""

    @settings(max_examples=100, deadline=None)
    @given(problem=st.one_of(scalar_problems(kinds=("zero",)).map(lambda case: case[0]),
                             block_problems(kinds=("zero",))),
           zero=st.sampled_from([0.0, -0.0]))
    def test_no_svd_and_the_svd_bits(self, problem, zero):
        p = replace(problem, b=np.full(problem.rows, zero))
        expected = least_squares_min_norm(p.full_matrix(), p.b)

        def refuse(*args, **kwargs):
            raise AssertionError("min_norm_factors was called")

        with (mock.patch.object(linalg, "min_norm_factors", refuse),
              mock.patch.object(solvers, "min_norm_factors", refuse)):
            ref = reference_optimum(p, compute_constants(p))
        assert_same_bits(ref.x_star, expected)
        assert_same_bits(np.float64(ref.f_star), np.float64(0.0))
        assert (ref.certified, ref.gap, ref.note) == (True, 0.0, "minimum-norm least squares")

    def test_nonzero_b_takes_the_svd(self):
        p, _ = random_quadratic(4)
        assert p.b.any()
        with mock.patch.object(linalg, "min_norm_factors",
                               wraps=linalg.min_norm_factors) as factor:
            ref = reference_optimum(p, compute_constants(p))
        assert factor.call_count == 1
        assert_same_bits(ref.x_star, least_squares_min_norm(p.full_matrix(), p.b))
        assert ref.note == "minimum-norm least squares"


def assert_same_bits(actual, expected):
    """Equal values, and equal bytes: bit for bit, signed zeros included."""
    if expected is None:
        assert actual is None
        return
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


@st.composite
def lockstep_batches(draw):
    """2-6 scalar-block bcpg/exact_bcd runs on different problems that share
    K, the order and the cycle count: l1 and zero terms, zero columns, and
    block_lk, global_l or fixed stepsizes (fixed where the drawn policy
    does not realize, because a column is zero)."""
    k_count = draw(st.integers(1, 8))
    order = BlockOrder(draw(st.sampled_from(ORDER_KINDS)), seed=draw(st.integers(0, 2**32 - 1)))
    cycles = draw(st.integers(1, 12))
    cells = st.integers(-3, 3).map(lambda v: v / 2.0) | st.floats(-3.0, 3.0)
    batch = []
    for _ in range(draw(st.integers(2, 6))):
        rows = draw(st.integers(1, 10))
        a = np.array(draw(st.lists(cells, min_size=rows * k_count, max_size=rows * k_count)))
        a = a.reshape(rows, k_count)
        for k in draw(st.sets(st.integers(0, k_count - 1), max_size=2)):
            a[:, k] = 0.0
        terms = tuple(
            NonsmoothTerm.l1(draw(st.sampled_from([0.0, 0.1, 0.7, 2.0]))) if kind == "l1"
            else NonsmoothTerm("zero", weight=draw(st.sampled_from([0.0, 1.5])))
            for kind in draw(st.lists(st.sampled_from(["l1", "zero"]),
                                      min_size=k_count, max_size=k_count)))
        problem = CompositeQuadraticProblem(
            partition=BlockPartition(k_count, 1),
            a_blocks=tuple(a[:, [i]] for i in range(k_count)),
            b=np.array(draw(st.lists(cells, min_size=rows, max_size=rows))), h=terms)
        constants = compute_constants(problem)
        kind = draw(st.sampled_from(["block_lk", "global_l", "fixed"]))
        realizes = {"block_lk": bool(np.all(constants.L_k > 0)), "global_l": constants.L > 0}
        if realizes.get(kind, False):
            policy = StepsizePolicy(kind)
        else:
            extra = draw(st.sampled_from([0.5, 1.0, 3.0]))
            policy = StepsizePolicy.fixed(np.asarray(constants.L_k) + extra)
        run = SolverRun(algorithm=draw(st.sampled_from(["bcpg", "exact_bcd"])), order=order,
                        stepsizes=policy, max_cycles=cycles)
        x0 = np.array(draw(st.lists(cells, min_size=k_count, max_size=k_count)))
        batch.append((problem, run, x0, constants))
    return batch


class TestOrders:
    """A trajectory's visit orders are one read-only (cycles, K) np.intp
    array, and a cyclic run stores its one order once."""

    @pytest.mark.parametrize("algorithm", ["bcpg", "exact_bcd", "cgd", "gd"])
    def test_cyclic_order_is_one_broadcast_row(self, algorithm):
        # every runner returns a finished trajectory, its gap attached
        # exactly when it is given an f* (-0.0 included)
        problem, x0 = random_quadratic(3)
        constants = compute_constants(problem)
        for f_star in (None, -0.0, 0.125):
            t = SOLVE[algorithm](problem, SolverRun(algorithm=algorithm, max_cycles=30), x0,
                                 constants, f_star)
            assert t.orders.shape == (30, 6) and t.orders.dtype == np.intp
            assert t.orders.strides[0] == 0
            assert t.orders.tolist() == [list(range(6))] * 30
            with pytest.raises(ValueError):
                t.orders[0, 0] = 1
            assert_finished(t, f_star)

    @pytest.mark.parametrize("algorithm", ["bcpg", "exact_bcd", "cgd"])
    def test_random_orders_are_the_streams_draws(self, algorithm):
        # 150 cycles cross several batches of drawn-ahead orders
        problem, x0 = random_quadratic(5)
        order = BlockOrder.random_permutation(23)
        t = SOLVE[algorithm](problem, SolverRun(algorithm=algorithm, order=order,
                                                max_cycles=150),
                             x0, compute_constants(problem))
        stream = order.stream(6)
        assert t.orders.tolist() == [next(stream) for _ in range(150)]
        assert t.orders.dtype == np.intp and t.orders.flags.c_contiguous
        with pytest.raises(ValueError):
            t.orders[0, 0] = 1


def _lockstep(batch, f_stars=None):
    problems, runs, x0s, constants = zip(*batch)
    return run_lockstep(list(problems), list(runs), list(x0s), list(constants),
                        f_stars or [None] * len(batch))


class TestLockstep:
    """The stacked kernel against the per-run kernel, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(batch=lockstep_batches())
    def test_matches_per_run_kernel(self, batch):
        # each run's f* is fixed before the run: half its f(x0)
        f_stars = [0.5 * eval_objective(problem, x0) for problem, _, x0, _ in batch]
        trajectories = _lockstep(batch, f_stars)
        assert len(trajectories) == len(batch)
        for t, (problem, run, x0, constants), f_star in zip(trajectories, batch, f_stars):
            solver = run_bcpg if run.algorithm == "bcpg" else run_bcd_exact
            expected = solver(problem, run, x0, constants, f_star)
            assert t.algorithm == expected.algorithm
            for attribute in ("xs", "f", "gap", "weighted_movement", "stepsizes", "grad_norm"):
                assert_same_bits(getattr(t, attribute), getattr(expected, attribute))
            assert np.array_equal(t.orders, expected.orders)
            assert_same_bits(t.weighted_movement, movements_from_iterates(
                problem, run.algorithm, t.xs, t.orders, t.stepsizes))
        first, second = trajectories[:2]
        assert first.orders is second.orders and not first.orders.flags.writeable
        assert not np.shares_memory(first.xs, second.xs)

    @pytest.mark.parametrize("order", [BlockOrder.cyclic(), BlockOrder.random_permutation(4)])
    def test_runs_share_one_orders_array_and_history(self, order):
        # the batch keeps one (B, cycles + 1, K) history, each run's xs a
        # C-contiguous view of it, and one read-only orders array; each run
        # is finished with its own f*, or none
        batch = [(problem, replace(run, order=order), x0, constants)
                 for problem, run, x0, constants in self._batch()]
        f_stars = [0.25, None]
        trajectories = _lockstep(batch, f_stars)
        history = trajectories[0].xs.base
        assert history.shape == (2, 6, 4)
        for t, f_star in zip(trajectories, f_stars):
            assert t.orders is trajectories[0].orders
            assert t.xs.flags.c_contiguous and np.shares_memory(t.xs, history)
            assert_finished(t, f_star)
        orders = trajectories[0].orders
        assert orders.shape == (5, 4) and orders.dtype == np.intp
        with pytest.raises(ValueError):
            orders[0, 0] = 1

    @pytest.mark.parametrize("kind", ["l1", "zero"])
    @pytest.mark.parametrize("algorithm", ["bcpg", "exact_bcd"])
    def test_subnormal_curvature_matches_per_run_kernel(self, algorithm, kind):
        # G_00 = (5.4e-157)^2 is subnormal, so 1 / G_00 overflows and a zero
        # weight gives the threshold 0 * inf: an l1 block steps to 0, a zero
        # block to its unclipped point near -4.6e155
        batch = []
        for column in (0.0, 5.41067802e-157):
            a = np.array([[column, 0.5, 0.0]])
            problem = CompositeQuadraticProblem(
                partition=BlockPartition(3, 1), a_blocks=tuple(a[:, [i]] for i in range(3)),
                b=np.zeros(1), h=(NonsmoothTerm(kind),) + (NonsmoothTerm.l1(0.0),) * 2)
            constants = compute_constants(problem)
            # P_k = L_k, subnormal too, on the small column; 0.5 on zero ones
            policy = StepsizePolicy.fixed(np.where(constants.L_k > 0, constants.L_k, 0.5))
            run = SolverRun(algorithm=algorithm, stepsizes=policy, max_cycles=2)
            batch.append((problem, run, np.array([0.0, 0.5, 0.0]), constants))
        for t, (problem, run, x0, constants) in zip(_lockstep(batch), batch):
            solver = run_bcpg if run.algorithm == "bcpg" else run_bcd_exact
            expected = solver(problem, run, x0, constants)
            for attribute in ("xs", "f", "weighted_movement", "stepsizes"):
                assert_same_bits(getattr(t, attribute), getattr(expected, attribute))

    def test_lasso_batch_matches_per_run_kernel(self):
        # one order stream, mixed algorithms and policies, as in the battery
        self._assert_lasso_batch_matches(BlockOrder.random_permutation(11), 40)

    @pytest.mark.parametrize("order", [BlockOrder.cyclic(), BlockOrder.random_permutation(17)])
    def test_batch_past_the_first_history_and_order_blocks(self, order):
        # 150 cycles cross HISTORY_ROWS and two ORDER_BATCH draws; the cyclic
        # exact_bcd run settles at cycle 63, where the per-run kernel stops
        # sweeping and the batch does not
        assert 150 > max(solvers.HISTORY_ROWS, 2 * solvers.ORDER_BATCH)
        self._assert_lasso_batch_matches(order, 150)

    @pytest.mark.parametrize("order", [BlockOrder.cyclic(), BlockOrder.random_permutation(5)])
    def test_mixed_row_counts_match_per_run_kernel(self, order):
        # runs with 12, 8 and 12 rows: the refresh stacks the products of
        # each row count apart
        self._assert_lasso_batch_matches(order, 40, rows=(12, 8, 12))

    @staticmethod
    def _assert_lasso_batch_matches(order, cycles, rows=(12, 12, 12)):
        batch = []
        for seed, (algorithm, policy) in enumerate([("bcpg", "block_lk"), ("bcpg", "global_l"),
                                                    ("exact_bcd", "block_lk")]):
            problem, x0 = make_lasso_instance(rows[seed], 6, 0.1, seed)
            run = SolverRun(algorithm=algorithm, order=order,
                            stepsizes=StepsizePolicy(policy), max_cycles=cycles)
            batch.append((problem, run, x0, compute_constants(problem)))
        for t, (problem, run, x0, constants) in zip(_lockstep(batch), batch):
            solver = run_bcpg if run.algorithm == "bcpg" else run_bcd_exact
            expected = solver(problem, run, x0, constants=constants)
            assert t.cycles == cycles
            for attribute in ("xs", "f", "weighted_movement", "stepsizes"):
                assert_same_bits(getattr(t, attribute), getattr(expected, attribute))
            assert t.grad_norm is None and np.array_equal(t.orders, expected.orders)

    @staticmethod
    def _batch():
        batch = []
        for seed in range(2):
            problem, x0 = make_lasso_instance(8, 4, 0.1, seed)
            run = SolverRun(algorithm="bcpg", max_cycles=5)
            batch.append((problem, run, x0, compute_constants(problem)))
        return batch

    @pytest.mark.parametrize("change", [
        "box", "group_l2", "block_size", "block_count", "order", "max_cycles",
        "gap_tolerance", "cgd", "empty", "lengths", "f_stars"])
    def test_rejects_runs_outside_its_scope(self, change):
        batch = self._batch()
        problem, run, x0, constants = batch[1]
        if change in ("box", "group_l2"):
            term = NonsmoothTerm.box(-1.0, 1.0) if change == "box" else NonsmoothTerm.group_l2(0.1)
            problem = CompositeQuadraticProblem(problem.partition, problem.a_blocks,
                                                problem.b, (term,) + problem.h[1:])
        elif change == "block_size":
            a = problem.full_matrix()
            problem = CompositeQuadraticProblem(
                BlockPartition(2, 2), (a[:, :2], a[:, 2:]), problem.b,
                (NonsmoothTerm.l1(0.1),) * 2)
        elif change == "block_count":
            problem, x0 = make_lasso_instance(8, 5, 0.1, 9)
        elif change == "order":
            run = replace(run, order=BlockOrder.random_permutation(1))
        elif change == "max_cycles":
            run = replace(run, max_cycles=6)
        elif change == "gap_tolerance":
            run = replace(run, gap_tolerance=1e-9)
        elif change == "cgd":
            run = replace(run, algorithm="cgd")
        constants = compute_constants(problem)
        batch[1] = (problem, run, x0, constants)
        problems, runs, x0s, constant_list = (list(column) for column in zip(*batch))
        f_stars = [None] * len(batch)
        if change == "empty":
            problems, runs, x0s, constant_list, f_stars = [], [], [], [], []
        elif change == "lengths":
            x0s = x0s[:1]
        elif change == "f_stars":
            f_stars = f_stars[:1]
        with pytest.raises(ValueError):
            run_lockstep(problems, runs, x0s, constant_list, f_stars)

    def test_nan_proximal_point_raises(self, monkeypatch):
        # the soft threshold maps a NaN point to 0 and the stacked form to
        # NaN; a NaN start, let past the start check, makes one
        monkeypatch.setattr(solvers, "check_start",
                            lambda p, x0: np.array(x0, dtype=float))
        batch = self._batch()
        problem, run, x0, constants = batch[0]
        start = np.array(x0, dtype=float)
        start[0] = math.nan
        assert np.isfinite(run_bcpg(problem, run, start, constants=constants).xs[-1]).all()
        batch[0] = (problem, run, start, constants)
        with pytest.raises(ValueError, match="NaN"):
            _lockstep(batch)


def assert_gd_is_plain_loop(problem, x0, order, cycles):
    """run_gd's iterates and movements equal x <- x - g / L written out, bit
    for bit; its f and gradient norms are trajectory_values of those
    iterates, and agree with per-iterate residuals to rounding."""
    constants = compute_constants(problem)
    t = run_gd(problem, SolverRun(algorithm="gd", order=order, max_cycles=cycles), x0,
               constants)
    a, b, lipschitz = problem.full_matrix(), problem.b, constants.L
    x = np.array(x0, dtype=float)
    xs = [x]
    for _ in range(cycles):
        x = x - a.T @ (a @ x - b) / lipschitz
        xs.append(x)
    residuals = [a @ x - b for x in xs]
    np.testing.assert_array_equal(t.xs, np.array(xs))
    f, grad_norm = solvers.trajectory_values(problem, np.array(xs))
    assert_same_bits(t.f, f)
    assert_same_bits(t.grad_norm, grad_norm)
    assert_close(t.f, [0.5 * float(r @ r) for r in residuals])
    assert_close(t.grad_norm, [float(np.linalg.norm(a.T @ r)) for r in residuals])
    np.testing.assert_array_equal(
        t.weighted_movement,
        [math.sqrt(lipschitz) * float(np.linalg.norm(new - old))
         for old, new in zip(xs, xs[1:])])
    assert t.orders.tolist() == [list(range(problem.partition.dimension))] * cycles


class TestGDIsPlainLoop:
    @settings(max_examples=100, deadline=None)
    @given(case=scalar_problems(kinds=("zero",)), cycles=st.integers(1, 25))
    def test_scalar_blocks(self, case, cycles):
        problem, x0, order = case
        assume(compute_constants(problem).L > 0)
        assert_gd_is_plain_loop(problem, x0, order, cycles)

    def test_blocks_of_two(self):
        gen = SplitMix64(41)
        a = gen.normal_matrix(5, 6)
        problem = CompositeQuadraticProblem(
            partition=BlockPartition(3, 2),
            a_blocks=tuple(a[:, 2 * k:2 * k + 2] for k in range(3)),
            b=gen.normal_vector(5), h=(NonsmoothTerm.zero(),) * 3)
        assert_gd_is_plain_loop(problem, gen.normal_vector(6),
                                BlockOrder.random_permutation(5), 30)


def sweeps_taken(t):
    """The cycles of a scalar-block run up to the first one that left the
    iterate bitwise unchanged: the sweeps the run took."""
    for r in range(t.cycles):
        if t.xs[r + 1].tobytes() == t.xs[r].tobytes():
            return r + 1
    return t.cycles


def movements_from_iterates(problem, algorithm, xs, orders, stepsizes):
    """Each cycle's movement from its two iterates alone: a Python running
    sum of P_k ||d_k||^2 in the cycle's visit order, square-rooted, or
    sqrt(L) ||d|| for gd.  The bits every weighted_movement must have."""
    movements = []
    for old, new, order in zip(xs, xs[1:], orders):
        d = new - old
        if algorithm == "gd":
            movements.append(math.sqrt(stepsizes[0]) * float(np.linalg.norm(d)))
            continue
        move_sq = 0.0
        for k in order:
            d_k = d[problem.block_slice(k)]
            move_sq += float(stepsizes[k]) * float(d_k @ d_k)
        movements.append(math.sqrt(move_sq))
    return np.array(movements)


def sweep_every_cycle(problem, run, x0, constants):
    """The trajectory of ``run`` from a loop that refreshes and sweeps on
    every cycle, on the solvers' own kernels: what a run gives without its
    stop at an exact fixed point.  The movements are computed here, from
    the iterates and orders (movements_from_iterates)."""
    x = solvers.check_start(problem, x0)
    if run.algorithm == "gd":
        stepsizes = np.full(x.shape[0], constants.L)
        full, grad = problem.full_matrix(), np.empty(x.shape[0])

        def refresh():
            grad[:] = full.T @ problem.residual(x)

        sweep = partial(solvers._gradient_sweep, grad, x, constants.L)
        order = BlockOrder.cyclic()
    else:
        stepsizes = run.realize_stepsizes(constants)
        sweep, refresh = solvers._make_sweep(problem, x, stepsizes,
                                             run.algorithm == "exact_bcd")
        order = run.order
    stream = order.stream(stepsizes.shape[0])
    xs, orders = [x.copy()], []
    for _ in range(run.max_cycles):
        refresh()
        orders.append(list(next(stream)))
        sweep(orders[-1])
        xs.append(x.copy())
    xs = np.array(xs)
    f, grad_norm = solvers.trajectory_values(problem, xs)
    movements = movements_from_iterates(problem, run.algorithm, xs, orders, stepsizes)
    return solvers.Trajectory(run.algorithm, xs, f, movements, stepsizes,
                              np.array(orders, dtype=np.intp), grad_norm)


SOLVE = {"bcpg": run_bcpg, "exact_bcd": run_bcd_exact, "cgd": run_cgd, "gd": run_gd}


def assert_stop_is_exact(problem, run, x0, constants):
    """The run equals sweep_every_cycle bit for bit; returns it."""
    t = SOLVE[run.algorithm](problem, run, x0, constants)
    expected = sweep_every_cycle(problem, run, x0, constants)
    for attribute in ("xs", "f", "grad_norm", "weighted_movement", "stepsizes"):
        assert_same_bits(getattr(t, attribute), getattr(expected, attribute))
    assert np.array_equal(t.orders, expected.orders)
    return t


def sweeps_run(problem, run, x0, constants):
    """The sweeps ``run`` takes: one residual per sweep, and one for the
    recorded values."""
    calls = []
    residual = CompositeQuadraticProblem.residual
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompositeQuadraticProblem, "residual",
                      lambda p, x: calls.append(1) or residual(p, x))
        SOLVE[run.algorithm](problem, run, x0, constants)
    return len(calls) - 1


class TestFixedPointStop:
    """A run stops sweeping after a cycle that writes nothing; its
    trajectory is that of sweeping every cycle, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(
               scalar_problems(),
               st.tuples(block_problems().filter(lambda p: p.partition.block_size == 2),
                         st.builds(BlockOrder, st.sampled_from(ORDER_KINDS),
                                   st.integers(0, 2**32 - 1))),
               # exact blocks of 2 or 3 under the cyclic order, whose iterates
               # can repeat with any period
               st.tuples(block_problems(), st.just(BlockOrder.cyclic()),
                         st.just("exact_bcd"))),
           algorithm=st.sampled_from(sorted(SOLVE)), cycles=st.integers(1, 25),
           data=st.data())
    def test_matches_sweeping_every_cycle(self, case, algorithm, cycles, data):
        problem, *rest = case
        if isinstance(rest[-1], str):
            *rest, algorithm = rest
            cycles = data.draw(st.integers(1, 60))
        order = rest[-1]
        x0 = rest[0] if len(rest) == 2 else data.draw(st.lists(
            st.integers(-3, 3).map(lambda v: v / 2.0),
            min_size=problem.partition.dimension, max_size=problem.partition.dimension))
        x0 = np.array(x0, dtype=float)
        for k, term in enumerate(problem.h):
            if term.kind == "box":
                sl = problem.block_slice(k)
                x0[sl] = np.clip(x0[sl], term.lo, term.hi)
        constants = compute_constants(problem)
        try:
            solvers.check_applicable(algorithm, problem)
        except ValueError:
            assume(False)
        assume(np.all(constants.L_k > 0) if algorithm != "gd" else constants.L > 0)
        run = SolverRun(algorithm=algorithm, order=order, max_cycles=cycles)
        assert_stop_is_exact(problem, run, x0, constants)

    @pytest.mark.parametrize("algorithm", sorted(SOLVE))
    def test_table1_diag_settles_at_cycle_two(self, monkeypatch, algorithm):
        # a diagonal Hessian is minimized in one cycle, and the second
        # writes nothing: 2 of 10 sweeps run
        qp = make_table1_diagonal_qp(6, 2.0)
        constants = compute_constants(qp)
        run = SolverRun(algorithm=algorithm, order=BlockOrder.random_permutation(3),
                        max_cycles=10)
        calls = []
        residual = CompositeQuadraticProblem.residual
        with monkeypatch.context() as patch:
            patch.setattr(CompositeQuadraticProblem, "residual",
                          lambda p, x: calls.append(1) or residual(p, x))
            t = SOLVE[algorithm](qp, run, np.ones(6), constants)
        assert sweeps_taken(t) == 2
        assert len(calls) == 2 + 1
        assert (t.weighted_movement[1:] == 0.0).all()
        assert_stop_is_exact(qp, run, np.ones(6), constants)

    @staticmethod
    def _exact_blocks_of_two(order):
        """The sweeps of exact_bcd on table1's diagonal problem in blocks
        of two, 6 cycles, whose run equals sweeping every cycle."""
        qp = make_table1_diagonal_qp(6, 2.0)
        blocks = CompositeQuadraticProblem(
            partition=BlockPartition(3, 2), b=qp.b, h=(NonsmoothTerm.zero(),) * 3,
            a_blocks=tuple(qp.full_matrix()[:, 2 * k:2 * k + 2] for k in range(3)))
        run = SolverRun(algorithm="exact_bcd", order=order, max_cycles=6)
        constants = compute_constants(blocks)
        t = assert_stop_is_exact(blocks, run, np.ones(6), constants)
        assert t.xs[-1].tobytes() == t.xs[-2].tobytes()
        return sweeps_run(blocks, run, np.ones(6), constants)

    def test_exact_blocks_stop_once_x_repeats(self):
        # under the cyclic order a cycle is a function of x: x^2 = x^1, so
        # the run stops sweeping after its second cycle
        assert self._exact_blocks_of_two(BlockOrder.cyclic()) == 2

    def test_exact_blocks_sweep_every_cycle_under_random_orders(self):
        # an exact block visit rebuilds the residual, which rounding can
        # change, so it counts as a write: with the order changing every
        # cycle, exact BCD on blocks of two sweeps every cycle even once its
        # iterate stays
        assert self._exact_blocks_of_two(BlockOrder.random_permutation(3)) == 6

    def test_periodic_orbit_is_replayed(self):
        # exact_bcd on thm2_case3_box under the cyclic order: x^54 = x^51,
        # and the 3-cycle orbit repeats to cycle 300 with 66 cycles swept
        instance = battery.get_instance("thm2_case3_box")
        run = SolverRun(algorithm="exact_bcd", max_cycles=300)
        assert sweeps_run(instance.problem, run, instance.x0, instance.constants) == 66
        t = assert_stop_is_exact(instance.problem, run, instance.x0, instance.constants)
        assert t.xs[54].tobytes() == t.xs[51].tobytes()
        assert all(t.xs[r].tobytes() != t.xs[r - 1].tobytes() for r in range(52, 301))

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_step_with_underflowing_square_moves(self, block_size):
        # a step of 1e-170 has a square of 0 in doubles, and still moves x
        dim = 2 * block_size
        b = np.zeros(dim)
        b[0] = 1e-170
        problem = CompositeQuadraticProblem(
            partition=BlockPartition(2, block_size), b=b,
            a_blocks=tuple(np.eye(dim)[:, k * block_size:(k + 1) * block_size]
                           for k in range(2)),
            h=(NonsmoothTerm.zero(),) * 2)
        run = SolverRun(algorithm="bcpg", max_cycles=3)
        t = assert_stop_is_exact(problem, run, np.zeros(dim), compute_constants(problem))
        assert t.xs[1][0] == 1e-170 and t.weighted_movement[0] == 0.0
        assert sweeps_taken(t) == 2

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_nan_step_counts_as_a_write(self, block_size):
        # a NaN never counts as settled, in any kernel
        dim = 2 * block_size
        problem = CompositeQuadraticProblem(
            partition=BlockPartition(2, block_size), b=np.zeros(dim),
            a_blocks=tuple(np.eye(dim)[:, k * block_size:(k + 1) * block_size]
                           for k in range(2)),
            h=(NonsmoothTerm.zero(),) * 2)
        x = np.ones(dim)
        sweep, refresh = solvers._make_sweep(problem, x, np.ones(2))
        refresh()
        x[0] = math.nan
        assert sweep([0, 1])
        assert solvers._gradient_sweep(np.zeros(dim), x, 1.0, None)


class TestBlockVisits:
    """The proximal block visit, from visit data built once per run and
    np.clip's ufunc for the box, against a textbook replay, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(problem=block_problems(), cycles=st.integers(1, 20),
           order=st.builds(BlockOrder, st.sampled_from(ORDER_KINDS), st.integers(0, 2**32 - 1)),
           data=st.data())
    def test_matches_textbook_replay(self, problem, cycles, order, data):
        constants = compute_constants(problem)
        assume(np.all(constants.L_k > 0))
        x0 = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5]),
            min_size=problem.partition.dimension, max_size=problem.partition.dimension)))
        for k, term in enumerate(problem.h):
            if term.kind == "box":
                sl = problem.block_slice(k)
                x0[sl] = np.clip(x0[sl], term.lo, term.hi)
        t = run_bcpg(problem, SolverRun(algorithm="bcpg", order=order, max_cycles=cycles), x0,
                     constants)
        assert_same_bits(t.xs, replay_block_sweeps(problem, t.orders, x0, t.stepsizes))

    def test_box_prox_has_np_clips_bits(self):
        # NaN payloads, infinities and signed zeros, against bounds of
        # either zero sign
        payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
        v = np.array([-math.inf, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, math.inf,
                      math.nan, -math.nan, payload])
        for lo, hi in [(-1.0, 1.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, math.inf),
                       (-math.inf, math.inf), (0.5, 0.5), (-0.5, -0.0)]:
            assert_same_bits(solvers._clip(v, lo, hi), np.clip(v, lo, hi))


# The two scalar kernels, forced on any problem: the dense one without a
# row structure, the entry-by-entry one with every row's nonzeros.
KERNELS = {"dense": property(lambda p: None),
           "sparse": property(lambda p: sparse_rows(p.gram, math.inf))}
SIGNED_CELLS = (-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5)


@st.composite
def sparse_scalar_problems(draw):
    """Scalar-block problems with structurally sparse Grams: A is K x K
    and diagonal, banded or dense, some of its columns are all zero, and
    its entries, b and x0 include -0.0 (structural zeros keep the sign of
    the entry they replace).  One term of any kind per block, a feasible
    start and an order."""
    k_count = draw(st.integers(1, 8))
    width = draw(st.sampled_from([0, 1, 2, k_count]))
    cells = st.sampled_from(SIGNED_CELLS)
    a = np.array(draw(st.lists(cells, min_size=k_count * k_count,
                               max_size=k_count * k_count))).reshape(k_count, k_count)
    i, j = np.indices(a.shape)
    a = np.where(np.abs(i - j) > width, np.copysign(0.0, a), a)
    zero_columns = np.array(draw(st.lists(st.booleans(), min_size=k_count, max_size=k_count)))
    a[:, zero_columns] = np.copysign(0.0, a[:, zero_columns])
    b = np.array(draw(st.lists(cells, min_size=k_count, max_size=k_count)))
    terms = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=k_count, max_size=k_count)):
        if kind in ("l1", "group_l2"):
            terms.append(NonsmoothTerm(kind, weight=draw(st.sampled_from([0.0, 0.1, 0.7, 2.0]))))
        elif kind == "box":
            lo = draw(st.sampled_from([-1.0, -0.0, 0.0, 0.5]))
            terms.append(NonsmoothTerm.box(lo, lo + draw(st.sampled_from([0.0, 0.5, 2.0]))))
        else:
            terms.append(NonsmoothTerm.zero())
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(k_count, 1),
        a_blocks=tuple(a[:, [c]] for c in range(k_count)), b=b, h=tuple(terms))
    x0 = np.array(draw(st.lists(cells, min_size=k_count, max_size=k_count)))
    for k, term in enumerate(terms):
        if term.kind == "box":
            x0[k] = min(max(x0[k], term.lo), term.hi)
    order = BlockOrder(draw(st.sampled_from(ORDER_KINDS)), seed=draw(st.integers(0, 2**32 - 1)))
    return problem, x0, order


def run_on_kernel(kernel, problem, run, x0, constants):
    """``run`` on the scalar kernel ``kernel`` (KERNELS), and the number of
    sweeps it took: one refresh, so one residual, per sweep, and one
    residual for the recorded values."""
    calls = []
    residual = CompositeQuadraticProblem.residual
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompositeQuadraticProblem, "gram_rows", KERNELS[kernel])
        patch.setattr(CompositeQuadraticProblem, "residual",
                      lambda p, x: calls.append(1) or residual(p, x))
        t = SOLVE[run.algorithm](problem, run, x0, constants)
    return t, len(calls) - 1


def assert_kernels_agree(problem, run, x0, constants):
    """The dense and the entry-by-entry kernel give the same trajectory,
    byte for byte, and take the same number of sweeps."""
    (dense, dense_sweeps), (sparse, sparse_sweeps) = (
        run_on_kernel(kernel, problem, run, x0, constants) for kernel in ("dense", "sparse"))
    for attribute in ("xs", "f", "weighted_movement", "grad_norm", "stepsizes"):
        assert_same_bits(getattr(sparse, attribute), getattr(dense, attribute))
    assert np.array_equal(sparse.orders, dense.orders)
    assert sparse_sweeps == dense_sweeps
    return dense


class TestSparseKernel:
    """The entry-by-entry scalar kernel against the dense one, bit for bit
    (_scalar_sweep's argument)."""

    @settings(max_examples=300, deadline=None)
    @given(case=sparse_scalar_problems(),
           algorithm=st.sampled_from(["bcpg", "exact_bcd", "cgd"]),
           policy=st.sampled_from(["block_lk", "global_l", "floor"]),
           cycles=st.integers(1, 25))
    def test_matches_the_dense_kernel(self, case, algorithm, policy, cycles):
        problem, x0, order = case
        if algorithm == "cgd":
            problem = CompositeQuadraticProblem(problem.partition, problem.a_blocks, problem.b,
                                                (NonsmoothTerm.zero(),) * len(problem.h))
        constants = compute_constants(problem)
        stepsizes = (StepsizePolicy.fixed(np.maximum(constants.L_k, 0.5)) if policy == "floor"
                     else StepsizePolicy(policy))
        run = SolverRun(algorithm=algorithm, order=order, stepsizes=stepsizes,
                        max_cycles=cycles)
        try:
            run.realize_stepsizes(constants)
        except ValueError:
            assume(False)
        assert_kernels_agree(problem, run, x0, constants)

    @pytest.mark.parametrize("algorithm, kind", [
        *((algorithm, kind) for algorithm in ("bcpg", "exact_bcd")
          for kind in ("zero", "l1", "group_l2")), ("cgd", "zero")])
    def test_infinite_and_nan_steps(self, algorithm, kind):
        # g_0 = 1e-5 * 1e308 over P_0 = G_00 = 1e-10 overflows: block 0
        # steps by -inf, block 1 by +inf, and G_02 = 0 makes g_2 NaN, as
        # the dense step does, so block 2 steps by NaN (l1's prox maps a
        # NaN point to 0)
        a = np.array([[1e-5, 1.0, 0.0], [0.0, 1.0, 1.0]])
        problem = CompositeQuadraticProblem(
            partition=BlockPartition(3, 1), a_blocks=tuple(a[:, [c]] for c in range(3)),
            b=np.array([-1e308, 0.0]), h=(NonsmoothTerm(kind, weight=0.1),) * 3)
        constants = compute_constants(problem)
        run = SolverRun(algorithm=algorithm, max_cycles=3)
        with np.errstate(all="ignore"):
            t = assert_kernels_agree(problem, run, np.zeros(3), constants)
        assert np.isinf(t.xs[1][0]) and np.isnan(t.xs[1][2]) == (kind != "l1")


class TestKernelSelection:
    """Which scalar kernel a problem takes, and its row structure: the
    speed of the scalar runs rests on both."""

    @staticmethod
    def rows_taken(problem):
        """The row structure each sweep of a two-cycle run received."""
        seen = []
        sweep = solvers._scalar_sweep

        def spy(table, gram, rows, *rest):
            seen.append(rows)
            return sweep(table, gram, rows, *rest)

        x0 = np.ones(problem.partition.dimension)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(), max_cycles=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_scalar_sweep", spy)
            run_bcpg(problem, run, x0, compute_constants(problem))
        return seen

    @pytest.mark.parametrize("problem", [
        *(make_toeplitz_instance(k)[0] for k in battery.TOEPLITZ_SIZES),
        *(make_table1_diagonal_qp(k, 2.0) for k in battery.TABLE1_SIZES),
        make_toeplitz_instance(300)[0]], ids=lambda p: f"K{p.partition.block_count}")
    def test_sparse_grams_take_the_row_kernel(self, problem):
        rows = problem.gram_rows
        assert rows is not None and rows is problem.gram_rows
        assert all(taken is rows for taken in self.rows_taken(problem))
        gram = problem.gram
        for k, row in enumerate(rows):
            assert row == tuple((m, gram[k, m]) for m in np.flatnonzero(gram[k]))
            assert all(type(m) is int and type(v) is float for m, v in row)

    def test_dense_lasso_takes_the_dense_kernel(self):
        # the size of the dense lasso that the plan_scale benchmark runs
        problem, _ = make_lasso_instance(200, 100, 0.5, 3)
        assert problem.gram_rows is None
        assert self.rows_taken(problem) == [None, None]

    def test_the_limit_is_inclusive(self):
        def all_ones(k):
            return CompositeQuadraticProblem(
                partition=BlockPartition(k, 1), a_blocks=(np.ones((1, 1)),) * k,
                b=np.zeros(1), h=(NonsmoothTerm.zero(),) * k)

        assert len(all_ones(SPARSE_ROW_NONZEROS).gram_rows[0]) == SPARSE_ROW_NONZEROS
        assert all_ones(SPARSE_ROW_NONZEROS + 1).gram_rows is None

    def test_row_structure_is_read_only(self):
        problem = make_table1_diagonal_qp(4, 2.0)
        rows = problem.gram_rows
        with pytest.raises(TypeError):
            rows[0] = ()
        with pytest.raises(TypeError):
            rows[0][0] = (0, 1.0)
        with pytest.raises(AttributeError):
            problem.gram_rows = None
        assert problem.gram_rows is rows
