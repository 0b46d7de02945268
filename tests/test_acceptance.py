"""Acceptance criteria.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see every line).

Criterion 1 is split into its three sub-assertions.  Sub-assertion (b)
asserts the one-pass objective that the iterate pinned by (a) implies:
||T x1||^2 for x1 = (-1/2, ..., -1/2, -1/6, 5/12), derived in exact
rational arithmetic, which is 1 + (9/4)(K-4) + 49/36 + 1/8 because row K-2
of the residual is -7/6 once the second-to-last entry becomes -1/6.  The
published closed form 1 + (9/4)(K-3) + 1/8 is kept only as an asserted
discrepancy of exactly 8/9; the ``tightness_objective_K*`` verifier checks
still compare against the published value and fail by that constant (see
the tightness-check docstring and the README).
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from blockcd import battery
from blockcd.bounds import BoundSpec, evaluate
from blockcd.linalg import spectral_norm
from blockcd.problems import (
    BlockPartition,
    CompositeQuadraticProblem,
    NonsmoothTerm,
    ProblemConstants,
    compute_constants,
    make_toeplitz_instance,
    toeplitz_matrix,
)
from blockcd.rng import SplitMix64
from blockcd.solvers import SolverRun, StepsizePolicy, run_bcd_exact, run_bcpg
from blockcd.verify import bound_spec, expected_one_pass_iterate


@contextlib.contextmanager
def criterion(number: str, label: str, time_limit: float, detail: list | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    extra = f" {detail[0]}" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s){extra}")
    assert elapsed < time_limit, f"runtime {elapsed:.2f}s exceeded {time_limit}s"


def one_pass_trajectories(k):
    problem, x0 = make_toeplitz_instance(k)
    constants = compute_constants(problem)
    kwargs = dict(stepsizes=StepsizePolicy.block_lk(), max_cycles=1)
    t_bcd = run_bcd_exact(problem, SolverRun(algorithm="exact_bcd", **kwargs),
                          x0, constants=constants)
    t_bcpg = run_bcpg(problem, SolverRun(algorithm="bcpg", **kwargs),
                      x0, constants=constants)
    return problem, x0, t_bcd, t_bcpg


class TestCriterion1Tightness:
    SIZES = (5, 10, 25, 50)

    def test_1a_one_pass_iterate(self):
        with criterion("1a", "one-pass iterate", 1.0):
            for k in self.SIZES:
                _, _, t_bcd, t_bcpg = one_pass_trajectories(k)
                expected = expected_one_pass_iterate(k)
                assert np.abs(t_bcd.xs[1] - expected).max() <= 1e-12
                assert np.abs(t_bcpg.xs[1] - expected).max() <= 1e-12

    def test_1b_one_pass_objective_reference_value(self):
        # The expected value is ||T x1||^2 of the closed-form iterate of 1a,
        # computed here in exact rational arithmetic (row K-2 of T x1 is
        # -7/6, not -3/2).  The published closed form is kept only as an
        # asserted 8/9 discrepancy; the verifier's tightness_objective_K*
        # checks still compare against it.
        with criterion("1b", "one-pass objective reference value", 1.0):
            for k in self.SIZES:
                _, _, t_bcd, t_bcpg = one_pass_trajectories(k)
                x1 = [Fraction(-1, 2)] * (k - 2) + [Fraction(-1, 6),
                                                    Fraction(5, 12)]
                residual = [sum(x1[max(0, i - 1):i + 2]) for i in range(k)]
                derived = sum(r * r for r in residual)
                assert derived == (1 + Fraction(9, 4) * (k - 4)
                                   + Fraction(49, 36) + Fraction(1, 8))
                published = 1 + Fraction(9, 4) * (k - 3) + Fraction(1, 8)
                assert published - derived == Fraction(8, 9)
                for label, traj in (("exact_bcd", t_bcd), ("bcpg", t_bcpg)):
                    assert abs(traj.f[1] - float(derived)) <= 1e-12, (
                        f"K={k}: {label} one-pass objective {traj.f[1]:.12f} "
                        f"differs from ||T x1||^2 = {float(derived):.12f}")

    def test_1c_gap_ratio_lower_bound(self):
        with criterion("1c", "one-pass gap ratio lower bound", 1.0):
            for k in self.SIZES:
                _, x0, t_bcd, _ = one_pass_trajectories(k)
                ratio = t_bcd.f[1] / float(x0 @ x0)  # optimum is 0
                assert ratio >= 9.0 * (k - 3) / (4.0 * (k - 1))


class TestCriterion2Spectrum:
    def test_2_toeplitz_spectrum(self):
        with criterion("2", "tridiagonal spectrum and global constant", 1.0):
            for k in (4, 10, 50):
                top = spectral_norm(toeplitz_matrix(k)).value
                assert top == pytest.approx(1.0 + 2.0 * math.cos(math.pi / (k + 1)),
                                            abs=1e-8)
                problem, _ = make_toeplitz_instance(k)
                constants = compute_constants(problem)
                assert constants.L <= 18.0
                assert constants.L == pytest.approx(2.0 * top ** 2, rel=1e-10)


class TestCriterion3Thm1Envelopes:
    def test_3_bcpg_envelopes(self):
        detail = []
        with criterion("3", "proximal-sweep envelopes on the l1 battery", 30.0,
                       detail):
            worst = 0.0
            for name in battery.lasso_names():
                instance = battery.get_instance(name)
                assert instance.r0.certified and instance.reference.certified
                for policy, kind in (("global_l", "thm1_uniform"),
                                     ("block_lk", "thm1_blockwise")):
                    t = battery.get_trajectory(name, "bcpg", policy,
                                               "cyclic", 0, 300)
                    spec = bound_spec(instance, kind, t)
                    for r in range(1, t.cycles + 1):
                        ratio = t.gap[r] / evaluate(spec, r)
                        worst = max(worst, ratio)
                        assert ratio <= 1.0 + 1e-8
            detail.append(f"worst gap/bound ratio {worst:.3e}")


class TestCriterion4Thm2Envelopes:
    def test_4_exact_bcd_envelopes(self):
        detail = []
        with criterion("4", "exact-sweep envelopes per rank case", 30.0, detail):
            asserted = {"thm2_case1": "thm2_case1", "thm2_case2": "thm2_case2",
                        "thm2_case3_box": "thm2_case3"}
            worst = 0.0
            for name, kind in asserted.items():
                instance = battery.get_instance(name)
                assert instance.r0.certified and instance.reference.certified
                t = battery.get_trajectory(name, "exact_bcd", "block_lk",
                                           "cyclic", 0, 300)
                spec = bound_spec(instance, kind, t)
                for r in range(1, t.cycles + 1):
                    ratio = t.gap[r] / evaluate(spec, r)
                    worst = max(worst, ratio)
                    assert ratio <= 1.0 + 1e-8
            # heuristic-radius variant: reported, not asserted
            free = battery.get_instance("thm2_case3_free")
            assert not free.r0.certified
            t = battery.get_trajectory("thm2_case3_free", "exact_bcd", "block_lk",
                                       "cyclic", 0, 300)
            spec = bound_spec(free, "thm2_case3", t)
            reported = max(t.gap[r] / evaluate(spec, r)
                           for r in range(1, t.cycles + 1))
            detail.append(f"worst asserted ratio {worst:.3e}; heuristic-radius "
                          f"case reported ratio {reported:.3e} (not asserted)")


class TestCriterion5LemmaSuites:
    def test_5_lemma_suite(self):
        detail = []
        with criterion("5", "per-cycle descent and cost-to-go estimates", 60.0,
                       detail):
            reports = battery.suite_lemmas()
            failures = [r for r in reports if not r.passed and not r.advisory]
            assert not failures, [r.check_name for r in failures]
            names = [r.check_name for r in reports]
            # the chain checks include the exact norm form and the strict
            # lower-triangle bound for both coupled sizes
            for k in (10, 100):
                assert any(f"descent_cgd:table1_full_K{k}" in n and "exact_v" in n
                           for n in names)
                assert any(f"descent_cgd:table1_full_K{k}" in n and "hbound" in n
                           for n in names)
            worst = max(r.worst_violation for r in reports if not r.advisory)
            detail.append(f"{len(reports)} checks, worst violation {worst:.3e}")


class TestCriterion6GDBaseline:
    def test_6_gd_envelope(self):
        detail = []
        with criterion("6", "gradient-descent baseline envelope", 5.0, detail):
            reports = battery.suite_gd()
            assert reports
            for report in reports:
                assert report.passed, report.check_name
                assert not report.advisory
            detail.append(f"{len(reports)} smooth instances")


class TestCriterion7BoundIdentity:
    def test_7_prior_to_new_ratio(self):
        with criterion("7", "prior-to-new bound ratio identity", 1.0):
            for k in (2, 10, 100):
                # table1_full's constants with L = K, so that L_k = L/K = 1 exactly
                constants = ProblemConstants(block_count=k, block_size=1, L=float(k),
                                             L_k=np.ones(k), L_max=1.0, L_min=1.0)
                common = dict(constants=constants, r0_upper=1.0,
                              p_max=float(k), p_min=float(k))
                beck = BoundSpec(kind="prior_beck", **common)
                coro = BoundSpec(kind="coro1", **common)
                assert evaluate(beck, 1) / evaluate(coro, 1) == float(1 + k)
                assert evaluate(beck, 2) / evaluate(coro, 2) == float(1 + k)


class TestCriterion8Truncation:
    def test_8_truncation_constant(self):
        detail = []
        with criterion("8", "triangular-truncation norm bound", 30.0, detail):
            assert battery.TRUNCATION_SIZES == (2, 4, 8, 16, 32, 64)
            assert battery.TRUNCATION_SAMPLES == 100
            report = battery.suite_truncation(7)[0]
            assert report.passed
            assert report.cycles_checked == 600
            detail.append(report.notes.split(";")[-1].strip())


class TestCriterion9Equivalence:
    def test_9_proximal_equals_exact_on_smooth_scalar(self):
        detail = []
        with criterion("9", "proximal/exact sweep equivalence", 10.0, detail):
            worst = 0.0
            for i in range(20):
                gen = SplitMix64(5_000 + i)
                rows, blocks = 9, 6
                a = gen.normal_matrix(rows, blocks)
                problem = CompositeQuadraticProblem(
                    partition=BlockPartition(blocks, 1),
                    a_blocks=tuple(a[:, [j]] for j in range(blocks)),
                    b=gen.normal_vector(rows),
                    h=tuple(NonsmoothTerm.zero() for _ in range(blocks)))
                x0 = gen.normal_vector(blocks)
                constants = compute_constants(problem)
                t_bcpg = run_bcpg(problem,
                                  SolverRun(algorithm="bcpg", max_cycles=50),
                                  x0, constants=constants)
                t_bcd = run_bcd_exact(problem,
                                      SolverRun(algorithm="exact_bcd", max_cycles=50),
                                      x0, constants=constants)
                for r in range(51):
                    distance = float(np.linalg.norm(t_bcpg.xs[r] - t_bcd.xs[r]))
                    worst = max(worst, distance)
                    assert distance <= 1e-12
            detail.append(f"20 instances, worst per-cycle distance {worst:.3e}")


class TestCriterion10OrderRobustness:
    def test_10_random_permutation_reruns(self):
        detail = []
        with criterion("10", "random-permutation reruns of criteria 3-5", 90.0,
                       detail):
            total = 0
            for seed in (1, 2, 3):
                lemma_reports = battery.suite_lemmas("random_permutation", seed)
                envelope_reports = battery.suite_envelopes("random_permutation", seed)
                for report in lemma_reports + envelope_reports:
                    if not report.advisory:
                        assert report.passed, (seed, report.check_name)
                total += len(lemma_reports) + len(envelope_reports)
            detail.append(f"{total} checks over 3 seeds")
