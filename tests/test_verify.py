"""Tests for the per-cycle checkers, the one-pass recursion oracle and the
tightness construction."""

import csv

import numpy as np
import pytest

from blockcd import verify
from blockcd.bounds import BoundSpec, beta_estimate, r0_upper_estimate
from blockcd.linalg import spectral_norm
from blockcd.problems import (
    compute_constants,
    eval_objective,
    make_lasso_instance,
    make_table1_diagonal_qp,
    make_table1_full_qp,
    make_toeplitz_instance,
    oracle_from_quadratic,
    toeplitz_start,
)
from blockcd.rng import SplitMix64
from blockcd.solvers import (
    BlockOrder,
    SolverRun,
    StepsizePolicy,
    reference_optimum,
    run_bcd_exact,
    run_bcpg,
    run_cgd,
    run_gd,
)
from blockcd.verify import (
    CheckReport,
    one_pass_recursion_oracle,
    check_costtogo_bcpg,
    check_descent_bcd,
    check_descent_bcpg,
    check_descent_cgd,
    check_envelope,
    check_truncation_constant,
    expected_one_pass_iterate,
    report_lines,
    reports_to_csv,
    run_tightness_case,
)


def one_cycle_runs(k):
    """(x0, exact_bcd, bcpg): one-cycle block_lk runs of the K = k
    adversarial instance from its canonical start."""
    problem, x0 = make_toeplitz_instance(k)
    constants = compute_constants(problem)
    return (x0, run_bcd_exact(problem, SolverRun(algorithm="exact_bcd", max_cycles=1), x0,
                              constants),
            run_bcpg(problem, SolverRun(algorithm="bcpg", max_cycles=1), x0, constants))


def tightness_case(k):
    return run_tightness_case(*one_cycle_runs(k))


class TestOnePassOracle:
    def test_canonical_start_first_entry(self):
        # -(2 * 1/8 + 3/4)/2 = -1/2
        x1 = one_pass_recursion_oracle(toeplitz_start(7), 7)
        assert x1[0] == pytest.approx(-0.5, abs=1e-15)

    def test_canonical_start_k10(self):
        x1 = one_pass_recursion_oracle(toeplitz_start(10), 10)
        np.testing.assert_allclose(
            x1, [-0.5] * 8 + [-1.0 / 6.0, 5.0 / 12.0], atol=1e-15)

    def test_zero_is_fixed_point(self):
        np.testing.assert_array_equal(one_pass_recursion_oracle(np.zeros(6), 6),
                                      np.zeros(6))

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            one_pass_recursion_oracle(np.ones(4), 4)

    @pytest.mark.parametrize("k", [5, 10, 25])
    def test_agrees_with_solver_on_random_starts(self, k):
        problem, _ = make_toeplitz_instance(k)
        constants = compute_constants(problem)
        run = SolverRun(algorithm="exact_bcd", max_cycles=1)
        gen = SplitMix64(1000 + k)
        for _ in range(20):
            x0 = 2.0 * gen.normal_vector(k)
            t = run_bcd_exact(problem, run, x0, constants=constants)
            oracle = one_pass_recursion_oracle(x0, k)
            assert np.abs(t.xs[1] - oracle).max() <= 1e-12


class TestTightnessCase:
    def test_report_structure(self):
        reports = tightness_case(10)
        names = [r.check_name for r in reports]
        assert names == ["tightness_iterate_exact_bcd_K10",
                         "tightness_iterate_bcpg_K10",
                         "tightness_objective_K10",
                         "tightness_ratio_K10"]

    @pytest.mark.parametrize("k", [5, 10, 25, 50])
    def test_iterates_and_ratio_pass(self, k):
        reports = {r.check_name: r for r in tightness_case(k)}
        assert reports[f"tightness_iterate_exact_bcd_K{k}"].passed
        assert reports[f"tightness_iterate_bcpg_K{k}"].passed
        assert reports[f"tightness_ratio_K{k}"].passed

    @pytest.mark.parametrize("k", [5, 10])
    def test_objective_check_fails_by_the_known_constant(self, k):
        # the reference formula exceeds the recursion-implied value by 8/9;
        # the check reports that honestly
        reports = {r.check_name: r for r in tightness_case(k)}
        objective = reports[f"tightness_objective_K{k}"]
        assert not objective.passed
        assert objective.worst_violation == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert "8/9" in objective.notes

    def test_expected_iterate_helper(self):
        expected = expected_one_pass_iterate(6)
        np.testing.assert_allclose(expected,
                                   [-0.5, -0.5, -0.5, -0.5, -1 / 6, 5 / 12])

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            tightness_case(4)

    def test_swapped_trajectories_rejected(self):
        x0, t_bcd, t_bcpg = one_cycle_runs(5)
        with pytest.raises(ValueError, match="exact_bcd and a bcpg"):
            run_tightness_case(x0, t_bcpg, t_bcd)


class TestDescentChecks:
    def test_bcpg_descent_on_lasso(self):
        p, x0 = make_lasso_instance(12, 6, 0.2, seed=30)
        t = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=100), x0, compute_constants(p))
        report = check_descent_bcpg(t, p)
        assert report.passed
        assert report.cycles_checked == 100

    def test_bcpg_descent_equality_case(self):
        # separable problem with P = L: descent inequality is tight
        qp = make_table1_diagonal_qp(4, 2.0)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=1)
        t = run_bcpg(qp, run, np.ones(4), compute_constants(qp))
        report = check_descent_bcpg(t, qp)
        assert report.passed
        # f(x0) - 0 = (L/2)||x0||^2 exactly
        assert t.f[0] - t.f[1] == pytest.approx(0.5 * t.weighted_movement[0] ** 2,
                                                rel=1e-12)

    def test_stationary_start_trivial(self):
        qp = make_table1_diagonal_qp(3, 1.0)
        t = run_bcpg(qp, SolverRun(algorithm="bcpg", max_cycles=3), np.zeros(3),
                     compute_constants(qp))
        report = check_descent_bcpg(t, qp)
        assert report.passed
        assert report.worst_violation == 0.0

    def test_bcd_descent_on_toeplitz(self):
        p, x0 = make_toeplitz_instance(10)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=50), x0,
                          compute_constants(p))
        assert check_descent_bcd(t, p).passed

    def test_wrong_algorithm_rejected(self):
        p, x0 = make_toeplitz_instance(5)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=1), x0,
                          compute_constants(p))
        with pytest.raises(ValueError):
            check_descent_bcpg(t, p)


class TestCostToGoChecks:
    def test_bcpg_cost_to_go_on_lasso(self):
        p, x0 = make_lasso_instance(30, 20, 0.1, seed=31)
        c = compute_constants(p)
        ref = reference_optimum(p, c)
        r0 = r0_upper_estimate(p, x0, eval_objective(p, x0), ref.x_star, ref.f_star, c)
        assert r0.certified
        t = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=150), x0, c)
        t.with_gap(ref.f_star)
        report = check_costtogo_bcpg(t, p, r0.value, c)
        assert report.passed

    def test_tiny_problem_skipped(self):
        p, x0 = make_lasso_instance(4, 2, 0.1, seed=32)
        c = compute_constants(p)
        ref = reference_optimum(p, c)
        t = run_bcpg(p, SolverRun(algorithm="bcpg", max_cycles=10), x0, c)
        t.with_gap(ref.f_star)
        report = check_costtogo_bcpg(t, p, 10.0, c)
        assert report.advisory
        assert "skipped" in report.notes

    def test_converged_tail_trivial(self):
        qp = make_table1_diagonal_qp(4, 2.0)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=5)
        c = compute_constants(qp)
        t = run_bcpg(qp, run, np.ones(4), c).with_gap(0.0)
        report = check_costtogo_bcpg(t, qp, 2.0, c)
        assert report.passed  # movement and gap both vanish after cycle 1


class TestCGDCheck:
    @staticmethod
    def count_norms(monkeypatch):
        """The shapes of the matrices verify takes a spectral norm of."""
        calls = []

        def counting(m):
            calls.append(m.shape)
            return spectral_norm(m)

        monkeypatch.setattr(verify, "spectral_norm", counting)
        return calls

    @staticmethod
    def cgd_run(p, order, cycles, x0):
        c = compute_constants(p)
        o = oracle_from_quadratic(p, c)
        beta = beta_estimate(o).estimate
        t = run_cgd(p, SolverRun(algorithm="cgd", max_cycles=cycles, order=order), x0, c)
        return t, o, beta

    def test_beta_and_exact_forms(self):
        qp = make_table1_full_qp(10, 2.0)
        c = compute_constants(qp)
        o = oracle_from_quadratic(qp, c)
        beta = beta_estimate(o).estimate
        t = run_cgd(qp, SolverRun(algorithm="cgd", max_cycles=60), np.ones(10), c)
        reports = check_descent_cgd(t, o, beta)
        assert [r.check_name for r in reports] == [
            "descent_cgd_beta", "descent_cgd_exact_v", "descent_cgd_hbound"]
        assert all(r.passed for r in reports)

    def test_under_permutation_order(self, monkeypatch):
        # (L/K) 11^T with equal L_k: every order gives the same chain matrix,
        # so the two norms are computed once
        t, o, beta = self.cgd_run(make_table1_full_qp(8, 2.0),
                                    BlockOrder.random_permutation(17), 40, np.ones(8))
        assert len({tuple(order) for order in t.orders}) > 1
        calls = self.count_norms(monkeypatch)
        assert all(r.passed for r in check_descent_cgd(t, o, beta))
        assert len(calls) == 2

    def test_cyclic_order_computes_once(self, monkeypatch):
        p, x0 = make_toeplitz_instance(10)
        t, o, beta = self.cgd_run(p, BlockOrder.cyclic(), 30, x0)
        calls = self.count_norms(monkeypatch)
        check_descent_cgd(t, o, beta)
        assert len(calls) == 2

    def test_changing_hessian_recomputes_bit_for_bit(self, monkeypatch):
        p, x0 = make_toeplitz_instance(10)
        t, o, beta = self.cgd_run(p, BlockOrder.random_permutation(5), 30, x0)
        calls = self.count_norms(monkeypatch)
        reports = check_descent_cgd(t, o, beta)

        # every cycle's two norms, recomputed from scratch
        p_max, p_min = float(t.stepsizes.max()), float(t.stepsizes.min())
        beta_v, exact_v, hbound_v = [], [], []
        changes, previous = 0, None
        for r, order in enumerate(t.orders):
            q = o.hessian[np.ix_(order, order)]
            h = np.tril(q, k=-1)
            p_seq = t.stepsizes[list(order)]
            v = np.diag(np.sqrt(p_seq)) + h @ np.diag(1.0 / np.sqrt(p_seq))
            v_norm, h_norm = spectral_norm(v).value, spectral_norm(h).value
            if previous is None or not (np.array_equal(q, previous[0])
                                        and np.array_equal(p_seq, previous[1])):
                changes += 1
            previous = (q, p_seq)
            lhs = t.f[r] - t.f[r + 1]
            scale = max(1.0, abs(t.f[r]))
            beta_v.append((t.grad_norm[r] ** 2 / (2.0 * (p_max + beta ** 2 / p_min)) - lhs)
                          / scale)
            exact_v.append((t.grad_norm[r] ** 2 / (2.0 * v_norm ** 2) - lhs) / scale)
            hbound_v.append((h_norm - beta) / max(1.0, beta))
        assert changes > 1
        assert len(calls) == 2 * changes
        assert [(r.cycles_checked, r.worst_violation) for r in reports] == [
            (len(values), max([0.0] + values)) for values in (beta_v, exact_v, hbound_v)]


class TestEnvelopeCheck:
    def test_pairing_mismatch_rejected(self):
        p, x0 = make_toeplitz_instance(6)
        c = compute_constants(p)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=5), x0, c)
        t.with_gap(0.0)
        spec = BoundSpec(kind="gd", constants=c, r0_upper=1.0)
        with pytest.raises(ValueError, match="applies to"):
            check_envelope(t, spec)

    def test_gd_envelope_passes(self):
        p, x0 = make_toeplitz_instance(10)
        c = compute_constants(p)
        t = run_gd(p, SolverRun(algorithm="gd", max_cycles=80), x0, c).with_gap(0.0)
        spec = BoundSpec(kind="gd", constants=c,
                         r0_upper=float(np.linalg.norm(x0)))
        report = check_envelope(t, spec)
        assert report.passed and not report.advisory

    def test_uncertified_inputs_are_advisory(self):
        p, x0 = make_toeplitz_instance(10)
        c = compute_constants(p)
        t = run_gd(p, SolverRun(algorithm="gd", max_cycles=10), x0, c).with_gap(0.0)
        spec = BoundSpec(kind="gd", constants=c, r0_upper=float(np.linalg.norm(x0)))
        report = check_envelope(t, spec, r0_certified=False)
        assert report.advisory

    def test_inapplicable_becomes_skip(self):
        p, x0 = make_lasso_instance(4, 2, 0.1, seed=33)
        c = compute_constants(p)
        ref = reference_optimum(p, c)
        t = run_bcpg(p, SolverRun(algorithm="bcpg",
                                  stepsizes=StepsizePolicy.global_l(),
                                  max_cycles=5), x0, c).with_gap(ref.f_star)
        spec = BoundSpec(kind="thm1_uniform", constants=c, r0_upper=1.0, delta0=1.0)
        report = check_envelope(t, spec)
        assert report.advisory and "skipped" in report.notes


class TestTruncationCheck:
    def test_gaussian_samples_within_bound(self):
        report = check_truncation_constant((2, 4, 8), 25, seed=7)
        assert report.passed
        assert "n=8" in report.notes

    def test_trivial_ratios(self):
        # truncation kills the only entry
        z = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_norm(np.tril(z)).value == 0.0
        # lower-triangular matrices are fixed points: ratio exactly 1
        lower = np.array([[1.0, 0.0], [2.0, 3.0]])
        ratio = spectral_norm(np.tril(lower)).value / spectral_norm(lower).value
        assert ratio == 1.0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            check_truncation_constant((1,), 5, seed=0)


class TestDeterminism:
    def test_checks_repeat_identically(self):
        a = check_truncation_constant((2, 8), 10, seed=3)
        b = check_truncation_constant((2, 8), 10, seed=3)
        assert a == b
        r1 = tightness_case(5)
        r2 = tightness_case(5)
        assert r1 == r2


class TestReportOutput:
    def test_lines_and_csv(self, tmp_path):
        reports = tightness_case(5)
        lines = report_lines(reports)
        assert len(lines) == 4
        assert any("FAIL" in line for line in lines)  # the objective check
        path = tmp_path / "reports.csv"
        reports_to_csv(reports, path)
        rows = path.read_text(encoding="utf-8").strip().split("\n")
        assert rows[0].startswith("check_name,passed")
        assert len(rows) == 5

    def test_csv_notes_round_trip(self, tmp_path):
        notes = ['ratio "a", then b', '""', "plain", 'x,"y"']
        reports = [CheckReport(f"check_{i}", 1, 0.0, True, notes=note)
                   for i, note in enumerate(notes)]
        path = tmp_path / "reports.csv"
        reports_to_csv(reports, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["notes"] for row in rows] == notes
        assert [row["check_name"] for row in rows] == [r.check_name for r in reports]
