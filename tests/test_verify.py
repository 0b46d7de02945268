"""Tests for the per-cycle checkers, the one-pass recursion oracle and the
tightness construction."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockcd import battery, bounds, verify
from blockcd.bounds import R0Estimate, beta_estimate, evaluate
from blockcd.linalg import spectral_norm
from blockcd.problems import (
    compute_constants,
    make_lasso_instance,
    make_table1_diagonal_qp,
    make_table1_full_qp,
    make_toeplitz_instance,
    oracle_from_quadratic,
    prox_blocks,
    toeplitz_start,
)
from blockcd.rng import SplitMix64
from blockcd.solvers import (
    ORDER_KINDS,
    BlockOrder,
    SolverRun,
    StepsizePolicy,
    Trajectory,
    run_bcd_exact,
    run_bcpg,
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
from test_solvers import KINDS, assert_close, block_problems, scalar_problems


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
        report = check_descent_bcpg("lasso", t)
        assert report.passed
        assert report.cycles_checked == 100

    def test_bcpg_descent_equality_case(self):
        # separable problem with P = L: descent inequality is tight
        qp = make_table1_diagonal_qp(4, 2.0)
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=1)
        t = run_bcpg(qp, run, np.ones(4), compute_constants(qp))
        report = check_descent_bcpg("diag", t)
        assert report.passed
        # f(x0) - 0 = (L/2)||x0||^2 exactly
        assert t.f[0] - t.f[1] == pytest.approx(0.5 * t.weighted_movement[0] ** 2,
                                                rel=1e-12)

    def test_stationary_start_trivial(self):
        qp = make_table1_diagonal_qp(3, 1.0)
        t = run_bcpg(qp, SolverRun(algorithm="bcpg", max_cycles=3), np.zeros(3),
                     compute_constants(qp))
        report = check_descent_bcpg("diag", t)
        assert report.passed
        assert report.worst_violation == 0.0

    def test_bcd_descent_on_toeplitz(self):
        p, x0 = make_toeplitz_instance(10)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=50), x0,
                          compute_constants(p))
        assert check_descent_bcd("toeplitz", t, verify.image_movements_sq(t, p)).passed

    def test_wrong_algorithm_rejected(self):
        p, x0 = make_toeplitz_instance(5)
        t = run_bcd_exact(p, SolverRun(algorithm="exact_bcd", max_cycles=1), x0,
                          compute_constants(p))
        with pytest.raises(ValueError):
            check_descent_bcpg("toeplitz", t)


class TestCostToGoChecks:
    def test_bcpg_cost_to_go_on_lasso(self):
        instance = battery.set_up("lasso", *make_lasso_instance(30, 20, 0.1, seed=31))
        assert instance.r0.certified
        t = battery.run_solver(instance, SolverRun(algorithm="bcpg", max_cycles=150))
        report = check_costtogo_bcpg(instance, "lasso", t)
        assert report.passed

    def test_tiny_problem_skipped(self):
        instance = battery.set_up("lasso", *make_lasso_instance(4, 2, 0.1, seed=32))
        instance = replace(instance, r0=R0Estimate(10.0, True, "given"))
        t = battery.run_solver(instance, SolverRun(algorithm="bcpg", max_cycles=10))
        report = check_costtogo_bcpg(instance, "lasso", t)
        assert report.advisory
        assert "skipped" in report.notes

    def test_converged_tail_trivial(self):
        instance = battery.set_up("diag", make_table1_diagonal_qp(4, 2.0), np.ones(4))
        assert instance.reference.f_star == 0.0
        instance = replace(instance, r0=R0Estimate(2.0, True, "given"))
        run = SolverRun(algorithm="bcpg", stepsizes=StepsizePolicy.global_l(),
                        max_cycles=5)
        report = check_costtogo_bcpg(instance, "diag", battery.run_solver(instance, run))
        assert report.passed  # movement and gap both vanish after cycle 1


class TestCGDCheck:
    @staticmethod
    def count_norms(monkeypatch):
        """The shapes of the matrices verify and the set-up's beta_estimate
        take a spectral norm of."""
        calls = []

        def counting(m):
            calls.append(m.shape)
            return spectral_norm(m)

        monkeypatch.setattr(verify, "spectral_norm", counting)
        monkeypatch.setattr(bounds, "spectral_norm", counting)
        return calls

    @staticmethod
    def cgd_run(p, order, cycles, x0):
        instance = battery.set_up("cgd", p, x0)
        t = battery.run_solver(instance, SolverRun(algorithm="cgd", max_cycles=cycles,
                                                   order=order))
        return t, instance

    def test_beta_and_exact_forms(self):
        t, instance = self.cgd_run(make_table1_full_qp(10, 2.0), BlockOrder.cyclic(), 60,
                                   np.ones(10))
        reports = check_descent_cgd(instance, "c", t)
        assert [r.check_name for r in reports] == [
            "descent_cgd:c_beta", "descent_cgd:c_exact_v", "descent_cgd:c_hbound"]
        assert all(r.passed for r in reports)

    def test_under_permutation_order(self, monkeypatch):
        # (L/K) 11^T with equal L_k: every order gives the same chain matrix,
        # so the two norms are computed once, ||H|| by the set-up
        calls = self.count_norms(monkeypatch)
        t, instance = self.cgd_run(make_table1_full_qp(8, 2.0),
                                   BlockOrder.random_permutation(17), 40, np.ones(8))
        assert len({tuple(order) for order in t.orders}) > 1
        assert all(r.passed for r in check_descent_cgd(instance, "c", t))
        assert len(calls) == 2

    def test_cyclic_order_computes_once(self, monkeypatch):
        p, x0 = make_toeplitz_instance(10)
        calls = self.count_norms(monkeypatch)
        t, instance = self.cgd_run(p, BlockOrder.cyclic(), 30, x0)
        check_descent_cgd(instance, "c", t)
        assert len(calls) == 2

    @staticmethod
    def report_bits(reports):
        return [(r.check_name, r.cycles_checked, r.worst_violation.hex(), r.passed, r.notes,
                 r.tolerance, r.advisory) for r in reports]

    @pytest.mark.parametrize("problem, x0, order", [
        (*make_toeplitz_instance(10), BlockOrder.cyclic()),
        (*make_toeplitz_instance(50), BlockOrder.cyclic()),
        (make_table1_diagonal_qp(100, 2.0), np.ones(100), BlockOrder.cyclic()),
        (make_table1_full_qp(100, 2.0), np.ones(100), BlockOrder.cyclic()),
        (make_table1_full_qp(8, 2.0), np.ones(8), BlockOrder.random_permutation(17))],
        ids=["toeplitz_K10", "toeplitz_K50", "table1_diag_K100", "table1_full_K100",
             "table1_full_K8_permuted"])
    def test_known_lower_norm_saves_one_svd(self, monkeypatch, problem, x0, order):
        # under the identity order, or on a permutation-invariant Q, H is
        # strict_lower_truncate(Q) bit for bit, so beta_estimate's exact
        # norm serves as ||H||: one SVD instead of two, the same reports
        t, instance = self.cgd_run(problem, order, 20, x0)
        calls = self.count_norms(monkeypatch)
        h = np.tril(instance.problem.gram[np.ix_(t.orders[0], t.orders[0])], k=-1)
        taken = check_descent_cgd(replace(instance, lower_norm=verify.spectral_norm(h).value),
                                  "c", t)
        assert len(calls) == 2
        given_norm = check_descent_cgd(instance, "c", t)
        assert len(calls) == 3
        assert self.report_bits(given_norm) == self.report_bits(taken)

    def test_fixed_permuted_order_takes_the_svd(self, monkeypatch):
        # the same non-identity order every cycle on the Toeplitz Hessian,
        # which is not permutation-invariant: H is not Q's strict lower
        # triangle, so its norm is taken whatever lower_norm says
        p, x0 = make_toeplitz_instance(10)
        t, instance = self.cgd_run(p, BlockOrder.cyclic(), 20, x0)
        order = [1, 0] + list(range(2, 10))
        t = replace(t, orders=np.array([order] * t.cycles, dtype=np.intp))
        calls = self.count_norms(monkeypatch)
        plain = check_descent_cgd(instance, "c", t)
        given_norm = check_descent_cgd(replace(instance, lower_norm=math.nan), "c", t)
        assert len(calls) == 4
        assert self.report_bits(given_norm) == self.report_bits(plain)

    def test_battery_passes_its_lower_norm(self, monkeypatch):
        instance = battery.get_instance("toeplitz_K10")
        scratch = oracle_from_quadratic(instance.problem, instance.constants)
        assert instance.lower_norm == beta_estimate(scratch).exact
        t = battery.run_solver(instance, SolverRun(algorithm="cgd", max_cycles=20))
        calls = self.count_norms(monkeypatch)
        verify.lemma_checks(instance, "c", t)
        assert len(calls) == 1

    def test_changing_order_skips_the_exact_forms(self, monkeypatch):
        # the Toeplitz Hessian is not permutation-invariant, so a changing
        # order would need a chain matrix per cycle: the check takes no
        # norm, skips the exact forms with the reason, and checks the
        # relaxed beta form on every cycle
        p, x0 = make_toeplitz_instance(10)
        t, instance = self.cgd_run(p, BlockOrder.random_permutation(5), 30, x0)
        assert len({tuple(order) for order in t.orders}) > 1
        calls = self.count_norms(monkeypatch)
        beta_form, *exact_forms = check_descent_cgd(instance, "perm", t)
        assert calls == []
        assert (beta_form.check_name, beta_form.cycles_checked) == ("descent_cgd:perm_beta", 30)
        assert beta_form.passed and not beta_form.advisory
        for report, form in zip(exact_forms, ("exact_v", "hbound")):
            assert report.check_name == f"descent_cgd:perm_{form}"
            assert (report.passed, report.advisory, report.cycles_checked) == (True, True, 0)
            assert report.notes == (
                "skipped: the visit order changes between cycles and Q, P are not "
                "permutation-invariant, so this form would take two 10x10 SVDs per "
                "cycle; descent_cgd:perm_beta checks the relaxed form on every cycle")


class TestEnvelopeCheck:
    def test_pairing_mismatch_rejected(self):
        instance = battery.set_up("toeplitz", *make_toeplitz_instance(6))
        t = battery.run_solver(instance, SolverRun(algorithm="exact_bcd", max_cycles=5))
        with pytest.raises(ValueError, match="applies to"):
            check_envelope(instance, "t", t, "gd")

    def test_gd_envelope_passes(self):
        instance = battery.set_up("toeplitz", *make_toeplitz_instance(10))
        t = battery.run_solver(instance, SolverRun(algorithm="gd", max_cycles=80))
        report = check_envelope(instance, "t", t, "gd")
        assert report.passed and not report.advisory

    def test_uncertified_inputs_are_advisory(self):
        instance = battery.set_up("toeplitz", *make_toeplitz_instance(10))
        instance = replace(instance, reference=replace(instance.reference, certified=False))
        t = battery.run_solver(instance, SolverRun(algorithm="gd", max_cycles=10))
        report = check_envelope(instance, "t", t, "gd")
        assert report.advisory

    def test_inapplicable_becomes_skip(self):
        instance = battery.set_up("lasso", *make_lasso_instance(4, 2, 0.1, seed=33))
        t = battery.run_solver(instance, SolverRun(algorithm="bcpg",
                                                   stepsizes=StepsizePolicy.global_l(),
                                                   max_cycles=5))
        report = check_envelope(instance, "t", t, "thm1_uniform")
        assert report.advisory and "skipped" in report.notes


class TestTruncationCheck:
    def test_ascent_within_bound(self):
        report = check_truncation_constant((2, 4, 8))
        assert report.passed and report.tolerance == 0.0
        assert "n=8: best ratio" in report.notes
        assert report.cycles_checked == sum(
            verify.truncation_ascent(n).size for n in (2, 4, 8))

    def test_n2_ascent_reaches_two_over_root_three(self):
        # the norm of lower triangular truncation on 2 x 2 matrices is 2/sqrt(3)
        assert verify.truncation_ascent(2).max() == pytest.approx(2.0 / math.sqrt(3.0),
                                                                  abs=5e-5)

    @pytest.mark.parametrize("n", battery.TRUNCATION_SIZES)
    def test_ascent_starts_at_hilbert_and_never_falls(self, n):
        ratios = verify.truncation_ascent(n)
        index = np.arange(n)
        hilbert = 1.0 / (index[:, None] - index[None, :] + 0.5)
        assert ratios[0] == pytest.approx(
            spectral_norm(np.tril(hilbert)).value / spectral_norm(hilbert).value, rel=1e-14)
        assert ratios.max() >= ratios[0]
        assert 1 <= ratios.size - 1 <= verify.TRUNCATION_STEPS
        # each step raises the ratio; the one that stops the ascent may fall
        # by rounding only
        assert (np.diff(ratios[:-1]) > 0.0).all()
        assert ratios[-1] >= ratios[-2] - 1e-12 * ratios[-2]

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
            check_truncation_constant((1,))


class TestDeterminism:
    def test_checks_repeat_identically(self):
        a = check_truncation_constant((2, 8))
        b = check_truncation_constant((2, 8))
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


class TestCheckSelection:
    """The advisory rules and bound specs stated once in verify."""

    def envelope_inputs(self, monkeypatch, name, algorithm, kinds):
        """kind -> (the spec its envelope check evaluates, whether the check
        is asserted) for the envelope checks of a battery run."""
        specs = []
        monkeypatch.setattr(verify, "evaluate",
                            lambda spec, r: specs.append(spec) or evaluate(spec, r))
        instance = battery.get_instance(name)
        t = battery.get_trajectory(name, algorithm, "block_lk", cycles=5)
        reports = verify.envelope_checks(instance, name, t, kinds)
        return instance, t, {kind: (spec, not report.advisory)
                             for kind, spec, report in zip(kinds, specs, reports)}

    def test_uncertified_radius_makes_envelopes_advisory_except_gd(self, monkeypatch):
        instance, _, seen = self.envelope_inputs(monkeypatch, "toeplitz_K5", "bcpg",
                                                 ("thm1_smooth", "prior_cyclic"))
        assert not instance.r0.certified and instance.reference.certified
        assert [certified for _, certified in seen.values()] == [False, False]
        instance, _, seen = self.envelope_inputs(monkeypatch, "toeplitz_K5", "gd", ("gd",))
        spec, certified = seen["gd"]
        assert certified and spec.r0_upper == instance.gd_radius() < instance.r0.value

    def test_prior_cyclic_is_advisory_on_certified_inputs(self, monkeypatch):
        instance, t, seen = self.envelope_inputs(monkeypatch, "lasso_00", "bcpg",
                                                 ("thm1_blockwise", "prior_cyclic"))
        assert instance.r0.certified and instance.reference.certified
        assert seen["thm1_blockwise"][1] and not seen["prior_cyclic"][1]
        spec = seen["thm1_blockwise"][0]
        assert (spec.r0_upper, spec.p_max, spec.p_min) == (
            instance.r0.value, float(t.stepsizes.max()), float(t.stepsizes.min()))

    def test_unpaired_bound_spec_uses_block_constants(self):
        instance = battery.get_instance("lasso_00")
        spec = verify.bound_spec(instance, "thm3", c_prior=2.0)
        c = instance.constants
        assert (spec.p_max, spec.p_min, spec.c_prior) == (c.L_max, c.L_min, 2.0)
        assert (spec.delta0, spec.beta) == (instance.delta0, instance.beta)


@st.composite
def generated_runs(draw):
    """An algorithm, a problem it applies to from the solver tests'
    strategies (scalar blocks, or blocks of 2 or 3 columns; any terms, or
    smooth), a feasible start, a cyclic or random-permutation order, a
    policy and a cycle count."""
    algorithm = draw(st.sampled_from(["bcpg", "exact_bcd", "cgd", "gd"]))
    smooth = algorithm in ("cgd", "gd") or draw(st.booleans())
    kinds = ("zero",) if smooth else KINDS
    if algorithm == "cgd" or draw(st.booleans()):
        problem, x0, order = draw(scalar_problems(kinds=kinds))
    else:
        problem = draw(block_problems(kinds=kinds))
        cells = st.integers(-3, 3).map(lambda v: v / 2.0)
        dimension = problem.partition.dimension
        x0 = prox_blocks(problem, np.array(draw(st.lists(cells, min_size=dimension,
                                                         max_size=dimension))), 1.0)
        order = BlockOrder(draw(st.sampled_from(ORDER_KINDS)),
                           seed=draw(st.integers(0, 2**32 - 1)))
    return (problem, x0, order, algorithm, draw(st.sampled_from(["block_lk", "global_l"])),
            draw(st.integers(1, 30)))


def paired_kinds(instance, algorithm: str, policy: str) -> list[str]:
    """The bound kinds the battery pairs with such a run, where their
    hypotheses hold."""
    c = instance.constants
    if algorithm == "bcpg":
        kinds = ["thm1_blockwise" if policy == "block_lk" else "thm1_uniform", "prior_cyclic"]
        if instance.problem.is_smooth() and policy == "block_lk":
            kinds.append("thm1_smooth")
        return kinds
    if algorithm == "exact_bcd":
        kinds = ["thm2_case3"]
        kinds += {"full_column": ["thm2_case1"], "full_row": ["thm2_case2"]}.get(c.rank_case, [])
        return kinds + (["thm2_scalar"] if c.block_size == 1 else [])
    return ["thm3", "coro1"] if algorithm == "cgd" else ["gd"]


class TestGeneratedProblems:
    """The paper's inequalities on generated problems, through the same
    set-up, dispatch and check selection as the battery and blockcd run."""

    @settings(max_examples=200, deadline=None)
    @given(case=generated_runs())
    def test_no_asserted_check_fails(self, case):
        problem, x0, order, algorithm, policy, cycles = case
        assume(problem.full_matrix().any())  # set-up needs L > 0
        instance = battery.set_up("generated", problem, x0)
        run = SolverRun(algorithm=algorithm, order=order, stepsizes=StepsizePolicy(policy),
                        max_cycles=cycles)
        try:
            run.realize_stepsizes(instance.constants)
        except ValueError:
            assume(False)  # block_lk bcpg or cgd meets a zero column: P_k = 0
        t = battery.run_solver(instance, run)
        reports = verify.checks_for(instance, "generated", t,
                                    paired_kinds(instance, algorithm, policy))
        assert len(reports) >= 1
        failed = [report for report in reports if not report.passed and not report.advisory]
        assert failed == []

    @settings(max_examples=100, deadline=None)
    @given(case=scalar_problems(kinds=("zero",)), cycles=st.integers(1, 30))
    def test_bcpg_with_block_stepsizes_is_exact_bcd(self, case, cycles):
        # on a smooth scalar block, the proximal step with P_k = L_k = ||a_k||^2
        # lands on the block minimizer
        problem, x0, order = case
        assume(np.all(problem.full_matrix().any(axis=0)))
        instance = battery.set_up("generated", problem, x0)
        t_bcpg, t_bcd = (battery.run_solver(instance, SolverRun(
            algorithm=algorithm, order=order, max_cycles=cycles))
            for algorithm in ("bcpg", "exact_bcd"))
        assert np.array_equal(t_bcpg.orders, t_bcd.orders)
        assert_close(t_bcpg.xs, t_bcd.xs)
        assert_close(t_bcpg.f, t_bcd.f)


def loop_violations(instance, t, kinds):
    """check name prefix -> the per-cycle normalized excesses of that check
    of run t, from one loop over the cycles in plain floats: the
    inequalities as the checks state them, one cycle at a time."""
    p, c = instance.problem, instance.constants
    f, movement = t.f.tolist(), t.weighted_movement.tolist()
    gap = None if t.gap is None else t.gap.tolist()
    cycles = range(t.cycles)

    def descent(rhs):
        return [(rhs[r] - (f[r] - f[r + 1])) / max(1.0, abs(f[r])) for r in cycles]

    def costtogo(coefficient, movements):
        return [(gap[r + 1] - coefficient * movements[r])
                / max(1.0, abs(gap[r + 1]), coefficient * movements[r]) for r in cycles]

    r0, n, k = instance.r0.value, c.block_size, c.block_count
    out = {}
    if t.algorithm == "bcpg":
        out["descent_bcpg"] = descent([0.5 * (m * m) for m in movement])
        p_min, p_max = float(t.stepsizes.min()), float(t.stepsizes.max())
        out["costtogo_bcpg"] = costtogo(
            r0 * math.log(2.0 * n * k) * (c.L / math.sqrt(p_min) + math.sqrt(p_max)), movement)
    elif t.algorithm == "exact_bcd":
        image_sq = verify.image_movements_sq(t, p).tolist()
        out["descent_bcd"] = descent([0.5 * value for value in image_sq])
        log2nk = math.log(2.0 * n * k)
        if c.rank_case == "full_column":
            movements = []
            for r in cycles:
                d = np.linalg.norm((t.xs[r + 1] - t.xs[r]).reshape(k, n), axis=1)
                movements.append(math.sqrt(float(np.sum((c.sigma_k * d) ** 2))))
            out["costtogo_bcd"] = costtogo((r0 / c.sigma_min) * log2nk * (c.L + c.L_max),
                                           movements)
        else:
            coefficient = (r0 / c.gamma_min * log2nk * (c.L + c.L_max)
                           if c.rank_case == "full_row"
                           else r0 * math.sqrt(c.L_max) * (k + 2))
            out["costtogo_bcd"] = costtogo(coefficient, [math.sqrt(v) for v in image_sq])
    elif t.algorithm == "cgd":
        grad = t.grad_norm.tolist()
        p_min, p_max = float(t.stepsizes.min()), float(t.stepsizes.max())
        denom = 2.0 * (p_max + instance.beta ** 2 / p_min)
        out["descent_cgd_beta"] = descent([grad[r] * grad[r] / denom for r in cycles])
        norms = []
        for order in t.orders:
            h = np.tril(instance.problem.gram[np.ix_(order, order)], k=-1)
            p_seq = t.stepsizes[order]
            v = np.diag(np.sqrt(p_seq)) + h @ np.diag(1.0 / np.sqrt(p_seq))
            norms.append((spectral_norm(v).value, spectral_norm(h).value))
        out["descent_cgd_exact_v"] = descent(
            [grad[r] * grad[r] / (2.0 * (v * v)) for r, (v, _) in zip(cycles, norms)])
        out["descent_cgd_hbound"] = [(h - instance.beta) / max(1.0, instance.beta)
                                     for _, h in norms]
    for kind in kinds:
        spec = verify.bound_spec(instance, kind, t)
        if kind == "gd":
            spec = replace(spec, r0_upper=instance.gd_radius())
        violations = []
        for r in range(1, t.cycles + 1):
            bound = evaluate(spec, r)
            violations.append(gap[r] if bound <= 0.0 else gap[r] / bound - 1.0)
        out[f"envelope_{kind}"] = violations
    return out


class TestArrayChecks:
    """The checks' array expressions against per-cycle loops, on battery
    trajectories, and NaN excesses."""

    @pytest.mark.parametrize("name, algorithm, policy", [
        ("lasso_00", "bcpg", "block_lk"), ("lasso_03", "bcpg", "global_l"),
        ("lasso_00", "exact_bcd", "block_lk"), ("thm2_case1", "exact_bcd", "block_lk"),
        ("thm2_case2", "exact_bcd", "block_lk"), ("thm2_case3_box", "exact_bcd", "block_lk"),
        ("toeplitz_K5", "cgd", "block_lk"), ("table1_full_K10", "cgd", "global_l"),
        ("toeplitz_K5", "gd", "block_lk")])
    @pytest.mark.parametrize("order_kind", ORDER_KINDS)
    def test_checks_equal_a_per_cycle_loop(self, name, algorithm, policy, order_kind):
        instance = battery.get_instance(name)
        cycles = battery.LASSO_CYCLES if name.startswith("lasso") else 60
        t = battery.get_trajectory(name, algorithm, policy, order_kind, 5, cycles)
        kinds = [kind for kind in paired_kinds(instance, algorithm, policy)
                 if kind != "thm2_case2" or instance.constants.rank_case == "full_row"]
        loops = loop_violations(instance, t, kinds)
        reports = verify.checks_for(instance, "case", t, kinds)
        compared = 0
        for report in reports:
            if "skipped" in report.notes:
                continue
            values = loops[report.check_name.replace(":case", "")]
            assert report.cycles_checked == len(values) == t.cycles
            worst = max([0.0] + values)
            assert math.copysign(1.0, report.worst_violation) == math.copysign(1.0, worst)
            assert report.worst_violation == worst, report.check_name
            compared += 1
        assert compared >= len(kinds) + (algorithm != "gd")

    @pytest.mark.parametrize("name", ["lasso_00", "thm2_case1", "thm2_case2", "thm2_case3_box"])
    def test_image_movements_equal_per_block_products(self, name):
        instance = battery.get_instance(name)
        p, c = instance.problem, instance.constants
        t = battery.get_trajectory(name, "exact_bcd", "block_lk", "cyclic", 0, 60)
        expected = []
        for r in range(t.cycles):
            d = (t.xs[r + 1] - t.xs[r]).reshape(c.block_count, c.block_size)
            expected.append(sum(float(np.sum((a @ d_k) ** 2))
                                for a, d_k in zip(p.a_blocks, d)))
        image_sq = verify.image_movements_sq(t, p)
        assert (image_sq >= 0.0).all()
        assert_close(image_sq, np.array(expected), rtol=1e-12)

    def test_nan_excess_fails(self):
        report = verify._report("nan", [0.0, math.nan, -1.0], 1.0)
        assert math.isnan(report.worst_violation) and not report.passed
        assert report.cycles_checked == 3
        assert verify._report("empty", [], 0.0).passed

    def test_infinite_objective_fails_descent(self):
        # f = inf at both ends of cycle 0: (rhs - (inf - inf)) / inf is NaN
        t = Trajectory(algorithm="bcpg", xs=np.zeros((3, 2)),
                       f=np.array([math.inf, math.inf, 0.0]),
                       weighted_movement=np.zeros(2), stepsizes=np.ones(2),
                       orders=np.array([[0, 1]] * 2, dtype=np.intp))
        report = check_descent_bcpg("inf", t)
        assert math.isnan(report.worst_violation) and not report.passed
