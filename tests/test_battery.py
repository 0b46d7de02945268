"""Tests for the built-in instance battery and suite bookkeeping."""

import numpy as np
import pytest

from blockcd import battery, bounds, cli, problems, solvers, verify
from blockcd.solvers import BlockOrder, SolverRun, StepsizePolicy
from oracles import assert_finished

RUNNERS = {"bcpg": "run_bcpg", "exact_bcd": "run_bcd_exact", "cgd": "run_cgd", "gd": "run_gd"}


class TestInstances:
    def test_registry_names_resolve(self):
        for name in (battery.lasso_names() + battery.toeplitz_names()
                     + battery.table1_names() + battery.thm2_names()):
            instance = battery.get_instance(name)
            assert instance.name == name
            assert instance.delta0 >= 0.0
            assert instance.r0.value >= 0.0

    def test_unknown_name_rejected(self):
        # only the declared names are instances, not every name of their pattern
        for name in ("mystery_instance", "toeplitz_K7", "lasso_10"):
            with pytest.raises(KeyError, match=name):
                battery.get_instance(name)

    def test_thm2_seed_of_the_wrong_rank_case_is_named(self, monkeypatch):
        monkeypatch.setitem(battery.THM2_CASES, "thm2_case1",
                            battery.THM2_CASES["thm2_case1"][:-1] + ("full_row",))
        battery.get_instance.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="thm2_case1.*'full_column', not 'full_row'"):
                battery.get_instance("thm2_case1")
        finally:
            battery.get_instance.cache_clear()

    def test_lasso_instances_certified(self):
        for name in battery.lasso_names():
            instance = battery.get_instance(name)
            assert instance.r0.certified
            assert instance.reference.certified
            assert instance.constants.rank_case == "full_column"

    def test_rank_cases(self):
        assert battery.get_instance("thm2_case1").constants.rank_case == "full_column"
        assert battery.get_instance("thm2_case2").constants.rank_case == "full_row"
        assert battery.get_instance("thm2_case3_box").constants.rank_case == "neither"
        assert not battery.get_instance("thm2_case3_free").r0.certified

    def test_trajectory_cache_returns_same_object(self):
        t1 = battery.get_trajectory("toeplitz_K5", "bcpg", "block_lk",
                                    "cyclic", 0, 20)
        t2 = battery.get_trajectory("toeplitz_K5", "bcpg", "block_lk",
                                    "cyclic", 0, 20)
        assert t1 is t2
        assert t1.gap is not None

    @pytest.mark.parametrize("name", ["toeplitz_K5", "thm2_case1", "thm2_case3_free"])
    def test_gd_reuses_instance_constants(self, name):
        # gd steps by 1/L of the constants set_up computed
        instance = battery.get_instance(name)
        t = battery.get_trajectory(name, "gd", "block_lk", "cyclic", 0, 7)
        assert t.cycles == 7
        assert (t.stepsizes == instance.constants.L).all()

    def test_suite_all_sets_up_each_instance_once(self, monkeypatch):
        # every binding of the two set-up functions in the package is
        # counted, so a second set-up anywhere would show
        calls = {"compute_constants": [], "reference_optimum": []}
        for name, seen in calls.items():
            original = getattr(battery, name)

            def counting(problem, *args, _original=original, _seen=seen, **kwargs):
                _seen.append(problem)
                return _original(problem, *args, **kwargs)

            for module in (battery, bounds, cli, problems, solvers, verify):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        for cached in (battery.get_instance, battery.get_trajectory, battery._lasso_family):
            cached.cache_clear()
        battery.suite_all()
        names = (battery.lasso_names() + battery.toeplitz_names()
                 + battery.table1_names() + battery.thm2_names())
        expected = sorted(id(battery.get_instance(name).problem) for name in names)
        for seen in calls.values():
            assert sorted(id(problem) for problem in seen) == expected

    def test_cached_trajectory_arrays_are_read_only(self):
        t = battery.get_trajectory("toeplitz_K5", "bcpg", "block_lk", "cyclic", 0, 20)
        for values in (t.xs, t.f, t.gap, t.weighted_movement, t.stepsizes, t.grad_norm):
            with pytest.raises(ValueError):
                values[0] = 0.0

    @pytest.mark.parametrize("name", ["lasso_00", "thm2_case2"])
    def test_cached_instance_arrays_are_read_only(self, name):
        # every cached run of the instance reads these; R0 and delta0 were
        # computed from them
        instance = battery.get_instance(name)
        c = instance.constants
        for values in (instance.x0, c.L_k, c.sigma_k, c.gamma_k, instance.reference.x_star):
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_set_up_keeps_its_own_start(self):
        problem, x0 = problems.make_toeplitz_instance(5)
        instance = battery.set_up("toeplitz", problem, x0)
        x0[0] = 7.0
        assert instance.x0[0] != 7.0


class TestSuites:
    def test_lemma_suite_asserted_checks_pass(self):
        reports = battery.suite_lemmas()
        for report in reports:
            if not report.advisory:
                assert report.passed, report.check_name

    def test_envelope_suite_asserted_checks_pass(self):
        reports = battery.suite_envelopes()
        for report in reports:
            if not report.advisory:
                assert report.passed, report.check_name

    def test_prior_bound_with_unit_constant_holds_where_new_bounds_hold(self):
        # observed on the l1 battery: the prior cyclic bound with C = 1 is
        # never violated on runs where the new bounds hold (its checks stay
        # advisory since the constant is unspecified)
        reports = battery.suite_envelopes()
        prior = [r for r in reports if r.check_name.startswith("envelope_prior_cyclic")]
        assert prior
        for report in prior:
            assert report.advisory
            assert report.passed, report.check_name

    def test_gd_suite_covers_all_smooth_instances(self):
        reports = battery.suite_gd()
        assert len(reports) == len(battery.smooth_battery_names())

    def test_ratio_report_is_informational(self):
        report = battery.prior_ratio_report()
        assert report.advisory
        assert "prior/blockwise" in report.notes

    @pytest.mark.parametrize("suite", [battery.suite_lemmas, battery.suite_envelopes])
    def test_misspelled_order_kind_rejected(self, suite):
        with pytest.raises(ValueError, match="unknown block order 'random_permutaton'"):
            suite("random_permutaton", 3)

    def test_tightness_suite_shape(self):
        reports = battery.suite_tightness((5, 10))
        assert len(reports) == 8
        objective = [r for r in reports if "objective" in r.check_name]
        assert all(not r.passed for r in objective)  # known inconsistency
        others = [r for r in reports if "objective" not in r.check_name]
        assert all(r.passed for r in others)


class TestRunSolver:
    """battery.run_solver, the dispatch behind every run of the command
    line and of the battery."""

    @pytest.mark.parametrize("algorithm", RUNNERS)
    def test_returns_a_finished_trajectory(self, algorithm):
        # blockcd run writes what this returns, gap and all, read-only
        instance = battery.get_instance("toeplitz_K5")
        t = battery.run_solver(instance, SolverRun(algorithm=algorithm, max_cycles=5))
        assert t.algorithm == algorithm and t.cycles == 5
        assert_finished(t, instance.reference.f_star)

    def test_calls_each_runner_by_its_module_name(self, monkeypatch):
        # a wrapper rebound over the module's runner names after import, as
        # the benchmark's span tracer rebinds them, sees every run
        instance = battery.get_instance("toeplitz_K5")
        seen = []
        for name in RUNNERS.values():
            def spy(*args, _name=name, _runner=getattr(battery, name)):
                seen.append(_name)
                return _runner(*args)

            monkeypatch.setattr(battery, name, spy)
        for algorithm in RUNNERS:
            battery.run_solver(instance, SolverRun(algorithm=algorithm, max_cycles=2))
        assert seen == list(RUNNERS.values())


@pytest.mark.parametrize("name, algorithm, cycles", [
    ("lasso_00", "bcpg", battery.LASSO_CYCLES),  # the lockstep family's shared orders
    ("toeplitz_K10", "cgd", 100)])
def test_cached_orders_are_read_only(name, algorithm, cycles):
    # every later check of a cached run reads its orders
    t = battery.get_trajectory(name, algorithm, "block_lk", "random_permutation", 3, cycles)
    assert t.orders.shape == (cycles, battery.get_instance(name).constants.block_count)
    with pytest.raises(ValueError):
        t.orders[0, 0] = 1


class TestLockstepFamily:
    @pytest.mark.parametrize("order_kind, order_seed",
                             [("cyclic", 0), ("random_permutation", 3)])
    def test_lasso_family_matches_run_solver(self, order_kind, order_seed):
        # the 30 lasso trajectories the suites read come from one lockstep
        # batch and equal battery.run_solver of the same run, bit for bit
        family = battery._lasso_family(order_kind, order_seed)
        assert len(family) == 30
        for name in battery.lasso_names():
            instance = battery.get_instance(name)
            for algorithm, policy in battery.LASSO_RUNS:
                t = battery.get_trajectory(name, algorithm, policy, order_kind, order_seed,
                                           battery.LASSO_CYCLES)
                assert t is family[(name, algorithm, policy)]
                run = SolverRun(algorithm=algorithm,
                                order=BlockOrder(order_kind, order_seed),
                                stepsizes=StepsizePolicy(policy),
                                max_cycles=battery.LASSO_CYCLES)
                expected = battery.run_solver(instance, run)
                for attribute in ("xs", "f", "gap", "weighted_movement", "stepsizes"):
                    ours, theirs = getattr(t, attribute), getattr(expected, attribute)
                    assert ours.tobytes() == theirs.tobytes(), (name, algorithm, attribute)
                    assert not ours.flags.writeable
                assert t.grad_norm is None and expected.grad_norm is None
                assert np.array_equal(t.orders, expected.orders)
                assert t.gap.tobytes() == (t.f - instance.reference.f_star).tobytes()
