"""Tests for the command-line harness."""

import csv
import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcd import battery, cli, problems, verify
from blockcd.bounds import beta_estimate
from blockcd.cli import main
from blockcd.linalg import ConvergenceError
from blockcd.problems import ProblemConstants, compute_constants, oracle_from_quadratic
from blockcd.solvers import ORDER_KINDS, SolverRun, StepsizePolicy

SCHEMA = json.loads(
    Path(cli.__file__).with_name("plan_schema.json").read_text(encoding="utf-8"))


def write_plan(tmp_path, plan, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(plan, indent=1))
    return str(path)


def count_constants(monkeypatch) -> list:
    """Record every compute_constants call; battery.set_up, the shared
    set-up, is its only caller."""
    calls = []

    def counting(problem):
        calls.append(problem)
        return compute_constants(problem)

    monkeypatch.setattr(battery, "compute_constants", counting)
    return calls


def record_set_up(monkeypatch) -> list:
    """Record every Instance the command line sets up."""
    made = []

    def recording(*args, **kwargs):
        made.append(battery.set_up(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "set_up", recording)
    return made


BASIC_PLAN = {
    "seed": 7,
    "problem": {"kind": "toeplitz", "block_count": 10},
    "runs": [
        {"label": "bcd", "algorithm": "exact_bcd", "max_cycles": 40,
         "order": {"kind": "cyclic"}, "stepsizes": {"kind": "block_lk"}},
    ],
    "bounds": ["thm2_scalar", "gd"],
}


class TestRun:
    def test_writes_expected_files(self, tmp_path, capsys):
        plan = write_plan(tmp_path, BASIC_PLAN)
        out = tmp_path / "results"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        assert (out / "bcd.csv").exists()
        assert (out / "bounds.csv").exists()
        assert (out / "summary.txt").exists()
        header = (out / "bcd.csv").read_text().splitlines()[0]
        assert header == "cycle,f,gap,weighted_movement,grad_norm"
        bounds_header = (out / "bounds.csv").read_text().splitlines()[0]
        assert bounds_header == "cycle,thm2_scalar,gd"
        summary = (out / "summary.txt").read_text()
        assert "final_gap" in summary
        assert "first cycle within 2x" in summary

    def test_problem_by_file_path(self, tmp_path):
        problem_file = tmp_path / "problem.json"
        problem_file.write_text(json.dumps({"kind": "toeplitz", "block_count": 8}))
        plan = dict(BASIC_PLAN)
        plan["problem"] = str(problem_file)
        path = write_plan(tmp_path, plan, name="by_path.json")
        out = tmp_path / "by_path_out"
        assert main(["run", "--plan", path, "--out", str(out)]) == 0
        assert (out / "bcd.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        plan = write_plan(tmp_path, {
            "seed": 3,
            "problem": {"kind": "lasso", "rows": 12, "block_count": 6,
                        "weight": 0.2, "seed": 5},
            "runs": [
                {"label": "perm", "algorithm": "bcpg", "max_cycles": 30,
                 "order": {"kind": "random_permutation"}},
            ],
            "bounds": ["thm1_blockwise"],
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--plan", plan, "--out", str(out1)]) == 0
        assert main(["run", "--plan", plan, "--out", str(out2)]) == 0
        for name in ("perm.csv", "bounds.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mismatched_pairing_rejected(self, tmp_path, capsys):
        bad = dict(BASIC_PLAN)
        bad["bounds"] = [{"kind": "gd", "against": "bcd"}]
        plan = write_plan(tmp_path, bad)
        assert main(["run", "--plan", plan, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "$.bounds[0].against" in err

    def test_invalid_plan_reports_field_path(self, tmp_path, capsys):
        plan = write_plan(tmp_path, {"runs": []})
        assert main(["run", "--plan", plan]) == 2
        assert "$." in capsys.readouterr().err

    def test_bad_problem_field_path(self, tmp_path, capsys, monkeypatch):
        # the problem's fields sit under $.problem, as a schema validator
        # reports them, whether the problem is inline or in a file
        problem = {"kind": "toeplitz", "block_count": 2}
        (tmp_path / "problem.json").write_text(json.dumps(problem))
        monkeypatch.chdir(tmp_path)
        for source in (problem, "problem.json"):
            plan = write_plan(tmp_path, {"problem": source, "runs": [{"algorithm": "exact_bcd"}]})
            before = sorted(tmp_path.rglob("*"))
            assert main(["run", "--plan", plan]) == 2
            assert capsys.readouterr().err == (
                "error: $.problem.block_count: expected an integer >= 3, got 2\n")
            assert sorted(tmp_path.rglob("*")) == before

    def test_cgd_on_table1_problem(self, tmp_path):
        plan = write_plan(tmp_path, {
            "problem": {"kind": "table1_full", "block_count": 5, "lipschitz": 5.0},
            "runs": [{"label": "chain", "algorithm": "cgd", "max_cycles": 20,
                      "stepsizes": {"kind": "global_l"}}],
            "bounds": [{"kind": "coro1", "against": "chain"},
                       {"kind": "prior_beck", "against": "chain"}],
        })
        out = tmp_path / "cgd"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()
        assert rows[0] == "cycle,coro1@chain,prior_beck@chain"
        first = rows[1].split(",")
        # prior/new ratio = 1 + K at the first cycle (stepsizes P_k = L)
        assert float(first[2]) / float(first[1]) == pytest.approx(6.0, rel=1e-12)

    def test_constants_computed_once_per_plan(self, tmp_path, monkeypatch):
        # beta, both cgd runs and gd share the oracle that set_up builds
        # from its constants
        calls = count_constants(monkeypatch)
        plan = dict(BASIC_PLAN, runs=[
            {"label": "cgd", "algorithm": "cgd", "max_cycles": 5},
            {"label": "cgd_perm", "algorithm": "cgd", "max_cycles": 5,
             "order": {"kind": "random_permutation", "seed": 3}},
            {"label": "gd", "algorithm": "gd", "max_cycles": 5}])
        path = write_plan(tmp_path, plan)
        assert main(["run", "--plan", path, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


VERDICT_PLAN = {
    "seed": 5,
    "problem": {"kind": "toeplitz", "block_count": 5},
    "runs": [
        {"label": "a", "algorithm": "bcpg", "max_cycles": 30},
        {"label": "b", "algorithm": "exact_bcd", "max_cycles": 30},
        {"label": "c", "algorithm": "cgd", "max_cycles": 30},
        {"label": "perm", "algorithm": "cgd", "max_cycles": 30,
         "order": {"kind": "random_permutation", "seed": 11}},
        {"label": "d", "algorithm": "gd", "max_cycles": 30},
    ],
    "bounds": [{"kind": "thm1_blockwise", "against": "a"},
               {"kind": "prior_cyclic", "against": "a", "c_prior": 3.0},
               {"kind": "thm2_scalar", "against": "b"},
               {"kind": "thm3", "against": "perm"},
               {"kind": "gd", "against": "d"},
               "coro1"],
}


def verdict_rows(out) -> dict:
    """check_name -> (passed, advisory, cycles_checked, notes) of verdicts.csv."""
    with open(out / "verdicts.csv", encoding="utf-8", newline="") as fh:
        return {row["check_name"]: (row["passed"], row["advisory"],
                                    int(row["cycles_checked"]), row["notes"])
                for row in csv.DictReader(fh)}


OVERFLOWING_ROUTES = {
    # a box of width 2e308 has an infinite diameter
    "box": {"kind": "box", "lo": -1e308, "hi": 1e308},
    # 2 f(x0) / 1e-310 overflows the l1 coercivity radius
    "l1": {"kind": "l1", "weight": 1e-310},
}


@pytest.mark.parametrize("term", OVERFLOWING_ROUTES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_certified_radius_is_finite(tmp_path, term, capsys):
    # a route whose radius overflows certifies nothing: the heuristic
    # radius takes over, and the verdicts that read R0 are advisory
    plan = {"problem": {"kind": "explicit", "block_count": 3, "block_size": 1,
                        "a_blocks": [[[1], [0]], [[0], [1]], [[1], [1]]], "b": [1, 2],
                        "h": [OVERFLOWING_ROUTES[term]] * 3},
            "runs": [{"label": "a", "algorithm": "bcpg"}, {"label": "b", "algorithm": "exact_bcd"}],
            "bounds": [{"kind": "thm1_blockwise", "against": "a"},
                       {"kind": "thm2_scalar", "against": "b"}]}
    loaded = problems.load_problem(plan["problem"])
    instance = battery.set_up(loaded.kind, loaded.problem, loaded.x0)
    assert np.isfinite(instance.r0.value) and not instance.r0.certified
    out = tmp_path / "out"
    assert main(["run", "--plan", write_plan(tmp_path, plan), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verdicts: 6 checks, 0 asserted failure(s)"
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[2].endswith(" certified=False (heuristic iterate radius)")
    rows = verdict_rows(out)
    for name in ("costtogo_bcpg:a", "costtogo_bcd:b", "envelope_thm1_blockwise:a",
                 "envelope_thm2_scalar:b"):
        assert rows[name][:2] == ("True", "True")
    assert rows["descent_bcpg:a"][1] == rows["descent_bcd:b"][1] == "False"


class TestVerdicts:
    """blockcd run checks each run with the selection the battery uses."""

    def test_rows_equal_the_selection(self, tmp_path, capsys):
        plan = write_plan(tmp_path, VERDICT_PLAN)
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdicts: 15 checks, 0 asserted failure(s)"
        # the same runs, set up and checked outside the command line
        loaded = problems.load_problem(VERDICT_PLAN["problem"])
        instance = battery.set_up(loaded.kind, loaded.problem, loaded.x0)
        plan = cli.read_plan(VERDICT_PLAN)
        reports = []
        for label, run in plan.runs:
            kinds = [kind for _, kind, against, _ in plan.bounds if against == label]
            c_prior = 3.0 if label == "a" else 1.0
            reports += verify.checks_for(instance, label, battery.run_solver(instance, run),
                                         kinds, c_prior)
        verify.reports_to_csv(reports, tmp_path / "expected.csv")
        assert (out / "verdicts.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        rows = verdict_rows(out)
        assert rows["envelope_prior_cyclic:a"][1] == "True"
        assert rows["envelope_gd:d"][:2] == ("True", "False")

    def test_bound_without_against_gets_no_verdict(self, tmp_path):
        plan = write_plan(tmp_path, VERDICT_PLAN)
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        assert "coro1" in (out / "bounds.csv").read_text().splitlines()[0]
        envelopes = [name for name in verdict_rows(out) if name.startswith("envelope_")]
        assert envelopes == ["envelope_thm1_blockwise:a", "envelope_prior_cyclic:a",
                             "envelope_thm2_scalar:b", "envelope_thm3:perm", "envelope_gd:d"]

    def test_changing_cgd_order_skips_only_the_exact_forms(self, tmp_path):
        plan = write_plan(tmp_path, VERDICT_PLAN)
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        rows = verdict_rows(out)
        passed, advisory, cycles, notes = rows["descent_cgd:perm_beta"]
        assert (passed, advisory, cycles) == ("True", "False", 30)
        for form in ("exact_v", "hbound"):
            passed, advisory, cycles, notes = rows[f"descent_cgd:perm_{form}"]
            assert (passed, advisory, cycles) == ("True", "True", 0)
            assert notes.startswith("skipped: the visit order changes between cycles")
            assert "two 5x5 SVDs per cycle" in notes
            # the cyclic cgd run checks the exact forms on every cycle
            assert rows[f"descent_cgd:c_{form}"][1:3] == ("False", 30)

    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        def failing(label, t):
            return verify.CheckReport(check_name=f"descent_bcpg:{label}", cycles_checked=1,
                                      worst_violation=1.0, passed=False, tolerance=0.0)

        monkeypatch.setattr(verify, "check_descent_bcpg", failing)
        plan = write_plan(tmp_path, VERDICT_PLAN)
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "verdicts: 15 checks, 1 asserted failure(s)"
        assert verdict_rows(out)["descent_bcpg:a"][:2] == ("False", "False")
        for name in ("a.csv", "perm.csv", "bounds.csv", "summary.txt"):
            assert (out / name).is_file()

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = write_plan(tmp_path, VERDICT_PLAN)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", "--plan", plan, "--out", str(out1)]) == 0
        assert main(["run", "--plan", plan, "--out", str(out2)]) == 0
        files = sorted(path.name for path in out1.iterdir())
        assert "verdicts.csv" in files
        assert files == sorted(path.name for path in out2.iterdir())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestToeplitzK300:
    # the largest plan_scale problem: beta_estimate takes the spectral norm
    # of the strict-lower Hessian, whose top singular values cluster
    def test_bounds_and_run_succeed(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "toeplitz", "block_count": 300}))
        assert cli.cmd_bounds(str(problem), 10, str(tmp_path / "bounds")) == 0
        plan = dict(BASIC_PLAN, problem=str(problem))
        plan["runs"] = [dict(plan["runs"][0], max_cycles=3)]
        path = write_plan(tmp_path, plan)
        assert cli.cmd_run(path, str(tmp_path / "run"), None) == 0
        assert (tmp_path / "run" / "bounds.csv").exists()


class TestErrors:
    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        plan = write_plan(tmp_path, BASIC_PLAN)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["run", "--plan", plan, "--out", str(taken)]) == 2
        self._assert_one_line_error(capsys)

    def test_convergence_error(self, tmp_path, capsys, monkeypatch):
        def fail(problem):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(battery, "compute_constants", fail)
        plan = write_plan(tmp_path, BASIC_PLAN)
        assert main(["run", "--plan", plan, "--out", str(tmp_path / "o")]) == 2
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("algorithm", ["cgd", "gd"])
    def test_inapplicable_run_writes_nothing(self, tmp_path, capsys, algorithm):
        # lasso has l1 terms: neither cgd nor gd takes a nonsmooth problem
        path = write_plan(tmp_path, {
            "problem": {"kind": "lasso", "rows": 12, "block_count": 6, "weight": 0.2},
            "runs": [{"label": "first", "algorithm": "bcpg", "max_cycles": 5},
                     {"label": "chain", "algorithm": algorithm, "max_cycles": 5}],
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--plan", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.runs[1].algorithm: ")
        assert len(err.splitlines()) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("run, where", [
        # toeplitz K=5 has L_k in {4, 6}: 0.5 is below every one
        ({"algorithm": "bcpg", "stepsizes": {"kind": "fixed", "values": [0.5] * 5}},
         "$.runs[1].stepsizes: "),
        ({"algorithm": "cgd", "stepsizes": {"kind": "fixed", "values": [10.0] * 4}},
         "$.runs[1].stepsizes: "),
        ({"algorithm": "bcpg", "stepsizes": {"kind": "fixed", "values": [6, "nan", 6, 6, 6]}},
         "$.runs[1].stepsizes.values[1]: "),
    ])
    def test_unrealizable_stepsizes_write_nothing(self, tmp_path, capsys, run, where):
        path = write_plan(tmp_path, {
            "problem": {"kind": "toeplitz", "block_count": 5},
            "runs": [{"label": "first", "algorithm": "bcpg", "max_cycles": 5},
                     dict(run, label="second", max_cycles=5)],
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--plan", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + where)
        assert len(err.splitlines()) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("change, where", [
        ({"bounds": [{"kind": "thm1_blockwise", "against": ["bcd"]}]}, "$.bounds[0].against: "),
        ({"bounds": [{"kind": "thm1_blockwise", "against": None}]}, "$.bounds[0].against: "),
        ({"output": 5}, "$.output: "),
        ({"output": None}, "$.output: "),
        ({"output": ["out"]}, "$.output: "),
    ])
    def test_mistyped_field_stops_before_set_up(self, tmp_path, capsys, monkeypatch,
                                                change, where):
        # the output directory comes from the plan, so nothing may appear
        # anywhere under the working directory
        calls = count_constants(monkeypatch)
        plan = dict(BASIC_PLAN, runs=[dict(BASIC_PLAN["runs"][0], algorithm="bcpg")],
                    **change)
        path = write_plan(tmp_path, plan)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--plan", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + where)
        assert len(err.splitlines()) == 1
        assert sorted(tmp_path.rglob("*")) == before
        assert calls == []

    @pytest.mark.parametrize("label", ["../escaped", "..", ".hidden", "a/b", "",
                                       "bounds", "verdicts"])
    def test_label_cannot_leave_out_dir(self, tmp_path, capsys, label):
        plan = dict(BASIC_PLAN)
        plan["runs"] = [dict(plan["runs"][0], label=label)]
        path = write_plan(tmp_path, plan)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out"
        assert main(["run", "--plan", path, "--out", str(out)]) == 2
        assert "$.runs[0].label" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_order_outside_the_paper_rejected(self, tmp_path, capsys):
        # K draws with replacement can skip a block within a cycle; the
        # paper's per-cycle results cover only cyclic and permuted orders
        plan = dict(BASIC_PLAN)
        plan["runs"] = [dict(plan["runs"][0], order={"kind": "sampled_with_replacement"})]
        path = write_plan(tmp_path, plan)
        assert main(["run", "--plan", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: $.runs[0].order.kind: expected one of "
                                           "cyclic/random_permutation, got "
                                           "\"sampled_with_replacement\"\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("a_blocks, where", [
        ([[["a"]], [[2.0]]], '$.a_blocks[0][0][0]: expected a finite number, got "a"\n'),
        ([[[1.0]], [[2.0], [1.0, 3.0]]],
         "$.a_blocks[1][1]: expected a list of 1 finite numbers, got a list of length 2\n"),
        ([[[1.0]], [[10 ** 400]]], "$.a_blocks[1][0][0]: expected a finite number, got "
                                   + "1" + "0" * 36 + "...\n"),
        # rules across fields are reported at the field too
        ([[[1.0], [0.0]], [[2.0]]], "$.a_blocks[1]: has 1 rows, a_blocks[0] has 2"),
        ([[[1.0]], [[2.0]]], "$.b: has length 2, expected 1"),
    ])
    def test_bad_matrix_entry_names_its_field(self, tmp_path, capsys, a_blocks, where):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "explicit", "block_count": 2, "block_size": 1,
                                       "a_blocks": a_blocks, "b": [1.0, 0.0]}))
        assert main(["bounds", "--plan", str(problem), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + where)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("algorithm", ["bcpg", "exact_bcd", "cgd", "gd"])
    def test_overflowing_start_writes_nothing(self, tmp_path, capsys, algorithm):
        # f(x0) = (1e160)^2 / 2 overflows; the problem has no box
        problem = {"kind": "explicit", "block_count": 2, "block_size": 1,
                   "a_blocks": [[[1]], [[1]]], "b": [0], "x0": [1e160, 0]}
        path = write_plan(tmp_path, {"problem": problem, "runs": [{"algorithm": algorithm}]})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", "--plan", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: x0: the objective at x0 is inf, not a finite number\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("problem", [
        # L = 1e300, whose square the bound curves take
        {"kind": "explicit", "block_count": 2, "block_size": 1,
         "a_blocks": [[[1e150]], [[1]]], "b": [1]},
        # singular boxes 2e200 wide: the radius squares the box diameter
        {"kind": "explicit", "block_count": 2, "block_size": 1,
         "a_blocks": [[[1]], [[1]]], "b": [1],
         "h": [{"kind": "box", "lo": -1e200, "hi": 1e200}] * 2},
    ])
    def test_overflowing_float_power_is_one_line_error(self, tmp_path, capsys, problem):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["bounds", "--plan", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_rejected_start_writes_nothing(self, tmp_path, capsys):
        # f(x0) = (1e160)^2 / 2 overflows, so set-up rejects x0
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "explicit", "block_count": 2, "block_size": 1,
                                    "a_blocks": [[[1]], [[1]]], "b": [0],
                                    "x0": [1e160, 0]}))
        assert main(["bounds", "--plan", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: x0: the objective at x0 is inf, not a finite number\n")
        assert not (tmp_path / "o").exists()

    def test_unallocatable_problem_is_one_line_error(self, tmp_path, capsys):
        # numpy refuses the rows x K request (71 PiB) before allocating any of it
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "lasso", "rows": 100000000,
                                       "block_count": 100000000, "weight": 1}))
        assert main(["bounds", "--plan", str(problem), "--out", str(tmp_path / "o")]) == 2
        self._assert_one_line_error(capsys)


# a scalar problem whose middle column is zero, so that L_1 = 0
ZERO_COLUMN = {"kind": "explicit", "block_count": 3, "block_size": 1,
               "a_blocks": [[[1], [0]], [[0], [0]], [[1], [1]]], "b": [1, 2]}


class TestZeroColumn:
    @pytest.mark.parametrize("h", [None, [{"kind": "l1", "weight": 0.5}] * 3])
    def test_bounds_and_global_l_runs(self, tmp_path, capsys, h):
        spec = dict(ZERO_COLUMN, **({} if h is None else {"h": h}))
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(spec))
        assert main(["bounds", "--plan", str(problem), "--rmax", "5",
                     "--out", str(tmp_path / "bounds")]) == 0
        assert "L_min=0\n" in (tmp_path / "bounds" / "constants.txt").read_text()
        assert len((tmp_path / "bounds" / "bounds.csv").read_text().splitlines()) == 6
        plan = write_plan(tmp_path, {
            "problem": str(problem),
            "runs": [{"label": algorithm, "algorithm": algorithm, "max_cycles": 20,
                      "stepsizes": {"kind": "global_l"}}
                     for algorithm in ("bcpg", "exact_bcd")]})
        out = tmp_path / "run"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        for algorithm in ("bcpg", "exact_bcd"):
            rows = (out / f"{algorithm}.csv").read_text().splitlines()
            first_gap, final_gap = (float(rows[i].split(",")[2]) for i in (1, -1))
            assert -1e-12 <= final_gap < 1e-2 * first_gap

    def test_block_lk_run_is_rejected(self, tmp_path, capsys):
        # P_1 = L_1 = 0 is no stepsize
        plan = write_plan(tmp_path, {"problem": ZERO_COLUMN,
                                     "runs": [{"algorithm": "bcpg"}]})
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $.runs[0].stepsizes: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_all_zero_smooth_matrix_is_rejected_at_its_field(self, tmp_path, capsys,
                                                             block_size):
        # f is the constant 1/2 ||b||^2: no Lipschitz constant is positive
        zero = [[[0] * block_size]] * 2
        problem = {"kind": "explicit", "block_count": 2, "block_size": block_size,
                   "a_blocks": zero, "b": [1]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        out = tmp_path / "out"
        assert main(["bounds", "--plan", str(path), "--out", str(out)]) == 2
        plan = write_plan(tmp_path, {"problem": problem, "runs": [{"algorithm": "bcpg"}]})
        assert main(["run", "--plan", plan, "--out", str(out)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all(
            line.endswith("a_blocks: every entry is zero and every term is zero, so the "
                          "problem has nothing to minimize") for line in errors)
        assert errors[0].startswith("error: $.a_blocks: ")
        assert errors[1].startswith("error: $.problem.a_blocks: ")
        assert not out.exists()
        # with a nonsmooth term the same matrix sets up
        problem["h"] = [{"kind": "l1", "weight": 0.5}] * 2
        path.write_text(json.dumps(problem))
        assert main(["bounds", "--plan", str(path), "--out", str(out)]) == 0

    def test_block_lk_exact_bcd_run_is_accepted(self, tmp_path):
        # exact minimization takes no step: P_1 = L_1 = 0 only gives the
        # zero column no weight in the recorded movement, and a bound that
        # needs P_min > 0 reports itself inapplicable
        plan = write_plan(tmp_path, {"problem": ZERO_COLUMN,
                                     "runs": [{"label": "bcd", "algorithm": "exact_bcd",
                                               "max_cycles": 20}],
                                     "bounds": [{"kind": "thm2_scalar", "against": "bcd"}]})
        out = tmp_path / "out"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        rows = (out / "bcd.csv").read_text().splitlines()
        assert len(rows) == 22
        first_gap, final_gap = (float(rows[i].split(",")[2]) for i in (1, -1))
        assert -1e-12 <= final_gap < 1e-2 * first_gap
        summary = (out / "summary.txt").read_text()
        assert "thm2_scalar@bcd vs bcd: first cycle within 2x of observed gap: inapplicable" in summary


class TestSharedSetUp:
    @pytest.mark.parametrize("name, spec", [
        ("toeplitz_K10", {"kind": "toeplitz", "block_count": 10}),
        ("table1_full_K10", {"kind": "table1_full", "block_count": 10, "lipschitz": 2.0}),
    ])
    def test_cli_instance_equals_battery_instance(self, tmp_path, monkeypatch, name, spec):
        made = record_set_up(monkeypatch)
        assert cli.cmd_bounds(json.dumps(spec), 3, str(tmp_path)) == 0
        ours, theirs = made[0], battery.get_instance(name)
        for field in dataclasses.fields(ProblemConstants):
            np.testing.assert_array_equal(getattr(ours.constants, field.name),
                                          getattr(theirs.constants, field.name))
        assert ours.reference.f_star == theirs.reference.f_star
        np.testing.assert_array_equal(ours.reference.x_star, theirs.reference.x_star)
        np.testing.assert_array_equal(ours.x0, theirs.x0)
        assert ours.r0 == theirs.r0
        assert ours.delta0 == theirs.delta0
        assert theirs.beta is not None
        assert ours.beta == theirs.beta
        # beta and the strict-lower norm are those of a smooth view built from scratch
        scratch = beta_estimate(oracle_from_quadratic(theirs.problem,
                                                      compute_constants(theirs.problem)))
        assert (ours.beta, ours.lower_norm) == (theirs.beta, theirs.lower_norm) == (
            scratch.estimate, scratch.exact)

    @pytest.mark.parametrize("kind", ["table1_diag", "table1_full"])
    def test_table1_beta_and_cgd_stepsizes_use_the_set_up_constants(
            self, tmp_path, monkeypatch, kind):
        # cgd's stepsizes and thm3's beta use the set-up constants, as every
        # other bound and check does
        made = record_set_up(monkeypatch)
        spec = {"kind": kind, "block_count": 10, "lipschitz": 2.0}
        assert cli.cmd_bounds(json.dumps(spec), 3, str(tmp_path)) == 0
        instance = made[0]
        c = instance.constants
        assert instance.beta == min(np.sqrt(10) * c.L, float(np.sum(c.L_k)))
        for policy in ("global_l", "block_lk"):
            run = SolverRun(algorithm="cgd", stepsizes=StepsizePolicy(policy), max_cycles=3)
            t = battery.run_solver(instance, run)
            np.testing.assert_array_equal(t.stepsizes,
                                          StepsizePolicy(policy).realize(c))


def _plan_text(field: str, value_text: str) -> str:
    run = {"label": "bcd", "algorithm": "bcpg", "max_cycles": 5}
    bound = {"kind": "thm1_blockwise"}
    if field != "label":
        bound["against"] = "bcd"
    body = {"problem": {"kind": "toeplitz", "block_count": 5},
            "runs": [run], "bounds": [bound]}
    if field == "stepsizes.values":
        run["stepsizes"] = {"kind": "fixed", "values": ["@VALUE@"]}
    else:
        holder = {"problem": body, "c_prior": bound}.get(field, run)
        holder[field] = "@VALUE@"
    return json.dumps(body).replace('"@VALUE@"', value_text)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _on_one_branch(one: str, other: str) -> bool:
    """Whether one of two field paths is the other or leads to it."""
    def leads(prefix, path):
        return path == prefix or path.startswith((prefix + ".", prefix + "["))
    return leads(one, other) or leads(other, one)


def schema_verdict(document, error: problems.FieldError | None) -> bool:
    """Whether the schema accepts ``document``.  When the reader raised
    ``error`` too, its path and the schema's best match lie on one branch.

    The best match is the shallowest error and, of sibling errors, the
    first the validator yields (list entries by index, fields in the
    schema's order), because the reader reports the first broken rule it
    meets.  jsonschema's default relevance would take the last sibling:
    ``values[1]`` over ``values[0]``, ``seed`` over ``kind``."""
    errors = list(jsonschema.Draft7Validator(SCHEMA).iter_errors(document))
    rank = {id(schema_error): i for i, schema_error in enumerate(errors)}
    schema_error = jsonschema.exceptions.best_match(
        errors, key=lambda e: (-len(e.path), -rank.get(id(e), 0)))
    if schema_error is not None and error is not None:
        assert _on_one_branch(error.path, schema_error.json_path), (
            error.path, schema_error.json_path)
    return schema_error is None


def reader_error(read, *args) -> problems.FieldError | None:
    """The FieldError that ``read(*args)`` raises, or None."""
    try:
        read(*args)
    except problems.FieldError as exc:
        return exc
    return None


NUMBER_TEXTS = ["0", "-0.0", "1e-300", "0.5", "2", "1e308", "-1", "-5",
                "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true",
                "false", "null", '"1"', "[1]"]
LABEL_TEXTS = ['"ok-1.2_x"', '"_a"', '"-a"', '"a..b"', '"../escaped"', '".."',
               '".hidden"', '"a/b"', '"a b"', '""', '"\u00e9"', "7",
               '"bounds"', '"bounds.x"', '"Bounds"', '"a\\n"',
               '"verdicts"', '"verdicts.x"']
# a plan's problem is an object or a string: a problem-file path, or the
# problem's JSON text
PROBLEM_TEXTS = ['{"kind": "toeplitz", "block_count": 5}', '"problem.json"',
                 '"problems/toeplitz K5.json"', '"../shared/problem.json"',
                 json.dumps('{"kind": "toeplitz", "block_count": 5}'),
                 "7", "1.5", "null", "true", "[]", '["problem.json"]']
# whole order objects: sampling with replacement is not an order kind
ORDER_TEXTS = ['{"kind": "sampled_with_replacement"}',
               '{"kind": "sampled_with_replacement", "seed": 3}',
               '{"kind": "random_permutation"}', '{"kind": "random_permutation", "seed": 3}',
               '{"kind": "cyclic"}']
# whole stepsize objects: a fixed policy needs a nonempty value list, and
# the other kinds take none
STEPSIZE_TEXTS = ['{"kind": "fixed"}', '{"kind": "fixed", "values": []}',
                  '{"kind": "fixed", "values": null}', '{"kind": "fixed", "values": [2]}',
                  '{"kind": "fixed", "values": [1, 2, 3, 4, 5]}',
                  '{"kind": "block_lk", "values": ["x"]}', '{"kind": "block_lk", "values": [1]}',
                  '{"kind": "global_l", "values": []}', '{"kind": "global_l"}',
                  '{"kind": "block_lk"}', '{"values": [1]}', '{"kind": "fixed_l", "values": [1]}']


@pytest.mark.parametrize("field, value_text",
                         [("gap_tolerance", t) for t in NUMBER_TEXTS]
                         + [("c_prior", t) for t in NUMBER_TEXTS]
                         + [("stepsizes.values", t) for t in NUMBER_TEXTS + ['"nan"']]
                         + [("label", t) for t in LABEL_TEXTS]
                         + [("problem", t) for t in PROBLEM_TEXTS]
                         + [("stepsizes", t) for t in STEPSIZE_TEXTS]
                         + [("order", t) for t in ORDER_TEXTS])
def test_parser_and_schema_agree(tmp_path, field, value_text):
    text = _plan_text(field, value_text)
    path = tmp_path / "plan.json"
    path.write_text(text)
    error = reader_error(cli.read_plan, str(path))
    # RFC 8259 JSON has no NaN or Infinity; a document holding them is not
    # JSON, so no schema accepts it
    try:
        document = json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        assert error is not None and error.path == "$"
        return
    assert (error is None) == schema_verdict(document, error)


# problem objects and, per case, the field set to a JSON text: integral
# floats are integers, null is no default, and numbers beyond a double
# (1e400 parses to inf) are not finite
PROBLEM_BASES = {
    "lasso": {"kind": "lasso", "rows": 4, "block_count": 3, "weight": 0.5, "seed": 1},
    "table1_diag": {"kind": "table1_diag", "block_count": 3, "lipschitz": 2.0},
    "explicit": {"kind": "explicit", "block_count": 2, "block_size": 1,
                 "a_blocks": [[[1.0]], [[2.0]]], "b": [1.0], "x0": [0.0, 0.0],
                 "h": [{"kind": "l1", "weight": 0.5}, {"kind": "box", "lo": -1.0, "hi": 1.0}]},
}
PROBLEM_FIELD_CASES = (
    [("lasso", (key,), text) for key in ("rows", "block_count", "seed")
     for text in ("4", "4.0", "4.5")]
    + [("explicit", ("block_count",), "2.0"), ("explicit", ("block_size",), "1.0")]
    + [("lasso", ("seed",), "null"), ("explicit", ("x0",), "null")]
    + [(kind, (key,), text) for kind, key in (("lasso", "weight"), ("table1_diag", "lipschitz"))
       for text in ("1e308", "1e400")]
    + [("explicit", ("h", 0, "weight"), text) for text in ("1e308", "1e400")]
    + [("explicit", ("h", 1, key), text) for key in ("lo", "hi")
       for text in ("1e400", "-1e400")]
    # every matrix, b and x0 entry is a finite number: not a bool or a string
    + [("explicit", where, text)
       for where in (("a_blocks", 0, 0, 0), ("b", 0), ("x0", 1))
       for text in ("true", "false", '"a"', '"1"', "null", "[1.0]", "1e400", "-1e400",
                    "1e308", "-3")]
    # a matrix, each of its blocks and each row hold at least one entry
    + [("explicit", where, "[]") for where in (("a_blocks",), ("a_blocks", 0),
                                               ("a_blocks", 0, 0))])


@pytest.mark.parametrize("kind, where, value_text", PROBLEM_FIELD_CASES,
                         ids=[f"{kind}.{'.'.join(map(str, where))}={text}"
                              for kind, where, text in PROBLEM_FIELD_CASES])
def test_problem_fields_schema_and_loader_agree(kind, where, value_text):
    problem = json.loads(json.dumps(PROBLEM_BASES[kind]))
    holder = problem
    for step in where[:-1]:
        holder = holder[step]
    holder[where[-1]] = "@VALUE@"
    text = json.dumps(problem).replace('"@VALUE@"', value_text)
    plan = {"problem": json.loads(text), "runs": [{"algorithm": "bcpg"}]}
    error = reader_error(problems.load_problem, text, "$.problem")
    assert (error is None) == schema_verdict(plan, error)


MISSING = object()
STEPSIZE_KINDS = ["global_l", "block_lk", "fixed"]


def _json_values(*strings):
    """JSON values of every type (list, object, null, bool, number and
    string), with the given strings among the strings."""
    texts = st.text(max_size=6)
    if strings:
        texts = st.sampled_from(strings) | texts
    numbers = (st.integers(-3, 12) | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e-300, 1e308, -1e308]))
    scalars = st.none() | st.booleans() | numbers | texts
    return (scalars | st.lists(scalars, max_size=3)
            | st.dictionaries(st.sampled_from(["kind", "seed", "values", "label"]), scalars,
                              max_size=3))


def _objects(kinds, extra):
    """Objects with a ``kind`` from ``kinds`` and optional ``extra`` fields."""
    return st.fixed_dictionaries({"kind": st.sampled_from(kinds) | _json_values()},
                                 optional={key: _json_values() | values
                                           for key, values in extra.items()})


_POSITIVE_LISTS = st.lists(st.floats(0.5, 100.0) | st.integers(1, 50), min_size=1, max_size=6)
# field -> (path of the object holding it, key, values tried there)
PLAN_FIELDS = {
    "seed": ((), "seed", _json_values()),
    "output": ((), "output", _json_values("out", "", "a/b", "../up")),
    "label": (("runs", 0), "label", _json_values("a", "_a", "-a.b", "..", ".a", "a/b", "a\n",
                                                 "bounds", "Bounds", "verdicts", "\u00e9")),
    "algorithm": (("runs", 0), "algorithm", _json_values("bcpg", "exact_bcd", "cgd", "gd",
                                                         "BCPG")),
    "max_cycles": (("runs", 0), "max_cycles", _json_values()),
    "gap_tolerance": (("runs", 0), "gap_tolerance", _json_values()),
    "order": (("runs", 0), "order",
              _json_values() | _objects(ORDER_KINDS, {"seed": st.integers()})),
    "order.kind": (("runs", 0, "order"), "kind",
                   _json_values(*ORDER_KINDS, "sampled_with_replacement")),
    "order.seed": (("runs", 0, "order"), "seed", _json_values()),
    "stepsizes": (("runs", 0), "stepsizes",
                  _json_values() | _objects(STEPSIZE_KINDS, {"values": _POSITIVE_LISTS})),
    "stepsizes.kind": (("runs", 0, "stepsizes"), "kind", _json_values(*STEPSIZE_KINDS)),
    "stepsizes.values": (("runs", 0, "stepsizes"), "values",
                         _json_values() | _POSITIVE_LISTS | st.lists(_json_values(), max_size=3)),
    "bounds.kind": (("bounds", 0), "kind", _json_values("thm1_blockwise", "gd", "thm3", "thm4")),
    "bounds.against": (("bounds", 0), "against", _json_values().filter(
        lambda value: not isinstance(value, str)) | st.just("a")),
    "bounds.c_prior": (("bounds", 0), "c_prior", _json_values()),
}


def _valid_plan(field: str) -> dict:
    """A plan both the schema and the parser accept.  Its bound names the
    run only when ``field`` is a bound field other than the kind, so that
    no other change can trip the pairing check."""
    bound = {"kind": "thm1_blockwise", "c_prior": 2.0}
    if field in ("bounds.against", "bounds.c_prior"):
        bound["against"] = "a"
    return {"seed": 3, "output": "out", "problem": {"kind": "toeplitz", "block_count": 5},
            "runs": [{"label": "a", "algorithm": "bcpg", "max_cycles": 5, "gap_tolerance": 0.0,
                      "order": {"kind": "random_permutation", "seed": 1},
                      "stepsizes": {"kind": "fixed", "values": [6.0] * 5}}],
            "bounds": [bound]}


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(sorted(PLAN_FIELDS)), data=st.data())
def test_parser_and_schema_agree_on_generated_plans(field, data):
    """Change one field of a valid plan (or remove it) and check that the
    schema and the parser agree on the result.

    Left out, because they are not field-by-field rules: unique run
    labels, ``against`` naming an existing run (so the only string tried
    there is the run's label), the bound/algorithm pairing check, and the
    problem's own fields, which load_problem validates (toeplitz K >= 3,
    for one, against the schema's minimum of 1).
    """
    holder_path, key, values = PLAN_FIELDS[field]
    plan = _valid_plan(field)
    holder = plan
    for step in holder_path:
        holder = holder[step]
    value = data.draw(st.just(MISSING) | values)
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    plan = json.loads(json.dumps(plan))
    error = reader_error(cli.read_plan, plan)
    assert (error is None) == schema_verdict(plan, error)


class TestTable1Plan:
    def test_summary_constants_reflect_policies(self, tmp_path):
        # fully coupled scenario as a quadratic problem: the uniform-stepsize
        # envelope constant is proportional to L while the per-block one is
        # proportional to L_max + L^2/L_min, so the two bound columns differ
        # by the factor 2L / (L_max + L^2/L_min)
        k, lip = 100, 2.0
        plan = write_plan(tmp_path, {
            "problem": {"kind": "table1_full", "block_count": k, "lipschitz": lip},
            "runs": [
                {"label": "uniform", "algorithm": "bcpg", "max_cycles": 30,
                 "stepsizes": {"kind": "global_l"}},
                {"label": "blockwise", "algorithm": "bcpg", "max_cycles": 30,
                 "stepsizes": {"kind": "block_lk"}},
            ],
            "bounds": [{"kind": "thm1_uniform", "against": "uniform"},
                       {"kind": "thm1_blockwise", "against": "blockwise"}],
        })
        out = tmp_path / "table1"
        assert main(["run", "--plan", plan, "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()
        assert rows[0] == "cycle,thm1_uniform@uniform,thm1_blockwise@blockwise"
        l_max = lip / k
        l_min = lip / k
        expected = 2.0 * lip / (l_max + lip ** 2 / l_min)
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[1]) / float(cells[2]) == pytest.approx(
                expected, rel=1e-9)
        summary = (out / "summary.txt").read_text()
        assert "run uniform" in summary and "run blockwise" in summary


class TestVerify:
    def test_truncation_suite_passes(self, capsys):
        assert main(["verify", "--suite", "truncation", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "truncation_constant: PASS" in out

    def test_tightness_reports_known_objective_failure(self, capsys, tmp_path):
        # iterate and ratio checks pass; the reference objective value is
        # inconsistent with the recursions, so that one check fails and the
        # suite exits nonzero
        code = main(["tightness", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        for k in (5, 10, 25, 50):
            assert f"tightness_iterate_exact_bcd_K{k}: PASS" in out
            assert f"tightness_ratio_K{k}: PASS" in out
            assert f"tightness_objective_K{k}: FAIL" in out
        assert (tmp_path / "verify_tightness.csv").exists()

    def test_unknown_suite(self, capsys):
        # argparse rejects the choice itself, in one error line
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--suite", "everything"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --suite: invalid choice: 'everything'")
        assert len(err.splitlines()) == 1
        # so does a direct call
        with pytest.raises(ValueError, match="unknown suite 'everything'"):
            cli.cmd_verify("everything", 7)


class TestBounds:
    def test_toeplitz_constants_file(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "toeplitz", "block_count": 10}))
        out = tmp_path / "bounds_out"
        assert main(["bounds", "--plan", str(problem), "--rmax", "20",
                     "--out", str(out)]) == 0
        constants = (out / "constants.txt").read_text()
        assert "check L <= 18: PASS" in constants
        assert "L_max=6" in constants
        rows = (out / "bounds.csv").read_text().splitlines()
        assert len(rows) == 21

    def test_constants_computed_once(self, tmp_path, monkeypatch):
        # the lasso reference optimum reuses the constants set_up computed
        calls = count_constants(monkeypatch)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "lasso", "rows": 8, "block_count": 4,
                                       "weight": 0.1, "seed": 3}))
        assert main(["bounds", "--plan", str(problem), "--rmax", "5",
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_small_problem_notice(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "kind": "explicit", "block_count": 2, "block_size": 1,
            "a_blocks": [[[1.0], [0.0]], [[0.5], [2.0]]],
            "b": [1.0, -1.0],
        }))
        out = tmp_path / "small"
        assert main(["bounds", "--plan", str(problem), "--rmax", "5",
                     "--out", str(out)]) == 0
        constants = (out / "constants.txt").read_text()
        assert "K*N < 3" in constants
        rows = (out / "bounds.csv").read_text().splitlines()
        header = rows[0].split(",")
        thm1_col = header.index("thm1_uniform")
        gd_col = header.index("gd")
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[thm1_col] == ""
            assert cells[gd_col] != ""

    def test_missing_file_is_error(self, capsys):
        assert main(["bounds", "--plan", "/nonexistent/problem.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("r_max", ["0", "-3"])
    def test_rmax_below_one_rejected(self, tmp_path, capsys, r_max):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"kind": "toeplitz", "block_count": 5}))
        out = tmp_path / "o"
        assert main(["bounds", "--plan", str(problem), "--rmax", r_max,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rmax: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_separable_curves_track_gd_curve(self, tmp_path):
        # separable scenario: the uniform-stepsize curve over the classic
        # descent curve is exactly 6 log^2(2NK) (r+4)/(r+1) once the radius
        # term dominates the initial gap
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "kind": "table1_diag", "block_count": 10, "lipschitz": 2.0}))
        out = tmp_path / "diag"
        assert main(["bounds", "--plan", str(problem), "--rmax", "30",
                     "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_thm1 = header.index("thm1_uniform")
        i_gd = header.index("gd")
        log_sq = np.log(2 * 1 * 10) ** 2
        for r, row in enumerate(rows[1:], start=1):
            cells = row.split(",")
            ratio = float(cells[i_thm1]) / float(cells[i_gd])
            assert ratio == pytest.approx(6.0 * log_sq * (r + 4) / (r + 1),
                                          rel=1e-9)
