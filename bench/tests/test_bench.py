"""Tests of the benchmark itself: input generators, span arithmetic and the
correctness checks.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# generators

def test_scale_plans_are_deterministic_in_the_seed():
    first = json.dumps(workloads.scale_plans(11))
    assert json.dumps(workloads.scale_plans(11)) == first
    assert json.dumps(workloads.scale_plans(12)) != first


def test_order_seed_is_deterministic_in_the_seed():
    assert workloads.order_seed(5) == workloads.order_seed(5)
    assert workloads.order_seed(5) != workloads.order_seed(6)


def test_scale_plans_keep_the_scale_tier_and_certifiable_sizes():
    plans = {entry["name"]: entry for entry in workloads.scale_plans(3)}
    assert list(plans) == ["a_lasso", "b_explicit", "toeplitz_K200", "toeplitz_K300"]
    explicit = plans["b_explicit"]["problem"]
    assert explicit["block_size"] >= 4
    assert len(explicit["b"]) >= explicit["block_count"] * explicit["block_size"]
    assert {h["kind"] for h in explicit["h"]} == {"group_l2", "box"}
    for entry in plans.values():
        for run in entry["plan"]["runs"]:
            assert run["gap_tolerance"] > 0 and run["max_cycles"] >= 1
    algorithms = [run["algorithm"] for run in plans["toeplitz_K200"]["plan"]["runs"]]
    assert algorithms == ["exact_bcd", "cgd", "cgd", "gd"]


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_time_subtracts_wrapped_children():
    spans = [("a", 0.0, 10.0, -1),
             ("b", 1.0, 4.0, 0),
             ("c", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0),
             ("a", 12.0, 13.0, -1)]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == (2, 11.0, 4.0)
    assert stats["b"] == (2, 7.0, 6.0)
    assert stats["c"] == (1, 1.0, 1.0)
    assert tracing.covered_seconds(spans) == 11.0


def test_tracer_records_parents_and_spans_that_raise():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def fails():
        raise ValueError("boom")

    inner = tracer.spanned("inner", lambda: 1)
    failing = tracer.spanned("failing", fails)

    def outer_body():
        inner()
        with pytest.raises(ValueError):
            failing()
        return 2

    outer = tracer.spanned("outer", outer_body)
    assert outer() == 2
    assert tracer.spans == [("outer", 0.0, 5.0, -1),
                            ("inner", 1.0, 2.0, 0),
                            ("failing", 3.0, 4.0, 0)]
    counted = tracer.counted("n.calls", lambda x: x)
    assert [counted(i) for i in range(3)] == [0, 1, 2]
    assert tracer.counts["n.calls"] == 3


def test_install_wraps_every_binding_of_the_package(tmp_path):
    script = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import blockcd, tracing
import blockcd.cli, blockcd.problems
tracer = tracing.Tracer()
tracing.install(tracer, blockcd)
assert blockcd.cli.compute_constants is blockcd.problems.compute_constants
assert blockcd.cli.compute_constants.__wrapped__ is not None
problem, x0 = blockcd.problems.make_toeplitz_instance(5)
blockcd.cli.cmd_bounds('{{"kind": "toeplitz", "block_count": 5}}', 3, {str(tmp_path)!r})
names = {{name for name, *_ in tracer.spans}}
parents = {{tracer.spans[p][0] for _, _, _, p in tracer.spans if p >= 0}}
print(sorted(names), sorted(parents))
assert "cli.cmd_bounds" in names and "problems.compute_constants" in names
assert "linalg.sym_eig_extremes" in names and "cli.cmd_bounds" in parents
assert tracer.counts["linalg.power_iterations"] == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# correctness checks

def _report(rows) -> str:
    lines = ["check_name,passed,advisory,worst_violation,tolerance,cycles_checked,notes"]
    lines += [f'{name},{passed},{advisory},0,0,1,"note"' for name, passed, advisory in rows]
    return "\n".join(lines) + "\n"


GOOD_ROWS = [("descent_bcpg:lasso_00:block_lk", True, False),
             ("tightness_objective_K5", False, False),
             ("envelope_prior_cyclic:lasso_00:global_l", False, True)]
EXPECTED = frozenset({"tightness_objective_K5"})


def test_verdict_checker_accepts_the_expected_verdict():
    rows = checks.parse_report_csv(_report(GOOD_ROWS))
    assert checks.verdict_failures(rows, EXPECTED, 3) == {}


def test_verdict_checker_flags_a_flipped_status():
    flipped = [("descent_bcpg:lasso_00:block_lk", False, False)] + GOOD_ROWS[1:]
    failures = checks.verdict_failures(checks.parse_report_csv(_report(flipped)), EXPECTED, 3)
    assert list(failures) == ["descent_bcpg:lasso_00:block_lk"]

    fixed = GOOD_ROWS[:1] + [("tightness_objective_K5", True, False)] + GOOD_ROWS[2:]
    failures = checks.verdict_failures(checks.parse_report_csv(_report(fixed)), EXPECTED, 3)
    assert list(failures) == ["tightness_objective_K5"]

    missing = checks.verdict_failures(checks.parse_report_csv(_report(GOOD_ROWS[:1])),
                                      EXPECTED, 3)
    assert set(missing) == {"tightness_objective_K5", "<check count>"}


def _rep(outputs, failure=None):
    return {"ops": [{"name": "op", "failure": failure, "outputs": outputs}]}


def test_rerun_that_is_not_byte_identical_is_wrong():
    first = checks.parse_report_csv(_report(GOOD_ROWS))[0]["digest"]
    changed = checks.parse_report_csv(_report(
        [("descent_bcpg:lasso_00:block_lk", True, True)]))[0]["digest"]
    assert changed != first
    judged = run_bench.judge([_rep(first), _rep(first), _rep(changed)])
    assert [ops[0]["failure"] for ops in judged[:2]] == [None, None]
    assert judged[2][0]["failure"][0] == "wrong"
    raised = ["raised", "ConvergenceError: cap"]
    judged = run_bench.judge([_rep({}, raised), _rep({"a": "1"}, raised)])
    assert [ops[0]["failure"] for ops in judged] == [raised, raised]


def test_tree_digests_see_one_changed_byte(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "a.csv").write_bytes(b"1,2\n")
    before = checks.tree_digests(tmp_path)
    (tmp_path / "run" / "a.csv").write_bytes(b"1,3\n")
    assert checks.tree_digests(tmp_path) != before
    assert list(before) == ["run/a.csv"]


TRAJECTORY = "\n".join([checks.TRAJECTORY_HEADER,
                        "0,3,2,1.5,",
                        "1,1.5,0.5,0.5,",
                        "2,1,0,,"]) + "\n"


def test_trajectory_check_accepts_a_descending_run():
    assert checks.trajectory_failures(TRAJECTORY) == []


def test_trajectory_check_flags_ascent_negative_gap_and_header():
    ascent = TRAJECTORY.replace("2,1,0,,", "2,1.75,0.75,,")
    assert "f increased" in checks.trajectory_failures(ascent)[0]
    negative = TRAJECTORY.replace("2,1,0,,", "2,1,-0.001,,")
    assert "below the floor" in checks.trajectory_failures(negative)[0]
    assert checks.trajectory_failures("cycle,f\n0,1\n")[0].startswith("header")
