"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/child.py --workload NAME --seed N --work DIR [--spans FILE]

Imports blockcd from the checkout's ``src``, runs the workload once, checks
its outputs and writes ``DIR/result.json``.  Outputs go to ``DIR/out``.
With ``--spans`` the repetition is traced and its spans are written to
FILE at the end.  Timing starts at the first call into blockcd, after the
import.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _failure(exc: Exception) -> list[str]:
    return ["raised", f"{type(exc).__name__}: {exc}"]


def _battery_names(battery) -> list[str]:
    names = (battery.lasso_names() + battery.toeplitz_names()
             + battery.table1_names() + battery.thm2_names())
    return list(dict.fromkeys(names))


def _verdict_ops(report: Path, error, expected_failures, expected_count) -> list[dict]:
    """One operation per check verdict in ``report``."""
    if error is not None or not report.is_file():
        reason = error or ["raised", "no report written"]
        return [{"name": f"check {i}", "failure": reason, "outputs": None}
                for i in range(expected_count)]
    rows = checks.parse_report_csv(report.read_text(encoding="utf-8"))
    failures = checks.verdict_failures(rows, expected_failures, expected_count)
    ops = [{"name": row["name"], "failure": failures.pop(row["name"], None),
            "outputs": row["digest"], "advisory": row["advisory"],
            "passed": row["passed"]} for row in rows]
    ops += [{"name": name, "failure": list(failure), "outputs": None}
            for name, failure in failures.items()]
    return ops


def _verify_counts(ops) -> dict[str, int]:
    rows = [op for op in ops if "passed" in op]
    return {"verify.checks": len(rows),
            "verify.asserted_failures": sum(
                1 for op in rows if not op["passed"] and not op["advisory"]),
            "verify.advisory": sum(1 for op in rows if op["advisory"])}


def _battery_workload(blockcd, run_checks, report: Path, expected_failures,
                      expected_count: int) -> dict:
    """Set up every battery instance, then ``run_checks()``, which writes
    the check report; one operation per check verdict."""
    error = None
    t0 = perf_counter()
    t_setup = t0
    try:
        for name in _battery_names(blockcd.battery):
            blockcd.battery.get_instance(name)
        t_setup = perf_counter()
        run_checks()
    except Exception as exc:
        error = _failure(exc)
    t_end = perf_counter()
    return {"wall_s": t_end - t0, "setup_s": t_setup - t0,
            "ops": _verdict_ops(report, error, expected_failures, expected_count)}


def verify_all(blockcd, seed: int, out: Path) -> dict:
    """``verify --suite all`` after set-up."""
    return _battery_workload(
        blockcd, lambda: blockcd.cli.cmd_verify("all", seed, str(out)),
        out / "verify_all.csv", checks.VERIFY_ALL_EXPECTED_FAILURES,
        checks.VERIFY_ALL_CHECKS)


def orders_rerun(blockcd, seed: int, out: Path) -> dict:
    """The lemma and envelope suites with a fresh random permutation every
    cycle, after set-up."""
    order_seed = workloads.order_seed(seed)
    report = out / "orders_rerun.csv"

    def run_checks():
        battery = blockcd.battery
        reports = (battery.suite_lemmas("random_permutation", order_seed)
                   + battery.suite_envelopes("random_permutation", order_seed))
        blockcd.verify.reports_to_csv(reports, str(report))

    return _battery_workload(blockcd, run_checks, report, frozenset(),
                             checks.ORDERS_RERUN_CHECKS)


def _bounds_output_failure(target: Path) -> list[str] | None:
    table = target / "bounds.csv"
    if not (target / "constants.txt").is_file() or not table.is_file():
        return ["wrong", "constants.txt or bounds.csv missing"]
    lines = table.read_text(encoding="utf-8").splitlines()
    if not lines[0].startswith("cycle,") or len(lines) != workloads.BOUNDS_RMAX + 1:
        return ["wrong", "bounds.csv has the wrong shape"]
    return None


def _run_output_failure(target: Path, labels) -> list[str] | None:
    if not (target / "summary.txt").is_file():
        return ["wrong", "summary.txt missing"]
    for label in labels:
        path = target / f"{label}.csv"
        if not path.is_file():
            return ["wrong", f"{label}.csv missing"]
        problems = checks.trajectory_failures(path.read_text(encoding="utf-8"))
        if problems:
            return ["wrong", f"{label}.csv: {problems[0]}"]
    return None


def plan_scale(blockcd, seed: int, out: Path) -> dict:
    """``bounds`` then ``run`` on each of the four generated plans."""
    inputs = out.parent / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    commands = []
    for entry in workloads.scale_plans(seed):
        problem_path = inputs / f"{entry['name']}_problem.json"
        plan_path = inputs / f"{entry['name']}_plan.json"
        problem_path.write_text(json.dumps(entry["problem"]), encoding="utf-8")
        plan = {**entry["plan"], "problem": str(problem_path)}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        labels = [run["label"] for run in plan["runs"]]
        commands.append((entry["name"], "bounds", problem_path, labels))
        commands.append((entry["name"], "run", plan_path, labels))

    cli = blockcd.cli
    ops = []
    setup_s = 0.0
    t0 = perf_counter()
    for name, command, path, _ in commands:
        target = out / name / command
        start = perf_counter()
        try:
            if command == "bounds":
                code = cli.cmd_bounds(str(path), workloads.BOUNDS_RMAX, str(target))
            else:
                code = cli.cmd_run(str(path), str(target), None)
            failure = None if code == 0 else ["wrong", f"exit code {code}"]
        except Exception as exc:
            failure = _failure(exc)
        if command == "bounds":
            setup_s += perf_counter() - start
        ops.append({"name": f"{name}/{command}", "failure": failure})
    t_end = perf_counter()

    for op, (name, command, _, labels) in zip(ops, commands):
        target = out / name / command
        if op["failure"] is None:
            op["failure"] = (_bounds_output_failure(target) if command == "bounds"
                             else _run_output_failure(target, labels))
        op["outputs"] = checks.tree_digests(target)
    return {"wall_s": t_end - t0, "setup_s": setup_s, "ops": ops}


BODIES = {"verify_all": verify_all, "orders_rerun": orders_rerun,
          "plan_scale": plan_scale}


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("blockcd")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"blockcd was imported from {package.__file__}, "
                         f"not from {src}")
    for module in tracing.MODULES:
        importlib.import_module(f"blockcd.{module}")
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BODIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", help="trace, and write the spans here")
    args = parser.parse_args(argv)

    work = Path(args.work)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    blockcd = _import_package()
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer, blockcd)

    run = BODIES[args.workload](blockcd, args.seed, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = run["ops"]
    cache = blockcd.battery.get_trajectory.cache_info()
    lookups = cache.hits + cache.misses
    layers = {**_verify_counts(ops),
              "battery.get_trajectory.hit_ratio": cache.hits / lookups if lookups else 0.0,
              "cli.output_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}
    if tracer is not None:
        layers.update(tracing.layer_metrics(tracer, run["wall_s"]))
        tracing.write_spans(tracer.spans, args.spans)

    result = {"workload": args.workload, "seed": args.seed, "traced": tracer is not None,
              "wall_s": run["wall_s"], "setup_s": run["setup_s"],
              "peak_rss_mb": peak_rss_mb, "layers": layers,
              "ops": [{key: op[key] for key in ("name", "failure", "outputs")}
                      for op in ops]}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
