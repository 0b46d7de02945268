"""Command-line harness.

Subcommands:

* ``run`` — execute the solver runs of a plan file, writing one trajectory
  CSV per run, a bound-curve CSV, a summary of final gaps, and
  ``verdicts.csv``.  The verdicts are the checks ``verify.checks_for``
  selects for each run and the bounds whose ``against`` names it, written
  as ``verify --out`` writes them.  A bound paired with no run gets no
  verdict.  A cgd run whose order changes between
  cycles, on a Hessian that is not permutation-invariant, gets its exact
  chain-matrix forms reported as skipped and its relaxed beta form checked
  on every cycle.  The exact forms would take two K x K SVDs per cycle:
  0.5-0.7 s and 1.3-1.5 s on the benchmark's two 60-cycle Toeplitz runs
  at K = 200 and 300, where the whole ``plan_scale`` workload takes about
  0.8 s (2-core VM, Python 3.11.7, numpy 2.4.6);
* ``verify`` — run a named verification suite over the built-in battery;
* ``bounds`` — compute problem constants and all applicable bound curves
  for a problem file;
* ``tightness`` — alias for ``verify --suite tightness``.

Plan files are JSON; the shape is documented in plan_schema.json shipped
next to this module.  Identical plan and seed produce byte-identical
output files.

``run`` and ``verify`` exit 0 when every asserted check passes and 1 when
one fails (advisory checks never gate); every command exits 2 with one
``error:`` line on bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .battery import SUITES, run_solver, set_up
from .bounds import (
    BOUND_KINDS,
    BOUND_PAIRINGS,
    InapplicableBound,
    bound_report_csv,
    evaluate,
)
from .linalg import ConvergenceError
from .problems import (
    ProblemFormatError,
    json_integer,
    json_number,
    load_problem,
)
# battery.set_up computes the constants; this binding stays because
# bench/tests/test_bench.py asserts that the tracer rewraps it here.
from .problems import compute_constants  # noqa: F401
from .rng import derive_seed
from .solvers import (
    ORDER_KINDS,
    BlockOrder,
    SolverRun,
    StepsizePolicy,
    check_applicable,
    trajectory_to_csv,
)
from .verify import bound_spec, checks_for, report_lines, reports_to_csv


# Run labels name output files inside --out: no path separators, no
# leading dot (so neither "." nor ".." nor hidden files), and not the stem
# of another file run writes.  plan_schema.json carries the same rules.
LABEL_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")
RESERVED_LABELS = {"bounds": "the bound table", "verdicts": "the verdict table"}


class PlanError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_plan(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            plan = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise PlanError("$", f"cannot read plan: {exc}")
    except ValueError as exc:
        raise PlanError("$", f"not valid JSON ({exc})")
    if not isinstance(plan, dict):
        raise PlanError("$", "top level must be an object")
    return plan


def _parse_settings(plan: dict) -> tuple[int, str]:
    """The plan's global seed and output directory, 0 and "out" by default."""
    seed = json_integer(plan.get("seed", 0))
    if seed is None:
        raise PlanError("$.seed", "expected an integer")
    output = plan.get("output", "out")
    if not isinstance(output, str):
        raise PlanError("$.output", "expected a directory path string")
    return seed, output


def _problem_source(plan: dict):
    """The plan's problem: an object, or a string naming a problem file (or
    holding problem JSON text); plan_schema.json accepts the same two."""
    if "problem" not in plan:
        raise PlanError("$.problem", "missing required field")
    source = plan["problem"]
    if not isinstance(source, (dict, str)):
        raise PlanError("$.problem", "expected an object or a problem-file path")
    return source


def _parse_order(raw, path: str, global_seed: int) -> BlockOrder:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise PlanError(path, "expected an object with a 'kind' field")
    kind = raw["kind"]
    if kind not in ORDER_KINDS:
        raise PlanError(f"{path}.kind", f"unknown order kind {kind!r}")
    seed = json_integer(raw["seed"]) if "seed" in raw else None
    if "seed" in raw and seed is None:
        raise PlanError(f"{path}.seed", "expected an integer")
    if kind == "cyclic":
        return BlockOrder.cyclic()
    return BlockOrder.random_permutation(derive_seed(global_seed, 1) if seed is None else seed)


def _parse_stepsizes(raw, path: str) -> StepsizePolicy:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise PlanError(path, "expected an object with a 'kind' field")
    kind = raw["kind"]
    if kind in ("global_l", "block_lk"):
        if "values" in raw:
            raise PlanError(f"{path}.values", "only a fixed policy takes values")
        return StepsizePolicy(kind)
    if kind == "fixed":
        values = raw.get("values")
        if not isinstance(values, list) or not values:
            raise PlanError(f"{path}.values", "fixed policy needs a value list")
        numbers = [json_number(value) for value in values]
        for j, number in enumerate(numbers):
            if number is None or number <= 0:
                raise PlanError(f"{path}.values[{j}]", "expected a finite positive number")
        return StepsizePolicy.fixed(numbers)
    raise PlanError(f"{path}.kind", f"unknown stepsize kind {kind!r}")


def _parse_runs(plan: dict, global_seed: int) -> list[tuple[str, SolverRun]]:
    raw_runs = plan.get("runs")
    if not isinstance(raw_runs, list) or not raw_runs:
        raise PlanError("$.runs", "expected a nonempty list of run objects")
    runs = []
    labels = set()
    for i, raw in enumerate(raw_runs):
        path = f"$.runs[{i}]"
        if not isinstance(raw, dict):
            raise PlanError(path, "expected an object")
        algorithm = raw.get("algorithm")
        if algorithm not in ("exact_bcd", "bcpg", "cgd", "gd"):
            raise PlanError(f"{path}.algorithm",
                            f"expected one of exact_bcd/bcpg/cgd/gd, got {algorithm!r}")
        max_cycles = json_integer(raw.get("max_cycles", 100))
        if max_cycles is None or max_cycles < 1:
            raise PlanError(f"{path}.max_cycles", "expected a positive integer")
        gap_tolerance = json_number(raw.get("gap_tolerance", 0.0))
        if gap_tolerance is None or gap_tolerance < 0:
            raise PlanError(f"{path}.gap_tolerance",
                            "expected a finite nonnegative number")
        label = raw.get("label", f"run{i}_{algorithm}")
        if not isinstance(label, str) or not LABEL_PATTERN.fullmatch(label):
            raise PlanError(f"{path}.label",
                            "expected letters, digits, '_', '-' or '.', "
                            "not starting with '.'")
        if label in RESERVED_LABELS:
            raise PlanError(f"{path}.label",
                            f"{label!r} is reserved for {RESERVED_LABELS[label]}")
        if label in labels:
            raise PlanError(f"{path}.label", f"duplicate label {label!r}")
        labels.add(label)
        run = SolverRun(
            algorithm=algorithm,
            order=_parse_order(raw.get("order", {"kind": "cyclic"}), f"{path}.order",
                               global_seed),
            stepsizes=_parse_stepsizes(raw.get("stepsizes", {"kind": "block_lk"}),
                                       f"{path}.stepsizes"),
            max_cycles=max_cycles,
            gap_tolerance=gap_tolerance,
        )
        runs.append((label, run))
    return runs


def _parse_bounds(plan: dict, runs) -> list[tuple[str, str, str | None, float]]:
    """(label, kind, against, c_prior) tuples with pairing validation."""
    raw_bounds = plan.get("bounds", [])
    if not isinstance(raw_bounds, list):
        raise PlanError("$.bounds", "expected a list")
    run_algorithms = dict(runs)
    out = []
    for i, raw in enumerate(raw_bounds):
        path = f"$.bounds[{i}]"
        if isinstance(raw, str):
            kind, against, c_prior = raw, None, 1.0
        elif isinstance(raw, dict):
            kind = raw.get("kind")
            against = raw.get("against")
            c_prior = raw.get("c_prior", 1.0)
            if "against" in raw and not isinstance(against, str):
                raise PlanError(f"{path}.against", "expected a run label string")
        else:
            raise PlanError(path, "expected a kind string or an object")
        if kind not in BOUND_KINDS:
            raise PlanError(f"{path}.kind", f"unknown bound kind {kind!r}")
        c_prior = json_number(c_prior)
        if c_prior is None or c_prior <= 0:
            raise PlanError(f"{path}.c_prior", "expected a finite positive number")
        if against is not None:
            if against not in run_algorithms:
                raise PlanError(f"{path}.against", f"no run labeled {against!r}")
            algorithm = run_algorithms[against].algorithm
            if algorithm not in BOUND_PAIRINGS[kind]:
                raise PlanError(
                    f"{path}.against",
                    f"bound {kind!r} applies to {BOUND_PAIRINGS[kind]}, but run "
                    f"{against!r} uses {algorithm!r}")
        label = kind if against is None else f"{kind}@{against}"
        if any(label == existing for existing, *_ in out):
            raise PlanError(path, f"duplicate bound entry {label!r}")
        out.append((label, kind, against, c_prior))
    return out


def _check_runs(instance, runs) -> None:
    """Reject a run whose algorithm does not apply to the set-up problem, or
    whose stepsizes do not realize against its constants, before any
    output is written."""
    for i, (_, run) in enumerate(runs):
        try:
            check_applicable(run.algorithm, instance.problem)
        except ValueError as exc:
            raise PlanError(f"$.runs[{i}].algorithm", str(exc))
        try:
            run.realize_stepsizes(instance.constants)
        except ValueError as exc:
            raise PlanError(f"$.runs[{i}].stepsizes", str(exc))


def cmd_run(plan_path: str, out_dir: str | None, seed: int | None) -> int:
    plan = _load_plan(plan_path)
    plan_seed, output = _parse_settings(plan)
    global_seed = seed if seed is not None else plan_seed
    source = _problem_source(plan)
    try:
        loaded = load_problem(source)
    except ProblemFormatError as exc:
        raise PlanError("$.problem", str(exc))
    runs = _parse_runs(plan, global_seed)
    bound_requests = _parse_bounds(plan, runs)
    instance = set_up(loaded.kind, loaded.problem, loaded.x0)
    _check_runs(instance, runs)
    constants, reference, r0 = instance.constants, instance.reference, instance.r0

    out = Path(out_dir if out_dir is not None else output)
    out.mkdir(parents=True, exist_ok=True)
    trajectories = {}
    for label, run in runs:
        t = run_solver(instance, run)
        trajectories[label] = t
        trajectory_to_csv(t, out / f"{label}.csv")

    max_cycles = max(t.cycles for t in trajectories.values())
    specs = [(label, bound_spec(instance, kind, trajectories.get(against), c_prior))
             for label, kind, against, c_prior in bound_requests]
    if specs:
        bound_report_csv(specs, max_cycles, out / "bounds.csv")

    lines = [f"problem: kind={loaded.kind} K={constants.block_count} "
             f"N={constants.block_size} L={constants.L:.17g}",
             f"reference: f*={reference.f_star:.17g} certified={reference.certified} "
             f"({reference.note})",
             f"radius: R0<={r0.value:.17g} certified={r0.certified} ({r0.method})"]
    for label, run in runs:
        t = trajectories[label]
        lines.append(f"run {label}: algorithm={t.algorithm} cycles={t.cycles} "
                     f"final_gap={t.gap[-1]:.17g}")
    for label, spec in specs:
        kind = spec.kind
        compatible = [run_label for run_label, run in runs
                      if run.algorithm in BOUND_PAIRINGS[kind]]
        for run_label in compatible:
            t = trajectories[run_label]
            try:
                within = np.flatnonzero(
                    evaluate(spec, np.arange(1, t.cycles + 1)) <= 2.0 * t.gap[1:])
                first = str(within[0] + 1) if within.size else "-"
            except InapplicableBound as exc:
                first = f"inapplicable ({exc})"
            lines.append(f"bound {label} vs {run_label}: first cycle within 2x "
                         f"of observed gap: {first}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(trajectories)} trajectory file(s) to {out}")

    reports = []
    for label, _ in runs:
        paired = {kind: c_prior for _, kind, against, c_prior in bound_requests
                  if against == label}
        reports += checks_for(instance, label, trajectories[label], list(paired),
                              paired.get("prior_cyclic", 1.0))
    reports_to_csv(reports, out / "verdicts.csv")
    return _tally("verdicts", reports)


def _tally(name: str, reports) -> int:
    """Print the check count and asserted failures of ``reports``; the exit
    code is 1 when an asserted check failed and 0 otherwise."""
    failed = sum(1 for rep in reports if not rep.passed and not rep.advisory)
    print(f"{name}: {len(reports)} checks, {failed} asserted failure(s)")
    return 0 if failed == 0 else 1


def cmd_verify(suite: str, seed: int, out_dir: str | None = None) -> int:
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return 2
    reports = SUITES[suite](seed)
    for line in report_lines(reports):
        print(line)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        reports_to_csv(reports, out / f"verify_{suite}.csv")
    return _tally(suite, reports)


def cmd_bounds(problem_path: str, r_max: int, out_dir: str | None) -> int:
    if r_max < 1:
        raise ValueError(f"--rmax: expected a positive integer, got {r_max}")
    loaded = load_problem(problem_path)
    instance = set_up(loaded.kind, loaded.problem, loaded.x0)
    constants, r0, delta0 = instance.constants, instance.r0, instance.delta0
    specs = [(kind, bound_spec(instance, kind)) for kind in BOUND_KINDS]
    out = Path(out_dir if out_dir is not None else "out")
    bound_report_csv(specs, r_max, out / "bounds.csv")

    lines = [
        f"kind={loaded.kind} K={constants.block_count} N={constants.block_size}",
        f"L={constants.L:.17g} L_max={constants.L_max:.17g} L_min={constants.L_min:.17g}",
        f"rank_case={constants.rank_case} sigma_min={constants.sigma_min:.17g} "
        f"gamma_min={constants.gamma_min:.17g}",
        f"delta0={delta0:.17g} R0<={r0.value:.17g} ({r0.method}, certified={r0.certified})",
    ]
    if loaded.kind == "toeplitz":
        ok = constants.L <= 18.0
        lines.append(f"check L <= 18: {'PASS' if ok else 'FAIL'} (L={constants.L:.12g}, "
                     "holds for every dimension)")
        lines.append(
            "note: derived block constants are "
            f"L_min={constants.L_min:.12g}, L_max={constants.L_max:.12g}; the "
            "commonly stated values 4 and 9 overestimate the largest one "
            "(computed directly from the scaled column norms)")
    if constants.block_count * constants.block_size < 3:
        lines.append("notice: K*N < 3, log^2(2NK) bound columns are empty "
                     "(outside the truncation-estimate regime)")
    (out / "constants.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockcd",
        description="block coordinate descent solvers and bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("--plan", required=True, help="plan JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override plan seed")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=list(SUITES))
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--out", default=None, help="also write a CSV report here")

    p_bounds = sub.add_parser("bounds", help="bound curves for a problem file")
    p_bounds.add_argument("--plan", required=True, help="problem JSON file")
    p_bounds.add_argument("--rmax", type=int, default=100)
    p_bounds.add_argument("--out", default=None)

    p_tight = sub.add_parser("tightness", help="alias for verify --suite tightness")
    p_tight.add_argument("--seed", type=int, default=7)
    p_tight.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.plan, args.out, args.seed)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.out)
        if args.command == "bounds":
            return cmd_bounds(args.plan, args.rmax, args.out)
        if args.command == "tightness":
            return cmd_verify("tightness", args.seed, args.out)
    except (ValueError, KeyError, ConvergenceError, OSError, MemoryError,
            ArithmeticError) as exc:
        # a Python float ** that overflows raises OverflowError, whose text
        # ("(34, 'Numerical result out of range')") does not name it
        name = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
        print(f"error: {name}{exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
