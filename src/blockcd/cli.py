"""Command-line harness.

Subcommands:

* ``run`` — execute the solver runs of a plan file, writing one trajectory
  CSV per run, a bound-curve CSV, a summary of final gaps, and
  ``verdicts.csv``.  The verdicts are the checks ``verify.checks_for``
  selects for each run and the bounds whose ``against`` names it, written
  as ``verify --out`` writes them.  A bound paired with no run gets no
  verdict.  A cgd run's exact chain-matrix forms are checked when one
  chain matrix serves every cycle, and otherwise reported as skipped, with
  the reason (``verify.check_descent_cgd``);
* ``verify`` — run a named verification suite over the built-in battery;
* ``bounds`` — compute problem constants and all applicable bound curves
  for a problem file;
* ``tightness`` — alias for ``verify --suite tightness``.

Plan files are JSON; the shape is documented in plan_schema.json shipped
next to this module.  ``problems.read_field`` checks each field, and an
error names it as a schema validator does (``$.problem.block_count``,
``$.runs[1].stepsizes.values[1]``).  Identical plan and seed produce
byte-identical output files.

``run`` and ``verify`` exit 0 when every asserted check passes and 1 when
one fails (advisory checks never gate); every command exits 2 with one
``error:`` line on bad input.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import NamedTuple

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
    INTEGER,
    NONNEGATIVE_NUMBER,
    OBJECT,
    POSITIVE_INTEGER,
    POSITIVE_NUMBER,
    FieldError,
    Rule,
    load_problem,
    one_of,
    read_document,
    read_field,
    read_value,
)
# battery.set_up computes the constants; this binding stays because
# bench/tests/test_bench.py asserts that the tracer rewraps it here.
from .problems import compute_constants  # noqa: F401
from .rng import derive_seed
from .solvers import (
    ALGORITHMS,
    ORDER_KINDS,
    STEPSIZE_KINDS,
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
LABEL = Rule(str, "letters, digits, '_', '-' or '.', not starting with '.'",
             re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*").fullmatch)
RESERVED_LABELS = {"bounds": "the bound table", "verdicts": "the verdict table"}


class Plan(NamedTuple):
    """A plan read field by field: its problem as given (an object, or a
    problem-file path or JSON text, for load_problem), its output
    directory, its labelled runs and its (label, kind, against, c_prior)
    bound requests."""

    problem: dict | str
    output: str
    runs: list[tuple[str, SolverRun]]
    bounds: list[tuple[str, str, str | None, float]]


def read_plan(source, seed: int | None = None) -> Plan:
    """The plan ``source`` (a file path, JSON text or a dict), with every
    field checked and the rules that span fields: unique run labels and
    bound entries, reserved labels, ``against`` naming a run whose
    algorithm pairs with the bound, and ``values`` only on a ``fixed``
    policy.  ``seed`` overrides the plan's seed."""
    plan = read_document(source)
    plan_seed = read_field(plan, "$", "seed", INTEGER, default=0)
    output = read_field(plan, "$", "output", Rule(str, "a directory path"), default="out")
    problem = read_field(plan, "$", "problem",
                         Rule((dict, str), "a problem object or a problem-file path"))
    runs = _parse_runs(plan, plan_seed if seed is None else seed)
    return Plan(problem, output, runs, _parse_bounds(plan, runs))


def _parse_order(raw: dict, path: str, global_seed: int) -> BlockOrder:
    kind = read_field(raw, path, "kind", one_of(ORDER_KINDS))
    seed = read_field(raw, path, "seed", INTEGER, default=None)
    if kind == "cyclic":
        return BlockOrder.cyclic()
    return BlockOrder.random_permutation(derive_seed(global_seed, 1) if seed is None else seed)


def _parse_stepsizes(raw: dict, path: str) -> StepsizePolicy:
    kind = read_field(raw, path, "kind", one_of(STEPSIZE_KINDS))
    if kind != "fixed":
        if "values" in raw:
            raise FieldError(f"{path}.values", "only a fixed policy takes values")
        return StepsizePolicy(kind)
    return StepsizePolicy.fixed(read_field(raw, path, "values", Rule(
        list, "a nonempty list of finite positive numbers", bool, POSITIVE_NUMBER)))


def _parse_runs(plan: dict, global_seed: int) -> list[tuple[str, SolverRun]]:
    raw_runs = read_field(plan, "$", "runs",
                          Rule(list, "a nonempty list of run objects", bool, OBJECT))
    runs = []
    labels = set()
    for i, raw in enumerate(raw_runs):
        path = f"$.runs[{i}]"
        algorithm = read_field(raw, path, "algorithm", one_of(ALGORITHMS))
        max_cycles = read_field(raw, path, "max_cycles", POSITIVE_INTEGER, default=100)
        gap_tolerance = read_field(raw, path, "gap_tolerance", NONNEGATIVE_NUMBER,
                                   default=0.0)
        label = read_field(raw, path, "label", LABEL, default=f"run{i}_{algorithm}")
        if label in RESERVED_LABELS:
            raise FieldError(f"{path}.label",
                             f"{label!r} is reserved for {RESERVED_LABELS[label]}")
        if label in labels:
            raise FieldError(f"{path}.label", f"duplicate label {label!r}")
        labels.add(label)
        order = read_field(raw, path, "order", OBJECT, default={"kind": "cyclic"})
        stepsizes = read_field(raw, path, "stepsizes", OBJECT, default={"kind": "block_lk"})
        run = SolverRun(
            algorithm=algorithm,
            order=_parse_order(order, f"{path}.order", global_seed),
            stepsizes=_parse_stepsizes(stepsizes, f"{path}.stepsizes"),
            max_cycles=max_cycles,
            gap_tolerance=gap_tolerance,
        )
        runs.append((label, run))
    return runs


def _parse_bounds(plan: dict, runs) -> list[tuple[str, str, str | None, float]]:
    """(label, kind, against, c_prior) tuples with pairing validation."""
    raw_bounds = read_field(plan, "$", "bounds", Rule(
        list, "a list", items=Rule((str, dict), "a bound kind or a bound object")), default=[])
    run_algorithms = {label: run.algorithm for label, run in runs}
    out = []
    for i, raw in enumerate(raw_bounds):
        path = f"$.bounds[{i}]"
        if isinstance(raw, str):
            kind, against, c_prior = read_value(raw, path, one_of(BOUND_KINDS)), None, 1.0
        else:
            kind = read_field(raw, path, "kind", one_of(BOUND_KINDS))
            against = read_field(raw, path, "against", Rule(str, "a run label"), default=None)
            c_prior = read_field(raw, path, "c_prior", POSITIVE_NUMBER, default=1.0)
        if against is not None:
            if against not in run_algorithms:
                raise FieldError(f"{path}.against", f"no run labeled {against!r}")
            algorithm = run_algorithms[against]
            if algorithm not in BOUND_PAIRINGS[kind]:
                raise FieldError(
                    f"{path}.against",
                    f"bound {kind!r} applies to {BOUND_PAIRINGS[kind]}, but run "
                    f"{against!r} uses {algorithm!r}")
        label = kind if against is None else f"{kind}@{against}"
        if any(label == existing for existing, *_ in out):
            raise FieldError(path, f"duplicate bound entry {label!r}")
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
            raise FieldError(f"$.runs[{i}].algorithm", str(exc))
        try:
            run.realize_stepsizes(instance.constants)
        except ValueError as exc:
            raise FieldError(f"$.runs[{i}].stepsizes", str(exc))


def cmd_run(plan_path: str, out_dir: str | None, seed: int | None) -> int:
    plan = read_plan(plan_path, seed)
    loaded = load_problem(plan.problem, "$.problem")
    runs, bound_requests = plan.runs, plan.bounds
    instance = set_up(loaded.kind, loaded.problem, loaded.x0)
    _check_runs(instance, runs)
    constants, reference, r0 = instance.constants, instance.reference, instance.r0

    out = Path(out_dir if out_dir is not None else plan.output)
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
    """Run a verification suite, print its reports and, with ``out_dir``,
    write them as CSV.  ``seed`` is the command line's --seed, which no
    suite reads: every suite is deterministic."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    reports = SUITES[suite]()
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error:`` line with exit code 2, as
    every command reports bad input, in place of the usage block."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


SEED_HELP = "accepted and ignored: every verify suite is deterministic and reads no seed"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_verify.add_argument("--seed", type=int, default=7, help=SEED_HELP)
    p_verify.add_argument("--out", default=None, help="also write a CSV report here")

    p_bounds = sub.add_parser("bounds", help="bound curves for a problem file")
    p_bounds.add_argument("--plan", required=True, help="problem JSON file")
    p_bounds.add_argument("--rmax", type=int, default=100)
    p_bounds.add_argument("--out", default=None)

    p_tight = sub.add_parser("tightness", help="alias for verify --suite tightness")
    p_tight.add_argument("--seed", type=int, default=7, help=SEED_HELP)
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
