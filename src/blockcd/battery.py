"""Problem set-up and solver dispatch, the built-in instance battery, and
the verification suites run over it.

``set_up`` and ``run_solver`` serve the battery and the command line
alike.  Instances, reference optima and trajectories are cached per
process, so the lemma suite, the envelope suite and the acceptance tests
share the same runs.  Everything is keyed by plain strings/ints and
derived from fixed seeds, so repeated invocations are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bounds import R0Estimate, beta_estimate, evaluate, log2nk, r0_upper_estimate
from .problems import (
    BlockPartition,
    CompositeQuadraticProblem,
    NonsmoothTerm,
    ProblemConstants,
    compute_constants,
    eval_objective,
    load_problem,
    oracle_from_quadratic,
)
from .rng import SplitMix64, derive_seed
from .solvers import (
    BlockOrder,
    ReferenceOptimum,
    SolverRun,
    StepsizePolicy,
    Trajectory,
    check_start,
    reference_optimum,
    run_bcd_exact,
    run_bcpg,
    run_cgd,
    run_gd,
    run_lockstep,
)
from .verify import (
    CheckReport,
    bound_spec,
    check_truncation_constant,
    envelope_checks,
    lemma_checks,
    run_tightness_case,
)

LASSO_COUNT = 10
LASSO_ROWS = 30
LASSO_BLOCKS = 20
LASSO_WEIGHT = 0.1
LASSO_BASE_SEED = 7_000
LASSO_CYCLES = 300
# (algorithm, stepsize policy) of the suites' runs on every lasso instance
LASSO_RUNS = (("bcpg", "block_lk"), ("bcpg", "global_l"), ("exact_bcd", "block_lk"))
TOEPLITZ_SIZES = (5, 10, 25, 50)
TABLE1_SIZES = (10, 100)
TRUNCATION_SIZES = (2, 4, 8, 16, 32, 64)
# name -> problem document of every generated battery instance, read by load_problem
PROBLEMS = {
    **{f"lasso_{i:02d}": {"kind": "lasso", "rows": LASSO_ROWS, "block_count": LASSO_BLOCKS,
                          "weight": LASSO_WEIGHT, "seed": LASSO_BASE_SEED + i}
       for i in range(LASSO_COUNT)},
    **{f"toeplitz_K{k}": {"kind": "toeplitz", "block_count": k} for k in TOEPLITZ_SIZES},
    **{f"table1_{flavor}_K{k}": {"kind": f"table1_{flavor}", "block_count": k, "lipschitz": 2.0}
       for flavor in ("diag", "full") for k in TABLE1_SIZES},
}
# name -> (case seed, K, N, rows, rank-one blocks, box terms, expected rank case)
# of the Theorem 2 instances, each built by _thm2_instance
THM2_CASES = {
    "thm2_case1": (1, 5, 2, 16, False, False, "full_column"),
    "thm2_case2": (2, 5, 3, 2, False, True, "full_row"),
    "thm2_case3_box": (3, 5, 2, 3, True, True, "neither"),
    "thm2_case3_free": (3, 5, 2, 3, True, False, "neither"),
}


@dataclass(frozen=True)
class Instance:
    """A problem set up for solving and bounding: start point, constants,
    reference optimum, level-set radius, initial gap delta0 and, for a
    nonsmooth-free scalar-block problem, beta with the exact norm
    ||strict_lower_truncate(Q)|| that beta bounds.  Every per-run check
    reads its set-up values from here.  The arrays are read-only, because
    every cached run of the instance reads them."""

    name: str
    problem: CompositeQuadraticProblem
    x0: np.ndarray
    constants: ProblemConstants
    reference: ReferenceOptimum
    r0: R0Estimate
    delta0: float
    beta: float | None
    lower_norm: float | None

    def gd_radius(self) -> float:
        """||x0 - x*||: a sound radius for the gradient-descent envelope."""
        return float(np.linalg.norm(self.x0 - self.reference.x_star))


def set_up(name: str, problem: CompositeQuadraticProblem, x0) -> Instance:
    """Constants, reference optimum, radius R0 and delta0 of ``problem`` from
    ``x0``, then, for a nonsmooth-free problem with scalar blocks, beta of
    its smooth view (oracle_from_quadratic).

    This is the one place that computes a problem's set-up: the solvers,
    bounds and checks take these values as arguments.  x0 must pass the
    solvers' start check and have a finite objective, or nothing is
    computed: no gap, radius or run can start from an infinite f(x0).
    The instance keeps the start check's copy of x0."""
    x0 = check_start(problem, x0)
    f0 = eval_objective(problem, x0)
    if not math.isfinite(f0):
        raise ValueError(f"x0: the objective at x0 is {f0}, not a finite number")
    constants = compute_constants(problem)
    reference = reference_optimum(problem, constants)
    r0 = r0_upper_estimate(problem, x0, f0, reference.x_star, reference.f_star, constants)
    delta0 = max(0.0, f0 - reference.f_star)
    beta = lower_norm = None
    if problem.is_smooth() and problem.partition.block_size == 1:
        estimate = beta_estimate(oracle_from_quadratic(problem, constants))
        beta, lower_norm = estimate.estimate, estimate.exact
    for values in (x0, constants.L_k, constants.sigma_k, constants.gamma_k, reference.x_star):
        values.flags.writeable = False
    return Instance(name=name, problem=problem, x0=x0, constants=constants, reference=reference,
                    r0=r0, delta0=delta0, beta=beta, lower_norm=lower_norm)


def run_solver(instance: Instance, run: SolverRun) -> Trajectory:
    """``run`` from the instance's start point with the instance's
    constants, and with its gap to the reference optimum attached.

    The runner is looked up by its name in this module at each call, not
    through a table of functions built at import: a wrapper rebound over
    ``battery.run_bcpg`` and the others after import, as the benchmark's
    span tracer (bench/tracing.py) does, then sees every run."""
    if run.algorithm == "bcpg":
        solve = run_bcpg
    elif run.algorithm == "exact_bcd":
        solve = run_bcd_exact
    elif run.algorithm == "cgd":
        solve = run_cgd
    elif run.algorithm == "gd":
        solve = run_gd
    else:
        raise ValueError(f"unknown algorithm {run.algorithm!r}")
    return solve(instance.problem, run, instance.x0, instance.constants,
                 instance.reference.f_star)


def _thm2_instance(name: str, case: int, k: int, n: int, m: int, rank_one: bool, box: bool,
                   rank_case: str) -> Instance:
    """A Theorem 2 instance: K blocks of m x n normal draws (or rank-one
    outer products), then b, then a normal start, or 0 for a box instance.
    Its seed must give the expected rank case."""
    gen = SplitMix64(derive_seed(0xCA5E, case))
    blocks = tuple(np.outer(gen.normal_vector(m), gen.normal_vector(n)) if rank_one
                   else gen.normal_matrix(m, n) for _ in range(k))
    b = gen.normal_vector(m)
    x0 = np.zeros(k * n) if box else gen.normal_vector(k * n)
    term = NonsmoothTerm.box(-1.0, 1.0) if box else NonsmoothTerm.zero()
    problem = CompositeQuadraticProblem(partition=BlockPartition(k, n), a_blocks=blocks, b=b,
                                        h=(term,) * k)
    instance = set_up(name, problem, x0)
    if instance.constants.rank_case != rank_case:
        raise RuntimeError(f"{name}: its seed gave the rank case "
                           f"{instance.constants.rank_case!r}, not {rank_case!r}")
    return instance


@cache
def get_instance(name: str) -> Instance:
    """The battery instance ``name``, set up once per process: a thm2 one
    from its THM2_CASES row, any other from its problem document."""
    if name in THM2_CASES:
        return _thm2_instance(name, *THM2_CASES[name])
    if name not in PROBLEMS:
        raise KeyError(f"unknown battery instance {name!r}")
    loaded = load_problem(PROBLEMS[name])
    return set_up(name, loaded.problem, loaded.x0)


def _names(prefix: str) -> list[str]:
    return [name for name in PROBLEMS if name.startswith(prefix)]


def lasso_names() -> list[str]:
    return _names("lasso_")


def toeplitz_names() -> list[str]:
    return _names("toeplitz_")


def table1_names() -> list[str]:
    return _names("table1_")


def thm2_names() -> list[str]:
    return list(THM2_CASES)


def qp_battery_names() -> list[str]:
    """Instances exercised by the block solvers (composite problems)."""
    return (lasso_names() + toeplitz_names() + thm2_names()
            + ["table1_diag_K10", "table1_full_K10"])


def smooth_battery_names() -> list[str]:
    """Instances with a smooth objective (gradient-descent targets)."""
    return (toeplitz_names() + table1_names()
            + ["thm2_case1", "thm2_case3_free"])


@cache
def _lasso_family(order_kind: str, order_seed: int) -> dict:
    """The suites' LASSO_RUNS on every lasso instance, LASSO_CYCLES cycles
    each, run as one lockstep batch (bit-identical to run_solver); keyed
    by (name, algorithm, policy kind), with gaps to each instance's f*."""
    keys = [(name, algorithm, policy) for name in lasso_names()
            for algorithm, policy in LASSO_RUNS]
    instances = [get_instance(name) for name, _, _ in keys]
    order = BlockOrder(order_kind, order_seed)
    runs = [SolverRun(algorithm=algorithm, order=order, stepsizes=StepsizePolicy(policy),
                      max_cycles=LASSO_CYCLES) for _, algorithm, policy in keys]
    trajectories = run_lockstep([i.problem for i in instances], runs,
                                [i.x0 for i in instances], [i.constants for i in instances],
                                [i.reference.f_star for i in instances])
    return dict(zip(keys, trajectories))


@cache
def get_trajectory(name: str, algorithm: str, policy_kind: str,
                   order_kind: str = "cyclic", order_seed: int = 0,
                   cycles: int = 100) -> Trajectory:
    """Cached trajectory of a battery instance, with its gap attached; every
    caller shares it, which its frozen, read-only arrays allow.  The lasso
    family's suite runs come from one lockstep batch per order."""
    key = (name, algorithm, policy_kind)
    if name in lasso_names() and cycles == LASSO_CYCLES and key[1:] in LASSO_RUNS:
        return _lasso_family(order_kind, order_seed)[key]
    run = SolverRun(algorithm=algorithm, order=BlockOrder(order_kind, order_seed),
                    stepsizes=StepsizePolicy(policy_kind), max_cycles=cycles)
    return run_solver(get_instance(name), run)


# ---------------------------------------------------------------------------
# Suites: verify.lemma_checks and verify.envelope_checks choose each
# trajectory's checks; a check's label is "<instance>[:<policy>]<suffix>"

def _suffix(order_kind: str, order_seed: int) -> str:
    return "" if order_kind == "cyclic" else f"[{order_kind}:{order_seed}]"


def _table1_cycles(name: str) -> int:
    return 200 if get_instance(name).constants.block_count <= 10 else 100


def suite_lemmas(order_kind: str = "cyclic", order_seed: int = 0) -> list[CheckReport]:
    """Per-cycle descent and cost-to-go inequalities over the battery."""
    reports = []
    suffix = _suffix(order_kind, order_seed)
    for name in qp_battery_names():
        instance = get_instance(name)
        cycles = 300 if name.startswith(("lasso", "thm2")) else 100
        for algorithm, policy, label in (("bcpg", "block_lk", f"{name}:block_lk"),
                                         ("bcpg", "global_l", f"{name}:global_l"),
                                         ("exact_bcd", "block_lk", name)):
            t = get_trajectory(name, algorithm, policy, order_kind, order_seed, cycles)
            reports += lemma_checks(instance, label + suffix, t)
    for name in table1_names():
        for policy in ("global_l", "block_lk"):
            t = get_trajectory(name, "cgd", policy, order_kind, order_seed, _table1_cycles(name))
            reports += lemma_checks(get_instance(name), f"{name}:{policy}{suffix}", t)
    return reports


def suite_envelopes(order_kind: str = "cyclic", order_seed: int = 0) -> list[CheckReport]:
    """Gap-versus-bound envelope checks for every theorem-backed pairing."""
    reports = []
    suffix = _suffix(order_kind, order_seed)
    for name in lasso_names():
        instance = get_instance(name)
        for policy, kind in (("global_l", "thm1_uniform"), ("block_lk", "thm1_blockwise")):
            t = get_trajectory(name, "bcpg", policy, order_kind, order_seed, LASSO_CYCLES)
            reports += envelope_checks(instance, f"{name}:{policy}{suffix}", t,
                                       (kind, "prior_cyclic"))
        t = get_trajectory(name, "exact_bcd", "block_lk", order_kind, order_seed, LASSO_CYCLES)
        reports += envelope_checks(instance, name + suffix, t, ("thm2_scalar",))
    for name, kind in (("thm2_case1", "thm2_case1"), ("thm2_case2", "thm2_case2"),
                       ("thm2_case3_box", "thm2_case3"), ("thm2_case3_free", "thm2_case3")):
        t = get_trajectory(name, "exact_bcd", "block_lk", order_kind, order_seed, 300)
        reports += envelope_checks(get_instance(name), name + suffix, t, (kind,))
    for name in ("toeplitz_K10", "toeplitz_K25"):
        t = get_trajectory(name, "bcpg", "block_lk", order_kind, order_seed, 100)
        reports += envelope_checks(get_instance(name), name + suffix, t, ("thm1_smooth",))
    for name in table1_names():
        for policy in ("global_l", "block_lk"):
            t = get_trajectory(name, "cgd", policy, order_kind, order_seed, _table1_cycles(name))
            reports += envelope_checks(get_instance(name), f"{name}:{policy}{suffix}", t,
                                       ("thm3", "coro1"))
    reports.extend(suite_gd())
    reports.append(prior_ratio_report())
    return reports


def suite_gd() -> list[CheckReport]:
    """Gradient-descent baseline envelope on every smooth battery member,
    with the exact initial distance ||x0 - x*|| as its radius."""
    reports = []
    for name in smooth_battery_names():
        t = get_trajectory(name, "gd", "block_lk", "cyclic", 0, 200)
        reports += envelope_checks(get_instance(name), name, t, ("gd",))
    return reports


def prior_ratio_report() -> CheckReport:
    """Informational ratio of the prior cyclic bound (leading constant 1)
    to the blockwise bound on the fully coupled scenario, with the
    block_lk stepsizes, whose extremes are L_max and L_min (bound_spec
    with no run)."""
    instance = get_instance("table1_full_K100")
    prior = bound_spec(instance, "prior_cyclic")
    blockwise = bound_spec(instance, "thm1_blockwise")
    r = 50
    ratio = evaluate(prior, r) / evaluate(blockwise, r)
    factor = instance.constants.block_count / (6.0 * log2nk(instance.constants) ** 2)
    return CheckReport(
        check_name="prior_vs_blockwise_ratio",
        cycles_checked=1,
        worst_violation=0.0,
        passed=True,
        advisory=True,
        notes=(f"at r={r}: prior/blockwise = {ratio:.3f}; "
               f"K/(6 log^2(2NK)) = {factor:.3f} "
               "(informational; prior constant unspecified)"),
    )


def suite_tightness(sizes=TOEPLITZ_SIZES) -> list[CheckReport]:
    """The one-pass tightness checks on the adversarial toeplitz instances,
    from their cached one-cycle runs."""
    reports = []
    for k in sizes:
        name = f"toeplitz_K{k}"
        reports.extend(run_tightness_case(
            get_instance(name).x0,
            get_trajectory(name, "exact_bcd", "block_lk", cycles=1),
            get_trajectory(name, "bcpg", "block_lk", cycles=1)))
    return reports


def suite_truncation() -> list[CheckReport]:
    return [check_truncation_constant(TRUNCATION_SIZES)]


def suite_all() -> list[CheckReport]:
    reports = []
    reports.extend(suite_lemmas())
    reports.extend(suite_envelopes())
    reports.extend(suite_tightness())
    reports.extend(suite_truncation())
    return reports


# Every suite is deterministic: its inputs come from fixed seeds, so none takes one.
SUITES = {
    "all": suite_all,
    "lemmas": suite_lemmas,
    "envelopes": suite_envelopes,
    "tightness": suite_tightness,
    "truncation": suite_truncation,
}
