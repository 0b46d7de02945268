"""Per-cycle inequality checkers for the descent and cost-to-go estimates,
envelope checks for the complexity bounds, the triangular-truncation
constant check, and the adversarial one-pass construction with its
closed-form recursion oracle.

``checks_for`` (``lemma_checks`` plus ``envelope_checks``) is the one
selection of checks for a set-up trajectory, and the one place that says
when a check is advisory; ``bound_spec`` is the one place that builds a
BoundSpec.  The battery suites and ``blockcd run`` both go through them.

Every check returns a CheckReport.  Violations are normalized so that a
report's tolerance is a single number: ``worst_violation`` is the largest
normalized excess over all cycles (0 when the inequality always held) and
``passed`` is exactly ``worst_violation <= tolerance``.  Reports flagged
``advisory`` carry information (heuristic radius, unspecified constants)
and do not gate suite exit codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .bounds import BOUND_PAIRINGS, BoundSpec, InapplicableBound, evaluate
from .linalg import spectral_norm
from .problems import CompositeQuadraticProblem, ProblemConstants, SmoothProblemOracle
from .rng import SplitMix64, derive_seed
from .solvers import Trajectory

if TYPE_CHECKING:
    from .battery import Instance

LEMMA_TOL = 1e-8


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check."""

    check_name: str
    cycles_checked: int
    worst_violation: float
    passed: bool
    notes: str = ""
    tolerance: float = 0.0
    advisory: bool = False


def _report(name: str, violations, tolerance: float, notes: str = "",
            advisory: bool = False) -> CheckReport:
    values = [v for v in violations]
    worst = max([0.0] + values) if values else 0.0
    return CheckReport(
        check_name=name,
        cycles_checked=len(values),
        worst_violation=worst,
        passed=worst <= tolerance,
        notes=notes,
        tolerance=tolerance,
        advisory=advisory,
    )


def _skipped(name: str, notes: str) -> CheckReport:
    return CheckReport(check_name=name, cycles_checked=0, worst_violation=0.0,
                       passed=True, notes=f"skipped: {notes}", advisory=True)


def check_descent_bcpg(t: Trajectory, p: CompositeQuadraticProblem,
                       name: str = "descent_bcpg") -> CheckReport:
    """Per-cycle sufficient descent of the proximal sweep:
    f(x^r) - f(x^(r+1)) >= sum_k (P_k/2) ||x_k^(r+1) - x_k^(r)||^2."""
    if t.algorithm != "bcpg":
        raise ValueError("descent_bcpg expects a bcpg trajectory")
    violations = []
    for r in range(t.cycles):
        lhs = t.f[r] - t.f[r + 1]
        rhs = 0.5 * t.weighted_movement[r] ** 2
        violations.append((rhs - lhs) / max(1.0, abs(t.f[r])))
    return _report(name, violations, LEMMA_TOL,
                   notes="normalized by max(1, |f|)")


def image_movements_sq(t: Trajectory, p: CompositeQuadraticProblem) -> list[float]:
    """sum_k ||A_k (x_k^(r+1) - x_k^(r))||^2 for every cycle r, one einsum
    per cycle over the blocks stacked as an (m, K, N) view of
    [A_1, ..., A_K].  The exact-BCD descent and cost-to-go checks of one
    trajectory share the list."""
    k_count, n = p.partition.block_count, p.partition.block_size
    stacked = p.full_matrix().reshape(p.rows, k_count, n)
    movements = []
    for r in range(t.cycles):
        d = (t.xs[r + 1] - t.xs[r]).reshape(k_count, n)
        steps = np.einsum("mkn,kn->km", stacked, d)
        movements.append(float(np.sum(steps * steps)))
    return movements


def check_descent_bcd(t: Trajectory, p: CompositeQuadraticProblem,
                      name: str = "descent_bcd",
                      image_sq: list[float] | None = None) -> CheckReport:
    """Per-cycle sufficient descent of exact block minimization:
    f(x^r) - f(x^(r+1)) >= 1/2 sum_k ||A_k (x_k^(r+1) - x_k^(r))||^2.
    ``image_sq`` is image_movements_sq(t, p), computed here if not given."""
    if t.algorithm != "exact_bcd":
        raise ValueError("descent_bcd expects an exact_bcd trajectory")
    if image_sq is None:
        image_sq = image_movements_sq(t, p)
    violations = []
    for r in range(t.cycles):
        lhs = t.f[r] - t.f[r + 1]
        rhs = 0.5 * image_sq[r]
        violations.append((rhs - lhs) / max(1.0, abs(t.f[r])))
    return _report(name, violations, LEMMA_TOL,
                   notes="normalized by max(1, |f|)")


def check_costtogo_bcpg(t: Trajectory, p: CompositeQuadraticProblem,
                        r0_upper: float, constants: ProblemConstants,
                        name: str = "costtogo_bcpg",
                        advisory: bool = False) -> CheckReport:
    """Gap bound from iterate movement after a proximal sweep:
    gap^(r+1) <= R0 log(2NK) (L/sqrt(P_min) + sqrt(P_max)) * movement^r."""
    if t.algorithm != "bcpg":
        raise ValueError("costtogo_bcpg expects a bcpg trajectory")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    total = constants.block_count * constants.block_size
    if total < 3:
        return _skipped(name, f"K*N = {total} < 3 is outside the log^2 regime")
    p_min = float(t.stepsizes.min())
    p_max = float(t.stepsizes.max())
    coefficient = (r0_upper * math.log(2.0 * constants.block_size * constants.block_count)
                   * (constants.L / math.sqrt(p_min) + math.sqrt(p_max)))
    violations = []
    for r in range(t.cycles):
        lhs = t.gap[r + 1]
        rhs = coefficient * t.weighted_movement[r]
        violations.append((lhs - rhs) / max(1.0, abs(lhs), rhs))
    return _report(name, violations, LEMMA_TOL, advisory=advisory,
                   notes=f"coefficient {coefficient:.6g}")


def check_costtogo_bcd(t: Trajectory, p: CompositeQuadraticProblem,
                       r0_upper: float, constants: ProblemConstants,
                       name: str = "costtogo_bcd",
                       advisory: bool = False,
                       image_sq: list[float] | None = None) -> CheckReport:
    """Gap bound from iterate movement after an exact sweep; the rank case
    of the blocks picks the applicable inequality (the rank-free case-3
    form is the fallback).  ``image_sq`` is image_movements_sq(t, p); the
    full-row and rank-free forms compute it if it is not given."""
    if t.algorithm != "exact_bcd":
        raise ValueError("costtogo_bcd expects an exact_bcd trajectory")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    n = p.partition.block_size
    total = constants.block_count * n
    case = constants.rank_case
    log2nk = math.log(2.0 * n * constants.block_count) if total >= 3 else None
    if case in ("full_column", "full_row") and log2nk is None:
        return _skipped(name, f"K*N = {total} < 3 is outside the log^2 regime")

    if case == "full_column":
        coefficient = (r0_upper / constants.sigma_min) * log2nk * (constants.L + constants.L_max)
        movements = [math.sqrt(float(np.sum((constants.sigma_k * t.block_movement(r, n)) ** 2)))
                     for r in range(t.cycles)]
        label = "full-column-rank form"
    else:
        if image_sq is None:
            image_sq = image_movements_sq(t, p)
        movements = [math.sqrt(value) for value in image_sq]
        if case == "full_row":
            coefficient = (r0_upper / constants.gamma_min) * log2nk * (constants.L + constants.L_max)
            label = "full-row-rank form"
        else:
            coefficient = r0_upper * math.sqrt(constants.L_max) * (constants.block_count + 2)
            label = "rank-free form"
    violations = []
    for r in range(t.cycles):
        lhs = t.gap[r + 1]
        rhs = coefficient * movements[r]
        violations.append((lhs - rhs) / max(1.0, abs(lhs), rhs))
    return _report(name, violations, LEMMA_TOL, advisory=advisory,
                   notes=f"{label}; coefficient {coefficient:.6g}")


def _chain_matrix_norm(orders, hessian: np.ndarray, stepsizes: np.ndarray):
    """Yield (||V||, ||H||) for each visit order in ``orders`` over a
    constant Hessian, where V = D^(1/2) + H D^(-1/2), D = diag stepsizes in
    visit order, and H is the strict lower triangle of the order-permuted
    Hessian.

    Cost: two dense SVDs for a cycle whose permuted Hessian Q[order, order]
    or permuted stepsizes differ from the previous cycle's, and none
    otherwise.  Only the previous cycle's order, Q[order, order], stepsizes
    and norms are kept.  So cyclic orders, and random orders on a quadratic
    that is invariant under permuting its coordinates (equal L_k with
    L I or (L/K) 11^T), pay once per run; random orders on a coupled Hessian
    without that invariance pay on every cycle.  Equal inputs give equal
    SVD bits, so reuse changes no norm."""
    last_order = last_q = last_p = norms = None
    for order in orders:
        if order != last_order:
            q = hessian[np.ix_(order, order)]
            p_seq = stepsizes[list(order)]
            if norms is None or not (np.array_equal(q, last_q)
                                     and np.array_equal(p_seq, last_p)):
                h = np.tril(q, k=-1)
                v = np.diag(np.sqrt(p_seq)) + h @ np.diag(1.0 / np.sqrt(p_seq))
                norms = (spectral_norm(v).value, spectral_norm(h).value)
                last_q, last_p = q, p_seq
            last_order = order
        yield norms


def check_descent_cgd_beta(t: Trajectory, beta: float,
                           name: str = "descent_cgd") -> CheckReport:
    """Sufficient descent of the coordinate chain in terms of the full
    gradient, in the relaxed form (report ``<name>_beta``)

        g^r - g^(r+1) >= ||grad g(x^r)||^2 / (2 (P_max + beta^2 / P_min))."""
    if t.algorithm != "cgd":
        raise ValueError("descent_cgd expects a cgd trajectory")
    if t.grad_norm is None:
        raise ValueError("trajectory has no gradient records")
    p_max = float(t.stepsizes.max())
    p_min = float(t.stepsizes.min())
    denom_beta = 2.0 * (p_max + beta ** 2 / p_min)
    beta_violations = []
    for r in range(t.cycles):
        lhs = t.f[r] - t.f[r + 1]
        rhs = t.grad_norm[r] ** 2 / denom_beta
        beta_violations.append((rhs - lhs) / max(1.0, abs(t.f[r])))
    return _report(f"{name}_beta", beta_violations, LEMMA_TOL, notes=f"beta {beta:.6g}")


def check_descent_cgd(t: Trajectory, o: SmoothProblemOracle, beta: float,
                      name: str = "descent_cgd") -> list[CheckReport]:
    """Sufficient descent of the coordinate chain in terms of the full
    gradient: the relaxed form (check_descent_cgd_beta), the exact
    chain-matrix form with ||V||^2, and ||H|| <= beta.
    """
    reports = [check_descent_cgd_beta(t, beta, name)]
    exact_violations = []
    h_norm_violations = []
    norms = _chain_matrix_norm(t.orders, o.hessian, t.stepsizes)
    for r, (v_norm, h_norm) in enumerate(norms):
        lhs = t.f[r] - t.f[r + 1]
        rhs = t.grad_norm[r] ** 2 / (2.0 * v_norm ** 2)
        exact_violations.append((rhs - lhs) / max(1.0, abs(t.f[r])))
        h_norm_violations.append((h_norm - beta) / max(1.0, beta))
    reports.append(_report(f"{name}_exact_v", exact_violations, LEMMA_TOL,
                           notes="exact chain-matrix norm"))
    reports.append(_report(f"{name}_hbound", h_norm_violations, 1e-12,
                           notes="||strict lower Hessian|| <= beta"))
    return reports


def check_envelope(t: Trajectory, spec: BoundSpec, name: str | None = None,
                   r0_certified: bool = True) -> CheckReport:
    """Assert gap^r <= bound(r) * (1 + 1e-8) for every recorded r >= 1.

    Bound kinds are only accepted against the solver they were stated for.
    ``r0_certified`` False, for a radius or reference value that is not
    certified, makes the report advisory (informational, not asserted by
    suites).
    """
    allowed = BOUND_PAIRINGS[spec.kind]
    if t.algorithm not in allowed:
        raise ValueError(
            f"bound {spec.kind!r} applies to {allowed}, not {t.algorithm!r}")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    name = name or f"envelope_{spec.kind}"
    advisory = not r0_certified
    violations = []
    try:
        for r in range(1, t.cycles + 1):
            bound = evaluate(spec, r)
            gap = t.gap[r]
            if bound <= 0.0:
                violations.append(gap)
            else:
                violations.append(gap / bound - 1.0)
    except InapplicableBound as exc:
        return _skipped(name, str(exc))
    qualifier = "" if not advisory else " (informational: uncertified inputs)"
    return _report(name, violations, 1e-8, advisory=advisory,
                   notes=f"cycles 1..{t.cycles}{qualifier}")


# ---------------------------------------------------------------------------
# Check selection: which checks a trajectory gets, and when one is advisory

def bound_spec(instance: Instance, kind: str, t: Trajectory | None = None,
               c_prior: float = 1.0) -> BoundSpec:
    """The bound ``kind`` on a set-up instance, with the inverse-stepsize
    extremes of the run ``t`` it is paired with, or L_max and L_min when
    it is paired with no run."""
    c = instance.constants
    if t is None:
        p_max, p_min = c.L_max, c.L_min
    else:
        p_max, p_min = float(t.stepsizes.max()), float(t.stepsizes.min())
    return BoundSpec(kind=kind, constants=c, r0_upper=instance.r0.value,
                     delta0=instance.delta0, beta=instance.beta, c_prior=c_prior,
                     p_max=p_max, p_min=p_min)


def permutation_invariant(hessian: np.ndarray, stepsizes: np.ndarray) -> bool:
    """Whether Q[order, order] and P[order] are the same for every visit
    order: Q has one diagonal value and one off-diagonal value, and P is
    constant.  One pass over the K x K entries."""
    def constant(values):
        return values.size == 0 or bool(np.all(values == values.flat[0]))
    off_diagonal = ~np.eye(hessian.shape[0], dtype=bool)
    return (constant(np.diagonal(hessian)) and constant(hessian[off_diagonal])
            and constant(stepsizes))


def lemma_checks(instance: Instance, label: str, t: Trajectory) -> list[CheckReport]:
    """The per-cycle descent and cost-to-go checks of run ``t`` on the
    set-up ``instance``, named ``<check>:<label>``.

    * bcpg: descent_bcpg and costtogo_bcpg;
    * exact_bcd: descent_bcd and costtogo_bcd, sharing one
      image_movements_sq;
    * cgd: descent_cgd.  Its relaxed beta form is checked on every run.
      Its exact chain-matrix form and ||H|| <= beta are checked when every
      cycle visits in the same order, or when Q and P are
      permutation-invariant, because then they cost two K x K SVDs per run
      (_chain_matrix_norm); otherwise they would cost two SVDs per cycle
      and are reported as skipped, with the reason;
    * gd: none.

    A cost-to-go check is advisory when the radius R0 or the reference
    optimum is uncertified."""
    p, constants = instance.problem, instance.constants
    advisory = not (instance.r0.certified and instance.reference.certified)
    if t.algorithm == "bcpg":
        return [check_descent_bcpg(t, p, name=f"descent_bcpg:{label}"),
                check_costtogo_bcpg(t, p, instance.r0.value, constants,
                                    name=f"costtogo_bcpg:{label}", advisory=advisory)]
    if t.algorithm == "exact_bcd":
        image_sq = image_movements_sq(t, p)
        return [check_descent_bcd(t, p, name=f"descent_bcd:{label}", image_sq=image_sq),
                check_costtogo_bcd(t, p, instance.r0.value, constants,
                                   name=f"costtogo_bcd:{label}", advisory=advisory,
                                   image_sq=image_sq)]
    if t.algorithm == "cgd":
        name = f"descent_cgd:{label}"
        same_order = all(order == t.orders[0] for order in t.orders)
        if same_order or permutation_invariant(instance.oracle.hessian, t.stepsizes):
            return check_descent_cgd(t, instance.oracle, instance.beta, name=name)
        k = constants.block_count
        reason = ("the visit order changes between cycles and Q, P are not "
                  f"permutation-invariant, so this form would take two {k}x{k} SVDs "
                  f"per cycle; {name}_beta checks the relaxed form on every cycle")
        return [check_descent_cgd_beta(t, instance.beta, name=name),
                _skipped(f"{name}_exact_v", reason), _skipped(f"{name}_hbound", reason)]
    return []


def envelope_checks(instance: Instance, label: str, t: Trajectory, kinds,
                    c_prior: float = 1.0) -> list[CheckReport]:
    """One envelope check per bound kind in ``kinds`` paired with run
    ``t``, named ``envelope_<kind>:<label>``; ``c_prior`` is the leading
    constant of the prior cyclic bound.

    An envelope is advisory when the radius R0 or the reference optimum is
    uncertified.  The gd envelope uses the exact initial distance
    ||x0 - x*||, which gradient descent's own argument certifies, so only
    the reference matters there.  prior_cyclic is always advisory: its
    leading constant is unspecified."""
    reports = []
    for kind in kinds:
        spec = bound_spec(instance, kind, t, c_prior)
        certified = instance.reference.certified and kind != "prior_cyclic"
        if kind == "gd":
            spec = replace(spec, r0_upper=instance.gd_radius())
        else:
            certified = certified and instance.r0.certified
        reports.append(check_envelope(t, spec, name=f"envelope_{kind}:{label}",
                                      r0_certified=certified))
    return reports


def checks_for(instance: Instance, label: str, t: Trajectory, kinds=(),
               c_prior: float = 1.0) -> list[CheckReport]:
    """Every check of run ``t`` on ``instance``: its lemma checks, then one
    envelope per paired bound kind."""
    return (lemma_checks(instance, label, t)
            + envelope_checks(instance, label, t, kinds, c_prior))


def one_pass_recursion_oracle(x0, block_count: int) -> np.ndarray:
    """One full pass of exact scalar-block minimization on the adversarial
    tridiagonal instance, computed purely from its closed-form recursions
    (independent of the solver engine).  Requires K >= 5 so the interior
    recursion has a nonempty range."""
    k = block_count
    if k < 5:
        raise ValueError("closed-form one-pass recursions require K >= 5")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != k:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {k}")
    x1 = np.empty(k)
    x1[0] = -(2.0 * x0[1] + x0[2]) / 2.0
    x1[1] = -(2.0 * x1[0] + 2.0 * x0[2] + x0[3]) / 3.0
    for i in range(2, k - 2):  # interior blocks
        x1[i] = -(x1[i - 2] + 2.0 * x1[i - 1] + 2.0 * x0[i + 1] + x0[i + 2]) / 3.0
    x1[k - 2] = -(2.0 * x1[k - 3] + 2.0 * x0[k - 1] + x1[k - 4]) / 3.0
    x1[k - 1] = -(2.0 * x1[k - 2] + x1[k - 3]) / 2.0
    return x1


def expected_one_pass_iterate(block_count: int) -> np.ndarray:
    """(-1/2, ..., -1/2, -1/6, 5/12) reached from the canonical start."""
    x1 = np.full(block_count, -0.5)
    x1[-2] = -1.0 / 6.0
    x1[-1] = 5.0 / 12.0
    return x1


def run_tightness_case(x0, t_bcd: Trajectory, t_bcpg: Trajectory) -> list[CheckReport]:
    """One-pass reproduction on the adversarial instance of K = len(x0)
    blocks, from the exact-minimization and proximal (block_lk) trajectories
    ``t_bcd`` and ``t_bcpg`` started at its canonical start ``x0``.

    Sub-checks, reported individually:
      (a) the exact-minimization and proximal one-pass iterates match the
          closed-form recursion oracle and the expected entry pattern;
      (b) the one-pass objective matches the reference closed-form value
          1 + (9/4)(K-3) + 1/8;
      (c) gap(1) / ||x0 - x*||^2 >= 9(K-3) / (4(K-1)).

    Note on (b): the reference value is inconsistent with the recursions
    that define the iterate.  Row K-2 of the residual is -7/6 once the
    second-to-last entry becomes -1/6, so the recursion-produced iterate
    yields exactly 1 + (9/4)(K-4) + 49/36 + 1/8, which is 8/9 below the
    reference formula for every K >= 5.  The check keeps the reference
    value as stated and therefore fails by that constant; the notes carry
    the observed value so downstream readers can see the discrepancy.
    Acceptance criterion 1b (``tests/test_acceptance.py``) asserts the
    recursion-implied value, derived there in exact rational arithmetic.
    """
    k = len(x0)
    if k < 5:
        raise ValueError("tightness case requires K >= 5")
    if (t_bcd.algorithm, t_bcpg.algorithm) != ("exact_bcd", "bcpg"):
        raise ValueError("tightness case expects an exact_bcd and a bcpg trajectory")
    oracle_x1 = one_pass_recursion_oracle(x0, k)
    expected = expected_one_pass_iterate(k)

    reports = []
    for label, traj in (("exact_bcd", t_bcd), ("bcpg", t_bcpg)):
        deviation = max(float(np.abs(traj.xs[1] - oracle_x1).max()),
                        float(np.abs(traj.xs[1] - expected).max()))
        reports.append(_report(
            f"tightness_iterate_{label}_K{k}", [deviation], 1e-12,
            notes="max entry deviation from recursion oracle / expected pattern"))

    observed = float(t_bcd.f[1])
    reference = 1.0 + 2.25 * (k - 3) + 0.125
    recursion_value = 1.0 + 2.25 * (k - 4) + 49.0 / 36.0 + 0.125
    reports.append(_report(
        f"tightness_objective_K{k}", [abs(observed - reference)], 1e-12,
        notes=(f"observed {observed:.12f}, reference formula {reference:.12f}, "
               f"recursion-implied value {recursion_value:.12f} "
               "(reference exceeds it by exactly 8/9; see check docstring)")))

    gap1 = observed  # optimal value is 0
    radius_sq = float(x0 @ x0)
    ratio = gap1 / radius_sq
    floor = 9.0 * (k - 3) / (4.0 * (k - 1))
    reports.append(_report(
        f"tightness_ratio_K{k}", [floor - ratio], 0.0,
        notes=f"gap ratio {ratio:.6f} >= lower bound {floor:.6f}"))
    return reports


def check_truncation_constant(sizes, samples_per_size: int, seed: int,
                              name: str = "truncation_constant") -> CheckReport:
    """Empirical check of the triangular-truncation norm bound: for random
    Gaussian Z, ||tril(Z)|| / ||Z|| <= log(n)/pi + 1 + 1/pi."""
    per_size_max = []
    violations = []
    for n in sizes:
        if n < 2:
            raise ValueError("sizes must be >= 2")
        gen = SplitMix64(derive_seed(seed, n))
        bound = math.log(n) / math.pi + 1.0 + 1.0 / math.pi
        worst_ratio = 0.0
        for _ in range(samples_per_size):
            z = gen.normal_matrix(n, n)
            ratio = spectral_norm(np.tril(z)).value / spectral_norm(z).value
            worst_ratio = max(worst_ratio, ratio)
            violations.append(ratio - bound)
        per_size_max.append(f"n={n}: max ratio {worst_ratio:.6f} (bound {bound:.6f})")
    return _report(name, violations, 0.0, notes="; ".join(per_size_max))


def report_lines(reports) -> list[str]:
    """One text line per report: name, PASS/FAIL, worst violation, notes."""
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.advisory:
            status += " (advisory)"
        lines.append(f"{rep.check_name}: {status} worst_violation={rep.worst_violation:.3e} "
                     f"cycles={rep.cycles_checked} {rep.notes}")
    return lines


def reports_to_csv(reports, target) -> None:
    """Machine-readable twin of report_lines, written to the file at path
    ``target``.  Notes are quoted, with ``"`` doubled (RFC 4180)."""
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write("check_name,passed,advisory,worst_violation,tolerance,cycles_checked,notes\n")
        for rep in reports:
            notes = rep.notes.replace('"', '""')
            fh.write(f"{rep.check_name},{rep.passed},{rep.advisory},"
                     f"{rep.worst_violation:.17g},{rep.tolerance:.17g},"
                     f"{rep.cycles_checked},\"{notes}\"\n")
