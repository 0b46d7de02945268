"""Per-cycle inequality checkers for the descent and cost-to-go estimates,
envelope checks for the complexity bounds, the triangular-truncation
constant check, and the adversarial one-pass construction with its
closed-form recursion oracle.

A per-run check reads the set-up ``Instance`` and the ``Trajectory``
alone, and names its report ``<check>:<label>``.  ``checks_for``
(``lemma_checks`` plus ``envelope_checks``) is the one selection of checks
for a run, ``advisory`` the one rule for when a check is advisory, and
``bound_spec`` the one place that builds a BoundSpec.

Every check returns a CheckReport.  Violations are normalized so that a
report's tolerance is a single number: ``worst_violation`` is the largest
normalized excess over all cycles (0 when the inequality always held, NaN
when any cycle's excess is NaN) and ``passed`` is exactly
``worst_violation <= tolerance``, so a NaN excess fails.  Reports flagged
``advisory`` carry information (heuristic radius, unspecified constants)
and do not gate suite exit codes.  The per-cycle checks are array
expressions over all cycles of a trajectory, elementwise the IEEE
operations of one cycle's inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .bounds import BOUND_PAIRINGS, BoundSpec, InapplicableBound, evaluate, log2nk
from .linalg import spectral_norm
from .problems import CompositeQuadraticProblem
from .solvers import Trajectory

if TYPE_CHECKING:
    from .battery import Instance

LEMMA_TOL = 1e-8
# Ascent steps of the truncation check from its Hilbert-type start.
TRUNCATION_STEPS = 12


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
    """The report of the normalized excesses ``violations``, one per cycle
    or iterate; NaN propagates to the worst one, which then fails."""
    values = np.asarray(violations, dtype=float)
    worst = float(values.max(initial=0.0))
    return CheckReport(check_name=name, cycles_checked=values.size, worst_violation=worst,
                       passed=worst <= tolerance, notes=notes, tolerance=tolerance,
                       advisory=advisory)


def _skipped(name: str, notes: str) -> CheckReport:
    return CheckReport(check_name=name, cycles_checked=0, worst_violation=0.0,
                       passed=True, notes=f"skipped: {notes}", advisory=True)


def check_descent_bcpg(label: str, t: Trajectory) -> CheckReport:
    """Per-cycle sufficient descent of the proximal sweep:
    f(x^r) - f(x^(r+1)) >= sum_k (P_k/2) ||x_k^(r+1) - x_k^(r)||^2."""
    if t.algorithm != "bcpg":
        raise ValueError("descent_bcpg expects a bcpg trajectory")
    return _report(f"descent_bcpg:{label}", _descent_excess(t, 0.5 * t.weighted_movement ** 2),
                   LEMMA_TOL, notes="normalized by max(1, |f|)")


def _descent_excess(t: Trajectory, rhs: np.ndarray) -> np.ndarray:
    """(rhs^r - (f(x^r) - f(x^(r+1)))) / max(1, |f(x^r)|) for every cycle r."""
    with np.errstate(invalid="ignore"):
        return (rhs - (t.f[:-1] - t.f[1:])) / np.maximum(1.0, np.abs(t.f[:-1]))


def _costtogo_excess(t: Trajectory, rhs: np.ndarray) -> np.ndarray:
    """(gap^(r+1) - rhs^r) / max(1, |gap^(r+1)|, rhs^r) for every cycle r."""
    lhs = t.gap[1:]
    with np.errstate(invalid="ignore"):
        return (lhs - rhs) / np.maximum(np.maximum(1.0, np.abs(lhs)), rhs)


def image_movements_sq(t: Trajectory, p: CompositeQuadraticProblem) -> np.ndarray:
    """sum_k ||A_k (x_k^(r+1) - x_k^(r))||^2 for every cycle r, as
    sum_k d_k^T (A_k^T A_k) d_k over all cycles at once, from the K block
    Grams: the temporaries are (cycles, K, N), the size of the movements.
    The quadratic form is clipped at 0, which it can miss by rounding on a
    singular Gram.  The exact-BCD descent and cost-to-go checks of one
    trajectory share the array."""
    k_count, n = p.partition.block_count, p.partition.block_size
    stacked = p.full_matrix().reshape(p.rows, k_count, n)
    grams = np.einsum("mkn,mkl->knl", stacked, stacked)
    d = np.diff(t.xs, axis=0).reshape(-1, k_count, n)
    quadratic = np.einsum("ckl,ckl->c", np.einsum("ckn,knl->ckl", d, grams), d)
    return np.maximum(quadratic, 0.0)


def check_descent_bcd(label: str, t: Trajectory, image_sq: np.ndarray) -> CheckReport:
    """Per-cycle sufficient descent of exact block minimization:
    f(x^r) - f(x^(r+1)) >= 1/2 sum_k ||A_k (x_k^(r+1) - x_k^(r))||^2,
    with ``image_sq`` = image_movements_sq(t, p)."""
    if t.algorithm != "exact_bcd":
        raise ValueError("descent_bcd expects an exact_bcd trajectory")
    return _report(f"descent_bcd:{label}", _descent_excess(t, 0.5 * image_sq), LEMMA_TOL,
                   notes="normalized by max(1, |f|)")


def check_costtogo_bcpg(instance: Instance, label: str, t: Trajectory) -> CheckReport:
    """Gap bound from iterate movement after a proximal sweep:
    gap^(r+1) <= R0 log(2NK) (L/sqrt(P_min) + sqrt(P_max)) * movement^r."""
    if t.algorithm != "bcpg":
        raise ValueError("costtogo_bcpg expects a bcpg trajectory")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    name, c, log = f"costtogo_bcpg:{label}", instance.constants, log2nk(instance.constants)
    if log is None:
        return _skipped(name, f"K*N = {c.block_count * c.block_size} < 3 is outside the log^2 regime")
    p_max, p_min = float(t.stepsizes.max()), float(t.stepsizes.min())
    coefficient = instance.r0.value * log * (c.L / math.sqrt(p_min) + math.sqrt(p_max))
    violations = _costtogo_excess(t, coefficient * t.weighted_movement)
    return _report(name, violations, LEMMA_TOL, advisory=advisory(instance),
                   notes=f"coefficient {coefficient:.6g}")


def check_costtogo_bcd(instance: Instance, label: str, t: Trajectory,
                       image_sq: np.ndarray) -> CheckReport:
    """Gap bound from iterate movement after an exact sweep; the rank case
    of the blocks picks the applicable inequality (the rank-free case-3
    form is the fallback).  ``image_sq`` is image_movements_sq(t, p), which
    the full-row and rank-free forms read."""
    if t.algorithm != "exact_bcd":
        raise ValueError("costtogo_bcd expects an exact_bcd trajectory")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    name, c, log = f"costtogo_bcd:{label}", instance.constants, log2nk(instance.constants)
    r0, case = instance.r0.value, c.rank_case
    if case in ("full_column", "full_row") and log is None:
        return _skipped(name, f"K*N = {c.block_count * c.block_size} < 3 is outside the log^2 regime")
    if case == "full_column":
        coefficient = (r0 / c.sigma_min) * log * (c.L + c.L_max)
        block_movements = np.linalg.norm(
            np.diff(t.xs, axis=0).reshape(t.cycles, c.block_count, c.block_size), axis=2)
        movements = np.sqrt(np.sum((c.sigma_k * block_movements) ** 2, axis=1))
        form = "full-column-rank form"
    else:
        movements = np.sqrt(image_sq)
        if case == "full_row":
            coefficient = (r0 / c.gamma_min) * log * (c.L + c.L_max)
            form = "full-row-rank form"
        else:
            coefficient = r0 * math.sqrt(c.L_max) * (c.block_count + 2)
            form = "rank-free form"
    violations = _costtogo_excess(t, coefficient * movements)
    return _report(name, violations, LEMMA_TOL, advisory=advisory(instance),
                   notes=f"{form}; coefficient {coefficient:.6g}")


def check_descent_cgd(instance: Instance, label: str, t: Trajectory) -> list[CheckReport]:
    """Sufficient descent of the coordinate chain in terms of the full
    gradient, in three forms, named ``descent_cgd:<label>_<form>``:

    * ``beta``, the relaxed form, on every cycle:
      g^r - g^(r+1) >= ||grad g(x^r)||^2 / (2 (P_max + beta^2 / P_min));
    * ``exact_v``, the exact form with ||V||^2 in that denominator,
      where V = D^(1/2) + H D^(-1/2), D = diag of the stepsizes in visit
      order and H the strict lower triangle of the order-permuted Gram Q;
    * ``hbound``, ||H|| <= beta.

    The last two are checked when one chain matrix serves every cycle:
    every cycle visits in the same order, or Q and P are
    permutation-invariant (permutation_invariant); otherwise they would
    take two K x K SVDs per cycle, and both are reported as skipped, with
    the reason.  Under the identity order, or on a permutation-invariant
    Q, H is strict_lower_truncate(Q) bit for bit, so the set-up's
    ``lower_norm`` serves as ||H|| and only ||V|| is taken, once per run;
    under any other fixed order ||H|| is taken too.
    """
    if t.algorithm != "cgd":
        raise ValueError("descent_cgd expects a cgd trajectory")
    if t.grad_norm is None:
        raise ValueError("trajectory has no gradient records")
    name, hessian, beta = f"descent_cgd:{label}", instance.problem.gram, instance.beta
    grad_sq = t.grad_norm[:-1] ** 2
    p_max, p_min = float(t.stepsizes.max()), float(t.stepsizes.min())
    reports = [_report(f"{name}_beta",
                       _descent_excess(t, grad_sq / (2.0 * (p_max + beta ** 2 / p_min))),
                       LEMMA_TOL, notes=f"beta {beta:.6g}")]
    order = t.orders[0]
    k = instance.constants.block_count
    fixed = all(cycle == order for cycle in t.orders)
    identity = fixed and order == list(range(k))
    invariant = not identity and permutation_invariant(hessian, t.stepsizes)
    if not (fixed or invariant):
        reason = ("the visit order changes between cycles and Q, P are not "
                  f"permutation-invariant, so this form would take two {k}x{k} SVDs "
                  f"per cycle; {name}_beta checks the relaxed form on every cycle")
        return reports + [_skipped(f"{name}_exact_v", reason), _skipped(f"{name}_hbound", reason)]
    h = np.tril(hessian[np.ix_(order, order)], k=-1)
    p_seq = t.stepsizes[order]
    v = np.diag(np.sqrt(p_seq)) + h @ np.diag(1.0 / np.sqrt(p_seq))
    v_norm = spectral_norm(v).value
    h_norm = instance.lower_norm if identity or invariant else spectral_norm(h).value
    reports.append(_report(f"{name}_exact_v", _descent_excess(t, grad_sq / (2.0 * v_norm ** 2)),
                           LEMMA_TOL, notes="exact chain-matrix norm"))
    reports.append(_report(f"{name}_hbound", np.full(t.cycles, (h_norm - beta) / max(1.0, beta)),
                           1e-12, notes="||strict lower Hessian|| <= beta"))
    return reports


def check_envelope(instance: Instance, label: str, t: Trajectory, kind: str,
                   c_prior: float = 1.0) -> CheckReport:
    """Assert gap^r <= bound(r) * (1 + 1e-8) for every recorded r >= 1, for
    the bound ``kind`` on ``instance`` paired with run ``t`` (bound_spec),
    which must be a run of the solver the bound was stated for.  The gd
    envelope's radius is the exact ||x0 - x*|| (Instance.gd_radius), which
    gradient descent's own argument certifies."""
    allowed = BOUND_PAIRINGS[kind]
    if t.algorithm not in allowed:
        raise ValueError(
            f"bound {kind!r} applies to {allowed}, not {t.algorithm!r}")
    if t.gap is None:
        raise ValueError("trajectory has no gap; attach a reference optimum")
    name = f"envelope_{kind}:{label}"
    spec = bound_spec(instance, kind, t, c_prior)
    if kind == "gd":
        spec = replace(spec, r0_upper=instance.gd_radius())
    try:
        bound = evaluate(spec, np.arange(1, t.cycles + 1))
    except InapplicableBound as exc:
        return _skipped(name, str(exc))
    gap = t.gap[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        violations = np.where(bound <= 0.0, gap, gap / bound - 1.0)
    uncertified = advisory(instance, kind)
    qualifier = " (informational: uncertified inputs)" if uncertified else ""
    return _report(name, violations, 1e-8, advisory=uncertified,
                   notes=f"cycles 1..{t.cycles}{qualifier}")


# ---------------------------------------------------------------------------
# Check selection: which checks a trajectory gets, and when one is advisory

def advisory(instance: Instance, kind: str | None = None) -> bool:
    """Whether a check on ``instance`` that reads R0 and f* is advisory,
    for a cost-to-go check (``kind`` None) or the envelope of bound
    ``kind``: when the radius R0 or the reference optimum is uncertified.
    The gd envelope reads only the reference, because its radius is the
    exact ||x0 - x*||.  prior_cyclic is always advisory: its leading
    constant is unspecified."""
    if kind == "prior_cyclic":
        return True
    if kind == "gd":
        return not instance.reference.certified
    return not (instance.r0.certified and instance.reference.certified)


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
    """The per-cycle checks of run ``t`` on ``instance``: descent and
    cost-to-go for bcpg, and for exact_bcd, whose two share one
    image_movements_sq; descent_cgd for cgd; none for gd."""
    if t.algorithm == "bcpg":
        return [check_descent_bcpg(label, t), check_costtogo_bcpg(instance, label, t)]
    if t.algorithm == "exact_bcd":
        image_sq = image_movements_sq(t, instance.problem)
        return [check_descent_bcd(label, t, image_sq),
                check_costtogo_bcd(instance, label, t, image_sq)]
    if t.algorithm == "cgd":
        return check_descent_cgd(instance, label, t)
    return []


def envelope_checks(instance: Instance, label: str, t: Trajectory, kinds,
                    c_prior: float = 1.0) -> list[CheckReport]:
    """One envelope check per bound kind in ``kinds`` paired with run ``t``;
    ``c_prior`` is the leading constant of the prior cyclic bound."""
    return [check_envelope(instance, label, t, kind, c_prior) for kind in kinds]


def checks_for(instance: Instance, label: str, t: Trajectory, kinds,
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


def truncation_ascent(n: int) -> np.ndarray:
    """||tril Z|| / ||Z|| at each iterate of an ascent over n x n matrices,
    from the Hilbert-type matrix Z_ij = 1 / (i - j + 1/2).

    The lower truncation of that matrix is a section of the discrete
    Hilbert transform, whose truncation norm grows like ln n / pi, the
    growth the bound ln n / pi + 1 + 1/pi allows (Kwapien & Pelczynski,
    Studia Math. 1970; Angelos, Cowen & Narayan, Linear Algebra Appl.
    1992).  Each step takes the top singular pair (u, v) of tril(Z) and
    moves to the polar factor W of tril(u v^T), an orthogonal matrix, so
    ||W|| = 1 and

        ||tril W|| >= u^T tril(W) v = <W, tril(u v^T)> = ||tril(u v^T)||_*
                   >= <tril(u v^T), Z> / ||Z|| = u^T tril(Z) v / ||Z||
                   = ||tril Z|| / ||Z||,

    with ||.||_* the nuclear norm, dual to the spectral norm: the ratio
    never falls, apart from rounding.  The ascent stops at the first step
    that does not raise the ratio, as _group_l2_minimize's Newton steps
    stop, or after TRUNCATION_STEPS steps; the returned ratios include the
    iterate that stopped it.
    """
    index = np.arange(n)
    z = 1.0 / (index[:, None] - index[None, :] + 0.5)
    ratios = []
    for _ in range(TRUNCATION_STEPS + 1):
        u, s, vt = np.linalg.svd(np.tril(z))
        ratios.append(float(s[0]) / spectral_norm(z).value)
        if len(ratios) > 1 and not ratios[-1] > ratios[-2]:
            break
        polar_u, _, polar_vt = np.linalg.svd(np.tril(np.outer(u[:, 0], vt[0])))
        z = polar_u @ polar_vt
    return np.array(ratios)


def check_truncation_constant(sizes) -> CheckReport:
    """The triangular-truncation norm bound ||tril Z|| / ||Z|| <=
    ln n / pi + 1 + 1/pi, asserted with tolerance 0 at every iterate of
    truncation_ascent for each size n; the notes give each size's best
    ratio and its share of the bound."""
    notes = []
    violations = []
    for n in sizes:
        if n < 2:
            raise ValueError("sizes must be >= 2")
        bound = math.log(n) / math.pi + 1.0 + 1.0 / math.pi
        ratios = truncation_ascent(n)
        violations.extend(ratios - bound)
        best = float(ratios.max())
        notes.append(f"n={n}: best ratio {best:.6f} (Hilbert start {ratios[0]:.6f}), "
                     f"{best / bound:.1%} of the bound {bound:.6f}")
    return _report("truncation_constant", violations, 0.0, notes="; ".join(notes))


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
