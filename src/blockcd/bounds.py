"""Theoretical complexity envelopes evaluated from problem constants.

Each bound kind maps a cycle index r >= 1 to an upper envelope for the
optimality gap, using only Lipschitz/rank constants, the initial gap, and
a level-set radius bound R0.  log always means the natural logarithm of
2*N*K.  Kinds whose derivation runs through the triangular-truncation
estimate require K*N >= 3 and signal inapplicability below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import spectral_norm, strict_lower_truncate
from .problems import (
    CompositeQuadraticProblem,
    ProblemConstants,
    SmoothProblemOracle,
)

BOUND_KINDS = (
    "gd",
    "prior_cyclic",
    "thm1_uniform",
    "thm1_blockwise",
    "thm1_smooth",
    "thm2_case1",
    "thm2_case2",
    "thm2_case3",
    "thm2_scalar",
    "thm3",
    "coro1",
    "prior_beck",
)

# Which solver a bound kind may be checked against.
BOUND_PAIRINGS = {
    "gd": ("gd",),
    "prior_cyclic": ("bcpg", "exact_bcd"),
    "thm1_uniform": ("bcpg",),
    "thm1_blockwise": ("bcpg",),
    "thm1_smooth": ("bcpg",),
    "thm2_case1": ("exact_bcd",),
    "thm2_case2": ("exact_bcd",),
    "thm2_case3": ("exact_bcd",),
    "thm2_scalar": ("exact_bcd",),
    "thm3": ("cgd",),
    "coro1": ("cgd",),
    "prior_beck": ("cgd",),
}

_LOG_KINDS = frozenset((
    "thm1_uniform", "thm1_blockwise", "thm1_smooth",
    "thm2_case1", "thm2_case2", "thm2_scalar",
))


class InapplicableBound(ValueError):
    """A bound kind cannot be evaluated for the given constants."""


@dataclass(frozen=True)
class BoundSpec:
    """A bound kind with everything its formula needs.

    ``p_max``/``p_min`` are the realized inverse-stepsize extremes; they are
    required for the kinds whose formula mentions them (thm3, coro1,
    prior_beck).  ``c_prior`` is the unspecified leading constant of the
    prior cyclic bound and defaults to 1.
    """

    kind: str
    constants: ProblemConstants
    r0_upper: float
    delta0: float = 0.0
    beta: float | None = None
    c_prior: float = 1.0
    p_max: float | None = None
    p_min: float | None = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.r0_upper < 0 or self.delta0 < 0:
            raise ValueError("r0_upper and delta0 must be nonnegative")


def log2nk(c: ProblemConstants) -> float | None:
    """log(2NK), the factor the triangular-truncation estimate brings to a
    bound or check, or None below that estimate's regime K*N >= 3."""
    if c.block_count * c.block_size < 3:
        return None
    return math.log(2.0 * c.block_size * c.block_count)


def _need_stepsizes(spec: BoundSpec) -> tuple[float, float]:
    if spec.p_max is None or spec.p_min is None:
        raise InapplicableBound(
            f"{spec.kind} requires the run stepsize extremes p_max/p_min")
    if spec.p_min <= 0:
        raise InapplicableBound("p_min must be positive")
    return spec.p_max, spec.p_min


def evaluate(spec: BoundSpec, r):
    """Evaluate the bound at cycle index r >= 1 (exact arithmetic of the
    cited formula), or at every entry of an integer array r in one array
    expression.  Every kind is a constant over (r + shift), so each entry
    has the bits of the scalar call.  Raises InapplicableBound instead of
    falling back when a required constant is missing or a hypothesis
    (K*N >= 3, positive sigma/gamma) fails."""
    if np.any(np.asarray(r) < 1):
        raise ValueError("cycle index must be >= 1")
    numerator, shift = _numerator(spec)
    return numerator / (r + shift)


def _numerator(spec: BoundSpec) -> tuple[float, int]:
    """(c, s) with bound(r) = c / (r + s) for the kind of ``spec``."""
    c = spec.constants
    r0_sq = spec.r0_upper ** 2
    log = log2nk(c)
    if spec.kind in _LOG_KINDS and log is None:
        raise InapplicableBound("log^2(2NK) bounds require K*N >= 3; "
                                f"got K*N = {c.block_count * c.block_size}")
    log_sq = log ** 2 if spec.kind in _LOG_KINDS else 0.0

    if spec.kind == "gd":
        return 2.0 * r0_sq * c.L, 4
    if spec.kind == "prior_cyclic":
        if c.L_min <= 0:
            raise InapplicableBound("prior cyclic bound requires L_min > 0")
        return (spec.c_prior * c.L_max
                * (1.0 + c.block_count * c.L ** 2 / c.L_min ** 2) * r0_sq), 0
    if spec.kind == "thm1_uniform":
        return 3.0 * max(spec.delta0, 4.0 * log_sq * c.L * r0_sq), 1
    if spec.kind == "thm1_blockwise":
        if c.L_min <= 0:
            raise InapplicableBound("blockwise bound requires L_min > 0")
        return (3.0 * max(spec.delta0,
                          2.0 * log_sq * (c.L_max + c.L ** 2 / c.L_min) * r0_sq)), 1
    if spec.kind == "thm1_smooth":
        if c.L_min <= 0:
            raise InapplicableBound("blockwise bound requires L_min > 0")
        return (3.0 * max(c.L * r0_sq,
                          2.0 * log_sq * (c.L_max + c.L ** 2 / c.L_min) * r0_sq)), 1
    if spec.kind == "thm2_case1":
        if c.sigma_k is None or c.sigma_min <= 0:
            raise InapplicableBound(
                "full-column-rank bound requires sigma_min > 0")
        return (3.0 * max(spec.delta0,
                          2.0 * r0_sq * log_sq * (c.L ** 2 + c.L_max ** 2)
                          / c.sigma_min ** 2)), 1
    if spec.kind == "thm2_case2":
        if c.gamma_k is None or c.gamma_min <= 0:
            raise InapplicableBound(
                "full-row-rank bound requires gamma_min > 0")
        return (3.0 * max(spec.delta0,
                          2.0 * r0_sq * log_sq * (c.L ** 2 + c.L_max ** 2)
                          / c.gamma_min ** 2)), 1
    if spec.kind == "thm2_case3":
        return (3.0 * max(spec.delta0,
                          2.0 * r0_sq * c.L_max * (1.0 + c.block_count ** 2))), 1
    if spec.kind == "thm2_scalar":
        if c.L_min <= 0:
            raise InapplicableBound("scalar-block bound requires L_min > 0")
        return (3.0 * max(spec.delta0,
                          2.0 * r0_sq * log_sq
                          * (c.L ** 2 / c.L_min + c.L_max ** 2 / c.L_min))), 1
    if spec.kind == "thm3":
        if spec.beta is None or spec.beta < 0:
            raise InapplicableBound("thm3 requires a nonnegative beta")
        p_max, p_min = _need_stepsizes(spec)
        return 2.0 * (p_max + spec.beta ** 2 / p_min) * r0_sq, 0
    if spec.kind == "coro1":
        p_max, p_min = _need_stepsizes(spec)
        total_lk = float(np.sum(c.L_k))
        cap = min(c.block_count * c.L ** 2, total_lk ** 2)
        return 2.0 * (p_max + cap / p_min) * r0_sq, 0
    if spec.kind == "prior_beck":
        p_max, p_min = _need_stepsizes(spec)
        return (4.0 * (p_max + (p_max / p_min)
                       * (c.block_count * c.L ** 2 / p_min)) * r0_sq), 0
    raise AssertionError(f"unhandled kind {spec.kind}")


@dataclass(frozen=True)
class R0Estimate:
    """Upper bound on the level-set radius with its certification route."""

    value: float
    certified: bool
    method: str


def r0_upper_estimate(p: CompositeQuadraticProblem, x0, f0: float, x_star,
                      f_star: float, constants: ProblemConstants) -> R0Estimate:
    """Upper bound on max ||x - x*|| over the f(x) <= f(x0) level set;
    ``f0`` must be f(x0) and ``constants`` p's, from compute_constants.

    Certified routes, tried in order:

    * strong convexity: smooth-part minimum curvature mu = constants.mu > 0
      gives R0 <= sqrt(2 (f(x0) - f*) / mu);
    * all blocks box-constrained: the box diameter bounds R0 outright;
    * every block l1/group-l2 with positive weight: coercivity gives
      ||x|| <= f(x0) / w_min on the level set, so R0 <= 2 f(x0) / w_min.

    A route certifies only a finite value: one that overflows (a box of
    width 2e308, an l1 weight of 1e-310) passes to the next route.
    Otherwise the estimate is heuristic: 2 ||x0 - x*|| (flagged; envelope
    checks built on it are advisory).
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    base = float(np.linalg.norm(x0 - x_star))
    delta0 = max(0.0, f0 - float(f_star))
    mu = constants.mu
    if mu > 1e-12 * max(1.0, abs(mu)):
        value = max(base, math.sqrt(2.0 * delta0 / mu))
        if math.isfinite(value):
            return R0Estimate(value, True, "strong-convexity level set")
    if all(term.kind == "box" for term in p.h):
        n = p.partition.block_size
        value = math.sqrt(sum(n * (term.hi - term.lo) ** 2 for term in p.h))
        if math.isfinite(value):
            return R0Estimate(value, True, "box diameter")
    if all(term.kind in ("l1", "group_l2") and term.weight > 0 for term in p.h):
        value = 2.0 * f0 / min(term.weight for term in p.h)
        if math.isfinite(value):
            return R0Estimate(value, True, "l1 coercivity")

    return R0Estimate(2.0 * base, False, "heuristic iterate radius")


@dataclass(frozen=True)
class BetaEstimate:
    """Bound on the spectral norm of the moving strict-lower Hessian.

    ``exact`` is the spectral norm of the Hessian's strict lower triangle;
    it never exceeds ``estimate``.
    """

    estimate: float
    exact: float


def beta_estimate(o: SmoothProblemOracle) -> BetaEstimate:
    """min(sqrt(K) L, sum_k L_k), plus the exact strict-lower spectral norm."""
    k = o.dimension
    estimate = min(math.sqrt(k) * o.lipschitz_global,
                   float(np.sum(o.lipschitz_coordinate)))
    exact = spectral_norm(strict_lower_truncate(o.hessian)).value
    if exact > estimate * (1 + 1e-12):
        raise ArithmeticError(
            f"exact strict-lower norm {exact} exceeds its bound {estimate}")
    return BetaEstimate(estimate=estimate, exact=exact)


def bound_report_csv(specs, r_max: int, target) -> None:
    """Write cycle,<label...> rows for r = 1..r_max to the file at path
    ``target``, creating its directory.

    ``specs`` is a sequence of (label, BoundSpec).  Kinds that are
    inapplicable for their constants produce empty cells throughout.
    Every cell is evaluated before the directory or the file is created,
    so a bound that raises (an OverflowError, say) leaves neither behind.
    """
    columns = []
    cycles = np.arange(1, r_max + 1)
    for _, spec in specs:
        try:
            columns.append(evaluate(spec, cycles).tolist())
        except InapplicableBound:
            columns.append([None] * r_max)
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        labels = [label for label, _ in specs]
        fh.write(",".join(["cycle"] + labels) + "\n")
        for idx in range(r_max):
            cells = [str(idx + 1)]
            for col in columns:
                value = col[idx]
                cells.append("" if value is None else f"{value:.17g}")
            fh.write(",".join(cells) + "\n")
