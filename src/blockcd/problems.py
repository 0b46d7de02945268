"""Problem definitions: composite quadratics with block structure, the
smooth view of a nonsmooth-free scalar-block quadratic (its Hessian and
Lipschitz data), proximal operators, the instance generators, and the
problem-file loader with its table of generated kinds (FAMILIES), which
plans and the experiment battery read too.

The canonical composite objective is

    f(x) = 1/2 ||sum_k A_k x_k - b||^2 + sum_k h_k(x_k),

with K equal-size blocks x_k in R^N and per-block nonsmooth terms h_k
(none, l1, group-l2 norm, or a box constraint).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .linalg import RANK_RTOL, as_matrix, min_norm_factors, sym_eig_extremes
from .rng import SplitMix64, derive_seed

_FEAS_RTOL = 1e-12
TERM_KINDS = ("zero", "l1", "group_l2", "box")
SPARSE_ROW_NONZEROS = 20
"""A Gram whose rows each have at most this many nonzeros gets a row
structure (CompositeQuadraticProblem.gram_rows), and the scalar sweeps
update g entry by entry at those nonzeros instead of with one numpy call
per row.  The limit is the measured crossover: on dense K x K lasso Grams
(2K rows, l1 weight 0.1, bcpg, 200 cycles, 15 alternating pairs on a
2-core x86 VM, Python 3.11, numpy 2.4) the entry-by-entry form took 1.32
against 1.47 us per visit at K = 16 (faster in 15/15 pairs), 1.42 against
1.43 at K = 20 (12/15), and 1.58 against 1.42 at K = 24 (0/15)."""


class FieldError(ValueError):
    """A plan or problem document that breaks a rule.  The message starts
    with the offending field's path, in the form JSON Schema validators
    report it (``$.runs[0].label``, ``$.problem.a_blocks[1][0][0]``)."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class BlockPartition:
    """K blocks of uniform size N; total dimension K * N."""

    block_count: int
    block_size: int

    def __post_init__(self):
        if self.block_count < 1 or self.block_size < 1:
            raise ValueError("block_count and block_size must be >= 1")

    @property
    def dimension(self) -> int:
        return self.block_count * self.block_size


@dataclass(frozen=True)
class NonsmoothTerm:
    """Per-block nonsmooth term: zero, l1, group_l2, or box indicator."""

    kind: str
    weight: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise ValueError(f"unknown nonsmooth kind {self.kind!r}")
        if self.kind in ("l1", "group_l2") and self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if self.kind == "box" and self.lo > self.hi:
            raise ValueError("box requires lo <= hi")

    @staticmethod
    def zero() -> "NonsmoothTerm":
        return NonsmoothTerm("zero")

    @staticmethod
    def l1(weight: float) -> "NonsmoothTerm":
        return NonsmoothTerm("l1", weight=weight)

    @staticmethod
    def group_l2(weight: float) -> "NonsmoothTerm":
        return NonsmoothTerm("group_l2", weight=weight)

    @staticmethod
    def box(lo: float, hi: float) -> "NonsmoothTerm":
        return NonsmoothTerm("box", lo=lo, hi=hi)


def prox(term: NonsmoothTerm, v: np.ndarray, step: float) -> np.ndarray:
    """Exact minimizer of h(u) + ||u - v||^2 / (2 step)."""
    if step <= 0:
        raise ValueError("step must be positive")
    v = np.asarray(v, dtype=float)
    if term.kind == "zero":
        return v.copy()
    if term.kind == "l1":
        threshold = term.weight * step
        return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
    if term.kind == "group_l2":
        norm = float(np.linalg.norm(v))
        shrink = term.weight * step
        if norm <= shrink:
            return np.zeros_like(v)
        return (1.0 - shrink / norm) * v
    return np.clip(v, term.lo, term.hi)


def prox_scalar(term: NonsmoothTerm, v: float, step: float) -> float:
    """prox for a scalar block on plain floats; same arithmetic as prox."""
    kind = term.kind
    if kind == "l1":
        threshold = term.weight * step
        return v - threshold if v > threshold else (v + threshold if v < -threshold else 0.0)
    if kind == "group_l2":
        shrink = term.weight * step
        norm = math.sqrt(v * v)  # np.linalg.norm's arithmetic: 0 when v * v underflows
        return 0.0 if norm <= shrink else (1.0 - shrink / norm) * v
    if kind == "box":
        return min(max(v, term.lo), term.hi)
    return v


class _TermsByKind(NamedTuple):
    """Block indices and parameters of the nonsmooth terms grouped by kind,
    so that nonsmooth_rows, prox_blocks and duality_gap evaluate each kind
    with one array expression.  box_lo and box_hi
    include the feasibility slack _FEAS_RTOL * max(1, |lo|, |hi|); clip_lo
    and clip_hi are the box limits themselves."""

    zero: np.ndarray
    l1: np.ndarray
    l1_weight: np.ndarray
    group: np.ndarray
    group_weight: np.ndarray
    box: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    clip_lo: np.ndarray
    clip_hi: np.ndarray

    @staticmethod
    def of(terms) -> "_TermsByKind":
        def pick(kind):
            return [k for k, term in enumerate(terms) if term.kind == kind]

        def column(values):
            return np.array(values, dtype=float).reshape(-1, 1)

        zero, l1, group, box = pick("zero"), pick("l1"), pick("group_l2"), pick("box")
        slack = [_FEAS_RTOL * max(1.0, abs(terms[k].lo), abs(terms[k].hi)) for k in box]
        return _TermsByKind(
            np.array(zero, dtype=np.intp),
            np.array(l1, dtype=np.intp), np.array([terms[k].weight for k in l1]),
            np.array(group, dtype=np.intp), np.array([terms[k].weight for k in group]),
            np.array(box, dtype=np.intp),
            column([terms[k].lo - s for k, s in zip(box, slack)]),
            column([terms[k].hi + s for k, s in zip(box, slack)]),
            column([terms[k].lo for k in box]), column([terms[k].hi for k in box]))


@dataclass(frozen=True)
class CompositeQuadraticProblem:
    """1/2 ||sum_k A_k x_k - b||^2 + sum_k h_k(x_k) over K blocks of size N."""

    partition: BlockPartition
    a_blocks: tuple
    b: np.ndarray
    h: tuple

    def __post_init__(self):
        k = self.partition.block_count
        n = self.partition.block_size
        if len(self.a_blocks) != k:
            raise ValueError(f"expected {k} blocks, got {len(self.a_blocks)}")
        blocks = []
        rows = None
        for i, a in enumerate(self.a_blocks):
            a = as_matrix(a, f"a_blocks[{i}]")
            if rows is None:
                rows = a.shape[0]
            if a.shape != (rows, n):
                raise ValueError(
                    f"a_blocks[{i}] has shape {a.shape}, expected ({rows}, {n})")
            a.flags.writeable = False
            blocks.append(a)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape[0] != rows:
            raise ValueError(f"b has length {b.shape[0]}, expected {rows}")
        if not np.isfinite(b).all():
            raise ValueError("b contains non-finite entries")
        b.flags.writeable = False
        if len(self.h) != k:
            raise ValueError(f"expected {k} nonsmooth terms, got {len(self.h)}")
        object.__setattr__(self, "a_blocks", tuple(blocks))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", tuple(self.h))
        full = np.hstack(blocks)
        full.flags.writeable = False
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_terms_by_kind", _TermsByKind.of(self.h))

    @property
    def rows(self) -> int:
        return self.b.shape[0]

    def full_matrix(self) -> np.ndarray:
        """Horizontal concatenation [A_1, ..., A_K]."""
        return self._full

    def block_slice(self, k: int) -> slice:
        n = self.partition.block_size
        return slice(k * n, (k + 1) * n)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Ax - b, or for a (rows, dimension) stack of iterates one
        residual per row, from one product of the stack with A^T."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return x @ self._full.T - self.b
        return self._full @ x - self.b

    def is_smooth(self) -> bool:
        return all(term.kind == "zero" for term in self.h)

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A, formed once on first use and read-only: the constants,
        the smooth view, the scalar sweeps and the reference all read this
        one product."""
        gram = self._full.T @ self._full
        gram.flags.writeable = False
        return gram

    @cached_property
    def gram_rows(self) -> tuple | None:
        """The nonzeros of each row of the Gram, or None when some row has
        more than SPARSE_ROW_NONZEROS of them (sparse_rows).  Formed once
        on first use; tuples, so read-only."""
        return sparse_rows(self.gram, SPARSE_ROW_NONZEROS)

    @cached_property
    def _unpenalized_range(self) -> np.ndarray:
        """Orthonormal basis (rows x rank) of the range of the columns of the
        blocks whose h_k is zero, or l1/group_l2 with weight 0: a dual point
        must be orthogonal to it.  Factored once, on first use."""
        unpenalized = [k for k, term in enumerate(self.h)
                       if term.kind == "zero" or (term.kind != "box" and term.weight == 0.0)]
        if not unpenalized:
            return np.zeros((self.rows, 0))
        return min_norm_factors(np.hstack([self.a_blocks[k] for k in unpenalized])).u


def sparse_rows(matrix: np.ndarray, limit: float) -> tuple | None:
    """Row m of a square ``matrix`` as the tuple of its (column, value)
    pairs with value != 0 (NaN included, -0.0 not), in column order, as
    Python ints and floats; None when some row has more than ``limit``
    of them, found before any index is formed.  One np.nonzero finds
    every entry."""
    counts = np.count_nonzero(matrix, axis=1)
    if counts.max(initial=0) > limit:
        return None
    rows, columns = np.nonzero(matrix)
    pairs = list(zip(columns.tolist(), matrix[rows, columns].tolist()))
    ends = np.cumsum(counts).tolist()
    return tuple(tuple(pairs[end - count:end]) for end, count in zip(ends, counts.tolist()))


def _check_dimension(p: CompositeQuadraticProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != p.partition.dimension:
        raise ValueError(
            f"x has length {x.shape[0]}, expected {p.partition.dimension}")
    return x


def smooth_value(p: CompositeQuadraticProblem, x) -> float:
    x = _check_dimension(p, x)
    r = p.residual(x)
    return 0.5 * float(r @ r)


def nonsmooth_total(p: CompositeQuadraticProblem, x) -> float:
    """sum_k h_k(x_k); +inf outside a box, with _FEAS_RTOL's slack: the
    one-row case of nonsmooth_rows."""
    return float(nonsmooth_rows(p, _check_dimension(p, x)[None])[0])


def nonsmooth_rows(p: CompositeQuadraticProblem, xs) -> np.ndarray:
    """sum_k h_k(x_k) for every row x of the (rows, dimension) array
    ``xs``, one array expression per kind; +inf on a row outside a box,
    with _FEAS_RTOL's slack."""
    xs = np.asarray(xs, dtype=float)
    x = xs.reshape(xs.shape[0], p.partition.block_count, -1)
    by_kind = p._terms_by_kind
    total = np.zeros(xs.shape[0])
    if by_kind.l1.size:
        total += np.abs(x[:, by_kind.l1]).sum(axis=2) @ by_kind.l1_weight
    if by_kind.group.size:
        total += np.linalg.norm(x[:, by_kind.group], axis=2) @ by_kind.group_weight
    if by_kind.box.size:
        v = x[:, by_kind.box]
        inside = ((v >= by_kind.box_lo) & (v <= by_kind.box_hi)).all(axis=(1, 2))
        total[~inside] = math.inf
    return total


def eval_objective(p: CompositeQuadraticProblem, x, residual=None) -> float:
    """Composite value; +inf sentinel when x violates a box constraint.
    ``residual``, when given, must be p.residual(x); it is not recomputed."""
    ns = nonsmooth_total(p, x)
    if ns == math.inf:
        return math.inf
    if residual is None:
        return smooth_value(p, x) + ns
    return 0.5 * float(residual @ residual) + ns


def prox_blocks(p: CompositeQuadraticProblem, v, step: float) -> np.ndarray:
    """prox of every block at once: the minimizer of
    sum_k h_k(u_k) + ||u - v||^2 / (2 step), one array expression per kind,
    with prox's arithmetic block by block."""
    if step <= 0:
        raise ValueError("step must be positive")
    u = _check_dimension(p, v).reshape(p.partition.block_count, -1).copy()
    by_kind = p._terms_by_kind
    if by_kind.l1.size:
        rows = u[by_kind.l1]
        threshold = (by_kind.l1_weight * step)[:, None]
        u[by_kind.l1] = np.sign(rows) * np.maximum(np.abs(rows) - threshold, 0.0)
    if by_kind.group.size:
        rows = u[by_kind.group]
        norm = np.linalg.norm(rows, axis=1)
        shrink = by_kind.group_weight * step
        outside = norm > shrink
        factor = np.where(outside, 1.0 - shrink / np.where(outside, norm, 1.0), 0.0)
        u[by_kind.group] = np.where(outside[:, None], factor[:, None] * rows, 0.0)
    if by_kind.box.size:
        u[by_kind.box] = np.clip(u[by_kind.box], by_kind.clip_lo, by_kind.clip_hi)
    return u.reshape(-1)


def dual_point(p: CompositeQuadraticProblem, residual) -> tuple[np.ndarray, np.ndarray]:
    """A dual-feasible theta built from the residual r = Ax - b, and
    A_k^T theta as a (K, N) array.

    The dual of min_x 1/2 ||Ax - b||^2 + sum_k h_k(x_k) is
    max_theta D(theta) = -1/2 ||theta||^2 - theta^T b - sum_k h_k^*(-A_k^T theta),
    and the residual at the optimum is its maximizer.  The conjugate h_k^*
    is
      * the indicator of {0} for a zero term and for an l1 or group_l2 term
        of weight 0, so r loses its component in the range of those
        blocks' columns (A_k^T theta is then 0 up to rounding);
      * the indicator of the w_k ball of the dual norm (infinity norm for
        l1, 2-norm for group_l2) otherwise, so theta is then scaled down
        until every A_k^T theta is inside its ball (Ndiaye, Fercoq,
        Gramfort & Salmon, JMLR 2017);
      * a box term's support function, finite everywhere.
    """
    basis = p._unpenalized_range
    theta = residual - basis @ (basis.T @ residual) if basis.shape[1] else residual
    u = (p._full.T @ theta).reshape(p.partition.block_count, -1)
    by_kind = p._terms_by_kind
    ratio = 1.0
    for weight, dual_norm in (
            (by_kind.l1_weight, np.abs(u[by_kind.l1]).max(axis=1, initial=0.0)),
            (by_kind.group_weight, np.linalg.norm(u[by_kind.group], axis=1))):
        penalized = weight > 0.0
        if penalized.any():
            ratio = max(ratio, float((dual_norm[penalized] / weight[penalized]).max()))
    return theta / ratio, u / ratio


def duality_gap(p: CompositeQuadraticProblem, x, residual) -> tuple[float, float]:
    """(f(x), gap) with gap >= f(x) - f*, from the dual_point of
    ``residual``, which must be p.residual(x).

    With theta that point and u_k = A_k^T theta, f(x) - D(theta) equals
    1/2 ||r - theta||^2 + sum_k [h_k(x_k) + h_k^*(-u_k) + u_k^T x_k]; each
    bracket is >= 0 (Fenchel-Young), so the gap is summed in that form,
    free of the cancellation between f(x) and D(theta).  For a box the
    bracket is sum_i max(u_i (x_i - lo), u_i (x_i - hi)); on an unpenalized
    block it is u_k^T x_k, the rounding left by the projection.  An x
    outside a box has gap inf.
    """
    x = _check_dimension(p, x)
    f_value = eval_objective(p, x, residual)
    if f_value == math.inf:
        return f_value, math.inf
    theta, u = dual_point(p, residual)
    xb = x.reshape(p.partition.block_count, -1)
    by_kind = p._terms_by_kind
    d = residual - theta
    gap = 0.5 * float(d @ d)
    if by_kind.zero.size:
        gap += float((u[by_kind.zero] * xb[by_kind.zero]).sum())
    if by_kind.l1.size:
        rows = xb[by_kind.l1]
        gap += float((by_kind.l1_weight[:, None] * np.abs(rows) + u[by_kind.l1] * rows).sum())
    if by_kind.group.size:
        rows = xb[by_kind.group]
        gap += float((by_kind.group_weight * np.linalg.norm(rows, axis=1)
                      + (u[by_kind.group] * rows).sum(axis=1)).sum())
    if by_kind.box.size:
        rows, ub = xb[by_kind.box], u[by_kind.box]
        gap += float(np.maximum(ub * (rows - by_kind.clip_lo), ub * (rows - by_kind.clip_hi)).sum())
    return f_value, max(gap, 0.0)


@dataclass(frozen=True)
class SmoothProblemOracle:
    """Hessian and Lipschitz data of a smooth convex quadratic over scalar
    coordinates, with |H_ij| <= sqrt(L_i L_j); a zero column has L_i = 0."""

    dimension: int
    lipschitz_global: float
    lipschitz_coordinate: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        lk = np.asarray(self.lipschitz_coordinate, dtype=float).reshape(-1)
        if lk.shape[0] != self.dimension:
            raise ValueError("lipschitz_coordinate length must equal dimension")
        if np.any(lk < 0) or self.lipschitz_global <= 0:
            raise ValueError("Lipschitz constants must be nonnegative, the global one positive")
        if np.any(lk > self.lipschitz_global * (1 + 1e-12)):
            raise ValueError("coordinate constants must not exceed the global one")
        lk.flags.writeable = False
        object.__setattr__(self, "lipschitz_coordinate", lk)
        hessian = np.asarray(self.hessian, dtype=float)
        if hessian.shape != (self.dimension, self.dimension):
            raise ValueError("hessian must be dimension x dimension")
        if np.any(np.abs(hessian) > np.sqrt(np.outer(lk, lk)) * (1 + 1e-12)):
            raise ValueError("hessian entries must satisfy |H_ij| <= sqrt(L_i L_j)")


@dataclass(frozen=True)
class ProblemConstants:
    """Lipschitz and rank constants driving stepsizes and bound formulas."""

    block_count: int
    block_size: int
    L: float
    L_k: np.ndarray
    sigma_k: np.ndarray
    gamma_k: np.ndarray
    rank_case: str
    mu: float  # lambda_min(A^T A)

    @property
    def L_max(self) -> float:
        return float(self.L_k.max())

    @property
    def L_min(self) -> float:
        return float(self.L_k.min())

    @property
    def sigma_min(self) -> float:
        return float(self.sigma_k.min())

    @property
    def gamma_min(self) -> float:
        return float(self.gamma_k.min())


def compute_constants(p: CompositeQuadraticProblem) -> ProblemConstants:
    """Extreme-eigenvalue and rank constants of the quadratic part.

    L = lambda_max(A^T A) and mu = lambda_min(A^T A), from one eigensolve
    of the full Gram.  L_k = lambda_max(A_k^T A_k), from one batched
    eigensolve of the stacked block Grams: numpy runs the same product and
    LAPACK routine on each item of a stack as on one matrix, so each L_k has
    the bits of its block's own solve.  One batched SVD of the blocks gives
    the rank, sigma_k and gamma_k with one cutoff: a singular value at or
    below RANK_RTOL times the block's largest counts as 0, as in
    least_squares_min_norm.  sigma_k is the smallest singular value when
    the block has at least as many rows m as columns N, gamma_k when m <= N,
    and each is 0 otherwise.  So sigma_min > 0 exactly when every block has
    full column rank, gamma_min > 0 exactly when every block has full row
    rank, and the rank case names the first of the two that holds.
    """
    mu, l_global = sym_eig_extremes(p.gram)
    blocks = np.array(p.a_blocks)
    rows, cols = blocks.shape[1:]
    l_k = np.linalg.eigvalsh(np.matmul(blocks.transpose(0, 2, 1), blocks))[:, -1]
    singular = np.linalg.svd(blocks, compute_uv=False)
    smallest = np.where(singular[:, -1] > RANK_RTOL * singular[:, 0], singular[:, -1], 0.0)
    sigma_k = smallest if rows >= cols else np.zeros_like(smallest)
    gamma_k = smallest if rows <= cols else np.zeros_like(smallest)
    rank_case = ("full_column" if sigma_k.min() > 0
                 else "full_row" if gamma_k.min() > 0 else "neither")
    return ProblemConstants(block_count=p.partition.block_count, block_size=cols,
                            L=max(float(l_global), float(l_k.max())), L_k=l_k,
                            sigma_k=sigma_k, gamma_k=gamma_k, rank_case=rank_case, mu=mu)


# ---------------------------------------------------------------------------
# Named instances

def make_table1_diagonal_qp(block_count: int, lipschitz: float) -> CompositeQuadraticProblem:
    """Separable quadratic (L/2) sum_i x_i^2 over K scalar blocks:
    A = sqrt(L) I, b = 0, so L_k = L."""
    if block_count < 1 or lipschitz <= 0:
        raise ValueError("need block_count >= 1 and lipschitz > 0")
    k = block_count
    root = math.sqrt(lipschitz)
    eye = np.eye(k)
    return CompositeQuadraticProblem(
        partition=BlockPartition(k, 1),
        a_blocks=tuple(root * eye[:, [i]] for i in range(k)),
        b=np.zeros(k),
        h=tuple(NonsmoothTerm.zero() for _ in range(k)),
    )


def make_table1_full_qp(block_count: int, lipschitz: float) -> CompositeQuadraticProblem:
    """Fully coupled quadratic (L/(2K)) (sum_i x_i)^2 over K scalar blocks:
    A = sqrt(L/K) * ones(1, K), b = 0, a rank-one Hessian with spectral
    norm L and L_k = L/K."""
    if block_count < 1 or lipschitz <= 0:
        raise ValueError("need block_count >= 1 and lipschitz > 0")
    k = block_count
    root = math.sqrt(lipschitz / k)
    return CompositeQuadraticProblem(
        partition=BlockPartition(k, 1),
        a_blocks=tuple(np.array([[root]]) for _ in range(k)),
        b=np.zeros(1),
        h=tuple(NonsmoothTerm.zero() for _ in range(k)),
    )


def toeplitz_matrix(block_count: int) -> np.ndarray:
    """Square tridiagonal all-ones pattern (1 on diagonal and both
    off-diagonals)."""
    k = block_count
    a = np.zeros((k, k))
    for i in range(k):
        a[i, i] = 1.0
        if i > 0:
            a[i, i - 1] = 1.0
        if i < k - 1:
            a[i, i + 1] = 1.0
    return a


def toeplitz_start(block_count: int) -> np.ndarray:
    """Adversarial starting point (1, 1/8, 3/4, 1, ..., 1)."""
    x0 = np.ones(block_count)
    x0[1] = 1.0 / 8.0
    x0[2] = 3.0 / 4.0
    return x0


def make_toeplitz_instance(block_count: int):
    """Scalar-block instance whose objective equals ||T x||^2 for the
    tridiagonal pattern T.

    The canonical smooth part is 1/2 ||A x||^2, so the stored blocks are the
    columns of T scaled by sqrt(2); block minimizers are unaffected by the
    scaling and f reproduces ||T x||^2 exactly.  Returns (problem, x0).
    """
    if block_count < 3:
        raise ValueError("toeplitz instance requires block_count >= 3")
    k = block_count
    pattern = toeplitz_matrix(k)
    scale = math.sqrt(2.0)
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(k, 1),
        a_blocks=tuple(scale * pattern[:, [i]] for i in range(k)),
        b=np.zeros(k),
        h=tuple(NonsmoothTerm.zero() for _ in range(k)),
    )
    return problem, toeplitz_start(k)


def make_lasso_instance(rows: int, block_count: int, weight: float, seed: int):
    """Seeded Gaussian l1-regularized least squares with scalar blocks.

    Entries of A and b are standard normals from the package PRNG; with
    rows >= block_count the design is full column rank almost surely.
    Returns (problem, x0) with x0 = 0.
    """
    if rows < 1 or block_count < 1:
        raise ValueError("rows and block_count must be >= 1")
    gen = SplitMix64(derive_seed(seed, 0x1A550))
    a = gen.normal_matrix(rows, block_count)
    b = gen.normal_vector(rows)
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(block_count, 1),
        a_blocks=tuple(a[:, [i]] for i in range(block_count)),
        b=b,
        h=tuple(NonsmoothTerm.l1(weight) for _ in range(block_count)),
    )
    return problem, np.zeros(block_count)


def oracle_from_quadratic(p: CompositeQuadraticProblem,
                          constants: ProblemConstants) -> SmoothProblemOracle:
    """Smooth view of a scalar-block problem with no nonsmooth terms;
    ``constants`` must be p's, from compute_constants."""
    if not p.is_smooth():
        raise ValueError("oracle view requires all nonsmooth terms to be zero")
    if p.partition.block_size != 1:
        raise ValueError("oracle view requires scalar blocks")
    return SmoothProblemOracle(
        dimension=p.partition.block_count,
        lipschitz_global=constants.L,
        lipschitz_coordinate=constants.L_k,
        hessian=p.gram,
    )


# ---------------------------------------------------------------------------
# Problem files (JSON syntax)

@dataclass
class LoadedProblem:
    """Problem bundle produced by load_problem."""

    kind: str
    x0: np.ndarray
    problem: CompositeQuadraticProblem


def json_integer(value) -> int | None:
    """``value`` as an int when it is a JSON integer, else None.  As in JSON
    Schema, a number with a zero fractional part (2.0) is an integer."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def json_number(value) -> float | None:
    """``value`` as a float when it is a finite JSON number (not a bool),
    else None.  An integer too large for a double is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


class Rule(NamedTuple):
    """What a JSON value must be: of ``types`` (``int`` means a
    json_integer and ``float`` a json_number), passing ``check``, and, for a
    list, holding entries that each follow ``items``.  ``expected`` names
    the rule in errors."""

    types: type | tuple
    expected: str
    check: Callable | None = None
    items: Rule | None = None


INTEGER = Rule(int, "an integer")
POSITIVE_INTEGER = Rule(int, "a positive integer", lambda v: v >= 1)
NUMBER = Rule(float, "a finite number")
NONNEGATIVE_NUMBER = Rule(float, "a finite nonnegative number", lambda v: v >= 0)
POSITIVE_NUMBER = Rule(float, "a finite positive number", lambda v: v > 0)
OBJECT = Rule(dict, "an object")
_REQUIRED = object()


def one_of(choices) -> Rule:
    """A string among ``choices``."""
    return Rule(str, "one of " + "/".join(choices), lambda v: v in choices)


def _numbers(length: int) -> Rule:
    return Rule(list, f"a list of {length} finite numbers", lambda v: len(v) == length, NUMBER)


def _shown(value) -> str:
    """``value`` as an error shows it: the length of a list, or the JSON
    text of anything else but an object, cut at 40 characters."""
    if isinstance(value, list):
        return f"a list of length {len(value)}"
    if isinstance(value, dict):
        return "an object"
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def read_value(value, path: str, rule: Rule):
    """``value`` read under ``rule``: an int or a float for ``int`` and
    ``float``, and a list of read entries for a rule with ``items``.  A
    violation is a FieldError at ``path``, or at ``path[j]`` for entry j."""
    read = (json_integer(value) if rule.types is int
            else json_number(value) if rule.types is float else value)
    if not isinstance(read, rule.types) or (rule.check is not None and not rule.check(read)):
        raise FieldError(path, f"expected {rule.expected}, got {_shown(value)}")
    if rule.items is not None:
        return [read_value(item, f"{path}[{j}]", rule.items) for j, item in enumerate(read)]
    return read


def read_field(spec: dict, path: str, key: str, rule: Rule, default=_REQUIRED):
    """spec[key] read under ``rule`` and reported at ``path.key``.  An
    absent key gives ``default``, and is an error when there is none; a
    null is read like any other value, never as the default."""
    if key in spec:
        return read_value(spec[key], f"{path}.{key}", rule)
    if default is _REQUIRED:
        raise FieldError(f"{path}.{key}", "missing required field")
    return default


def _plain_numbers(value, rule: Rule) -> bool:
    """Whether ``value`` has the lists, lengths and checks of ``rule``, a
    list rule whose leaves are NUMBER, with every leaf of type exactly int
    or float."""
    if type(value) is not list or (rule.check is not None and not rule.check(value)):
        return False
    if rule.items is NUMBER:
        return set(map(type, value)) <= {int, float}
    return all(_plain_numbers(item, rule.items) for item in value)


def read_numbers(spec: dict, path: str, key: str, rule: Rule, default=_REQUIRED):
    """read_field for a list ``rule`` whose leaves are NUMBER, without a
    call per number where it can: a value in the rule's shape whose leaves
    are all plain ints and floats, and which numpy converts to one finite
    float array, is returned as that array.  Anything else (a ragged list,
    a bool, a string, an int too large for a double, a non-finite number)
    is read by read_field, which reports the first broken rule at its path.
    Callers convert the result with np.array, which gives the same bits
    either way."""
    value = spec.get(key)
    if _plain_numbers(value, rule):
        try:
            array = np.array(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an int beyond a double
            pass
        else:
            if np.isfinite(array).all():
                return array
    return read_field(spec, path, key, rule, default)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_document(source, path: str = "$") -> dict:
    """The JSON object ``source``: a dict, JSON text (starting with ``{``)
    or a file path.  As in RFC 8259, NaN and Infinity are not numbers, so a
    text holding them is rejected.  Errors are reported at ``path``."""
    if isinstance(source, dict):
        return source
    text = str(source)
    try:
        if not text.lstrip().startswith("{"):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        document = json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise FieldError(path, f"cannot read file: {exc}") from exc
    except ValueError as exc:
        raise FieldError(path, f"not valid JSON ({exc})") from exc
    return read_value(document, path, OBJECT)


def _load_terms(spec: dict, path: str, k: int) -> tuple:
    """The K nonsmooth terms of ``spec["h"]``, all zero when it is absent."""
    raw = read_field(spec, path, "h", Rule(list, f"a list of {k} term objects",
                                           lambda v: len(v) == k, OBJECT), default=None)
    if raw is None:
        return (NonsmoothTerm.zero(),) * k
    terms = []
    for i, entry in enumerate(raw):
        where = f"{path}.h[{i}]"
        kind = read_field(entry, where, "kind", one_of(TERM_KINDS))
        if kind == "zero":
            terms.append(NonsmoothTerm.zero())
        elif kind == "box":
            lo, hi = (read_field(entry, where, key, NUMBER) for key in ("lo", "hi"))
            if lo > hi:
                raise FieldError(where, f"expected lo <= hi, got lo {lo!r} and hi {hi!r}")
            terms.append(NonsmoothTerm.box(lo, hi))
        else:
            terms.append(NonsmoothTerm(kind, weight=read_field(entry, where, "weight",
                                                               NONNEGATIVE_NUMBER)))
    return tuple(terms)


def _load_explicit(spec: dict, path: str) -> LoadedProblem:
    k = read_field(spec, path, "block_count", POSITIVE_INTEGER)
    n = read_field(spec, path, "block_size", POSITIVE_INTEGER)
    blocks = [np.array(block) for block in read_numbers(spec, path, "a_blocks", Rule(
        list, f"a list of {k} blocks", lambda v: len(v) == k,
        Rule(list, "a nonempty list of rows", bool, _numbers(n))))]
    rows = blocks[0].shape[0]
    for i, block in enumerate(blocks):
        if block.shape[0] != rows:
            raise FieldError(f"{path}.a_blocks[{i}]",
                             f"has {block.shape[0]} rows, a_blocks[0] has {rows}")
    b = np.array(read_numbers(spec, path, "b", Rule(list, "a list of finite numbers",
                                                    items=NUMBER)))
    if len(b) != rows:
        raise FieldError(f"{path}.b", f"has length {len(b)}, expected {rows}, "
                         "the row count of a_blocks")
    terms = _load_terms(spec, path, k)
    if all(term.kind == "zero" for term in terms) and not any(a.any() for a in blocks):
        # f is the constant 1/2 ||b||^2: no Lipschitz constant is positive
        raise FieldError(f"{path}.a_blocks", "every entry is zero and every term is "
                         "zero, so the problem has nothing to minimize")
    problem = CompositeQuadraticProblem(
        partition=BlockPartition(k, n), a_blocks=tuple(blocks), b=b, h=terms)
    x0 = read_numbers(spec, path, "x0", _numbers(k * n), default=None)
    return LoadedProblem(kind="explicit", x0=np.zeros(k * n) if x0 is None else np.array(x0),
                         problem=problem)


class Family(NamedTuple):
    """A generated problem kind: its fields as (key, Rule) pairs, in read
    order, and ``make(seed, *values)``, which returns (problem, x0)."""

    fields: tuple
    make: Callable


_TABLE1_FIELDS = (("block_count", POSITIVE_INTEGER), ("lipschitz", POSITIVE_NUMBER))
FAMILIES = {
    "lasso": Family(
        (("rows", POSITIVE_INTEGER), ("block_count", POSITIVE_INTEGER),
         ("weight", NONNEGATIVE_NUMBER)),
        lambda seed, rows, k, weight: make_lasso_instance(rows, k, weight, seed)),
    "toeplitz": Family((("block_count", Rule(int, "an integer >= 3", lambda v: v >= 3)),),
                       lambda seed, k: make_toeplitz_instance(k)),
    "table1_diag": Family(_TABLE1_FIELDS,
                          lambda seed, k, lip: (make_table1_diagonal_qp(k, lip), np.ones(k))),
    "table1_full": Family(_TABLE1_FIELDS,
                          lambda seed, k, lip: (make_table1_full_qp(k, lip), np.ones(k))),
}
"""The generated problem kinds, the one place that builds them: problem
files, plans and the battery's generated instances are all read by
load_problem.  The remaining kind, ``explicit``, gives its numbers."""


def load_problem(source, path: str = "$") -> LoadedProblem:
    """Build a problem from a JSON file path, JSON text, or a plain dict.

    The kinds are those of FAMILIES and ``explicit``.  Every kind reads
    ``seed``, then its own fields.  The first broken rule is reported at
    the offending field, under ``path``: a plan passes ``$.problem``.
    """
    spec = read_document(source, path)
    kind = read_field(spec, path, "kind", one_of((*FAMILIES, "explicit")))
    seed = read_field(spec, path, "seed", INTEGER, default=0)
    if kind == "explicit":
        return _load_explicit(spec, path)
    family = FAMILIES[kind]
    problem, x0 = family.make(seed, *(read_field(spec, path, key, rule)
                                      for key, rule in family.fields))
    return LoadedProblem(kind=kind, x0=x0, problem=problem)
