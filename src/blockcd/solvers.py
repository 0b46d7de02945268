"""The four solvers: exact cyclic block minimization, block proximal
gradient, scalar coordinate gradient descent, and full gradient descent.

All solvers sweep the K blocks once per cycle, in cyclic order or in a
seeded random permutation per cycle (ORDER_KINDS, the two orders the
paper's results cover), and keep each cycle's iterate.  The objective and
gradient norm of every recorded iterate come from the iterate history in
one array pass (trajectory_values), and the verification checks read the
resulting per-cycle trajectory.  A run is deterministic given its inputs
and seed.
cgd is block proximal gradient with scalar blocks and h_k = 0, so it runs
bcpg's sweep; gd takes one full gradient step per cycle.  check_applicable
states which problems each algorithm takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .linalg import (
    RANK_RTOL,
    ConvergenceError,
    MinNormFactors,
    least_squares_min_norm,
    min_norm_factors,
)
from .problems import (
    CompositeQuadraticProblem,
    NonsmoothTerm,
    ProblemConstants,
    duality_gap,
    eval_objective,
    nonsmooth_rows,
    nonsmooth_total,
    prox,
    prox_blocks,
    prox_scalar,
)
from .rng import SplitMix64

# A bound multiplier of an exact box or l1 block solve counts as having the
# wrong sign only beyond this multiple of the gradient's scale.
MULTIPLIER_RTOL = 1e-12
ORDER_BATCH = 64  # cycles of random orders drawn per splitmix block
ORDER_KINDS = ("cyclic", "random_permutation")
STEPSIZE_KINDS = ("global_l", "block_lk", "fixed")
ALGORITHMS = ("exact_bcd", "bcpg", "cgd", "gd")
# The reference optimum stops once its duality gap, evaluated every
# REFERENCE_GAP_EVERY iterations, is at most this multiple of max(1, |f|).
REFERENCE_GAP_RTOL = 1e-13
REFERENCE_GAP_EVERY = 10
# Newton steps on a face with curved blocks stop at the first one that does
# not lower the gradient norm, and after this many at the latest.
REFERENCE_NEWTON_STEPS = 50
# A run with a gap tolerance evaluates its newest iterates every
# GAP_CHECK_EVERY cycles, and at its last.
GAP_CHECK_EVERY = 8
# The iterate history of a run that watches its gap first holds x^0 and
# HISTORY_ROWS cycles, and grows geometrically from there, so max_cycles
# bounds the work, not the memory; any other history has its final size.
HISTORY_ROWS = 64
# np.clip's ufunc: np.clip on a float array with two bounds calls it and
# nothing else, so it gives np.clip's bits, NaN and signed zeros included,
# without the Python wrapper
_clip = np._core.umath.clip


@dataclass(frozen=True)
class StepsizePolicy:
    """Inverse stepsizes P_k: the global constant L for every block, the
    per-block constants L_k, or explicit values (each must be >= L_k)."""

    kind: str
    values: tuple | None = None

    def __post_init__(self):
        if self.kind not in STEPSIZE_KINDS:
            raise ValueError(f"unknown stepsize policy {self.kind!r}")
        if self.kind == "fixed":
            if not self.values:
                raise ValueError("fixed policy requires values")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @staticmethod
    def global_l() -> "StepsizePolicy":
        return StepsizePolicy("global_l")

    @staticmethod
    def block_lk() -> "StepsizePolicy":
        return StepsizePolicy("block_lk")

    @staticmethod
    def fixed(values) -> "StepsizePolicy":
        return StepsizePolicy("fixed", values=tuple(values))

    def realize(self, constants: ProblemConstants, positive: bool = True) -> np.ndarray:
        """The K values P_k; each must be finite and, if ``positive``, > 0
        (otherwise >= 0)."""
        k = constants.block_count
        if self.kind == "global_l":
            p = np.full(k, constants.L)
        elif self.kind == "block_lk":
            p = np.asarray(constants.L_k, dtype=float).copy()
        else:
            p = np.asarray(self.values, dtype=float)
            if p.shape != (k,):
                raise ValueError(f"fixed policy needs {k} values, got {p.shape[0]}")
        slack = 1e-12 * np.maximum(1.0, np.asarray(constants.L_k))
        if np.any(p + slack < constants.L_k):
            bad = int(np.argmax(constants.L_k - p))
            raise ValueError(
                f"stepsize constant P_{bad}={p[bad]:.6g} is below the block "
                f"Lipschitz constant L_{bad}={constants.L_k[bad]:.6g}")
        if not (np.isfinite(p).all() and (p > 0 if positive else p >= 0).all()):
            raise ValueError("stepsize constants must be finite and "
                             + ("positive" if positive else "nonnegative"))
        return p


@dataclass(frozen=True)
class BlockOrder:
    """Visit order inside a cycle: fixed 1..K, or a fresh seeded permutation
    each cycle."""

    kind: str = "cyclic"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown block order {self.kind!r}")

    @staticmethod
    def cyclic() -> "BlockOrder":
        return BlockOrder("cyclic")

    @staticmethod
    def random_permutation(seed: int) -> "BlockOrder":
        return BlockOrder("random_permutation", seed=seed)

    def stream(self, block_count: int):
        """Yield one visit order per cycle, consuming a splitmix stream."""
        if self.kind == "cyclic":
            base = list(range(block_count))
            while True:
                yield base
        # the generator is private to the stream, so orders are drawn
        # ORDER_BATCH cycles ahead; the bits are those of one draw per cycle
        gen = SplitMix64(self.seed)
        while True:
            yield from gen.permutations(block_count, ORDER_BATCH)


@dataclass(frozen=True)
class SolverRun:
    """Everything that determines a trajectory, except the problem and x0."""

    algorithm: str
    order: BlockOrder = field(default_factory=BlockOrder.cyclic)
    stepsizes: StepsizePolicy = field(default_factory=StepsizePolicy.block_lk)
    max_cycles: int = 100
    gap_tolerance: float = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance must be nonnegative")

    def realize_stepsizes(self, constants: ProblemConstants) -> np.ndarray:
        """The run's P_k.  exact BCD takes no step and uses P_k only to
        weight the recorded movement, so it accepts P_k = 0 on a block with
        L_k = 0; the other algorithms divide by P_k."""
        return self.stepsizes.realize(constants, positive=self.algorithm != "exact_bcd")


@dataclass(frozen=True)
class Trajectory:
    """Per-cycle record of a finished run, built by _record_cycles: a
    frozen value whose arrays are all read-only, so a run shared between
    callers (a cached one, or a lockstep batch's orders) cannot be changed
    by any of them.

    ``xs[r]`` is the iterate after r cycles; ``weighted_movement[r]`` is
    sqrt(sum_k P_k ||x_k^(r+1) - x_k^(r)||^2) for the step r -> r+1,
    derived from ``xs``, ``orders`` and ``stepsizes`` (weighted_movements).
    ``orders`` is a (cycles, K) np.intp array whose row r is the visit
    order of cycle r; a cyclic run's rows are one arange(K) broadcast to
    every cycle.  ``gap`` is f - f_star, present exactly when the run was
    given a reference value f_star, and None otherwise.
    """

    algorithm: str
    xs: np.ndarray
    f: np.ndarray
    weighted_movement: np.ndarray
    stepsizes: np.ndarray
    orders: np.ndarray
    grad_norm: np.ndarray | None = None
    gap: np.ndarray | None = None

    @property
    def cycles(self) -> int:
        return self.xs.shape[0] - 1


def _format_cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.17g}"


def trajectory_to_csv(t: Trajectory, target) -> None:
    """Write cycle,f,gap,weighted_movement,grad_norm rows to the file at
    path ``target``.

    Floats carry 17 significant digits so parsing the file reproduces the
    trajectory bit-for-bit.  The movement column sits on the source row of
    the step (empty on the final row).
    """
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write("cycle,f,gap,weighted_movement,grad_norm\n")
        for r in range(t.xs.shape[0]):
            gap = None if t.gap is None else t.gap[r]
            move = t.weighted_movement[r] if r < t.weighted_movement.shape[0] else None
            grad = None if t.grad_norm is None else t.grad_norm[r]
            fh.write(",".join([str(r), _format_cell(t.f[r]), _format_cell(gap),
                               _format_cell(move), _format_cell(grad)]) + "\n")


def check_start(p: CompositeQuadraticProblem, x0) -> np.ndarray:
    """A copy of x0, which must have p's dimension, finite entries, and
    meet p's box terms; no residual is computed."""
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape[0] != p.partition.dimension:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {p.partition.dimension}")
    if not np.isfinite(x).all():
        raise ValueError("x0 has non-finite entries")
    if nonsmooth_total(p, x) == math.inf:
        raise ValueError("x0 violates a box constraint")
    return x


def check_applicable(algorithm: str, p: CompositeQuadraticProblem) -> None:
    """Raise ValueError unless ``algorithm`` takes p: cgd needs a smooth
    problem with scalar blocks, gd a smooth problem, and bcpg and exact_bcd
    take any problem."""
    if algorithm == "cgd" and not (p.is_smooth() and p.partition.block_size == 1):
        raise ValueError("cgd needs a smooth problem with scalar blocks")
    if algorithm == "gd" and not p.is_smooth():
        raise ValueError("gd needs a smooth problem")


def trajectory_values(p: CompositeQuadraticProblem,
                      xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """f at every row of the iterate history ``xs`` (rows, dimension), and
    ||grad f|| at every row when p is smooth (else None), in one array
    pass: one product of the history with A^T gives every residual, and
    nonsmooth_rows every h total, +inf on a row outside a box.  Equal
    histories give equal bits, whether recorded alone or in a batch."""
    res = p.residual(xs)
    f = 0.5 * np.einsum("ij,ij->i", res, res) + nonsmooth_rows(p, xs)
    grad_norm = np.linalg.norm(res @ p.full_matrix(), axis=1) if p.is_smooth() else None
    return f, grad_norm


def weighted_movements(xs: np.ndarray, orders: np.ndarray, stepsizes: np.ndarray,
                       block_size: int) -> np.ndarray:
    """sqrt(sum_k P_k ||x_k^(r+1) - x_k^(r)||^2) for every cycle r of the
    iterate history ``xs``, summed in the visit order ``orders[r]`` (a
    (cycles, K) index array).  A block's square is d_k d_k for N = 1 and
    np.vecdot(d_k, d_k), np.dot's own loop, for N > 1, and np.add.accumulate
    adds in sequence: the bits of a running sum in visit order."""
    d = np.diff(xs, axis=0).reshape(orders.shape[0], stepsizes.shape[0], block_size)
    squares = d[..., 0] * d[..., 0] if block_size == 1 else np.vecdot(d, d)
    weighted = stepsizes[orders] * np.take_along_axis(squares, orders, axis=1)
    weighted[:, :1] += 0.0  # a sum from +0.0 turns a first -0.0 (P_k = -0.0) into +0.0
    return np.sqrt(np.add.accumulate(weighted, axis=1)[:, -1])


def _order_array(kind: str, drawn: list, block_count: int) -> np.ndarray:
    """The visit orders ``drawn`` from a stream of ``kind``, one per cycle,
    as a (cycles, K) np.intp array: a cyclic run's one order broadcast to
    every cycle, a random run's lists converted once."""
    if kind == "cyclic":
        return np.broadcast_to(np.arange(block_count, dtype=np.intp),
                               (len(drawn), block_count))
    return np.array(drawn, dtype=np.intp).reshape(len(drawn), block_count)


def _record_cycles(problems, runs, x: np.ndarray, stepsizes, sweep, refresh,
                   f_stars) -> list[Trajectory]:
    """Run up to max_cycles cycles of ``sweep`` on the B runs whose live
    iterates are the rows of the (B, dimension) view x, and record them as
    finished trajectories.  A single run passes x[None] and takes element
    [0]; a batch shares runs[0]'s order and max_cycles.  ``f_stars`` holds
    one reference value f* per run, None for a run without one.

    A cycle draws the order, runs ``refresh()``, which brings what the
    sweep reads (the residual, and the gradient where the sweep uses it) up
    to date with x, runs ``sweep(order)``, which visits the blocks of
    ``order`` once, updating x in place, and returns whether it wrote
    anything, and copies x into one run-major (B, cycles + 1, dimension)
    history, whose row b is run b's ``xs``.  Nothing else runs per cycle:
    f and the gradient norm come from trajectory_values on each run's
    history, the movements from weighted_movements (gd's:
    sqrt(L) ||x^(r+1) - x^(r)||), and the drawn orders become one array
    after the loop (_order_array), which the B trajectories share.  A run
    with an f* gets its gap f - f*; every array of every trajectory, the
    history that holds the runs' ``xs`` included, is then made read-only.

    A sweep reads only x, the buffers refresh() fills from x and what is
    fixed for the run (the visit table, the factors, the exact blocks'
    cache of faces).  So under a fixed order a cycle is one function of x,
    and once x equals an earlier row of the history byte for byte (-0.0
    and NaN payloads included), every later row equals the row one period
    back: the loop copies it from there and sweeps no more.  The repeat is
    found by comparing x with one checkpoint row, which moves to the
    current row whenever the distance to it reaches a power of two that
    then doubles (Brent, BIT 1980), so it costs no memory per cycle.  A
    cycle that writes nothing is period 1 under any order: the next
    refresh() sees the same x, so every visit, in any order, reads what it
    read before and again writes nothing.  A NaN step counts as a write.

    Only a single run watches a gap.  With run.gap_tolerance > 0 and an
    f*, the rows added since the last evaluation are evaluated every
    GAP_CHECK_EVERY cycles and at the last one, and the trajectory ends at
    the first cycle r >= 1 with f(x^r) - f* <= run.gap_tolerance, read
    on those recorded values; the sweeps past it are discarded.
    """
    run, f_star, block_count = runs[0], f_stars[0], stepsizes[0].shape[0]
    batch, dim = x.shape
    watch = f_star is not None and run.gap_tolerance > 0
    start = min(run.max_cycles, HISTORY_ROWS) if watch else run.max_cycles
    history = np.empty((batch, start + 1, dim))
    history[:, 0] = x
    drawn, values = [], []
    order_stream = run.order.stream(block_count)
    fixed = run.order.kind == "cyclic"
    cycle = evaluated = period = 0
    checkpoint, reach, mark = 0, 1, x.tobytes()
    while cycle < run.max_cycles:
        order = next(order_stream)
        drawn.append(order)
        if not period:
            refresh()
            if not sweep(order):
                period = 1
        cycle += 1
        if cycle == history.shape[1]:
            grow = min(cycle, run.max_cycles + 1 - cycle)
            history = np.concatenate([history, np.empty((batch, grow, dim))], axis=1)
        history[:, cycle] = history[:, cycle - period] if period else x
        if fixed and not period:
            current = x.tobytes()
            if current == mark:
                period = cycle - checkpoint
            elif cycle - checkpoint == reach:
                checkpoint, reach, mark = cycle, 2 * reach, current
        if watch and (cycle % GAP_CHECK_EVERY == 0 or cycle == run.max_cycles):
            first, evaluated = evaluated, cycle + 1
            values.append(trajectory_values(problems[0], history[0, first:evaluated]))
            within = values[-1][0] - f_star <= run.gap_tolerance
            if first == 0:
                within[0] = False  # the start is no stopping point
            if within.any():
                cycle = first + int(within.argmax())
                break
    rows = cycle + 1
    if history.shape[1] > rows:
        history = history[:, :rows].copy()
    orders = _order_array(run.order.kind, drawn[:cycle], block_count)
    # the history's flag holds for every run's xs, a view of it made below
    history.flags.writeable = orders.flags.writeable = False
    trajectories = []
    for p, run_b, xs, p_k, f_star_b in zip(problems, runs, history, stepsizes, f_stars):
        parts = values if evaluated > cycle else values + [trajectory_values(p, xs[evaluated:])]
        f = np.concatenate([f_part for f_part, _ in parts])[:rows]
        grad_norm = (None if parts[0][1] is None
                     else np.concatenate([grad_part for _, grad_part in parts])[:rows])
        if run_b.algorithm == "gd":
            d = np.diff(xs, axis=0)
            movement = math.sqrt(p_k[0]) * np.sqrt(np.vecdot(d, d))
        else:
            movement = weighted_movements(xs, orders, p_k, p.partition.block_size)
        gap = None if f_star_b is None else f - float(f_star_b)
        for array in (f, gap, movement, p_k, grad_norm):
            if array is not None:
                array.flags.writeable = False
        trajectories.append(Trajectory(run_b.algorithm, xs, f, movement, p_k, orders,
                                       grad_norm, gap))
    return trajectories


def _visit_table(p: CompositeQuadraticProblem, stepsizes: np.ndarray,
                 exact: bool) -> list:
    """One (divisor, prox step, term) entry per scalar block, built once
    per run.  A visit steps from v = x_k - g_k / divisor with that prox
    step: divisor P_k and step 1/P_k for bcpg (and cgd), G_kk and
    1/G_kk for exact minimization.  On a zero column (G_kk not > 0) exact
    minimization has divisor None and steps from v = 0 with step 1, the
    minimum-norm choice.  term is None for a zero term, whose prox is v."""
    table = []
    for weight, curvature, term in zip(stepsizes.tolist(), np.diagonal(p.gram).tolist(), p.h):
        divisor = curvature if exact else weight
        if exact and not curvature > 0.0:
            divisor, step = None, 1.0
        else:
            step = 1.0 / divisor
        table.append((divisor, step, None if term.kind == "zero" else term))
    return table


def _scalar_sweep(table: list, gram: np.ndarray, rows: tuple | None, x: np.ndarray,
                  g: np.ndarray, order) -> bool:
    """One cycle on scalar blocks in the covariance-update form.

    g = A^T r, exact at x on entry, is kept current through the Gram matrix
    G = A^T A: a visit reads g_k, takes the prox step of its ``table``
    entry (_visit_table) in plain floats, and adds delta G[k] to g, with
    delta = x_k^new - x_k^old.  Returns whether a visit wrote: x changes
    only where delta != 0.  On return g is scratch, which the next
    refresh() overwrites.

    Two kernels differ only in how g is held and updated.  With ``rows``
    None, g stays the numpy buffer and a write adds delta * G[k] in one
    array step.  With the Gram's row structure (CompositeQuadraticProblem.
    gram_rows), g is held as Python floats for the sweep and a write adds
    delta * G_km at the stored nonzeros of row k alone; a NaN or infinite
    delta takes the array step instead, so NaN and inf spread as they do
    there.  The two give the same x and write flag, bit for bit:

    1. with a finite delta, a skipped entry would get delta * (+-0) = +-0
       added, which can change only the sign of a zero g_m, and later
       additions keep the difference to that sign;
    2. a zero g_k of either sign gives the same x_k^new, or a delta of 0,
       which writes nothing, under bcpg, exact minimization and every term
       kind: x_k - (+-0) / divisor has one value unless x_k = -0.0, where
       it is +-0, which the zero term and the box keep (a delta of +0.0)
       and l1 and group_l2 map to 0.0; a zero column never reads g_k;
    3. g is refreshed before every sweep, so a difference in the sign of
       a zero never outlives its sweep;
    4. Python float and numpy elementwise multiply and add are the same
       IEEE binary64 operations.
    """
    values = x.tolist()
    # a memoryview of g reads Python floats and sees g's in-place updates
    grad = memoryview(g) if rows is None else g.tolist()
    wrote = False
    for k in order:
        divisor, step, term = table[k]
        old = values[k]
        new = 0.0 if divisor is None else old - grad[k] / divisor
        if term is not None:
            new = prox_scalar(term, new, step)
        delta = new - old
        if delta != 0.0:
            values[k] = new
            wrote = True
            if rows is None:
                g += delta * gram[k]
            elif math.isfinite(delta):
                for m, entry in rows[k]:
                    grad[m] += delta * entry
            else:
                g[:] = grad
                g += delta * gram[k]
                grad = g.tolist()
    if wrote:
        x[:] = values
    return wrote


def _block_visits(p: CompositeQuadraticProblem, stepsizes: np.ndarray,
                  exact: bool) -> list:
    """One (slice, A_k, visit data) entry per block of any size, built once
    per run, as _visit_table does for scalar blocks.  The visit data of
    exact minimization is the block's _ExactBlock; that of a proximal step
    is (A_k^T, P_k, 1/P_k, term), with term None for a zero term, whose
    prox is the point itself."""
    visits = []
    for k, (a_k, term, weight) in enumerate(zip(p.a_blocks, p.h, stepsizes.tolist())):
        data = (_ExactBlock.of(a_k, term) if exact
                else (a_k.T, weight, 1.0 / weight, None if term.kind == "zero" else term))
        visits.append((p.block_slice(k), a_k, data))
    return visits


def _block_sweep(visits: list, exact: bool, x: np.ndarray, res: np.ndarray, order) -> bool:
    """One cycle on blocks of any size from the residual ``res`` at x, which
    is left as it is: a proximal step per visit, or an exact block
    minimization when ``exact``, with each block's entry of ``visits``
    (_block_visits).  Returns whether a visit wrote.

    A proximal visit steps to prox(h_k, x_k - A_k^T res / P_k, 1/P_k), the
    box's prox being np.clip's ufunc alone (_clip), and writes x_k and the
    residual only when the step has a nonzero entry.  An exact visit
    rebuilds the residual as (res - A_k x_k) + A_k x_k^new, which rounding
    can change even when the block stays, so it always counts as a
    write."""
    wrote = exact
    for k in order:
        sl, a_k, data = visits[k]
        old = x[sl]  # a view: every use comes before x_k is written
        if exact:
            rest = res - a_k @ old
            new = _exact_block_minimize(data, rest, old)
            res = rest + a_k @ new
            x[sl] = new
            continue
        a_k_t, weight, step_size, term = data
        new = old - (a_k_t @ res) / weight
        if term is not None:
            new = (_clip(new, term.lo, term.hi) if term.kind == "box"
                   else prox(term, new, step_size))
        step = new - old
        if np.count_nonzero(step):
            res = res + a_k @ step
            x[sl] = new
            wrote = True
    return wrote


def _make_sweep(p: CompositeQuadraticProblem, x: np.ndarray, stepsizes: np.ndarray,
                exact: bool = False):
    """``(sweep, refresh)`` of bcpg on x, or of exact BCD when ``exact``.

    ``refresh()`` must run before each ``sweep(order)``: it stores the
    residual r = Ax - b, or for scalar blocks g = A^T r, in the buffer the
    sweep starts from.  Scalar blocks take the Gram kernel (_scalar_sweep)
    with the run's visit table, entry by entry at the Gram's nonzeros when
    the problem has a row structure (gram_rows); larger blocks take
    _block_sweep with the run's _block_visits, where exact BCD factors each
    block once per run.
    """
    if p.partition.block_size > 1:
        res = np.empty(p.rows)

        def refresh():
            res[:] = p.residual(x)

        return partial(_block_sweep, _block_visits(p, stepsizes, exact), exact, x, res), refresh
    full = p.full_matrix()
    grad = np.empty(p.partition.dimension)

    def refresh():
        grad[:] = full.T @ p.residual(x)

    table = _visit_table(p, stepsizes, exact)
    return partial(_scalar_sweep, table, p.gram, p.gram_rows, x, grad), refresh


def _run_blocks(p: CompositeQuadraticProblem, run: SolverRun, x0,
                constants: ProblemConstants, f_star) -> Trajectory:
    """Trajectory of run.algorithm, bcpg, cgd or exact_bcd, on p: each
    cycle refreshes the residual the sweep starts from, sweeps and keeps
    the iterate (_record_cycles), which attaches the gap to f_star when
    one is given."""
    stepsizes = run.realize_stepsizes(constants)
    x = check_start(p, x0)
    sweep, refresh = _make_sweep(p, x, stepsizes, run.algorithm == "exact_bcd")
    return _record_cycles([p], [run], x[None], [stepsizes], sweep, refresh, [f_star])[0]


def run_bcpg(p: CompositeQuadraticProblem, run: SolverRun, x0,
             constants: ProblemConstants, f_star: float | None = None) -> Trajectory:
    """Cyclic block proximal gradient.

    Each visited block takes one proximal step from the freshest point:
    x_k <- prox_{h_k, 1/P_k}(x_k - grad_k / P_k) with grad_k evaluated at
    the current intermediate iterate.
    """
    if run.algorithm != "bcpg":
        raise ValueError("run.algorithm must be 'bcpg'")
    return _run_blocks(p, run, x0, constants, f_star)


class _Face(NamedTuple):
    """What an active-set solve reuses on one face of a block: the factors
    of the free columns M_F (with the rank threshold of the whole of M),
    the fixed columns M_W, and, for the linear term w 1 of an l1 block, the
    part of 1_F outside the range of M_F^T (None when it is rounding) and
    the minimum-norm solution of M_F^T M_F v = 1_F."""

    factors: MinNormFactors
    fixed_columns: np.ndarray
    null_ones: np.ndarray | None
    pinv_ones: np.ndarray


@dataclass
class _ExactBlock:
    """What exact minimization of one block of size N > 1 reuses for a
    whole run: its term, its matrix M, the sum of |M_ij|, the factors of M,
    and for box and l1 terms each face of M met so far.

    M is A_k, or [A_k, -A_k] for an l1 term, divided by ``unit``, the
    largest singular value of A_k: dividing the block objective by unit^2
    leaves its minimizer as it is and keeps squared singular values inside
    the range of doubles.  A zero term keeps A_k itself (unit 1), so that
    its solve repeats least_squares_min_norm's arithmetic.
    """

    term: NonsmoothTerm
    unit: float
    matrix: np.ndarray
    size: float
    factors: MinNormFactors
    faces: dict

    @staticmethod
    def of(a_k: np.ndarray, term: NonsmoothTerm) -> "_ExactBlock":
        factors = min_norm_factors(a_k)
        unit = 1.0
        if term.kind != "zero" and factors.s.size:
            unit = float(factors.s[0])
            a_k = (np.hstack([a_k, -a_k]) if term.kind == "l1" else a_k) / unit
            factors = min_norm_factors(a_k)
        return _ExactBlock(term, unit, a_k, float(np.abs(a_k).sum()), factors, {})

    def face(self, free: np.ndarray) -> _Face:
        """The face whose free coordinates are ``free``, cached per run."""
        key = free.tobytes()
        face = self.faces.get(key)
        if face is None:
            factors = min_norm_factors(self.matrix[:, free], self.factors.s[0])
            ones = np.ones(factors.vt.shape[1])
            range_part = factors.vt @ ones
            null = ones - factors.vt.T @ range_part
            face = self.faces[key] = _Face(
                factors, self.matrix[:, ~free],
                null if float(null @ null) > RANK_RTOL ** 2 * ones.size else None,
                factors.vt.T @ (range_part / factors.s / factors.s))
        return face


def _exact_block_minimize(block: _ExactBlock, rest: np.ndarray,
                          current: np.ndarray) -> np.ndarray:
    """Exact minimizer of 1/2 z^T G_k z + c_k^T z + h_k(z), that is of
    1/2 ||A_k z + rest||^2 + h_k(z), for a block of size N > 1, where
    G_k = A_k^T A_k and c_k = A_k^T rest.  A finite solve per term kind,
    from factors computed once per run (_ExactBlock):

    - zero: the minimum-norm least-squares solution, with
      least_squares_min_norm's arithmetic on the cached SVD of A_k;
    - group_l2 with weight w: z = 0 when ||c_k|| <= w, otherwise the root
      of the secular equation in ||z|| on the eigenbasis of G_k, by
      monotone Newton steps (_group_l2_minimize);
    - box: the minimum-norm least-squares solution when it lies in the
      box, otherwise a bounded least-squares active set warm-started from
      the current block (_bounded_least_squares);
    - l1 with weight w: the same active set on the split z = z+ - z- with
      z+, z- >= 0, matrix [A_k, -A_k] and linear term w 1.

    Where G_k is singular the minimizer need not be unique, and the
    tie-break is deterministic.  A zero block takes the minimum-norm
    minimizer.  A group_l2 block's minimizer is unique when w > 0 (for
    w = 0 it is the minimum-norm one).  A box block takes the minimum-norm
    minimizer when that lies in the box.  Otherwise, and for an l1 block,
    it takes the minimizer the active set reaches from the current block:
    its free coordinates are the minimum-norm solution on its final face.
    An all-zero block takes the point of h_k's domain nearest 0, as a zero
    scalar column does.
    """
    term = block.term
    if term.kind == "zero":
        return block.factors.solve(-rest)
    n = current.shape[0]
    weight = term.weight / block.unit / block.unit
    if block.factors.s.size == 0 or weight == math.inf:
        # h_k alone, or a weight beyond the range of doubles at this scale
        return prox(term, np.zeros(n), 1.0)
    rest = rest / block.unit
    if term.kind == "group_l2":
        return _group_l2_minimize(block.factors, weight, rest)
    if term.kind == "box":
        z = block.factors.solve(-rest)
        if term.lo <= z.min() and z.max() <= term.hi:
            return z
        return _bounded_least_squares(block, rest, 0.0, term.lo, term.hi,
                                      _clip(current, term.lo, term.hi))
    split = np.concatenate([np.maximum(current, 0.0), np.maximum(-current, 0.0)])
    split = _bounded_least_squares(block, rest, weight, 0.0, math.inf, split)
    return split[:n] - split[n:]


def _group_l2_minimize(factors: MinNormFactors, weight: float,
                       rest: np.ndarray) -> np.ndarray:
    """argmin 1/2 ||M z + rest||^2 + w ||z|| from the factors M = U S V^T.

    With c^ = V^T M^T rest = S U^T rest (c = M^T rest lies in the range of
    V), z = 0 when ||c^|| <= w.  Otherwise z = -V (c^ t / (S^2 t + w)),
    where t = ||z|| > 0 is the root of the secular equation
    chi(t) = 1 / ||c^ / (S^2 t + w)|| - 1 = 0.  chi is increasing and
    concave in t (the form of Moré & Sorensen's trust-region equation, with
    shifts w / S^2), and chi <= 0 at t = (||c^|| - w) / S_max^2, so
    Newton's method from there climbs monotonically to the root.  It stops
    at the first step that does not increase t; a strictly increasing
    sequence of doubles below the root gets there in finitely many steps.
    """
    c_hat = factors.s * (factors.u.T @ rest)
    top = float(np.abs(c_hat).max())
    # ||c^|| with no square that could overflow or underflow
    size = top * float(np.linalg.norm(c_hat / top)) if top > 0.0 else 0.0
    if size <= weight:
        return np.zeros(factors.vt.shape[1])
    if weight == 0.0:
        return factors.solve(-rest)
    # z = ||c^|| y, where y solves the problem with c^ and w divided by ||c^||
    c_hat, weight = c_hat / size, weight / size
    curvature = factors.s * factors.s
    t = (1.0 - weight) / curvature[0]
    while True:
        shifted = curvature * t + weight
        q = c_hat / shifted
        norm_sq = float(q @ q)
        slope = float((q * q * curvature) @ (1.0 / shifted))
        t_next = t + norm_sq * (math.sqrt(norm_sq) - 1.0) / slope
        if not t_next > t:
            break
        t = t_next
    return -size * (factors.vt.T @ (c_hat * t / (curvature * t + weight)))


def _bounded_least_squares(block: _ExactBlock, rest: np.ndarray, weight: float,
                           lo: float, hi: float, z: np.ndarray) -> np.ndarray:
    """argmin 1/2 ||M z + rest||^2 + w 1^T z over lo <= z <= hi, with
    M = block.matrix: a primal active-set method in the manner of
    bounded-variable least squares (Stark & Parker 1995), started at the
    feasible z, which it overwrites.

    The working set W holds coordinates fixed at a bound; it starts as
    those of z on one.  Each step aims at the minimum-norm minimizer of the
    objective over the face where z_W is fixed, from the factors of the
    free columns M_F, cached per face for the run, so a singular M_F works.
    Every face shares the rank threshold of the whole of M, so a direction
    that is numerically null in M is null on each face too.  When w 1_F
    has a component outside the range of M_F^T, the face objective is
    unbounded along it, and the step follows its negative instead.  A
    target inside the bounds is taken; otherwise the step stops where the
    first free coordinate meets a bound, and that coordinate joins W.

    At a face minimizer, the coordinate of W whose multiplier has the wrong
    sign by the most leaves W if that is by more than MULTIPLIER_RTOL times
    the gradient's scale; otherwise z is returned.  In exact arithmetic the
    released coordinate moves inward on the next step, so a release whose
    next step that coordinate stops at once only undid rounding: the
    coordinate goes back to W and is not released again in this solve.

    The objective never increases, and the working sets met at face
    minimizers do not repeat in exact arithmetic, with at most n steps that
    add to W between two of them: (n + 1) 3^n steps bound the method, and
    ConvergenceError reports rounding that defeats that bound.
    """
    if lo == hi:
        return z
    matrix = block.matrix
    fixed = (z == lo) | (z == hi)
    barred = []
    at_minimum, released = False, -1
    cap = (z.shape[0] + 1) * 3 ** z.shape[0]
    for _ in range(cap):
        if at_minimum:
            if not fixed.any():
                return z
            grad = matrix.T @ (matrix @ z + rest) + weight
            wrong = np.where(fixed, np.where(z == lo, -grad, grad), 0.0)
            if barred:
                wrong[barred] = 0.0
            released = int(wrong.argmax())
            if not wrong[released] > 0.0:
                return z
            # the gradient's scale, from sums of magnitudes, which cannot
            # overflow where the squares of a 2-norm would
            scale = (block.size * (block.size * float(np.abs(z).sum())
                                   + float(np.abs(rest).sum())) + weight)
            if not wrong[released] > MULTIPLIER_RTOL * scale:
                return z
            fixed[released] = False
        free = ~fixed
        if not free.any():
            at_minimum = True
            continue
        face = block.face(free)
        z_free = z[free]
        if weight > 0.0 and face.null_ones is not None:
            target = z_free - face.null_ones
        else:
            target = face.factors.solve(-(rest + face.fixed_columns @ z[fixed]))
            if weight > 0.0:
                target -= weight * face.pinv_ones
            if lo <= target.min() and target.max() <= hi:
                z[free] = target
                at_minimum, released = True, -1
                continue
        step = target - z_free
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(step < 0.0, (lo - z_free) / step,
                             np.where(step > 0.0, (hi - z_free) / step, math.inf))
        stop = int(reach.argmin())
        alpha = float(reach[stop])
        if alpha == math.inf:
            raise ConvergenceError("unbounded face in an exact block solve")
        index = int(np.flatnonzero(free)[stop])
        fixed[index] = True
        if index == released and alpha == 0.0:
            barred.append(index)
            at_minimum, released = True, -1
            continue
        z[free] = _clip(z_free + alpha * step, lo, hi)
        z[index] = lo if step[stop] < 0.0 else hi
        at_minimum, released = False, -1
    raise ConvergenceError(f"exact block active set took more than {cap} steps")


def run_bcd_exact(p: CompositeQuadraticProblem, run: SolverRun, x0,
                  constants: ProblemConstants, f_star: float | None = None) -> Trajectory:
    """Cyclic block coordinate descent with exact block minimization.

    Stepsizes play no role in the updates; the realized P_k only weight the
    recorded movement diagnostic (default: the block constants L_k).
    """
    if run.algorithm != "exact_bcd":
        raise ValueError("run.algorithm must be 'exact_bcd'")
    return _run_blocks(p, run, x0, constants, f_star)


def _check_lockstep(problems, runs, x0s, constants, f_stars) -> None:
    """Raise ValueError unless the runs can share one stacked sweep."""
    if not runs or len({len(problems), len(runs), len(x0s), len(constants), len(f_stars)}) > 1:
        raise ValueError("lockstep needs at least one run, each with its problem, "
                         "start, constants and f*")
    block_count = problems[0].partition.block_count
    for p, run in zip(problems, runs):
        if p.partition.block_size != 1 or p.partition.block_count != block_count:
            raise ValueError(f"lockstep runs need scalar blocks, K={block_count} in each")
        if run.algorithm not in ("bcpg", "exact_bcd"):
            raise ValueError(f"lockstep runs bcpg and exact_bcd, not {run.algorithm!r}")
        if run.order != runs[0].order or run.max_cycles != runs[0].max_cycles:
            raise ValueError("lockstep runs must share the block order and max_cycles")
        if run.gap_tolerance != 0:
            raise ValueError("lockstep runs take no gap tolerance")
        if any(term.kind not in ("l1", "zero") for term in p.h):
            raise ValueError("lockstep runs take l1 and zero terms only")


def _stacked_visits(problems, runs, stepsizes) -> tuple[np.ndarray, ...]:
    """The divisors, zero-column mask and soft thresholds of the runs'
    _visit_table entries as (K, B) arrays: a zero column's divisor reads 1,
    and the threshold is w s on an l1 term, inf where that is 0 * inf,
    and 0 on a zero term."""
    tables = [_visit_table(p, p_k, run.algorithm == "exact_bcd")
              for p, p_k, run in zip(problems, stepsizes, runs)]
    divisor = np.array([[1.0 if d is None else d for d, _, _ in table] for table in tables]).T
    zero_column = np.array([[d is None for d, _, _ in table] for table in tables]).T
    threshold = np.array([[0.0 if term is None else term.weight * s for _, s, term in table]
                          for table in tables]).T
    threshold[np.isnan(threshold)] = math.inf
    return divisor, zero_column, threshold


def _stacked_products(problems) -> list[tuple]:
    """The runs grouped by row count, each group as (its run indices, the
    stack of its matrices A (G, rows, K), their transposes, the stack of
    its b (G, rows, 1), and a C-contiguous (G, K, 1) buffer for x): numpy
    runs a stacked matmul as one BLAS call per item with the item's own
    strides, so with each A C-contiguous, its transpose the F-contiguous
    view and the vectors contiguous, every item is the per-run product
    A x or A^T r itself, bit for bit.  Runs whose row counts differ cannot
    share a stack."""
    groups = {}
    for b, p in enumerate(problems):
        groups.setdefault(p.rows, []).append(b)
    block_count = problems[0].partition.block_count
    stacks = []
    for members in groups.values():
        matrices = np.stack([problems[b].full_matrix() for b in members])
        offsets = np.stack([problems[b].b for b in members])[:, :, None]
        stacks.append((np.array(members, dtype=np.intp), matrices, matrices.transpose(0, 2, 1),
                       offsets, np.empty((len(members), block_count, 1))))
    return stacks


def run_lockstep(problems, runs, x0s, constants, f_stars) -> list[Trajectory]:
    """bcpg and exact_bcd runs on scalar blocks, swept in lockstep: a
    stacked sweep and refresh on _record_cycles.  The B runs share K, the
    BlockOrder and max_cycles, every term is l1 or zero, and
    gap_tolerance is 0; anything else raises ValueError.  ``f_stars``
    gives each run's f*, or None, as the f_star of a per-run runner does:
    the trajectories are finished as theirs are, gaps attached and arrays
    read-only.

    The refresh is one stacked product pair per group of runs with equal
    row counts (_stacked_products): r = A x - b and g = A^T r for all of
    them, with each item the per-run product's own BLAS call.  A visit is
    _scalar_sweep's, as one array step across the runs on (K, B) iterates
    and gradients g = A^T r and (K, K, B) Grams, with each run's divisor
    d_k, zero column and threshold t_k from _stacked_visits, read from row
    views built once per batch.  Each element takes _scalar_sweep's IEEE
    operations in the same order: v = x_k - g_k / d_k (0 on a zero column)
    and x_k^new = v - min(max(v, -t_k), t_k), the soft threshold's bits (a
    t_k of inf, from 0 * inf, gives prox_scalar's 0, and t_k = 0 on a
    zero term its v); where the step moved, x_k takes x_k^new and g gains
    delta G[k].  So the iterates, and all that is recorded from them, are
    bit-identical to run_bcpg/run_bcd_exact.  Only g may differ, and only
    in the sign of a zero entry, where the per-run kernel updates g at the
    Gram's nonzeros alone (_scalar_sweep's argument).  Each cycle's
    refresh computes g from the runs' own residuals, as the per-run
    refresh does, and the sweep reports a write on every cycle.  A NaN
    proximal point, which the soft threshold maps to 0 and this form to
    NaN, raises ValueError instead.
    """
    _check_lockstep(problems, runs, x0s, constants, f_stars)
    stepsizes = [run.realize_stepsizes(c) for run, c in zip(runs, constants)]
    x = np.column_stack([check_start(p, x0) for p, x0 in zip(problems, x0s)])
    divisor, zero_column, threshold = _stacked_visits(problems, runs, stepsizes)
    grams = np.stack([p.gram for p in problems], axis=-1)
    g, step = np.empty(x.shape), np.empty(x.shape)
    visits = [(x[k], g[k], divisor[k], -threshold[k], threshold[k], grams[k],
               zero_column[k] if zero_column[k].any() else None) for k in range(x.shape[0])]
    stacks = _stacked_products(problems)
    v, clip, new, delta = (np.empty(len(runs)) for _ in range(4))
    moved = np.empty(len(runs), dtype=bool)

    def refresh():
        for members, matrices, transposes, offsets, xs in stacks:
            xs[:, :, 0] = x.T[members]
            g.T[members] = np.matmul(transposes, np.matmul(matrices, xs) - offsets)[:, :, 0]

    def sweep(order):
        for k in order:
            old, g_k, divisor_k, lower_k, threshold_k, gram_k, zero_k = visits[k]
            np.divide(g_k, divisor_k, out=v)
            np.subtract(old, v, out=v)
            if zero_k is not None:
                v[zero_k] = 0.0
            np.maximum(v, lower_k, out=clip)
            np.minimum(clip, threshold_k, out=clip)
            np.subtract(v, clip, out=new)
            np.subtract(new, old, out=delta)
            np.not_equal(delta, 0.0, out=moved)
            np.copyto(old, new, where=moved)
            np.multiply(gram_k, delta, out=step)
            np.add(g, step, out=g, where=moved)
        if np.isnan(x).any():
            raise ValueError("NaN proximal point in a lockstep sweep; run the solvers one at a time")
        return True

    return _record_cycles(problems, runs, x.T, stepsizes, sweep, refresh, f_stars)


def run_cgd(p: CompositeQuadraticProblem, run: SolverRun, x0,
            constants: ProblemConstants, f_star: float | None = None) -> Trajectory:
    """Coordinate gradient descent over the scalar blocks of a smooth p.

    Within a cycle the iterate moves along the chain w <- w - (d_k / P_k) e_k
    with d_k the coordinate gradient at the current chain point.  That is
    bcpg with scalar blocks and h_k = 0, so cgd runs bcpg's Gram kernel
    (_scalar_sweep through _run_blocks): the gradient is computed once per
    cycle and kept current through G = A^T A, formed once per run.
    """
    if run.algorithm != "cgd":
        raise ValueError("run.algorithm must be 'cgd'")
    check_applicable("cgd", p)
    return _run_blocks(p, run, x0, constants, f_star)


def _gradient_sweep(g: np.ndarray, x: np.ndarray, lipschitz: float, order) -> bool:
    """One gd step x <- x - g / L from the gradient g at x; returns whether
    the step moved x, the only case in which x is written."""
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient")
    new = x - g / lipschitz
    moved = bool(np.count_nonzero(new - x))
    if moved:
        x[:] = new
    return moved


def run_gd(p: CompositeQuadraticProblem, run: SolverRun, x0,
           constants: ProblemConstants, f_star: float | None = None) -> Trajectory:
    """Full gradient descent on a smooth p with the constant stepsize 1/L.
    A cycle is one step; the trajectory records the cyclic order whatever
    run.order says."""
    if run.algorithm != "gd":
        raise ValueError("run.algorithm must be 'gd'")
    check_applicable("gd", p)
    dim = p.partition.dimension
    x = check_start(p, x0)
    full = p.full_matrix()
    grad = np.empty(dim)

    def refresh():
        grad[:] = full.T @ p.residual(x)

    run = replace(run, order=BlockOrder.cyclic())
    sweep = partial(_gradient_sweep, grad, x, constants.L)
    return _record_cycles([p], [run], x[None], [np.full(dim, constants.L)], sweep, refresh,
                          [f_star])[0]


@dataclass(frozen=True)
class ReferenceOptimum:
    """High-precision optimum with its certificate.

    ``gap`` bounds f(x_star) - f* from above (a duality gap; 0 for the exact
    minimum-norm least-squares solution of a nonsmooth-free problem).
    ``certified`` means gap <= REFERENCE_GAP_RTOL max(1, |f_star|).  When it
    is False, downstream envelope checks treat their reports as advisory.
    """

    x_star: np.ndarray
    f_star: float
    certified: bool
    gap: float
    note: str


class _ReferenceFace(NamedTuple):
    """A face of x that the prox of h marks out (see _face)."""

    key: bytes
    free: np.ndarray
    linear: np.ndarray
    fixed: np.ndarray
    curved: np.ndarray
    weight: np.ndarray


def _face(p: CompositeQuadraticProblem, x: np.ndarray) -> _ReferenceFace:
    """The face of x that the prox of h marks out.  ``key`` is the bytes of
    ``free``, ``linear`` and ``fixed``, so equal faces have equal keys.

    On the face the free coordinates z_F are unconstrained and h is
    linear^T z plus w ||z_k|| on each ``curved`` block k of group weight
    ``weight``; every other coordinate is held at ``fixed`` (which is 0 on
    the free ones).  Per term kind:
      * zero, or l1/group_l2 of weight 0: the block is free;
      * l1 of weight w > 0: x_i != 0 is free with linear term w sign(x_i),
        x_i = 0 is fixed at 0;
      * box: x_i equal to lo or hi is fixed there, because the prox clips
        exactly; any other coordinate is free;
      * group_l2 of weight w > 0: a zero block is fixed at 0, a nonzero one
        is free and curved.
    """
    by_kind = p._terms_by_kind
    xb = x.reshape(p.partition.block_count, -1)
    penalized = by_kind.group_weight > 0.0
    group, group_weight = by_kind.group[penalized], by_kind.group_weight[penalized]
    nonzero = xb[group].any(axis=1)
    free = np.ones(xb.shape, dtype=bool)
    linear, fixed = np.zeros(xb.shape), np.zeros(xb.shape)
    free[group[~nonzero]] = False
    penalized = by_kind.l1_weight > 0.0
    l1, rows = by_kind.l1[penalized], xb[by_kind.l1[penalized]]
    free[l1] = rows != 0.0
    linear[l1] = by_kind.l1_weight[penalized][:, None] * np.sign(rows)  # sign(-0.0) is +0.0
    rows = xb[by_kind.box]
    at_lo, at_hi = rows == by_kind.clip_lo, rows == by_kind.clip_hi
    free[by_kind.box] = ~(at_lo | at_hi)
    fixed[by_kind.box] = np.where(at_lo, by_kind.clip_lo, np.where(at_hi, by_kind.clip_hi, 0.0))
    free, linear, fixed = free.reshape(-1), linear.reshape(-1), fixed.reshape(-1)
    return _ReferenceFace(free.tobytes() + linear.tobytes() + fixed.tobytes(), free, linear,
                          fixed, group[nonzero], group_weight[nonzero])


def _group_curvature(rows: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient w u and Hessian (w / ||z||)(I - u u^T), u = z / ||z||, of
    w ||z|| at each row z of ``rows``, as (m, N) and (m, N, N) arrays."""
    norms = np.linalg.norm(rows, axis=1)
    unit = rows / norms[:, None]
    projector = np.eye(rows.shape[1]) - unit[:, :, None] * unit[:, None, :]
    return weight[:, None] * unit, (weight / norms)[:, None, None] * projector


def _newton_on_face(p: CompositeQuadraticProblem, face: _ReferenceFace,
                    x: np.ndarray) -> np.ndarray:
    """Newton's method on a face with curved blocks, from x: the last of
    its points whose gradient norm each step lowered (see
    reference_optimum)."""
    block_count, size = p.partition.block_count, p.partition.block_size
    free, curved = face.free, face.curved

    def system(z):
        grad = p.full_matrix().T @ p.residual(z) + face.linear
        hessian = p.gram.copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope, curvature = _group_curvature(z.reshape(block_count, size)[curved],
                                                face.weight)
        grad.reshape(block_count, size)[curved] += slope
        hessian.reshape(block_count, size, block_count, size)[curved, :, curved, :] += curvature
        return grad[free], hessian[np.ix_(free, free)]

    z = np.where(free, x, face.fixed)
    grad, hessian = system(z)
    norm = float(np.linalg.norm(grad))
    for _ in range(REFERENCE_NEWTON_STEPS):
        if not np.isfinite(hessian).all():  # w / ||z_k|| overflows on a subnormal block
            break
        trial = z.copy()
        trial[free] -= min_norm_factors(hessian).solve(grad)
        trial_grad, trial_hessian = system(trial)
        trial_norm = float(np.linalg.norm(trial_grad))
        if not trial_norm < norm:
            break
        z, grad, hessian, norm = trial, trial_grad, trial_hessian, trial_norm
    return z


def reference_optimum(p: CompositeQuadraticProblem, constants: ProblemConstants,
                      max_iterations: int = 30_000) -> ReferenceOptimum:
    """Reference optimum: minimum-norm least squares for nonsmooth-free
    problems; otherwise accelerated proximal gradient over the whole x,
    finished by an exact solve on the face it identifies, and stopped once
    problems.duality_gap certifies the target.

    Nonsmooth-free.  x* = A^+ b from least_squares_min_norm, with gap 0.
    When b is all zero the minimum-norm minimizer of 1/2 ||Ax||^2 is 0
    exactly, so x* = 0 is returned without factoring A (the SVD route
    gives the same +0.0 entries).

    From x = prox_h(0), each iteration takes one proximal gradient step of
    size 1/L from the extrapolated point y (FISTA), which costs one product
    with A and one with A^T, and restarts the momentum whenever
    (y - x+)^T (x+ - x) > 0 (gradient restart; O'Donoghue & Candes, Found.
    Comput. Math. 2015).  The gap costs about two iterations, so it is
    evaluated every REFERENCE_GAP_EVERY iterations and at the cap.  With
    L = 0 the smooth part is constant and the start prox_h(0) is a
    minimizer.

    Finishing step.  At each gap evaluation that does not certify x, the
    face of x (_face) is compared with the face at the previous
    evaluation.  If the two are equal and that face has not been tried, a
    candidate on it is computed, with the fixed coordinates x_W and linear
    term c of the face:
      * with no curved block, the face's minimum-norm minimizer
            z_F = A_F^+ (b - A_W x_W) - (A_F^T A_F)^+ c
        from one min_norm_factors(A_F).  Where A_F is rank-deficient the
        candidate is thus the minimum-norm point of the face's minimizers,
        which fixes the x_star that ||x0 - x*|| reads;
      * with curved blocks (nonzero group_l2 blocks of weight w > 0),
        Newton's method from x on the face's optimality system, whose
        gradient and Hessian are
            A_F^T (A_F z + A_W x_W - b) + c + w z_k / ||z_k||,
            A_F^T A_F + (w / ||z_k||)(I - u_k u_k^T),  u_k = z_k / ||z_k||,
        the curvature terms on each curved block k.  Each step is the
        minimum-norm solution of the Newton system (min_norm_factors of
        the Hessian), so where A_F is rank-deficient and the Hessian
        singular the steps leave x's component along its null space
        unchanged, and the candidate is the minimizer that Newton reaches
        from FISTA's iterate, not the minimum-norm one.  The steps stop at
        the first that does not lower the gradient norm (a block reaching
        0 makes it NaN), or after REFERENCE_NEWTON_STEPS, and the candidate
        is the last point a step lowered it at.
    The candidate is returned only if duality_gap certifies it, by the
    same test as the iterates, so acceptance is sound by weak duality
    alone, whatever the solve did: no sign, bound, norm or convergence
    test is needed.  A candidate outside a box has f = inf, which is never
    accepted, and a sign-inconsistent or unconverged one does not certify.
    A rejected candidate never enters the iteration, so FISTA's path, its
    cap and its L = 0 case are as without the step.

    Under nondegeneracy at the limit x* (|A_i^T r*| < w at each l1
    coordinate with x*_i = 0, ||A_k^T r*|| < w at each zero group block,
    and a nonzero multiplier at each box coordinate at a bound), the prox
    step identifies the face of x* after finitely many iterations (Nutini,
    Schmidt & Hare, Optim. Lett. 2019).  x* minimizes the face's
    objective, so a candidate at its minimizer has the optimal residual,
    and it certifies when it keeps the face's signs and bounds, as it does
    when A_F has full column rank: the face's objective is then strictly
    convex, and Newton's steps converge quadratically once FISTA's iterate
    is close enough.  Without nondegeneracy the face may never settle and
    FISTA runs on as before; the step then costs at most one solve per
    distinct settled face.
    """
    if p.is_smooth():
        x_star = (least_squares_min_norm(p.full_matrix(), p.b) if p.b.any()
                  else np.zeros(p.partition.dimension))
        return ReferenceOptimum(x_star, eval_objective(p, x_star), True, 0.0,
                                "minimum-norm least squares")
    full, lipschitz = p.full_matrix(), constants.L
    x = prox_blocks(p, np.zeros(p.partition.dimension), 1.0)
    y, momentum, iterations = x, 1.0, 0
    f_value, gap = duality_gap(p, x, p.residual(x))
    face, tried = _face(p, x), set()
    while (lipschitz > 0.0 and iterations < max_iterations
           and gap > REFERENCE_GAP_RTOL * max(1.0, abs(f_value))):
        x_new = prox_blocks(p, y - (full.T @ p.residual(y)) / lipschitz, 1.0 / lipschitz)
        step = x_new - x
        if float((y - x_new) @ step) > 0.0:
            momentum, y = 1.0, x_new
        else:
            following = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            y = x_new + ((momentum - 1.0) / following) * step
            momentum = following
        x = x_new
        iterations += 1
        if iterations % REFERENCE_GAP_EVERY == 0 or iterations == max_iterations:
            f_value, gap = duality_gap(p, x, p.residual(x))
            previous, face = face, _face(p, x)
            if (gap > REFERENCE_GAP_RTOL * max(1.0, abs(f_value))
                    and face.key == previous.key and face.key not in tried):
                tried.add(face.key)
                if face.curved.size:
                    exact = _newton_on_face(p, face, x)
                else:
                    free, exact = face.free, face.fixed.copy()
                    if free.any():
                        factors = min_norm_factors(full[:, free])
                        exact[free] = (factors.solve(p.b - full @ face.fixed) - factors.vt.T
                                       @ (factors.vt @ face.linear[free] / factors.s / factors.s))
                f_exact, gap_exact = duality_gap(p, exact, p.residual(exact))
                if (f_exact < math.inf
                        and gap_exact <= REFERENCE_GAP_RTOL * max(1.0, abs(f_exact))):
                    return ReferenceOptimum(
                        exact, f_exact, True, gap_exact,
                        f"accelerated proximal gradient reference: {iterations} iterations, "
                        f"then an exact solve on its face; duality gap {gap_exact:.3e}")
    certified = gap <= REFERENCE_GAP_RTOL * max(1.0, abs(f_value))
    note = (f"accelerated proximal gradient reference: {iterations} iterations, "
            f"duality gap {gap:.3e}")
    if not certified:
        note += " (certificate not met; treat as best available)"
    return ReferenceOptimum(x, f_value, certified, gap, note)
