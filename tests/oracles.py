"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own formulas: minimizers come from
bracketing plus local quadratic fits or from long proximal-gradient runs,
derivatives from finite differences, solver trajectories from plain
per-visit replays that recompute every gradient from scratch, and the
splitmix64 stream from a per-draw replay.  assert_finished states what
every trajectory a runner returns must be.
"""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest


def golden_section_min(fun, lo, hi, width=1e-10):
    """Plain golden-section minimizer of a unimodal function.

    Comparison-based, so its accuracy near the minimizer is limited to
    about sqrt(eps * |f| / f''); callers must allow for that.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _parabola_vertex(fun, center, h):
    """Vertex of the quadratic through (center-h, center, center+h)."""
    f1, f2, f3 = fun(center - h), fun(center), fun(center + h)
    denom = f1 - 2.0 * f2 + f3
    if denom <= 0.0:
        return center
    return center + h * (f1 - f3) / (2.0 * denom)


def piecewise_quadratic_argmin(fun, lo, hi, kink=0.0):
    """Minimizer of a convex piecewise-quadratic with one kink.

    Golden section gives a coarse bracket (well above the comparison-noise
    floor); exact parabolic fits on each side of the kink and the kink
    itself are the final candidates.  Accurate to ~1e-10 on unit-scale
    problems, well beyond what comparisons alone can certify.
    """
    rough = golden_section_min(fun, lo, hi, width=2e-2)
    h = 2e-2
    candidates = [kink]
    if rough > kink - 5 * h:
        base = max(kink + h, rough)
        candidates.append(max(kink, _parabola_vertex(fun, base, h)))
    if rough < kink + 5 * h:
        base = min(kink - h, rough)
        candidates.append(min(kink, _parabola_vertex(fun, base, h)))
    return min(candidates, key=fun)


def central_difference(fun, x, index, h=1e-6):
    up = list(x)
    dn = list(x)
    up[index] += h
    dn[index] -= h
    return (fun(up) - fun(dn)) / (2.0 * h)


def _scalar_prox(term, v, step):
    """Textbook scalar prox; on one coordinate the group norm is |v|."""
    if term.kind in ("l1", "group_l2"):
        return math.copysign(max(abs(v) - term.weight * step, 0.0), v)
    if term.kind == "box":
        return min(max(v, term.lo), term.hi)
    return v


def _block_prox(term, v, step):
    """Textbook prox of one block's term: soft threshold, group shrink or
    clip."""
    if term.kind == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - term.weight * step, 0.0)
    if term.kind == "group_l2":
        norm = float(np.linalg.norm(v))
        if norm <= term.weight * step:
            return np.zeros_like(v)
        return (1.0 - term.weight * step / norm) * v
    if term.kind == "box":
        return np.clip(v, term.lo, term.hi)
    return v.copy()


def nonsmooth_value(term, v):
    """h(v) of one block's term; +inf outside a box, with the package's
    feasibility slack 1e-12 * max(1, |lo|, |hi|)."""
    v = np.asarray(v, dtype=float)
    if term.kind == "zero":
        return 0.0
    if term.kind == "l1":
        return term.weight * float(np.abs(v).sum())
    if term.kind == "group_l2":
        return term.weight * float(np.linalg.norm(v))
    slack = 1e-12 * max(1.0, abs(term.lo), abs(term.hi))
    if np.all(v >= term.lo - slack) and np.all(v <= term.hi + slack):
        return 0.0
    return math.inf


def block_gradient(problem, k, x):
    """Gradient of the smooth part with respect to block k: A_k^T (A x - b)."""
    if not 0 <= k < problem.partition.block_count:
        raise ValueError(f"block index {k} out of range")
    x = np.asarray(x, dtype=float).reshape(-1)
    return problem.a_blocks[k].T @ (problem.full_matrix() @ x - problem.b)


def block_objective(a, rest, term, z):
    """1/2 ||a z + rest||^2 + h(z) at a point z of h's domain."""
    r = a @ z + rest
    penalty = 0.0
    if term.kind == "l1":
        penalty = term.weight * float(np.abs(z).sum())
    elif term.kind == "group_l2":
        penalty = term.weight * float(np.linalg.norm(z))
    return 0.5 * float(r @ r) + penalty


def block_prox_gradient_min(a, rest, term, z0, steps=3000):
    """A long accelerated proximal-gradient run (FISTA with step 1/||a||^2)
    on 1/2 ||a z + rest||^2 + h(z) from z0; returns its last iterate.

    Its objective is an upper bound on the minimum, close to it after
    enough steps; an exact solver must do at least as well.
    """
    top = float(np.linalg.norm(a, 2))
    if top == 0.0:
        return _block_prox(term, np.zeros(a.shape[1]), 1.0)
    # the problem divided by top^2 has the same minimizers and step 1
    a, rest = a / top, rest / top
    if term.kind in ("l1", "group_l2"):
        term = replace(term, weight=term.weight / top / top)
    z = _block_prox(term, np.asarray(z0, dtype=float), 1.0)
    y, momentum = z.copy(), 1.0
    for _ in range(steps):
        new = _block_prox(term, y - a.T @ (a @ y + rest), 1.0)
        following = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        y = new + ((momentum - 1.0) / following) * (new - z)
        z, momentum = new, following
    return z


def _scalar_objective(problem, x):
    """Composite value at a feasible x of a scalar-block problem."""
    r = problem.full_matrix() @ x - problem.b
    penalty = sum(term.weight * abs(v) for term, v in zip(problem.h, x)
                  if term.kind in ("l1", "group_l2"))
    return 0.5 * float(r @ r) + penalty


def replay_scalar_sweeps(problem, orders, x0, weights, exact):
    """Plain per-visit replay of bcpg (inverse stepsizes ``weights``) or of
    exact block minimization on a scalar-block composite quadratic.

    Every visit recomputes the residual A x - b from scratch; exact
    minimization uses the closed form prox_{h/c}(x_k - g_k / c) with
    c = ||a_k||^2, or prox_h(0) when a_k = 0.  Returns (xs, f, movement)
    with movement[r] = sqrt(sum_k P_k (x_k^(r+1) - x_k^(r))^2).
    """
    a = problem.full_matrix()
    x = np.array(x0, dtype=float)
    xs, values, movements = [x.copy()], [_scalar_objective(problem, x)], []
    for order in orders:
        move_sq = 0.0
        for k in order:
            grad = float(a[:, k] @ (a @ x - problem.b))
            curvature = float(a[:, k] @ a[:, k])
            if not exact:
                new = _scalar_prox(problem.h[k], x[k] - grad / weights[k], 1.0 / weights[k])
            elif curvature > 0.0:
                new = _scalar_prox(problem.h[k], x[k] - grad / curvature, 1.0 / curvature)
            else:
                new = _scalar_prox(problem.h[k], 0.0, 1.0)
            move_sq += weights[k] * (new - x[k]) ** 2
            x[k] = new
        xs.append(x.copy())
        values.append(_scalar_objective(problem, x))
        movements.append(math.sqrt(move_sq))
    return np.array(xs), np.array(values), np.array(movements)


def recorded_visits(problem, xs, orders):
    """The block visits of a per-cycle trajectory, rebuilt from its iterates.

    Every cycle r must visit each block at most once, as the cyclic and
    permuted orders do: before block k is visited, the blocks already
    visited in that cycle hold their ``xs[r + 1]`` values and the others
    their ``xs[r]`` values.  Yields (k, x, new) per visit, with x the full
    point just before the visit and new the block's value after it.
    """
    for r, order in enumerate(orders):
        if len(set(order)) != len(order):
            raise ValueError(f"cycle {r} visits a block twice")
        x = np.array(xs[r], dtype=float)
        for k in order:
            block = problem.block_slice(k)
            new = np.array(xs[r + 1][block], dtype=float)
            yield k, x.copy(), new
            x[block] = new


def replay_coordinate_sweeps(value, gradient, orders, x0, weights):
    """Plain replay of coordinate gradient descent on the smooth function
    with callables ``value`` and ``gradient``: every visit evaluates the
    full gradient and steps x_k <- x_k - grad_k / P_k."""
    x = np.array(x0, dtype=float)
    xs, values, movements = [x.copy()], [float(value(x))], []
    for order in orders:
        move_sq = 0.0
        for k in order:
            step = float(gradient(x)[k]) / weights[k]
            move_sq += weights[k] * step ** 2
            x[k] -= step
        xs.append(x.copy())
        values.append(float(value(x)))
        movements.append(math.sqrt(move_sq))
    return np.array(xs), np.array(values), np.array(movements)


_MASK64 = (1 << 64) - 1


class ReplaySplitMix64:
    """Per-draw splitmix64 reference: one Python-int step per output, a
    rejection loop per bounded integer, a swap loop per permutation and one
    Box-Muller pair per two normals.  It keeps the same ``_state`` and
    ``_spare_normal`` attributes as ``blockcd.rng.SplitMix64``, so the two
    can be compared after every call."""

    def __init__(self, seed):
        self._state = seed & _MASK64
        self._spare_normal = None

    def next_uint64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_uint64() >> 11) * 2.0**-53

    def below(self, n):
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n

    def permutation(self, n):
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def permutations(self, n, count):
        return [self.permutation(n) for _ in range(count)]

    def normal(self):
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normal_vector(self, n):
        return np.array([self.normal() for _ in range(n)], dtype=float)

    def normal_matrix(self, rows, cols):
        return self.normal_vector(rows * cols).reshape(rows, cols)


def uniform(gen):
    """Uniform double in [0, 1) with the top 53 bits of the generator's
    next output."""
    return (gen.next_uint64() >> 11) * 2.0**-53


def normal(gen):
    """One standard normal from the generator's Box-Muller stream, as a
    float; its sine mate stays cached for the next draw."""
    return float(gen.normal_vector(1)[0])


def splitmix64_unmix(output):
    """The 64-bit z with mix(z) == output, where mix is the splitmix64
    finalizer: each xor-shift is undone by repeated xor and each odd
    multiplier by its inverse mod 2^64.  The generator state whose next
    draw is ``output`` is then (z - gamma) mod 2^64."""

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(output & _MASK64, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    return unshift(z, 30)


def replay_block_sweeps(problem, orders, x0, weights):
    """bcpg's iterates on blocks of any size, written out: each cycle
    takes the residual at x, and each visit of ``orders[r]`` steps to the
    textbook prox of x_k - A_k^T r / P_k and, when the step has a nonzero
    entry, writes x_k and moves r by A_k times the step."""
    x = np.array(x0, dtype=float)
    xs = [x.copy()]
    for order in orders:
        res = problem.residual(x)
        for k in order:
            sl, a_k = problem.block_slice(k), problem.a_blocks[k]
            old = x[sl].copy()
            new = _block_prox(problem.h[k], old - (a_k.T @ res) / weights[k], 1.0 / weights[k])
            step = new - old
            if step.any():
                res = res + a_k @ step
                x[sl] = new
        xs.append(x.copy())
    return np.array(xs)


def assert_finished(t, f_star):
    """t is a finished trajectory: its fields cannot be assigned, an
    in-place write to any of its arrays (or to the history its xs views)
    raises ValueError, and its gap is f - f_star bit for bit when f_star
    is given and None otherwise."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.gap = t.f
    arrays = [getattr(t, field.name) for field in dataclasses.fields(t)]
    arrays = [values for values in arrays + [t.xs.base] if isinstance(values, np.ndarray)]
    assert len(arrays) >= 5
    for values in arrays:
        with pytest.raises(ValueError):
            values[...] = 0.0
    if f_star is None:
        assert t.gap is None
    else:
        expected = t.f - float(f_star)
        assert t.gap.dtype == expected.dtype and t.gap.tobytes() == expected.tobytes()
