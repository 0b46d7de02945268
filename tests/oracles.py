"""Independent numerical oracles shared by the test modules.

These deliberately avoid the library's own formulas: minimizers come from
bracketing plus local quadratic fits, derivatives from finite differences,
and solver trajectories from plain per-visit replays that recompute every
gradient from scratch.
"""

import math

import numpy as np


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


def replay_coordinate_sweeps(oracle, orders, x0, weights):
    """Plain replay of coordinate gradient descent: every visit evaluates
    the full gradient and steps x_k <- x_k - grad_k / P_k."""
    x = np.array(x0, dtype=float)
    xs, values, movements = [x.copy()], [float(oracle.value(x))], []
    for order in orders:
        move_sq = 0.0
        for k in order:
            step = float(oracle.gradient(x)[k]) / weights[k]
            move_sq += weights[k] * step ** 2
            x[k] -= step
        xs.append(x.copy())
        values.append(float(oracle.value(x)))
        movements.append(math.sqrt(move_sq))
    return np.array(xs), np.array(values), np.array(movements)
