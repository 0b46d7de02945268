"""Span tracer for the benchmark's traced runs.

Wrappers are installed from outside the package: each public function is
replaced at every module attribute that binds it, so calls between
modules (``cli.compute_constants``, ``solvers.prox``, ...) are seen too.
A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until the run writes them out.
A layer's self time is its span time minus the time of its wrapped
children.
"""

from __future__ import annotations

import time
from collections import Counter

# module -> public functions recorded as spans
SPANNED = {
    "problems": ("compute_constants", "oracle_from_quadratic", "load_problem",
                 "nonsmooth_total"),
    "linalg": ("sym_eig_extremes", "least_squares_min_norm", "spectral_norm"),
    "solvers": ("run_bcpg", "run_bcd_exact", "run_cgd", "run_gd",
                "reference_optimum", "trajectory_to_csv"),
    "bounds": ("evaluate", "r0_upper_estimate", "beta_estimate", "bound_report_csv"),
    "verify": ("check_descent_bcpg", "check_costtogo_bcpg", "check_descent_bcd",
               "check_costtogo_bcd", "check_descent_cgd", "check_envelope",
               "run_tightness_case", "check_truncation_constant"),
    "battery": ("get_instance",),
    "cli": ("cmd_verify", "cmd_run", "cmd_bounds"),
}
# module -> (class, methods) recorded as spans named <module>.<method>
SPANNED_METHODS = {"rng": ("SplitMix64", ("permutation", "normal_matrix"))}
# called too often to span; counted only
COUNTED = {"problems": ("prox",)}

# the package modules a traced run wraps
MODULES = ("battery", "cli", "problems", "solvers", "bounds", "verify", "linalg", "rng")
RUN_FUNCTIONS = {"bcpg": "run_bcpg", "exact_bcd": "run_bcd_exact",
                 "cgd": "run_cgd", "gd": "run_gd"}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn, on_result=None, on_error=None):
        """Wrap ``fn`` so each call records a span.  ``on_result(result)``
        sees every return value, ``on_error(exc, kwargs)`` every raise."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, kwargs)
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def rebind(modules, original, replacement) -> None:
    """Point every module attribute that is ``original`` at ``replacement``."""
    for module in modules:
        names = [attr for attr, value in vars(module).items() if value is original]
        for attr in names:
            setattr(module, attr, replacement)


def install(tracer: Tracer, package) -> None:
    """Wrap the traced functions of ``package`` (the imported blockcd)."""
    mods = {name: getattr(package, name) for name in MODULES}
    everywhere = [package, *mods.values()]
    counts = tracer.counts
    linalg = mods["linalg"]

    def power_iterations(result):
        counts["linalg.power_iterations"] += result.iterations

    def capped_iterations(exc, kwargs):
        if isinstance(exc, linalg.ConvergenceError):
            counts["linalg.power_iterations"] += kwargs.get(
                "max_iterations", linalg.MAX_POWER_ITERATIONS)

    def block_updates(trajectory):
        counts[f"solvers.block_updates.{trajectory.algorithm}"] += sum(
            len(order) for order in trajectory.orders)

    hooks = {"linalg.spectral_norm": (power_iterations, capped_iterations)}
    for function in RUN_FUNCTIONS.values():
        hooks[f"solvers.{function}"] = (block_updates, None)

    for module_name, functions in SPANNED.items():
        for function in functions:
            name = f"{module_name}.{function}"
            original = getattr(mods[module_name], function)
            on_result, on_error = hooks.get(name, (None, None))
            rebind(everywhere, original,
                   tracer.spanned(name, original, on_result, on_error))
    for module_name, (cls_name, methods) in SPANNED_METHODS.items():
        cls = getattr(mods[module_name], cls_name)
        for method in methods:
            original = vars(cls)[method]
            setattr(cls, method,
                    tracer.spanned(f"{module_name}.{method}", original))
    for module_name, functions in COUNTED.items():
        for function in functions:
            original = getattr(mods[module_name], function)
            rebind(everywhere, original,
                   tracer.counted(f"{module_name}.{function}.calls", original))


def layer_stats(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds) over a span list."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, tuple[int, float, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        duration = end - start
        stats[name] = (calls + 1, total + duration, own + duration - child_time[index])
    return stats


def covered_seconds(spans) -> float:
    """Time inside top-level spans; they never overlap in one thread."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metric values named <module>.<function>.<stat>."""
    stats = layer_stats(tracer.spans)
    metrics: dict[str, float] = {"linalg.power_iterations": 0}
    for module_name, functions in COUNTED.items():
        metrics.update({f"{module_name}.{f}.calls": 0 for f in functions})
    for module_name, functions in SPANNED.items():
        for function in functions:
            metrics[f"{module_name}.{function}.calls"] = 0
            metrics[f"{module_name}.{function}.self_s"] = 0.0
    for module_name, (_, methods) in SPANNED_METHODS.items():
        for method in methods:
            metrics[f"{module_name}.{method}.calls"] = 0
            metrics[f"{module_name}.{method}.self_s"] = 0.0
    metrics.update(tracer.counts)
    for name, (calls, _, own) in stats.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = own
    for algorithm, function in RUN_FUNCTIONS.items():
        updates = tracer.counts.get(f"solvers.block_updates.{algorithm}", 0)
        total = stats.get(f"solvers.{function}", (0, 0.0, 0.0))[1]
        metrics[f"solvers.block_updates.{algorithm}"] = updates
        metrics[f"solvers.us_per_block_update.{algorithm}"] = (
            1e6 * total / updates if updates else 0.0)
    metrics["trace.coverage"] = covered_seconds(tracer.spans) / wall_s if wall_s > 0 else 0.0
    return metrics


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start!r},{end!r},{parent}\n")
