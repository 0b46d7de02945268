"""The verdicts' power: which check kinds see which kernel faults.

Each mutant replaces one sweep kernel of ``blockcd.solvers`` with a
faulty one.  The lemma and envelope suites then run under the cyclic order
and under random permutations.  A mutant of the scalar kernel routes
``battery.run_lockstep`` through the per-run runners, so that the lasso
family meets it too.  For each mutant the test asserts that the check kinds with an
asserted failure include a recorded set, so a change that makes the
checks see less fails here.  A mutant recorded with the empty set is a
known blind spot: no verdict reads the order the blocks were swept in, so
sweeping in the reverse of the recorded order passes every check.
"""

import pytest

from blockcd import battery, solvers
from blockcd.problems import prox_scalar

ORDERS = (("cyclic", 0), ("random_permutation", 206))
SCALAR = solvers._scalar_sweep
BLOCK = solvers._block_sweep
GRADIENT = solvers._gradient_sweep


def scalar_reversed(table, gram, rows, x, g, order):
    return SCALAR(table, gram, rows, x, g, list(order)[::-1])


def scalar_skip_last(table, gram, rows, x, g, order):
    return SCALAR(table, gram, rows, x, g, list(order)[:-1])


def scalar_jacobi(table, gram, rows, x, g, order):
    # no Gram row has a nonzero to add: every visit reads g at the start
    return SCALAR(table, gram, [()] * len(table), x, g, order)


def scalar_half_divisor(table, gram, rows, x, g, order):
    halved = [entry if entry[0] is None else (entry[0] / 2.0, *entry[1:]) for entry in table]
    return SCALAR(halved, gram, rows, x, g, order)


def scalar_over_relaxed(table, gram, rows, x, g, order):
    """Each visit moves 1.5 times its step, keeping g current."""
    wrote = False
    for k in order:
        divisor, step, term = table[k]
        old = float(x[k])
        new = 0.0 if divisor is None else old - float(g[k]) / divisor
        if term is not None:
            new = prox_scalar(term, new, step)
        delta = 1.5 * (new - old)
        if delta != 0.0:
            x[k] = old + delta
            g += delta * gram[k]
            wrote = True
    return wrote


def block_skip_last(visits, exact, x, res, order):
    return BLOCK(visits, exact, x, res, list(order)[:-1])


def block_jacobi(visits, exact, x, res, order):
    # the sweep rebinds its residual, so each visit reads the one at the start
    return any([BLOCK(visits, exact, x, res, [k]) for k in order])


def gradient_double_step(g, x, lipschitz, order):
    return GRADIENT(g, x, lipschitz / 2.0, order)


# mutant -> (kernel it replaces, the replacement, check kinds with an
# asserted failure under the cyclic order, and under random permutations)
MUTANTS = {
    "scalar_reversed": ("_scalar_sweep", scalar_reversed, set(), set()),
    "scalar_skip_last": (
        "_scalar_sweep", scalar_skip_last,
        {"costtogo_bcd", "costtogo_bcpg", "descent_cgd_beta", "descent_cgd_exact_v"},
        {"descent_cgd_exact_v"}),
    "scalar_jacobi": ("_scalar_sweep", scalar_jacobi, *[{
        "costtogo_bcd", "costtogo_bcpg", "descent_bcd", "descent_bcpg", "descent_cgd_beta",
        "descent_cgd_exact_v", "envelope_thm1_blockwise", "envelope_thm1_smooth",
        "envelope_thm2_scalar"}] * 2),
    "scalar_half_divisor": ("_scalar_sweep", scalar_half_divisor, *[{
        "costtogo_bcpg", "descent_bcd", "descent_bcpg", "descent_cgd_beta",
        "descent_cgd_exact_v", "envelope_coro1", "envelope_thm3"}] * 2),
    "scalar_over_relaxed": ("_scalar_sweep", scalar_over_relaxed,
                            *[{"descent_bcd", "descent_bcpg", "descent_cgd_exact_v"}] * 2),
    "block_skip_last": ("_block_sweep", block_skip_last,
                        {"costtogo_bcd", "costtogo_bcpg"}, set()),
    "block_jacobi": ("_block_sweep", block_jacobi, *[{
        "costtogo_bcd", "costtogo_bcpg", "descent_bcd", "descent_bcpg",
        "envelope_thm2_case1"}] * 2),
    "gradient_double_step": ("_gradient_sweep", gradient_double_step, *[{"envelope_gd"}] * 2),
}


def per_run_lockstep(problems, runs, x0s, constants, f_stars):
    """run_lockstep's trajectories from the per-run runners."""
    runners = {"bcpg": solvers.run_bcpg, "exact_bcd": solvers.run_bcd_exact}
    return [runners[run.algorithm](p, run, x0, c, f_star)
            for p, run, x0, c, f_star in zip(problems, runs, x0s, constants, f_stars)]


def check_kind(name: str) -> str:
    """A check's kind: its name before the label, with the form of a
    descent_cgd check."""
    prefix, _, label = name.partition(":")
    if prefix == "descent_cgd":
        form = next(form for form in ("beta", "exact_v", "hbound") if label.endswith(form))
        return f"{prefix}_{form}"
    return prefix


def clear_runs():
    battery.get_trajectory.cache_clear()
    battery._lasso_family.cache_clear()


@pytest.fixture
def isolated_runs():
    """No trajectory run before the test is read by it, and none it runs
    is read after it."""
    clear_runs()
    yield
    clear_runs()


def asserted_failures(order_kind: str, order_seed: int) -> set[str]:
    reports = (battery.suite_lemmas(order_kind, order_seed)
               + battery.suite_envelopes(order_kind, order_seed))
    return {check_kind(r.check_name) for r in reports if not r.passed and not r.advisory}


@pytest.mark.parametrize("order", [0, 1], ids=[kind for kind, _ in ORDERS])
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_seen(monkeypatch, isolated_runs, mutant, order):
    kernel, replacement, *recorded = MUTANTS[mutant]
    monkeypatch.setattr(solvers, kernel, replacement)
    if kernel == "_scalar_sweep":
        # the lasso family runs in lockstep, which only a scalar mutant would change
        monkeypatch.setattr(battery, "run_lockstep", per_run_lockstep)
    assert recorded[order] <= asserted_failures(*ORDERS[order])
