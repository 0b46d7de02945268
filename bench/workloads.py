"""Workload inputs, generated from the workload seed alone.

Nothing here imports blockcd: the inputs come from the standard library's
`random`, so a change to the package's own generator cannot change what
the benchmark feeds it.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_all", "orders_rerun", "plan_scale")

# plan_scale sizes.  Plan (d) is the scale tier named in the roadmap; its
# beta estimate hits the power-iteration cap, and it stays at K=300 so the
# defect shows in failed operations.
LASSO_BLOCKS = 100
LASSO_ROWS = 200
LASSO_WEIGHT = 0.5
EXPLICIT_BLOCKS = 12
EXPLICIT_SIZE = 4
EXPLICIT_ROWS = 60
TOEPLITZ_SIZES = (200, 300)
TOEPLITZ_CYCLES = 60
# Accuracy every plan_scale run is driven to (or stopped by its cycle cap).
GAP_TOLERANCE = 1e-8
TOEPLITZ_GAP_TOLERANCE = 1e-6
BOUNDS_RMAX = 200


def order_seed(seed: int) -> int:
    """The orders_rerun permutation seed derived from the workload seed."""
    return random.Random(f"orders_rerun/{seed}").getrandbits(63)


def _explicit_problem(gen: random.Random) -> dict:
    """Gaussian blocks of width EXPLICIT_SIZE; even blocks carry a group-l2
    penalty and odd blocks a box, so exact_bcd takes its inner prox loop."""
    a_blocks = [[[gen.gauss(0.0, 1.0) for _ in range(EXPLICIT_SIZE)]
                 for _ in range(EXPLICIT_ROWS)] for _ in range(EXPLICIT_BLOCKS)]
    b = [gen.gauss(0.0, 1.0) for _ in range(EXPLICIT_ROWS)]
    h = [{"kind": "group_l2", "weight": 0.5} if k % 2 == 0
         else {"kind": "box", "lo": -0.5, "hi": 0.5}
         for k in range(EXPLICIT_BLOCKS)]
    return {"kind": "explicit", "block_count": EXPLICIT_BLOCKS,
            "block_size": EXPLICIT_SIZE, "a_blocks": a_blocks, "b": b, "h": h}


def _block_runs(max_cycles: int) -> list[dict]:
    return [
        {"label": "bcpg", "algorithm": "bcpg", "max_cycles": max_cycles,
         "gap_tolerance": GAP_TOLERANCE},
        {"label": "bcd", "algorithm": "exact_bcd", "max_cycles": max_cycles,
         "gap_tolerance": GAP_TOLERANCE},
    ]


def _toeplitz_runs(perm_seed: int) -> list[dict]:
    common = {"max_cycles": TOEPLITZ_CYCLES, "gap_tolerance": TOEPLITZ_GAP_TOLERANCE}
    return [
        {"label": "bcd", "algorithm": "exact_bcd", **common},
        {"label": "cgd", "algorithm": "cgd", **common},
        {"label": "cgd_perm", "algorithm": "cgd", **common,
         "order": {"kind": "random_permutation", "seed": perm_seed}},
        {"label": "gd", "algorithm": "gd", **common},
    ]


def scale_plans(seed: int) -> list[dict]:
    """The four plan_scale plans: name, problem spec and plan body.

    The plan body has no "problem" entry; the caller writes the problem
    to a file and points the plan at it.
    """
    gen = random.Random(f"plan_scale/{seed}")
    lasso_seed = gen.getrandbits(31)
    plan_seed = gen.getrandbits(31)
    explicit = _explicit_problem(gen)
    perm_seeds = [gen.getrandbits(31) for _ in TOEPLITZ_SIZES]

    plans = [
        {"name": "a_lasso",
         "problem": {"kind": "lasso", "rows": LASSO_ROWS, "block_count": LASSO_BLOCKS,
                     "weight": LASSO_WEIGHT, "seed": lasso_seed},
         "plan": {"seed": plan_seed, "runs": _block_runs(1000),
                  "bounds": [{"kind": "thm1_blockwise", "against": "bcpg"},
                             {"kind": "thm2_scalar", "against": "bcd"}]}},
        {"name": "b_explicit",
         "problem": explicit,
         "plan": {"seed": plan_seed, "runs": _block_runs(1000),
                  "bounds": [{"kind": "thm1_blockwise", "against": "bcpg"},
                             {"kind": "thm2_case1", "against": "bcd"}]}},
    ]
    for k, perm_seed in zip(TOEPLITZ_SIZES, perm_seeds):
        plans.append(
            {"name": f"toeplitz_K{k}",
             "problem": {"kind": "toeplitz", "block_count": k},
             "plan": {"seed": plan_seed, "runs": _toeplitz_runs(perm_seed),
                      "bounds": [{"kind": "thm2_scalar", "against": "bcd"},
                                 {"kind": "thm3", "against": "cgd"},
                                 {"kind": "gd", "against": "gd"}]}})
    return plans
