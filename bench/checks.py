"""Correctness checks applied to the outputs of every benchmark repetition.

An operation is one check verdict (verify workloads) or one CLI command
(plan_scale).  It fails when it raises, when its output is wrong, or when
a rerun with the same seed does not reproduce its output byte for byte.
Failures are kept as ``(kind, detail)`` with kind "raised" or "wrong".
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

# verify --suite all: 244 checks, of which exactly these asserted checks
# fail by design (the published one-pass objective is 8/9 too high).
VERIFY_ALL_CHECKS = 244
VERIFY_ALL_EXPECTED_FAILURES = frozenset(
    f"tightness_objective_K{k}" for k in (5, 10, 25, 50))
# suite_lemmas + suite_envelopes with a random permutation order
ORDERS_RERUN_CHECKS = 227

TRAJECTORY_HEADER = "cycle,f,gap,weighted_movement,grad_norm"
GAP_FLOOR_RTOL = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``root``."""
    root = Path(root)
    if not root.is_dir():
        return {}
    return {p.relative_to(root).as_posix(): digest(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def parse_report_csv(text: str) -> list[dict]:
    """Rows of a verify report CSV with booleans decoded and a digest of
    every field, for the rerun comparison."""
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        rows.append({"name": record["check_name"],
                     "passed": record["passed"] == "True",
                     "advisory": record["advisory"] == "True",
                     "digest": digest(repr(list(record.values())).encode())})
    return rows


def verdict_failures(rows, expected_failures=frozenset(),
                     expected_count: int | None = None) -> dict[str, tuple[str, str]]:
    """Check name -> failure for every report whose status differs from the
    expected verdict: asserted checks pass, except ``expected_failures``,
    which must be asserted and fail.  Advisory checks never gate."""
    failures = {}
    seen = set()
    for row in rows:
        name = row["name"]
        if name in seen:
            failures[name] = ("wrong", "duplicate check name")
            continue
        seen.add(name)
        if name in expected_failures:
            if row["advisory"] or row["passed"]:
                failures[name] = ("wrong", "expected an asserted failure")
        elif not row["advisory"] and not row["passed"]:
            failures[name] = ("wrong", "asserted check failed")
    for name in sorted(expected_failures - seen):
        failures[name] = ("wrong", "expected check missing")
    if expected_count is not None and len(rows) != expected_count:
        failures["<check count>"] = (
            "wrong", f"{len(rows)} checks, expected {expected_count}")
    return failures


def trajectory_failures(text: str) -> list[str]:
    """Problems with one trajectory CSV: header, objective increasing from
    one cycle to the next, or a gap below -1e-9 max(1, |f*|)."""
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        return ["header differs from " + TRAJECTORY_HEADER]
    problems = []
    previous = None
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != 5 or cells[0] != str(number - 1):
            return problems + [f"row {number} malformed"]
        try:
            f, gap = float(cells[1]), float(cells[2])
        except ValueError:
            return problems + [f"row {number}: f or gap missing"]
        if not (math.isfinite(f) and math.isfinite(gap)):
            problems.append(f"row {number}: non-finite f or gap")
        if previous is not None and f > previous:
            problems.append(f"cycle {number - 1}: f increased by {f - previous:.3e}")
        f_star = f - gap
        if gap < -GAP_FLOOR_RTOL * max(1.0, abs(f_star)):
            problems.append(f"cycle {number - 1}: gap {gap:.3e} below the floor")
        previous = f
    if len(lines) < 2:
        problems.append("no rows")
    return problems
