"""blockcd benchmark: one workload, one run, one JSON result line.

    python3 bench/run_bench.py --workload verify_all|orders_rerun|plan_scale \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src``.  Repetitions of the workload run one at a time (a closed loop with
one caller), each in a fresh Python process with BLAS pinned to one
thread, until the next one would end after ``--seconds`` (at least two
run).  Every repetition uses the same seed, so its outputs must match the
first repetition's byte for byte.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus the
tracing overhead (traced minus untraced ``wall_s``) and the share of
traced wall time the spans cover.  Each traced repetition's spans are kept
in ``.bench_work/spans``; everything else the run writes is removed.

The last line of standard output is the result object; the lines before
it give each metric with its unit, every failed operation and the
environment.  ``failed`` counts operations that raised or produced a wrong
output; ``correct`` is false when any output was wrong.  Exits with code 2,
printing no result, when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
BLAS_THREADS = 1
MIN_REPETITIONS = 2
# A run ends well inside the 180 s it is allowed.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure the workload."""


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and p.suffix in (".py", ".json")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> tuple[str, str]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(blas.get("name")), str(blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        return "unknown", "unknown"


def environment(root: Path) -> dict:
    import numpy

    blas_name, blas_version = _blas()
    return {"git_sha": _git_sha(root), "source_sha256": _source_sha256(root),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_version": blas_version,
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0]}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_repetition(root: Path, workload: str, seed: int, work: Path,
                   spans: Path | None, timeout: float) -> dict:
    """Run one repetition in a fresh process and return its result; it is
    traced when ``spans`` names a file for its spans."""
    work.mkdir(parents=True)
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), "--work", str(work)]
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    start = perf_counter()
    try:
        proc = subprocess.run(command, cwd=root, env=_child_env(root),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {exc.timeout:.0f} s") from exc
    duration = perf_counter() - start
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise BenchError(f"{workload} repetition exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["duration_s"] = duration
    return result


def run_repetitions(root: Path, workload: str, seed: int, seconds: float,
                    trace: bool, work: Path) -> list[dict]:
    """Repeat until the next repetition would end after ``seconds``."""
    start = perf_counter()
    reps = []
    while True:
        index = len(reps)
        spans = None
        if trace and index % 2 == 1:
            spans = root / ".bench_work" / "spans" / f"{workload}-seed{seed}-rep{index}.csv"
        elapsed = perf_counter() - start
        reps.append(run_repetition(root, workload, seed, work / f"rep{index}",
                                   spans, RUN_LIMIT_S - elapsed))
        elapsed = perf_counter() - start
        longest = max(rep["duration_s"] for rep in reps)
        if elapsed + longest > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPETITIONS and elapsed + longest > seconds:
            break
    return reps


def judge(reps: list[dict]) -> list[list[dict]]:
    """Per repetition, its operations with the rerun check applied: an
    operation whose output differs from the first repetition's is wrong."""
    first = {op["name"]: op for op in reps[0]["ops"]}
    judged = []
    for index, rep in enumerate(reps):
        ops = []
        for op in rep["ops"]:
            failure = op["failure"]
            reference = first.get(op["name"])
            if (failure is None and index > 0 and reference is not None
                    and reference["failure"] is None
                    and op["outputs"] != reference["outputs"]):
                failure = ["wrong", "output differs from the first repetition"]
            ops.append({"name": op["name"], "failure": failure})
        judged.append(ops)
    return judged


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, float]:
    return {"wall_s": _median([r["wall_s"] for r in reps]),
            "setup_s": _median([r["setup_s"] for r in reps]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
            "ok_frac": 1.0 - failed / attempted}


def per_layer(reps: list[dict], names, attempted: int, failed: int) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    traced_wall = _median([r["wall_s"] for r in traced])
    values = {"trace.wall_s": traced_wall,
              "trace.overhead_s": traced_wall - _median(
                  [r["wall_s"] for r in reps if not r["traced"]]),
              "failed_frac": failed / attempted}
    for name in names:
        if name not in values:
            values[name] = _median([r["layers"][name] for r in traced])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so the running repetition is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "blockcd" / "__init__.py").is_file():
        print(f"error: no blockcd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    env = environment(ROOT)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        reps = run_repetitions(ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    judged = judge(reps)
    all_ops = [op for ops in judged for op in ops]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if op["failure"] is not None)
    correct = not any(op["failure"] and op["failure"][0] == "wrong" for op in all_ops)
    if args.trace:
        values = per_layer(reps, units, attempted, failed)
    else:
        values = end_to_end(reps, attempted, failed)

    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{attempted} operations, {failed} failed")
    for rep in reps:
        print(f"  {'traced' if rep['traced'] else 'untraced'} repetition: "
              f"wall_s={rep['wall_s']:.4f} setup_s={rep['setup_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f}")
    for name in units:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    failures = Counter((op["name"], tuple(op["failure"])) for op in all_ops if op["failure"])
    for (name, (kind, detail)), count in sorted(failures.items()):
        print(f"  failed {name}: {kind} {detail.splitlines()[0][:160]} (x{count})")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
