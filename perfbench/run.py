"""Layered benchmark of vkpush: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload heis_bench --seed 6 --seconds 20 --trace 0

Run from the repository root.  The inputs are made from --seed in this
process; every repetition then runs in a fresh interpreter (worker.py).
With --trace 0 the run measures set-up several times, then repeats the
workload untraced (at least MIN_REPS times, and more while --seconds
allow), and reports the end-to-end metrics as medians.  Its times are
rescaled to the speed probe's reference speed (speed.py); the detail line
also gives them raw.  With --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus the
tracing overhead, all in raw times.  Detail lines come first; the last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, builds aside
SETUP_SAMPLES = 5
MIN_REPS = 1  # untraced; a heis_bench repetition alone takes 30 s or more
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    **{name: "s" for name in (
        "presentation.load_s", "scheme.load_s", "scheme.certify_s", "scheme.choose_entry_s",
        "scheme.gap_s", "oracle.sample_s", "oracle.fill_s", "oracle.collar_s",
        "oracle.brute_area_s", "oracle.search_filling_s", "oracle.build_entry_s",
        "diagram.build_s", "diagram.builder_build_s", "diagram.splice_s", "diagram.star_s",
        "diagram.select_s", "diagram.metrics_s", "pusher.run_self_s", "pusher.step_s",
        "trace.wall_s", "trace.overhead_s",
    )},
    **{name: "count" for name in (
        "scheme.choose_entry_calls", "scheme.gap_calls", "oracle.collar_calls",
        "diagram.build_calls", "diagram.build_darts", "diagram.splice_calls",
        "diagram.metrics_calls", "diagram.corner_builds", "pusher.steps", "pusher.sweeps",
        "pusher.step_tail_count",
    )},
    "diagram.darts_built_per_step": "darts/step",
    "pusher.area_growth": "ratio",
    "pusher.step_p50_ms": "ms",
    "pusher.step_tail_ms": "ms",
    "pusher.step_tail_pct": "%",
    "pusher.step_ms_per_1k_area": "ms/1k-area",
}
UNITS = {**END_TO_END_UNITS, **LAYER_UNITS}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("VKPUSH_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(job: dict, timeout: float) -> dict:
    # a probed worker starts the speed probe at once; this sample covers its start-up
    probe = speed.sample() if job["probe"] else None
    job = dict(job, probe=probe, spawn_s=speed.clock())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=ROOT,
        timeout=max(1.0, timeout),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy

    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        commit = rev or "unknown"
    else:
        commit = "none (not a git checkout)"
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "vkpush_threads": "unset in every worker",
    }


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        idx = max(0, math.ceil(pct / 100.0 * n) - 1)
        if n - idx - 1 >= TAIL_MIN_BEYOND:
            return xs[idx], pct, n - idx - 1
    return 0.0, 0.0, 0


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of step milliseconds against thousands of area."""
    if len({a for _, a in points}) < 2:
        return 0.0
    xs = [a / 1000.0 for _, a in points]
    ys = [ms for ms, _ in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _push_totals(rep: dict) -> dict:
    pushed = [op for op in rep["ops"] if "steps" in op]
    return {
        "steps": sum(op["steps"] for op in pushed),
        "sweeps": sum(op["sweeps"] for op in pushed),
        "push_s": sum(op["push_s"]["scaled"] for op in pushed),
        "area0": sum(op["digest"][2] for op in pushed),
        "area1": sum(op["digest"][3] for op in pushed),
    }


def _ops_per_s(rep: dict) -> float:
    tot = _push_totals(rep)
    if tot["steps"]:
        return tot["steps"] / tot["push_s"]
    return len(rep["ops"]) / rep["wall_s"]["scaled"]


def _layer_metrics(rep: dict) -> dict:
    tr = rep["trace"]
    lay = tr["layers"]
    tot = _push_totals(rep)
    step_ms = [ms for ms, _ in tr["steps"]]
    tail_ms, tail_pct, tail_count = _tail(step_ms)

    def self_s(name):
        return lay[name]["self_s"]

    def calls(name):
        return lay[name]["calls"]

    return {
        "presentation.load_s": self_s("presentation.load"),
        "scheme.load_s": self_s("scheme.load"),
        "scheme.certify_s": self_s("scheme.certify"),
        "scheme.choose_entry_calls": calls("scheme.choose_entry"),
        "scheme.choose_entry_s": self_s("scheme.choose_entry"),
        "scheme.gap_calls": calls("scheme.gap"),
        "scheme.gap_s": self_s("scheme.gap"),
        "oracle.sample_s": self_s("oracle.sample"),
        "oracle.fill_s": self_s("oracle.fill"),
        "oracle.collar_calls": calls("oracle.collar"),
        "oracle.collar_s": self_s("oracle.collar"),
        "oracle.brute_area_s": self_s("oracle.brute_area"),
        "oracle.search_filling_s": self_s("oracle.search_filling"),
        "oracle.build_entry_s": self_s("oracle.build_entry"),
        "diagram.build_calls": calls("diagram.build"),
        "diagram.build_s": self_s("diagram.build"),
        "diagram.build_darts": lay["diagram.build"]["extra"],
        "diagram.builder_build_s": self_s("diagram.builder_build"),
        "diagram.splice_calls": calls("diagram.splice"),
        "diagram.splice_s": self_s("diagram.splice"),
        "diagram.star_s": self_s("diagram.star"),
        "diagram.select_s": self_s("diagram.select"),
        "diagram.metrics_calls": calls("diagram.metrics"),
        "diagram.metrics_s": self_s("diagram.metrics"),
        "diagram.corner_builds": calls("diagram.corner"),
        "diagram.darts_built_per_step": tr["push_darts"] / tot["steps"] if tot["steps"] else 0.0,
        "pusher.steps": tot["steps"],
        "pusher.sweeps": tot["sweeps"],
        "pusher.area_growth": tot["area1"] / tot["area0"] if tot["area0"] else 0.0,
        "pusher.run_self_s": self_s("pusher.run"),
        "pusher.step_s": self_s("pusher.step"),
        "pusher.step_p50_ms": statistics.median(step_ms) if step_ms else 0.0,
        "pusher.step_tail_ms": tail_ms,
        "pusher.step_tail_pct": tail_pct,
        "pusher.step_tail_count": tail_count,
        "pusher.step_ms_per_1k_area": _slope(tr["steps"]),
        "trace.wall_s": rep["wall_s"]["raw"],
    }


def _digest(rep: dict) -> str:
    return hashlib.sha256(
        json.dumps([[op["name"], op.get("digest")] for op in rep["ops"]]).encode()
    ).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    begun = time.monotonic()
    if not (SRC / "vkpush" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no vkpush sources under {SRC} or no fixtures next to them", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    job = {
        "workload": args.workload,
        "inputs": inputs,
        "trace": False,
        "setup_only": True,
        "probe": not args.trace,  # --trace 1 reports raw times only
    }

    def left():
        return RUN_LIMIT_S - (time.monotonic() - begun)

    _spawn(job, left())  # warm-up: byte-compiles the sources, not measured
    setups = []
    if not args.trace:
        setups = [_spawn(job, left())["setup_s"]["scaled"] for _ in range(SETUP_SAMPLES)]

    reps, traced = [], []
    measuring = time.monotonic()
    longest = 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(reps)
        t0 = time.monotonic()
        rep = _spawn(dict(job, setup_only=False, trace=want_trace), left())
        longest = max(longest, time.monotonic() - t0)
        (traced if want_trace else reps).append(rep)
        enough = bool(reps and traced) if args.trace else len(reps) >= MIN_REPS
        spent = time.monotonic() - measuring
        if enough and spent + longest > args.seconds:
            break
        if left() < longest * 1.5:
            break

    everything = reps + traced
    attempted = sum(len(rep["ops"]) for rep in everything)
    failures = [
        (op["name"], op["failed"]) for rep in everything for op in rep["ops"] if op["failed"]
    ]
    digests = sorted({_digest(rep) for rep in everything})
    recorded_file = HERE / "digests.json"
    recorded = None
    if recorded_file.is_file():
        recorded = json.loads(recorded_file.read_text()).get(args.workload, {}).get(str(args.seed))
    problems = [f"{name}: {'; '.join(why)}" for name, why in failures[:10]]
    if len(digests) != 1:
        problems.append(f"repetitions disagree: digests {digests}")
    if recorded is not None and digests != [recorded]:
        problems.append(f"digest {digests} differs from the one recorded for seed {args.seed}")

    if args.trace:
        per_layer = [_layer_metrics(rep) for rep in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            rep["wall_s"]["raw"] for rep in reps
        )
    else:
        metrics = {
            "setup_s": statistics.median(setups + [rep["setup_s"]["scaled"] for rep in reps]),
            "wall_s": statistics.median(rep["wall_s"]["scaled"] for rep in reps),
            "ops_per_s": statistics.median(_ops_per_s(rep) for rep in reps),
            "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": _machine(),
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "wall_s": [rep["wall_s"]["scaled"] for rep in reps],
        "wall_s_raw": [rep["wall_s"]["raw"] for rep in reps],
        "setup_s": setups + [rep["setup_s"]["scaled"] for rep in reps],
        "probe_kernel_ms": [rep["probe"]["kernel_ms_median"] for rep in reps if "probe" in rep],
        "push": _push_totals(reps[0]),
        "op_s": {op["name"]: round(op["s"]["scaled"], 4) for op in reps[0]["ops"]},
        "digest": digests[0] if len(digests) == 1 else digests,
        "recorded_digest": recorded,
        "missing_targets": traced[0]["missing"] if traced else [],
        "problems": problems,
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
