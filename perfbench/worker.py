"""One cold repetition of one workload: set up, run the operations, check them.

Reads a job as JSON on stdin and writes one JSON line to stdout.  run.py
starts a fresh interpreter for every repetition, so no module-level cache
of the library (such as the oracle's search tables) carries over from one
repetition to the next.

Set-up time runs from the moment the parent started this process to the
first operation: interpreter start, ``import vkpush``, bundle load and
validation, and certification for the push workloads.  Wall time is the sum
of the operations' times.  Each operation is checked right after it, outside
the timed region and untraced, and its output is then dropped, so memory
does not grow with the number of operations done.

When the job asks for it, the speed probe (speed.py) runs from the start
of the worker to the end of its last operation, and every time is reported
both raw and rescaled to the probe's reference speed.  Without the probe
the two are equal.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys

import speed

import checks
import spans
import workloads


def _peak_rss_mb() -> float:
    # VmHWM belongs to this program's address space alone; ru_maxrss also
    # keeps the parent's size from before the exec
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(name, out, err, span, env) -> dict:
    rec = {"name": name, "span": span}
    if err is not None:
        rec["failed"] = [err]
    elif "trace" in out:
        rec["failed"] = checks.check_push(out, env["k"], env["q"])
        rec["digest"] = checks.push_digest(out)
        rec["steps"] = len(out["trace"].steps)
        rec["sweeps"] = out["trace"].sweeps
        rec["push_span"] = out["push_span"]
    else:
        rec["failed"] = checks.check_oracle(name, out, workloads.FIXTURES)
        rec["digest"] = checks.oracle_digest(name, out)
    return rec


def _seconds(sampler, span) -> dict:
    """The interval's length, raw and, when the probe ran, rescaled."""
    raw = span[1] - span[0]
    return {"raw": raw, "scaled": sampler.scaled(*span) if sampler else raw}


def main() -> int:
    job = json.load(sys.stdin)
    sampler = None
    if job["probe"] is not None:
        # the parent's sample just before the spawn covers interpreter start
        sampler = speed.Sampler([job["probe"]])
        sampler.start()
    if "VKPUSH_THREADS" in os.environ:
        raise SystemExit("VKPUSH_THREADS must be unset: bench would start a thread pool")
    import vkpush  # noqa: F401  (the import is part of set-up)

    tracer = None
    missing = []
    if job["trace"]:
        tracer = spans.Tracer()
        missing = tracer.install()
        tracer.enabled = True
    workload = job["workload"]
    env = workloads.setup(workload)
    setup_span = (job["spawn_s"], speed.clock())
    if job["setup_only"]:
        if sampler is not None:
            sampler.stop()
        print(json.dumps({"setup_s": _seconds(sampler, setup_span)}))
        return 0

    ops = []
    for i, (name, run) in enumerate(workloads.operations(workload, env, job["inputs"])):
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        t0 = speed.clock()
        try:
            out, err = run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        span = (t0, speed.clock())
        if tracer is not None:
            tracer.enabled = False
        # checked at once, outside the timed region, so no output outlives its operation
        ops.append(_check(name, out, err, span, env))
        del out
    if sampler is not None:
        sampler.stop()
    rss_mb = _peak_rss_mb()

    for rec in ops:
        rec["s"] = _seconds(sampler, rec.pop("span"))
        if "push_span" in rec:
            rec["push_s"] = _seconds(sampler, rec.pop("push_span"))
    result = {
        "setup_s": _seconds(sampler, setup_span),
        "wall_s": {key: sum(rec["s"][key] for rec in ops) for key in ("raw", "scaled")},
        "rss_mb": rss_mb,
        "ops": ops,
    }
    if sampler is not None:
        result["probe"] = {
            "samples": len(sampler.samples),
            "kernel_ms_median": 1e3 * statistics.median(d for _, d in sampler.samples),
        }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["missing"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
