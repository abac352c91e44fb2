"""One workload in one single-threaded process; ``run.py`` starts it.

Protocol on standard output: ``READY`` once imports and inputs are ready
(the parent times set-up from its spawn to this line), then one
``RESULT <json>`` line.  riskcdf's own prints are discarded.

The workload is a closed loop with one caller: job k+1 starts when job k
returns.  A run makes a number of whole cycles fixed by ``--seconds``
alone, so two runs with one seed attempt, and fail, the same ops.  Only the
calls into riskcdf are timed; speed probes (calibrate.py) run between jobs
and output checks after each loop, with tracing off.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import riskcdf  # noqa: E402
from sweep import run_sweep  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

MAX_MESSAGES = 20


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def cycles(wl, seconds: float) -> int:
    """Whole cycles a run of ``seconds`` makes: a count fixed by ``seconds``
    alone, so runs with the same seed attempt, and fail, the same ops."""
    return max(1, round(seconds / wl.cycle_s))


def run_loop(wl, jobs: int, first_job: int, tracer: Tracer | None = None) -> dict:
    """Run ``jobs`` jobs in turn, from job ``first_job`` on.

    It also probes the machine's speed (calibrate.py) before each cycle,
    between jobs every PROBE_INTERVAL_S, and at the end; ``probes`` holds
    (the job the probe ran before, its kernel times).
    """
    times, outputs, raised, errors, probes = [], [], [], Counter(), []
    ops = 0
    next_probe = 0.0
    for k in range(first_job, first_job + jobs):
        if (k - first_job) % wl.cycle == 0 or time.perf_counter() >= next_probe:
            probes.append((k, calibrate.probe(wl.probe)))
            next_probe = time.perf_counter() + calibrate.PROBE_INTERVAL_S
        if tracer is not None:
            tracer.op = k
        wl.prepare(k)
        t = time.perf_counter()
        try:
            out = wl.job(k)
        except Exception as exc:  # every raised exception is a failed job
            out = exc
        times.append(time.perf_counter() - t)
        ops += wl.ops(k)
        if isinstance(out, Exception):
            # Judged now, so no traceback (and the frames it holds) outlives the job.
            errors[type(out).__name__] += 1
            if not wl.known_failure(k, out):
                raised.append(f"job {k} raised {type(out).__name__}: {out}")
        else:
            outputs.append((k, out))
    probes.append((first_job + jobs, calibrate.probe(wl.probe)))
    return {"first_job": first_job, "times": times, "ops": ops, "errors": errors,
            "outputs": outputs, "raised": raised, "next_job": first_job + jobs,
            "probes": probes}


def check_outputs(wl, phase: dict) -> None:
    """Check a phase's outputs; records each job's failed ops in ``lost``.

    A job that raised has no output, so all its ops stay failed, and it fails
    the run unless the workload names the exception as a known defect.
    """
    first = phase["first_job"]
    lost = [wl.ops(k) for k in range(first, phase["next_job"])]
    phase["messages"] = phase.pop("raised")
    for k, out in phase.pop("outputs"):
        lost[k - first], msgs = wl.check(k, out)
        phase["messages"] += msgs
    phase["lost"] = lost


def per_cycle(phase: dict, wl, scaled: bool = True) -> list[tuple[int, list[float]]]:
    """(correct ops, job times) of each whole cycle of the phase.

    Each cycle holds the same mix of inputs, so statistics taken per cycle
    and then their median keep a burst of interference from other processes
    on the machine out of the figure.  Unless ``scaled`` is false, the times
    are in reference seconds: wall seconds times the speed from the probes
    run from the cycle's start to its end.
    """
    first, times, lost = phase["first_job"], phase["times"], phase["lost"]
    out = []
    for i in range(0, len(times) - wl.cycle + 1, wl.cycle):
        start, end = first + i, first + i + wl.cycle
        kernel_s = [t for k, ts in phase["probes"] if start <= k <= end for t in ts]
        speed = calibrate.speed(kernel_s, wl.probe) if scaled else 1.0
        out.append((sum(wl.ops(start + j) - lost[i + j] for j in range(wl.cycle)),
                    [t * speed for t in times[i:i + wl.cycle]]))
    return out


def ops_per_s(phase: dict, wl, scaled: bool = True) -> float:
    """Median over cycles of correct ops per second of job time."""
    return statistics.median(ops / sum(t) for ops, t in per_cycle(phase, wl, scaled))


def job_p50_s(phase: dict, wl, scaled: bool = True) -> float:
    """Median over cycles of the median job time within a cycle."""
    return statistics.median(statistics.median(t) for _, t in per_cycle(phase, wl, scaled))


def measure_end_to_end(wl, args) -> tuple[list[dict], dict, dict]:
    plain = run_loop(wl, wl.cycle * cycles(wl, args.seconds), 0)
    check_outputs(wl, plain)
    times = [t for _, ts in per_cycle(plain, wl) for t in ts]
    kernel_s = [t for _, ts in plain["probes"] for t in ts]
    values = {
        "ops_per_s": ops_per_s(plain, wl),
        "job_p50_s": job_p50_s(plain, wl),
        "fail_frac": sum(plain["lost"]) / plain["ops"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(times) >= 100:
        values["job_p90_s"] = statistics.quantiles(times, n=10)[8]
    counts = {"jobs": len(times), "ops": plain["ops"], "busy_s": sum(plain["times"]),
              "cycles": len(times) // wl.cycle, "job_times_s": plain["times"],
              "speed": calibrate.speed(kernel_s, wl.probe),
              "probe": wl.probe,
              "probes": len(kernel_s),
              "wall_ops_per_s": ops_per_s(plain, wl, scaled=False),
              "wall_job_p50_s": job_p50_s(plain, wl, scaled=False)}
    return [plain], values, counts


def measure_layers(wl, args) -> tuple[list[dict], dict, dict]:
    """Half the time untraced, half traced; then peak allocations and the sweep."""
    half = wl.cycle * cycles(wl, args.seconds / 2)
    plain = run_loop(wl, half, 0)
    check_outputs(wl, plain)
    tracer = Tracer()
    tracer.install(wl.traced())
    try:
        traced = run_loop(wl, half, plain["next_job"], tracer)
    finally:
        tracer.uninstall()
    check_outputs(wl, traced)
    # Two more jobs under tracemalloc give peak allocations without slowing
    # the timed spans; two reach every model and input kind.
    peak_tracer = Tracer()
    peak_tracer.install(wl.traced())
    tracemalloc.start()
    try:
        peak = run_loop(wl, 2, traced["next_job"], peak_tracer)
    finally:
        tracemalloc.stop()
        peak_tracer.uninstall()
    check_outputs(wl, peak)
    if args.spans:
        tracer.write(args.spans)

    wall_ns = int(sum(traced["times"]) * 1e9)
    values = layer_metrics(tracer.layer_totals(), traced["ops"], wall_ns, peak_tracer.peak_bytes)
    untraced_rate, traced_rate = ops_per_s(plain, wl), ops_per_s(traced, wl)
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    if args.sweep:
        values.update(run_sweep(args.seed))
    counts = {"traced_jobs": len(traced["times"]), "traced_ops": traced["ops"],
              "traced_busy_s": wall_ns / 1e9, "spans": len(tracer.spans),
              "untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate}
    return [plain, traced, peak], values, counts


def provenance(args, wl) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "riskcdf": riskcdf.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": wl.sizes(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "loop": "closed, 1 caller, single-threaded process",
        "hardware_counters": "not used",
        "cache_control": "not used: the machine is not reconfigured for a run",
    }


def git_commit() -> str:
    """HEAD of the checkout; ``--git-dir`` keeps git from using an enclosing repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown (git not found)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--sweep", action="store_true", help="with --trace 1, run the layer sweep")
    parser.add_argument("--tiny", action="store_true", help="smoke-check input sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto, sys.stdout = sys.stdout, _Discard()
    src = os.path.join(ROOT, "src", "riskcdf")
    if os.path.dirname(os.path.abspath(riskcdf.__file__)) != src:
        print(f"riskcdf was imported from {riskcdf.__file__}, not {src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    print("READY", file=proto, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        phases, values, counts = measure_layers(wl, args)
    else:
        phases, values, counts = measure_end_to_end(wl, args)
    messages = [m for p in phases for m in p["messages"]] + wl.recheck()
    errors = sum((p["errors"] for p in phases), Counter())
    result = {
        "correct": not messages,
        "attempted": sum(p["ops"] for p in phases),
        "failed": sum(sum(p["lost"]) for p in phases),
        "errors": dict(errors),
        "known_defects": {d: {"ops": n, "about": KNOWN_DEFECTS[d]} for d, n in wl.known.items()},
        "messages": messages[:MAX_MESSAGES],
        "values": values,
        "counts": counts,
        "provenance": provenance(args, wl),
    }
    print("RESULT " + json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
