#!/usr/bin/env python3
"""riskcdf benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Each workload runs in its own single-threaded worker process (worker.py) as
a closed loop with one caller, for a fixed number of whole cycles of jobs
(about ``--seconds`` on the reference machine).  With ``--trace 0`` the run
reports the end-to-end metrics named in BENCHMARK.json.  ``setup_s`` is
the median time from spawning a worker to its first job over SETUP_SAMPLES
spawns.  It, ``ops_per_s`` and ``job_p50_s`` are in reference seconds
(calibrate.py), with the wall-second figures printed beside them.  With
``--trace 1`` it reports the per-layer metrics: half the time untraced,
half with spans at every layer boundary, then two jobs under tracemalloc;
the layer sweep (``sweep.*``, no workload input) runs once, in the first
workload's worker.  Every metric is printed with its unit and sample
count; the last line is one JSON object.  The exit code is non-zero if any
output check fails or any job raises, except for the known riskcdf defects
that workloads.py names: those ops count as failed and are printed by name.
Results with their provenance are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 7
SETUP_PROBE_RUNS = 10
RUN_DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker; return (seconds from spawn to READY, the machine's
    speed just before the spawn, the worker's result)."""
    # The first kernel run pays for caches left cold since the last spawn.
    speed = calibrate.speed(calibrate.probe("compute", SETUP_PROBE_RUNS + 1)[1:])
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:  # interrupted or terminated: stop the worker too
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or setup is None:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return setup, speed, result


def run_workload(name: str, args, metrics: dict, sweep: bool) -> dict:
    """One workload's run; returns its result with the metrics BENCHMARK.json names.

    With ``sweep`` false, the ``sweep.*`` metrics are neither run nor reported.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    stem = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}")
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        common.append("--tiny")
    try:
        # Set-up time drifts with the machine over tens of seconds, so the
        # extra set-ups are split between before and after the run.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn([*common, "--workdir", os.path.join(work, f"setup{i}"), "--setup-only"],
                        deadline)[:2] for i in range(extra // 2)]
        run = [*common, "--trace", str(args.trace), "--workdir", os.path.join(work, "run")]
        if args.trace:
            run += ["--spans", f"{stem}-spans.csv"]
            if sweep:
                run.append("--sweep")
        setup, speed, result = spawn(run, deadline)
        setups.append((setup, speed))
        setups += [spawn([*common, "--workdir", os.path.join(work, f"setup{i}"), "--setup-only"],
                         deadline)[:2] for i in range(extra // 2, extra)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        raise BenchError(f"{name}: the worker printed no result")
    values, counts = result["values"], result["counts"]
    if not args.trace:
        values["setup_s"] = statistics.median(t * v for t, v in setups)
        counts["setups"] = len(setups)
        counts["setup_times_s"] = [t for t, _ in setups]
        counts["setup_speeds"] = [v for _, v in setups]
        counts["wall_setup_s"] = statistics.median(t for t, _ in setups)
    if not sweep:
        metrics = {m: u for m, u in metrics.items() if not m.startswith("sweep.")}
    missing = sorted(set(metrics) - set(values))
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    result["metrics"] = {m: {"value": values[m], "unit": metrics[m]} for m in metrics}
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def report(name: str, result: dict, trace: int) -> None:
    v, c = result["values"], result["counts"]
    if trace:
        print(f"{name}: {c['traced_jobs']} traced jobs, {c['traced_ops']} ops, "
              f"{c['spans']} spans; ops/s untraced {c['untraced_ops_per_s']:.6g}, "
              f"traced {c['traced_ops_per_s']:.6g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:58s} {m['value']:<14.6g} {m['unit']}")
    else:
        p90 = (f"{v['job_p90_s']:.6g} s" if "job_p90_s" in v
               else "not reported (fewer than 100 jobs)")
        rows = [
            ("ops_per_s", f"{v['ops_per_s']:.6g} ops/s",
             f"median of {c['cycles']} cycles; {c['ops']} ops in {c['busy_s']:.3f} s of jobs"),
            ("job_p50_s", f"{v['job_p50_s']:.6g} s",
             f"median of {c['cycles']} cycle medians; {c['jobs']} jobs"),
            ("  wall", f"{c['wall_ops_per_s']:.6g} ops/s, {c['wall_job_p50_s']:.6g} s",
             f"the same in wall seconds; machine speed {c['speed']:.4g} "
             f"({c['probes']} runs of the {c['probe']} probe)"),
            ("job_p90_s", p90, f"{c['jobs']} jobs"),
            ("fail_frac", f"{v['fail_frac']:.6g}",
             f"{result['failed']} of {result['attempted']} ops"),
            ("setup_s", f"{v['setup_s']:.6g} s",
             f"median of {c['setups']} set-ups; {c['wall_setup_s']:.6g} s in wall seconds"),
            ("peak_rss_mb", f"{v['peak_rss_mb']:.6g} MB", "1 process"),
        ]
        for metric, value, samples in rows:
            print(f"{name:10s} {metric:12s} {value:34s} {samples}")
    if result["errors"]:
        print(f"{name}: failed jobs by exception: {result['errors']}")
    for defect, d in result["known_defects"].items():
        print(f"{name}: KNOWN DEFECT {defect}: {d['ops']} failed ops ({d['about']})")
    for message in result["messages"]:
        print(f"{name}: CHECK FAILED: {message}")


def main() -> int:
    # SIGTERM unwinds like Ctrl-C, so the worker is killed and reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check of the benchmark itself")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "riskcdf", "__init__.py")):
        print(f"perfbench: no riskcdf sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    metrics = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in workloads:
            results[name] = run_workload(name, args, metrics, sweep=not results)
            report(name, results[name], args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prov = next(iter(results.values()))["provenance"]
    shared = {k: v for k, v in prov.items() if k not in ("workload", "sizes")}
    print("provenance: " + json.dumps(shared))
    for name, r in results.items():
        print(f"{name} sizes: " + json.dumps(r["provenance"]["sizes"]))
    if len(results) == 1:
        combined = next(iter(results.values()))["metrics"]
    else:
        combined = {m if m.startswith("sweep.") else f"{n}.{m}": v
                    for n, r in results.items() for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
