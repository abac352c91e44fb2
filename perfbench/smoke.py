#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload emits every end-to-end metric (``--trace 0``)
and every per-layer metric (``--trace 1``, all workloads in one run, so the
layer sweep runs once) that BENCHMARK.json names, that layers.json gives a
prediction for each per-layer metric, that each workload's output check
rejects a deliberately corrupted result, that a run fails when a job
raises (also with the greedy-stall message outside greedy mode), that the
benchmark fails, printing no result, where there are no sources to
measure, and that two same-seed runs attempt and fail the same ops.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def check_emitted(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = [(w, 0, end_to_end) for w in WORKLOADS]
    runs.append(("all", 1, {name if name.startswith("sweep.") else f"{w}.{name}": unit
                            for w in WORKLOADS for name, unit in per_layer.items()}))
    for workload, trace, want in runs:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        where = f"{workload} --trace {trace}"
        expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{where}: result keys {sorted(result)}")
        expect(result["correct"] is True and result["attempted"] >= 1,
               f"{where}: {result['correct']=} {result['attempted']=}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"{where}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(want))}")
        bad = [n for n, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
        expect(not bad, f"{where}: non-finite values for {bad}")
        print(f"smoke: {where}: {len(got)} metrics emitted")


def _tiny_run(workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_repeatable() -> None:
    """Two same-seed runs attempt and fail the same ops (assess fails some,
    by its known defect), and the count of ops follows ``--seconds``."""
    first, second = _tiny_run("assess", 1), _tiny_run("assess", 1)
    counts = [(r["attempted"], r["failed"]) for r in (first, second)]
    expect(counts[0] == counts[1] and counts[0][1] > 0,
           f"assess: (attempted, failed) differ between same-seed runs: {counts}")
    longer = _tiny_run("assess", 10)
    expect(longer["attempted"] == 3 * first["attempted"],
           f"assess: {longer['attempted']} ops in 10 s, {first['attempted']} in 1 s")
    print(f"smoke: same-seed runs attempt and fail the same ops {counts[0]}")


def check_predictions(spec: dict) -> None:
    with open(os.path.join(HERE, "layers.json")) as fh:
        predicted = set(json.load(fh)["metrics"])
    named = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("sweep.")}
    expect(predicted == named,
           f"layers.json and BENCHMARK.json differ: {sorted(predicted ^ named)}")


def _corrupt_train(trace: bytes) -> bytes:
    lines = trace.decode().splitlines()
    t, _, *rest = lines[1].split(",")
    first = ",".join([t, "0.0", *rest])  # an initial risk no later iterate can beat
    return "\n".join([lines[0], first, *lines[2:]]).encode() + b"\n"


def _corrupt_complexity(out: dict) -> dict:
    return {**out, "value": out["value"] - 1,
            "witness_permutations": out["witness_permutations"][:-1]}


CORRUPT = {
    "certify": lambda out: dataclasses.replace(out, values=np.ones_like(out.values)),
    # The first record (mean) and the last (spectral-file, whose known defect
    # must not excuse any other value).
    "assess": lambda out: [{**r, "value": r["value"] + 1e-9} if i in (0, len(out) - 1) else r
                           for i, r in enumerate(out)],
    "train": _corrupt_train,
    "complexity": _corrupt_complexity,
}


def check_rejects_corruption() -> None:
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(SCRATCH, name)
        os.makedirs(workdir, exist_ok=True)
        wl = cls(1, workdir, tiny=True)
        with contextlib.redirect_stdout(io.StringIO()):  # riskcdf's own prints
            for k in range(wl.cycle):
                wl.prepare(k)
                out = wl.job(k)
                expect(not wl.check(k, out)[1], f"{name}: job {k} fails its check uncorrupted")
            wl.prepare(0)
            out = wl.job(0)
        bad, messages = wl.check(0, CORRUPT[name](out))
        expect(bad > 0 and messages, f"{name}: the check accepted a corrupted output")
        expect(name != "assess" or len(messages) == 2,
               f"assess: {len(messages)} of 2 corrupted records rejected")
        with contextlib.redirect_stdout(io.StringIO()):
            expect(not wl.recheck(), f"{name}: identical jobs disagree")
            if getattr(wl, "first", None):
                first = wl.first[0]
                wl.first[0] = first + b"#" if isinstance(first, bytes) else first + 1e-3
                expect(wl.recheck(), f"{name}: recheck accepted a changed first output")
        print(f"smoke: {name}: corrupted output rejected ({messages[0][:70]}...)")


# Workload -> (riskcdf module, code appended to it) that makes its jobs raise.
# The complexity fault raises the greedy-stall message from the exact search,
# where it is not the known defect.
FAULTS = {
    "assess": ("risks", "def oce_risk(cdf, spec):\n    raise ValueError('injected fault')\n"),
    "train": ("optim", "def train(*args, **kwargs):\n"
                       "    raise NumericError('injected fault')\n"),
    "complexity": ("permcomplexity", "def exact_min_permutations(*args, **kwargs):\n"
                                     "    raise AssertionError('greedy cover stalled')\n"),
}


def check_fails_when_jobs_raise() -> None:
    for name, (module, code) in FAULTS.items():
        faulty = os.path.join(SCRATCH, f"faulty-{name}")
        shutil.rmtree(faulty, ignore_errors=True)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, os.path.join(faulty, "perfbench"), ignore=ignore)
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(faulty, "src"), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), faulty)
        with open(os.path.join(faulty, "src", "riskcdf", f"{module}.py"), "a") as fh:
            fh.write("\n\nfrom .errors import NumericError  # noqa: E402\n\n\n" + code)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                               "--seed", "1", "--seconds", "0.5", "--trace", "0", "--tiny"],
                              cwd=faulty, capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(proc.returncode != 0 and result["correct"] is False,
               f"{name}: a run whose jobs raise exited {proc.returncode}, "
               f"correct={result['correct']}")
        expect("raised" in proc.stdout, f"{name}: no message names the raised exception")
        print(f"smoke: {name}: a run whose jobs raise fails")


def check_fails_without_sources() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, output {proc.stdout!r}")
    print("smoke: no sources: exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        check_predictions(spec)
        check_rejects_corruption()
        check_fails_when_jobs_raise()
        check_fails_without_sources()
        check_repeatable()
        check_emitted(spec)
    except SmokeFailure as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
