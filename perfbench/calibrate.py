"""How fast the machine runs, from a fixed kernel that does not use riskcdf.

A shared host runs the same code up to twice as slow in bursts of a tenth
of a second to a few seconds, and up to half again slower for minutes at a
time (other load on the shared host).  Process CPU time slows with it,
so no clock removes it.  A run times a fixed kernel every PROBE_INTERVAL_S
between its jobs, the one whose work is most like the workload's: small
numpy calls and Python for most, fresh large arrays for a workload whose
jobs spend their time in page faults and memory traffic.  ``speed`` is the
kernel's reference time over its mean time: below 1 while the machine runs
slower than usual.  A time measured in the same stretch, multiplied by the
speed, is in *reference seconds*: what it would have taken on the reference
machine at its usual speed.  No change to riskcdf can move the kernels, so
a change to the program moves reference seconds as it moves wall seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.25
PROBE_RUNS = 2

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((1050, 2))
_y = (_rng.random(1050) < 0.5).astype(float)
_big = _rng.random(20_000)


def compute_kernel() -> None:
    """Small numpy calls, a 20,000-element pass and a pure-Python loop."""
    w = np.zeros(2)
    for _ in range(60):
        z = _X @ w
        p = 1.0 / (1.0 + np.exp(-z))
        np.sort(np.logaddexp(0.0, -z))
        w -= 0.1 * (_X.T @ (p - _y)) / _y.size
    for _ in range(8):
        np.sort(_big)
        np.exp(_big).sum()
    s = 0
    for i in range(10_000):
        s += i * i % 7


def memory_kernel() -> None:
    """A fresh 64 MB array filled, exponentiated and summed: page faults and
    memory traffic, as in the OCE grid of a large loss table."""
    a = np.empty(8_000_000)
    a.fill(1.0)
    np.exp(a).sum()


# Kind -> (kernel, about its mean time on the reference machine, 2 vCPUs of
# an Intel Xeon VM, so that speeds there sit near 1).
KERNELS = {"compute": (compute_kernel, 0.0065), "memory": (memory_kernel, 0.05)}


def probe(kind: str = "compute", runs: int = PROBE_RUNS) -> list[float]:
    """Wall times of ``runs`` runs in a row of the ``kind`` kernel."""
    kernel = KERNELS[kind][0]
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return times


def speed(times: list[float], kind: str = "compute") -> float:
    """The kernel's reference time over its mean time in ``times``.

    The mean, not the median: a job is slowed by the share of its time that
    falls in slow bursts, and the mean of evenly spaced probes weighs the
    bursts by that share.
    """
    return KERNELS[kind][1] / statistics.fmean(times)
