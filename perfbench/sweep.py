"""Per-call time of each layer function at n = 1e2 .. 1e5.

Every function is timed on seeded inputs of each size, outside any
workload, so each layer's growth with n shows in the numbers and not only in
comments.  Specs and models are built once per size, before timing.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from riskcdf import cdf, models, optim, risks

SIZES = (100, 1_000, 10_000, 100_000)
REFERENCE = 20_000
SUPPORT = 5.0
MIN_BATCH_S = 0.02
SLOW_CALL_S = 0.25


def _us_per_call(fn) -> float:
    """Median per-call time of three batches of at least MIN_BATCH_S each.

    A call slower than SLOW_CALL_S is timed once: its own length already
    dwarfs the clock's resolution.
    """
    t = time.perf_counter()
    fn()
    first = time.perf_counter() - t
    if first >= SLOW_CALL_S:
        return first * 1e6
    reps = max(1, int(MIN_BATCH_S / max(first, 1e-7)))
    batches = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        batches.append((time.perf_counter() - t) / reps)
    return float(np.median(batches)) * 1e6


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_sweep(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 1])
    ref = cdf.build_cdf(SUPPORT * rng.random(REFERENCE))
    cvar = risks.cvar_distortion(0.05)
    spectrum = risks.cvar_spectrum(0.05)
    entropic = risks.oce_entropic_spec(SUPPORT)
    logistic = models.init_model("logistic_crossentropy", 3, seed=seed)
    mlp = models.init_model("mlp_tanh", 2, (32,), seed=seed)
    out = {}
    for n in SIZES:
        losses = SUPPORT * rng.random(n)
        c = cdf.build_cdf(losses)
        X = rng.standard_normal((n, 2))
        Xb = np.hstack([X, np.ones((n, 1))])
        y = (rng.random(n) < 0.5).astype(float)
        calls = {
            "cdf.build_cdf": lambda: cdf.build_cdf(losses),
            "cdf.sup_norm_distance": lambda: cdf.sup_norm_distance(c, ref),
            "cdf.wasserstein1": lambda: cdf.wasserstein1(c, ref, SUPPORT),
            "risks.distortion_risk": lambda: risks.distortion_risk(c, cvar),
            "risks.spectral_risk": lambda: risks.spectral_risk(c, spectrum),
            "risks.oce_risk": lambda: risks.oce_risk(c, entropic),
            "risks.mean_variance": lambda: risks.mean_variance(c, 0.5),
            "models.batch_losses.logistic": lambda: logistic.batch_losses(Xb, y),
            "models.batch_losses.mlp32": lambda: mlp.batch_losses(X, y),
            "models.batch_gradients.logistic": lambda: logistic.batch_gradients(Xb, y),
            "models.batch_gradients.mlp32": lambda: mlp.batch_gradients(X, y),
            "optim.distortion_gradient": lambda: optim.distortion_gradient(logistic, Xb, y, cvar),
        }
        tag = f"n1e{round(np.log10(n))}"
        for name, fn in calls.items():
            out[f"sweep.{name}.{tag}.us_per_call"] = _us_per_call(fn)
        if n == SIZES[-1]:
            peak = _peak_alloc_mb(calls["risks.oce_risk"])
            out[f"sweep.risks.oce_risk.{tag}.peak_alloc_mb"] = peak
    return out
