"""Spans at riskcdf's module boundaries, recorded from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, including the names that ``from .x import y`` bound into callers
(``riskcdf.bounds.build_cdf``, ``riskcdf.cli.train``, ...) and the
``LossModel`` methods, and ``uninstall`` puts the originals back.  Spans stay
in memory as (name, start_ns, end_ns, parent, op, failed) and are written
out once, at the end.  A layer's self time is its span time minus the time
its direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

# Layer name -> the (module, attribute) bindings that reach it.  A dotted
# attribute names a method or class hook.
LAYERS = {
    "cli": [("cli", "main")],
    "bounds.monte_carlo_en": [("bounds", "monte_carlo_en")],
    "data.sampler": [],  # the workload's own sampler, bound by Workload.traced
    "cdf.build_cdf": [("cdf", "build_cdf"), ("bounds", "build_cdf"),
                      ("optim", "build_cdf"), ("cli", "build_cdf")],
    "cdf.sup_norm_distance": [("cdf", "sup_norm_distance"), ("bounds", "sup_norm_distance")],
    "cdf.wasserstein1": [("cdf", "wasserstein1")],
    "risks.distortion_risk": [("risks", "distortion_risk"), ("optim", "distortion_risk")],
    "risks.spectral_risk": [("risks", "spectral_risk")],
    "risks.oce_risk": [("risks", "oce_risk")],
    "risks.mean_variance": [("risks", "mean_variance")],
    "risks.load_distortion_csv": [("risks", "load_distortion_csv")],
    "risks.load_spectrum_csv": [("risks", "load_spectrum_csv")],
    "risks.spec_validation": [("risks", "DistortionSpec.__post_init__"),
                              ("risks", "SpectrumSpec.__post_init__"),
                              ("risks", "OceSpec.__post_init__")],
    "models.batch_losses": [("models", "LossModel.batch_losses")],
    "models.batch_gradients": [("models", "LossModel.batch_gradients")],
    "optim.distortion_gradient": [("optim", "distortion_gradient")],
    "optim.noisy_gd_step": [("optim", "noisy_gd_step")],
    "optim.train": [("optim", "train"), ("cli", "train")],
    "permcomplexity.exact_min_permutations": [
        ("permcomplexity", "exact_min_permutations"), ("cli", "exact_min_permutations")],
    "permcomplexity.greedy_min_permutations": [
        ("permcomplexity", "greedy_min_permutations"), ("cli", "greedy_min_permutations")],
    "permcomplexity.exact_min_permutations.greedy_seed": [],  # see NESTED
    "data.load_loss_table": [("data", "load_loss_table")],
    "seeds.standard_normal": [("seeds", "standard_normal"), ("data", "standard_normal"),
                              ("optim", "standard_normal"), ("cli", "standard_normal")],
}

# (layer, parent layer) -> the layer a span is recorded as.  The exact search
# seeds itself with a greedy cover of a small matrix; those calls are kept
# apart so the greedy layer describes the greedy-mode jobs alone.
NESTED = {
    ("permcomplexity.greedy_min_permutations", "permcomplexity.exact_min_permutations"):
        "permcomplexity.exact_min_permutations.greedy_seed",
}

# Layers whose peak allocation is recorded when tracemalloc is on.
PEAK_LAYERS = {"risks.oce_risk", "models.batch_gradients"}


def _owner(module: str, attr: str):
    obj = importlib.import_module(f"riskcdf.{module}")
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        peak = name in PEAK_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = NESTED.get((name, spans[parent][0]), name) if stack else name
            span = [label, clock(), 0, parent, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            measure = peak and tracemalloc.is_tracing()
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if measure:
                    used = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], used)

        return traced

    def install(self, extra=()) -> None:
        """Wrap every binding in LAYERS, plus ``extra`` (owner, attribute, layer)."""
        targets = [(*_owner(module, attr), name)
                   for name, bindings in LAYERS.items() for module, attr in bindings]
        for owner, key, name in [*targets, *extra]:
            original = getattr(owner, key)
            self._saved.append((owner, key, original))
            setattr(owner, key, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per layer: calls, failed calls, inclusive and self time in ns."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: {"calls": 0, "failed": 0, "total_ns": 0, "self_ns": 0} for name in LAYERS}
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["failed"] += failed
            t["total_ns"] += end - start
            t["self_ns"] += end - start - child[i]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "op", "failed"])
            writer.writerows(self.spans)


def layer_metrics(totals: dict, ops: int, wall_ns: int, peak_bytes: dict) -> dict[str, float]:
    """Every ``<layer>.<stat>`` value the per-layer metrics can name."""
    out = {}
    for name in LAYERS:
        t = totals[name]
        calls = t["calls"]
        out[f"{name}.self_share"] = t["self_ns"] / wall_ns
        out[f"{name}.calls_per_op"] = calls / ops
        out[f"{name}.ms_per_call"] = t["total_ns"] / calls / 1e6 if calls else 0.0
        out[f"{name}.fail_frac"] = t["failed"] / calls if calls else 0.0
        out[f"{name}.peak_alloc_mb"] = peak_bytes.get(name, 0) / 2**20
    out["risks.spec_validations_per_op"] = out["risks.spec_validation.calls_per_op"]
    return out
