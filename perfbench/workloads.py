"""The four benchmark workloads: seeded inputs, one job, and its output check.

Each workload is built from a seed and a work directory.  ``job(k)`` makes
the k-th top-level call into riskcdf and returns what it produced;
``check(k, output)`` compares that output with an oracle (each check says
which) and returns the number of failed ops and a message for each failure.
``recheck()`` re-runs the first jobs and asserts that identical inputs give
identical outputs.

A message fails the run.  The one exception is a known defect of riskcdf
that a workload names exactly (``KNOWN_DEFECTS``): its ops still count as
failed, and ``known`` tallies them by defect, but the run stays correct,
so the defect shows in every result without hiding a new one.

Jobs call ``cli.main`` and ``bounds.monte_carlo_en`` through their modules,
so the tracer's wrappers on those names see every call.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np

from riskcdf import bounds, cli, data
from riskcdf.models import init_model
from riskcdf.permcomplexity import (
    LossMatrix,
    greedy_min_permutations,
    permutation_sorts,
    weak_order,
)
from riskcdf.seeds import derive_seed

# Fixed in advance from the methods, not fitted to observed errors: the
# telescoped and sorted-weight sums are exact up to float summation, and
# the OCE search stops at a lambda bracket of width OceSpec.tolerance.
SUM_TOL = 1e-12
OCE_SEARCH_TOL = 1e-7

KNOWN_DEFECTS = {
    "greedy-stall": "greedy_min_permutations raises AssertionError('greedy cover stalled') "
                    "when a matrix has more than 64 distinct weak orders",
    "spectrum-cumulative": "load_spectrum_csv interpolates the cumulative spectrum linearly "
                           "between knots instead of integrating the linear spectrum exactly",
}


class JobFailed(Exception):
    """A CLI job returned a non-zero exit code."""


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"riskcdf {argv[0]} exited with code {code}")


def _write_csv(path: str, rows, header: list[str] | None = None) -> None:
    # 17 significant digits round-trip every float64 exactly, so the oracle
    # sees the same values the program parses.
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class Workload:
    name = ""
    cycle = 1  # jobs per repeat of the input pattern; a run makes whole cycles
    # Seconds one cycle takes on the reference machine (2 vCPUs of an Intel
    # Xeon VM); a run of S seconds makes round(S / cycle_s) cycles there.
    cycle_s = 1.0
    # The speed probe whose work is most like the jobs' (calibrate.KERNELS).
    probe = "compute"

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.known: Counter = Counter()  # failed ops per KNOWN_DEFECTS key

    def out_dir(self, k: int) -> str:
        """A fresh ``--out`` directory for job k, as a separate run would have.

        Reusing one directory would make every job truncate the previous
        job's files, which costs the filesystem more than creating them.
        """
        return os.path.join(self.workdir, "out", str(k))

    def sizes(self) -> dict:
        raise NotImplementedError

    def ops(self, k: int) -> int:
        raise NotImplementedError

    def prepare(self, k: int) -> None:
        """Make job k's input; runs before the job's timer starts."""

    def job(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> tuple[int, list[str]]:
        raise NotImplementedError

    def known_failure(self, k: int, exc: Exception) -> bool:
        """Whether job k raising ``exc`` is a known defect (and tally it if so)."""
        return False

    def recheck(self) -> list[str]:
        return []

    def traced(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, layer) for callables the workload itself holds."""
        return []


class Certify(Workload):
    """Monte Carlo validation of the finite-class certificate (criterion 3)."""

    name = "certify"
    cycle = 2
    cycle_s = 1.15
    N_MODELS = 5
    DELTA = 0.1

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.ns = (20, 80) if tiny else (200, 800)
        self.reps = 3 if tiny else 40
        self.reference = 2_000 if tiny else 20_000
        models = [init_model("logistic_crossentropy", 2, seed=derive_seed(seed, "model", j))
                  for j in range(self.N_MODELS)]
        self.loss_fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
        self.sampler = data.blob_mixture_sampler()
        self.first = {}

    def sizes(self):
        return {"n": list(self.ns), "reps_per_job": self.reps,
                "reference_sample_size": self.reference, "models": self.N_MODELS,
                "threads": 1}

    def traced(self):
        return [(self, "sampler", "data.sampler")]

    def ops(self, k):
        return self.reps

    def job(self, k):
        return bounds.monte_carlo_en(
            self.loss_fns, self.sampler, n=self.ns[k % 2], reps=self.reps,
            seed=derive_seed(self.seed, "job", k), reference_sample_size=self.reference,
            threads=1,
        )

    def check(self, k, output):
        n = self.ns[k % 2]
        v = output.values
        if v.shape != (self.reps,) or not np.all(np.isfinite(v)) or v.min() < 0 or v.max() > 1:
            return self.reps, [f"job {k}: sup-norm errors missing or outside [0, 1]"]
        eps = bounds.certificate_finite_class(n, self.N_MODELS, self.DELTA).epsilon
        frac = float(np.mean(v > eps))
        if frac > self.DELTA:
            return self.reps, [f"job {k}: violation fraction {frac} > delta {self.DELTA} "
                               f"at epsilon {eps:.6g} (n={n})"]
        if k < self.cycle:
            self.first[k] = v.copy()
        return 0, []

    def recheck(self):
        return [f"job {k}: a same-seed call returned different values"
                for k, v in self.first.items() if not np.array_equal(self.job(k).values, v)]


class Assess(Workload):
    """``riskcdf assess`` on a seeded loss table with ties, eight risk tokens."""

    name = "assess"
    cycle_s = 3.3
    # A job spends a third of its time in page faults for the gigabyte OCE
    # grid; its time follows the memory kernel (correlation 0.97 over runs of
    # four jobs), not the compute one (0.63 job by job).
    probe = "memory"
    ALPHA_CVAR = 0.05
    ALPHA_OCE = 0.1
    C_VAR = 0.5
    SUPPORT = 5.0

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.n, self.m = (200, 3) if tiny else (20_000, 8)
        rng = np.random.default_rng(seed)
        cols = []
        for j in range(self.m):
            x = self.SUPPORT * rng.beta(1.0 + j % 3, 1.5 + j % 2, self.n)
            if j % 2 == 0:
                x = np.round(x * 20.0) / 20.0  # ties on a 0.05 grid
            cols.append(x)
        table = np.column_stack(cols)
        table[rng.integers(self.n), 0] = self.SUPPORT  # the support bound is attained
        table[rng.integers(self.n), 1] = 0.0
        self.table = table
        self.names = [f"model{j}" for j in range(self.m)]
        self.table_path = os.path.join(workdir, "losses.csv")
        _write_csv(self.table_path, table, header=self.names)

        # Concave piecewise-linear distortion with g(0) = 0 and g(1) = 1.
        knots = np.sort(rng.choice(np.arange(1, 10), 3, replace=False)) / 10
        t = np.concatenate([[0.0], knots, [1.0]])
        slopes = np.sort(rng.uniform(0.2, 3.0, t.size - 1))[::-1]
        g = np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
        self.dist_t, self.dist_g = t, g / g[-1]
        self.dist_path = os.path.join(workdir, "distortion.csv")
        _write_csv(self.dist_path, zip(self.dist_t, self.dist_g))

        # Non-decreasing piecewise-linear spectrum integrating to 1.
        u = np.array([0.0, 0.3, 0.6, 0.9, 1.0])
        h = np.cumsum(rng.uniform(0.1, 1.0, u.size))
        h /= float(np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(u)))
        self.spec_u, self.spec_h = u, h
        self.spec_path = os.path.join(workdir, "spectrum.csv")
        _write_csv(self.spec_path, zip(u, h))

        self.tokens = {
            "mean": "mean",
            "cvar": f"cvar:{self.ALPHA_CVAR}",
            "mean_var": f"mean_var:{self.C_VAR}",
            "oce:mean": "oce:mean",
            "oce:entropic": "oce:entropic",
            "oce:cvar": f"oce:cvar:{self.ALPHA_OCE}",
            "distortion-file": f"distortion-file:{self.dist_path}",
            "spectral-file": f"spectral-file:{self.spec_path}",
        }
        self.argv = ["assess", "--input", self.table_path, "--support-bound", f"{self.SUPPORT:g}"]
        for token in self.tokens.values():
            self.argv += ["--risk", token]
        self._oracle = None

    def sizes(self):
        return {"rows": self.n, "models": self.m, "risks": len(self.tokens),
                "support_bound": self.SUPPORT}

    def ops(self, k):
        return self.m * len(self.tokens)

    def job(self, k):
        out = self.out_dir(k)
        _run_cli([*self.argv, "--out", out])
        with open(os.path.join(out, "assessment.json")) as fh:
            return json.load(fh)["records"]

    def _top_mean(self, s: np.ndarray, alpha: float) -> float:
        return float(s[-round(alpha * s.size):].mean())

    def _spectrum_cumulative(self, t: np.ndarray, exact: bool) -> np.ndarray:
        """H(t), the integral from 0 to t of the tabulated linear spectrum.

        ``exact`` integrates the linear pieces, so H is quadratic between
        knots; otherwise H is interpolated linearly between its knot values,
        as the known defect "spectrum-cumulative" does.
        """
        u, h = self.spec_u, self.spec_h
        at_knots = np.concatenate([[0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * np.diff(u))])
        if not exact:
            return np.interp(t, u, at_knots)
        j = np.clip(np.searchsorted(u, t, side="right") - 1, 0, u.size - 2)
        dt = t - u[j]
        slope = (h[j + 1] - h[j]) / (u[j + 1] - u[j])
        return at_knots[j] + h[j] * dt + 0.5 * slope * dt * dt

    def oracle(self) -> list[tuple[float, float]]:
        """(expected value, tolerance) per record, tokens outer, models inner."""
        if self._oracle is None:
            n = self.n
            # Weight of the i-th smallest loss: g(1 - (i-1)/n) - g(1 - i/n).
            g = np.interp(1.0 - np.arange(n + 1) / n, self.dist_t, self.dist_g)
            dist_w = g[:-1] - g[1:]
            # Weight of the i-th smallest loss: H(i/n) - H((i-1)/n).
            edges = np.arange(n + 1) / n
            spec_w = np.diff(self._spectrum_cumulative(edges, exact=True))
            defect_w = np.diff(self._spectrum_cumulative(edges, exact=False))
            per_model, self._defect = [], []
            for x in self.table.T:
                s = np.sort(x)
                per_model.append({
                    "mean": (float(np.mean(x)), SUM_TOL),
                    "cvar": (self._top_mean(s, self.ALPHA_CVAR), SUM_TOL),
                    "mean_var": (float(np.mean(x) + self.C_VAR * np.var(x)), SUM_TOL),
                    "oce:mean": (float(np.mean(x)), OCE_SEARCH_TOL),
                    "oce:entropic": (float(np.log(np.mean(np.exp(x)))), OCE_SEARCH_TOL),
                    # The CVaR objective has slope at most 1/alpha in lambda.
                    "oce:cvar": (self._top_mean(s, self.ALPHA_OCE),
                                 OCE_SEARCH_TOL / self.ALPHA_OCE),
                    "distortion-file": (float(dist_w @ s), SUM_TOL),
                    "spectral-file": (float(spec_w @ s), SUM_TOL),
                })
                self._defect.append(float(defect_w @ s))
            expected = [values[kind] for kind in self.tokens for values in per_model]
            self._oracle = expected
        return self._oracle

    def check(self, k, output):
        expected = self.oracle()
        if len(output) != len(expected):
            return self.ops(k), [f"job {k}: {len(output)} records, expected {len(expected)}"]
        bad, msgs = 0, []
        kinds = list(self.tokens)
        for i, (rec, (want, tol)) in enumerate(zip(output, expected)):
            kind, model = kinds[i // self.m], self.names[i % self.m]
            if rec["model"] == model and abs(rec["value"] - want) <= tol:
                continue
            bad += 1
            if (rec["model"] == model and kind == "spectral-file"
                    and abs(rec["value"] - self._defect[i % self.m]) <= SUM_TOL):
                self.known["spectrum-cumulative"] += 1
                continue
            msgs.append(f"job {k}: {self.tokens[kind]} on {rec['model']}: {rec['value']!r}, "
                        f"oracle {want!r} (tolerance {tol:g})")
        return bad, msgs


class Train(Workload):
    """``riskcdf train`` on the built-in blob preset, alternating two models."""

    name = "train"
    cycle = 2
    cycle_s = 1.1
    ETA = 0.02

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        # Iterations are set so the mlp job takes most of a cycle's time: the
        # logistic job's tiny per-iteration numpy calls are the code most
        # slowed by other load on a shared machine.
        self.setups = [
            (["--arch", "logistic_crossentropy", "--add-bias"], 20 if tiny else 400),
            (["--arch", "mlp_tanh", "--hidden", "32"], 5 if tiny else 200),
        ]
        self.first = {}

    def sizes(self):
        return {"dataset": "toy_blobs (1000 + 50 points, 2-D)", "risk": "cvar:0.05",
                "eta": self.ETA,
                "setups": [" ".join(a) + f" --iters {it}" for a, it in self.setups]}

    def ops(self, k):
        return self.setups[k % 2][1]

    def _argv(self, k, out):
        args, iters = self.setups[k % 2]
        seed = derive_seed(self.seed, "job", k // 2) % 2**31
        return ["train", *args, "--risk", "cvar:0.05", "--eta", f"{self.ETA}",
                "--iters", str(iters), "--seed", str(seed), "--out", out]

    def job(self, k, out=None):
        out = out or self.out_dir(k)
        _run_cli(self._argv(k, out))
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            return fh.read()

    def check(self, k, output):
        rows = np.loadtxt(output.decode().splitlines()[1:], delimiter=",", ndmin=2)
        if rows.shape != (self.ops(k), 4) or not np.all(np.isfinite(rows)):
            return self.ops(k), [f"job {k}: trace.csv is incomplete or not finite"]
        if not rows[-1, 1] < rows[0, 1]:
            return self.ops(k), [f"job {k}: final risk {float(rows[-1, 1])!r} is not below "
                                 f"initial risk {float(rows[0, 1])!r}"]
        if k < self.cycle:
            self.first[k] = output
        return 0, []

    def recheck(self):
        return [f"job {k}: an identical job wrote a different trace.csv"
                for k, trace in self.first.items()
                if self.job(k, os.path.join(self.workdir, "rerun", str(k))) != trace]


class Complexity(Workload):
    """``riskcdf complexity`` on seeded matrices, exact and greedy in turn."""

    name = "complexity"
    STRATA = 8
    cycle = 2 * 4 * STRATA  # jobs until n and both row strata have come round
    cycle_s = 2.0

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.tiny = tiny
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)

    def sizes(self):
        return {"exact": "integers 0..3, n 5..8, rows 8..64",
                "greedy": "uniform [0, 1), n 12, rows 16..128"}

    def ops(self, k):
        return 1

    def mode(self, k):
        return "exact" if k % 2 == 0 else "greedy"

    def known_failure(self, k, exc):
        if (self.mode(k) == "greedy" and type(exc) is AssertionError
                and str(exc) == "greedy cover stalled"):
            self.known["greedy-stall"] += 1
            return True
        return False

    def matrix(self, k) -> np.ndarray:
        """The k-th input: a fresh seeded matrix, so no job repeats another's."""
        rng = np.random.default_rng([self.seed, k])
        i = k // 2
        if self.mode(k) == "exact":
            # Tie-heavy integers; n cycles through 5..8 and the row count
            # through eight strata of 8..64, so any run mixes sizes evenly.
            n = 5 + i % 4
            rows = 8 + 7 * (i // 4 % self.STRATA) + int(rng.integers(0, 8))
            return rng.integers(0, 4, size=(rows, n)).astype(float)
        # Continuous rows, so each row is its own weak order and a matrix
        # stalls (greedy-stall) exactly when it has more than 64 rows.  The
        # row count is set by k alone, so every seed stalls on the same jobs
        # and a run's failed ops do not depend on its seed.
        rows = 16 + (0 if self.tiny else 14 * (i % self.STRATA)) + (i // self.STRATA) % 15
        return rng.random((rows, 12))

    def input_path(self, k) -> str:
        return os.path.join(self.workdir, "in", f"{k}.csv")

    def prepare(self, k):
        _write_csv(self.input_path(k), self.matrix(k))

    def job(self, k):
        out = self.out_dir(k)
        _run_cli(["complexity", "--input", self.input_path(k), "--mode", self.mode(k),
                  "--out", out])
        with open(os.path.join(out, "complexity.json")) as fh:
            return json.load(fh)

    def check(self, k, output):
        m = self.matrix(k)
        witnesses = [tuple(p) for p in output["witness_permutations"]]
        n = m.shape[1]
        if output["value"] != len(witnesses) or any(sorted(p) != list(range(n)) for p in witnesses):
            return 1, [f"job {k}: value {output['value']} does not match its witness permutations"]
        for row in m:
            order = weak_order(row)
            if not any(permutation_sorts(p, order) for p in witnesses):
                return 1, [f"job {k}: no witness permutation sorts row {row.tolist()}"]
        if self.mode(k) == "exact":
            greedy, _ = greedy_min_permutations(LossMatrix(m))
            if output["value"] > greedy:
                return 1, [f"job {k}: exact {output['value']} > greedy {greedy}"]
        return 0, []


WORKLOADS = {w.name: w for w in (Certify, Assess, Train, Complexity)}
