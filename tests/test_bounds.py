import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riskcdf.bounds import (
    CERTIFICATE_METHODS,
    certificate,
    certificate_finite_class,
    monte_carlo_en,
    risk_error_bound,
)
from riskcdf.cdf import build_cdf
from riskcdf.cli import run_bound
from riskcdf.data import blob_mixture_sampler
from riskcdf.errors import (
    ConfigError,
    InvalidDelta,
    InvalidGrowth,
    InvalidLoss,
    ShapeError,
    WeakReference,
)
from riskcdf.models import init_model
from riskcdf.seeds import derive_seed, rng_from, standard_normal

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "validate_bounds.py"


def mcdiarmid(n, delta):
    """The concentration term sqrt(log(1/delta) / (2n)): the epsilon of a
    certificate whose R(n) is 0, from a growth number of 1."""
    return certificate("growth", n, delta, 1).epsilon


def rademacher(method, n, count):
    return certificate(method, n, 1.0, count).rademacher_bound


class TestMcDiarmidTerm:
    def test_delta_one_is_zero(self):
        assert mcdiarmid(37, 1.0) == 0.0

    def test_unit_value(self):
        assert mcdiarmid(50, math.exp(-100)) == pytest.approx(1.0)

    def test_formula(self):
        assert mcdiarmid(100000, 0.05) == pytest.approx(
            math.sqrt(math.log(20) / 200000)
        )

    @pytest.mark.parametrize("delta", [0.0, -0.2, 1.0001])
    def test_invalid_delta(self, delta):
        with pytest.raises(InvalidDelta):
            mcdiarmid(10, delta)


class TestRademacherBounds:
    def test_singleton_class(self):
        assert rademacher("finite_class", 64, 1) == pytest.approx(math.sqrt(math.log(4) / 128))

    def test_finite_class_values(self):
        assert rademacher("finite_class", 100, 5) == pytest.approx(0.1223873, abs=1e-6)
        assert rademacher("finite_class", 50000, 5) == pytest.approx(0.0054733, abs=1e-6)

    def test_permutation_matches_finite_class_formula(self):
        for n, size in [(10, 3), (200, 7), (5000, 64)]:
            assert rademacher("permutation", n, size) == rademacher("finite_class", n, size)

    def test_permutation_value(self):
        assert rademacher("permutation", 200, 4) == pytest.approx(0.0832555, abs=1e-6)

    def test_growth_values(self):
        assert rademacher("growth", 77, 1.0) == 0.0
        assert rademacher("growth", 100, (100 + 1) * 5) == pytest.approx(
            2 * math.sqrt(math.log(505) / 100)
        )
        with pytest.raises(InvalidGrowth):
            rademacher("growth", 10, 0.5)
        with pytest.raises(InvalidGrowth, match="growth must be a finite number"):
            rademacher("growth", 10, float("nan"))

    def test_vc_sauer_value(self):
        assert rademacher("vc_sauer", 100, 3) == pytest.approx(
            2 * math.sqrt(3 * math.log(101) / 100)
        )

    def test_finite_class_beats_growth_preset(self):
        for n in (100, 1000, 10000):
            for size in (2, 10, 100):
                fc = rademacher("finite_class", n, size)
                gr = rademacher("growth", n, (n + 1) * size)
                assert fc < gr


HUGE = 10 ** 400  # an integer no float holds


def growth_preset(n, class_size):
    """``bound --method growth`` given only ``--class-size``."""
    run_bound({"method": "growth", "n": n, "delta": 0.5, "class_size": class_size,
               "n_pi": None, "growth": None, "nu": None}, out_dir="unwritten")


def with_rademacher(value):
    """A certificate from a method whose R(n) is ``value`` whatever its count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(CERTIFICATE_METHODS, "fixed",
                   ("count", "count", 0, ConfigError, lambda n, count: value))
        return certificate("fixed", 10, 0.5, 1)


class TestCountsMustBeFinite:
    """Every count converts to a finite float, or the call raises ConfigError;
    a NaN or infinite Rademacher bound never becomes a certificate."""

    @pytest.mark.parametrize("call", [
        lambda: certificate("permutation", 10, 0.5, float("nan")),
        lambda: certificate("permutation", 10, 0.5, float("inf")),
        lambda: certificate("permutation", 10, 0.5, HUGE),
        lambda: certificate("finite_class", 10, 0.5, HUGE),
        lambda: certificate("finite_class", HUGE, 0.5, 3),
        lambda: certificate("vc_sauer", 10, 0.5, HUGE),
        lambda: certificate("vc_sauer", 10, 0.5, float("nan")),
        lambda: growth_preset(10, HUGE),
        lambda: certificate("growth", 10, 0.5, HUGE),
        lambda: mcdiarmid(HUGE, 0.5),
        lambda: mcdiarmid(float("nan"), 0.5),
        lambda: with_rademacher(float("nan")),
        lambda: with_rademacher(float("inf")),
        lambda: certificate("permutation", 10, 0.5, 1e308),  # log(4N) overflows to inf
        lambda: certificate_finite_class(10, 10 ** 308, 0.5),
    ], ids=["n-pi-nan", "n-pi-inf", "n-pi-huge", "class-size-huge", "n-huge", "nu-huge",
            "nu-nan", "growth-class-size-huge", "growth-huge", "mcdiarmid-n-huge",
            "mcdiarmid-n-nan", "rademacher-nan", "rademacher-inf", "n-pi-1e308",
            "class-size-1e308"])
    def test_rejected(self, call):
        with pytest.raises(ConfigError, match="must be a finite number"):
            call()

    def test_large_finite_counts_still_certify(self):
        cert = certificate_finite_class(10 ** 300, 10 ** 300, 0.5)
        assert math.isfinite(cert.epsilon) and not cert.vacuous


class TestCertificates:
    def test_zero_rademacher_delta_one(self):
        cert = certificate("growth", 10, 1.0, 1)
        assert cert.epsilon == 0.0

    def test_spot_values(self):
        assert certificate_finite_class(100, 5, 0.1).epsilon == pytest.approx(0.35207, abs=1e-4)
        assert certificate_finite_class(50000, 5, 0.05).epsilon == pytest.approx(0.01642, abs=1e-5)

    def test_composition_invariant(self):
        cert = certificate_finite_class(321, 9, 0.2)
        assert cert.epsilon == pytest.approx(
            2 * cert.rademacher_bound + mcdiarmid(321, 0.2)
        )

    def test_monotonicity(self):
        base = certificate_finite_class(500, 8, 0.1).epsilon
        assert certificate_finite_class(2000, 8, 0.1).epsilon < base
        assert certificate_finite_class(500, 8, 0.01).epsilon > base
        assert certificate_finite_class(500, 80, 0.1).epsilon > base

    @pytest.mark.parametrize("n", [True, 200.0, np.float64(200)], ids=repr)
    def test_sample_size_is_a_count_not_a_bool_or_float(self, n):
        message = f"sample size must be a positive integer, got {n!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            certificate("finite_class", n, 0.05, 3)

    def test_numpy_integer_sample_size(self):
        cert = certificate("finite_class", np.int64(200), 0.05, 3)
        assert cert.n == 200 and type(cert.n) is int

    def test_serialization(self):
        cert = certificate_finite_class(100, 5, 0.1)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["method"] == "finite_class"
        assert payload["inputs"] == {"class_size": 5}
        assert payload["epsilon"] == pytest.approx(cert.epsilon)


def with_epsilon(epsilon):
    return replace(certificate("growth", 1, 1.0, 1), epsilon=epsilon)


class TestRiskErrorPropagation:
    def test_linear_propagation(self):
        cert = certificate("growth", 100, 1.0, 1)
        assert risk_error_bound(cert, 3.0, 1.0) == 0.0
        cert2 = certificate_finite_class(50000, 5, 0.05)
        assert risk_error_bound(cert2, 1.0, 1.0) == cert2.epsilon
        # CVaR at alpha=0.05 on [0, 1] losses: constant 20x the mean's.
        assert risk_error_bound(cert2, 20.0, 1.0) == pytest.approx(20 * cert2.epsilon)

    def test_holder_exponent(self):
        assert risk_error_bound(with_epsilon(0.1), 2.0, 1.0) == pytest.approx(0.2)
        assert risk_error_bound(with_epsilon(0.04), 1.0, 0.5) == pytest.approx(0.2)
        assert risk_error_bound(with_epsilon(0.0), 7.0, 0.3) == 0.0


def _gaussian_sampler(rng, size):
    x = standard_normal(rng, (size, 1))
    return x, np.zeros(size)


class TestMonteCarloEn:
    def test_constant_model_gives_zero(self):
        fns = [lambda X, y: np.ones(X.shape[0])]
        res = monte_carlo_en(fns, _gaussian_sampler, n=20, reps=10, seed=1,
                             reference_sample_size=200)
        assert np.all(res.values == 0.0)

    @pytest.mark.parametrize("n,reps", [(20, 0), (20, -3), (0, 5), (-1, 5)])
    def test_nonpositive_counts_raise_config_error(self, n, reps):
        fns = [lambda X, y: np.abs(X[:, 0])]
        with pytest.raises(ConfigError):
            monte_carlo_en(fns, _gaussian_sampler, n=n, reps=reps, seed=0,
                           reference_sample_size=200)

    @pytest.mark.parametrize("arg, value", [("n", 2.5), ("n", True), ("reps", 2.5),
                                            ("reps", False), ("reference_sample_size", 2.5),
                                            ("reference_sample_size", True)])
    def test_non_integer_counts_raise_config_error(self, arg, value):
        fns = [lambda X, y: np.abs(X[:, 0])]
        kwargs = {"n": 20, "reps": 3, "reference_sample_size": 200, arg: value}
        got = ", ".join(repr(kwargs[k]) for k in ("n", "reps", "reference_sample_size"))
        with pytest.raises(ConfigError, match=rf"needs integers .* got {re.escape(got)}$"):
            monte_carlo_en(fns, _gaussian_sampler, seed=0, **kwargs)

    def test_validate_bounds_script_exits_with_config_code(self, tmp_path):
        proc = run_validate_bounds("--reps", "0", "--out", str(tmp_path))
        assert proc.returncode == ConfigError.exit_code
        assert "reps" in proc.stderr and "Traceback" not in proc.stderr

    def test_validate_bounds_script_writes_monte_carlo_values(self, tmp_path):
        proc = run_validate_bounds("--n", "50", "--reps", "30", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "en_samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rep", "e_n"]
        assert [int(r) for r, _ in rows[1:]] == list(range(30))
        # The script's defaults: seed 321, five logistic models, a 20,000-point reference.
        models = [init_model("logistic_crossentropy", 2, seed=derive_seed(321, "model", j))
                  for j in range(5)]
        fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
        res = monte_carlo_en(fns, blob_mixture_sampler(), n=50, reps=30, seed=321,
                             reference_sample_size=20_000)
        assert [float(v) for _, v in rows[1:]] == res.values.tolist()

    def test_weak_reference_warns(self):
        fns = [lambda X, y: np.abs(X[:, 0])]
        with pytest.warns(WeakReference):
            monte_carlo_en(fns, _gaussian_sampler, n=50, reps=2, seed=0,
                           reference_sample_size=100)

    def test_rep_seeds_do_not_depend_on_rep_count(self):
        # Each repetition seeds from (seed, "rep", r), so a shorter run is a prefix.
        fns = [lambda X, y: np.abs(X[:, 0]), lambda X, y: X[:, 0] ** 2]
        kwargs = dict(n=40, seed=9, reference_sample_size=400)
        long = monte_carlo_en(fns, _gaussian_sampler, reps=10, **kwargs)
        short = monte_carlo_en(fns, _gaussian_sampler, reps=5, **kwargs)
        again = monte_carlo_en(fns, _gaussian_sampler, reps=10, **kwargs)
        assert np.array_equal(long.values[:5], short.values)
        assert np.array_equal(long.values, again.values)

    def test_criterion_3_values_unchanged(self):
        # The first 20 repetitions of acceptance criterion 3, as computed by
        # the merged-breakpoint KS formula (float.hex, so equality is exact).
        seed = 321
        models = [init_model("logistic_crossentropy", 2, seed=derive_seed(seed, "model", j))
                  for j in range(5)]
        fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
        res = monte_carlo_en(fns, blob_mixture_sampler(), n=200, reps=20, seed=seed,
                             reference_sample_size=20_000)
        expected = [float.fromhex(h) for h in (
            "0x1.8a3d70a3d70a4p-4", "0x1.292a30553261cp-4", "0x1.ae7d566cf41f0p-4",
            "0x1.10ff972474538p-4", "0x1.3c6a7ef9db230p-4", "0x1.7318fc5048170p-5",
            "0x1.23a29c779a6b4p-3", "0x1.bf487fcb923a0p-5", "0x1.0f9096bb98c7cp-4",
            "0x1.14af4f0d844d1p-4", "0x1.0be0ded288ce0p-4", "0x1.1a027525460acp-4",
            "0x1.f41f212d77310p-5", "0x1.5566cf41f2128p-4", "0x1.b7b4a2339c0ecp-4",
            "0x1.29930be0ded2cp-4", "0x1.6809d495182acp-4", "0x1.29930be0ded28p-4",
            "0x1.257a786c22680p-4", "0x1.226809d495184p-4",
        )]
        assert res.values.tolist() == expected

    def test_root_n_scaling_and_quantile(self):
        fns = [lambda X, y: np.abs(X[:, 0])]
        small = monte_carlo_en(fns, _gaussian_sampler, n=50, reps=200, seed=3,
                               reference_sample_size=5000)
        large = monte_carlo_en(fns, _gaussian_sampler, n=200, reps=200, seed=3,
                               reference_sample_size=5000)
        ratio = large.median / small.median
        assert 0.35 <= ratio <= 0.65
        assert 0.0 <= small.quantile(0.9) <= 1.0

    def test_csv_export(self, tmp_path):
        fns = [lambda X, y: np.abs(X[:, 0])]
        res = monte_carlo_en(fns, _gaussian_sampler, n=20, reps=3, seed=2,
                             reference_sample_size=200)
        out = tmp_path / "en.csv"
        res.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rep,e_n"
        assert len(lines) == 4


def run_validate_bounds(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def left_limit(cdf, r):
    """F(r-), the fraction of the sample strictly below r."""
    return np.searchsorted(cdf.values, r, side="left") / cdf.n


def searchsorted_ks(a, b):
    """The per-pair KS distance monte_carlo_en used before the rows kernel:
    both limits at the smaller sample's points, by searchsorted."""
    if a.n > b.n:
        a, b = b, a
    x = a.values
    d_right = np.abs(a.eval(x) - b.eval(x)).max()
    d_left = np.abs(left_limit(a, x) - left_limit(b, x)).max()
    return float(max(d_right, d_left))


def per_rep_monte_carlo_en(loss_fns, sample_data, n, reps, seed, reference_sample_size):
    """monte_carlo_en as a loop over repetitions and models: one loss call,
    one CDF and one KS distance per (repetition, model)."""
    x_ref, y_ref = sample_data(rng_from(seed, "reference"), reference_sample_size)
    references = [build_cdf(fn(x_ref, y_ref)) for fn in loss_fns]
    values = []
    for r in range(reps):
        x, y = sample_data(rng_from(seed, "rep", r), n)
        values.append(max((searchsorted_ks(build_cdf(fn(x, y)), ref)
                           for fn, ref in zip(loss_fns, references)), default=0.0))
    return np.asarray(values)


TIE_HEAVY_FNS = [
    lambda X, y: np.abs(X[:, 0]),
    lambda X, y: np.floor(2.0 * np.abs(X[:, 0])),       # a few integer values
    lambda X, y: np.zeros(X.shape[0]),                   # every loss tied
    lambda X, y: np.round(X[:, 0] ** 2, 1),              # ties with the reference
]


class TestBlockedMonteCarlo:
    """Blocks of repetitions give the per-repetition loop's floats exactly."""

    @pytest.mark.parametrize("n,reps,reference", [
        (20, 7, 200),     # reps below the block size of 10
        (20, 10, 200),    # reps equal to it
        (20, 23, 200),    # reps not a multiple of it
        (1, 45, 20),      # one-point samples, blocks of 20
        (30, 9, 900),     # one block covers every rep
        (50, 6, 30),      # n > reference: blocks of one
        (40, 5, 40),      # n = reference
    ])
    def test_matches_per_rep_loop(self, n, reps, reference):
        kwargs = dict(n=n, reps=reps, seed=n + reps, reference_sample_size=reference)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakReference)
            got = monte_carlo_en(TIE_HEAVY_FNS, _gaussian_sampler, **kwargs)
            want = per_rep_monte_carlo_en(TIE_HEAVY_FNS, _gaussian_sampler, **kwargs)
        assert got.values.dtype == want.dtype and got.values.tolist() == want.tolist()

    def test_logistic_models_match_per_rep_loop(self):
        models = [init_model("logistic_crossentropy", 2, seed=derive_seed(4, "model", j))
                  for j in range(3)]
        fns = [(lambda X, y, m=m: m.batch_losses(X, y)) for m in models]
        kwargs = dict(n=150, reps=37, seed=4, reference_sample_size=2_000)
        got = monte_carlo_en(fns, blob_mixture_sampler(), **kwargs)
        want = per_rep_monte_carlo_en(fns, blob_mixture_sampler(), **kwargs)
        assert got.values.tolist() == want.tolist()

    def test_one_loss_call_per_model_and_block(self):
        calls = []

        def fn(X, y):
            calls.append(X.shape[0])
            return np.abs(X[:, 0])

        monte_carlo_en([fn], _gaussian_sampler, n=20, reps=23, seed=0,
                       reference_sample_size=200)
        # The reference, then blocks of 10, 10 and 3 repetitions.
        assert calls == [200, 200, 200, 60]

    def test_no_models_gives_zeros(self):
        res = monte_carlo_en([], _gaussian_sampler, n=5, reps=4, seed=0,
                             reference_sample_size=50)
        assert res.values.tolist() == [0.0] * 4

    def test_peak_memory_stays_order_reference(self):
        # Blocks of 25 repetitions hold 20,000 losses each, like the
        # reference; all 1,000 repetitions at once would hold 800,000.
        fns = [lambda X, y: np.abs(X[:, 0]), lambda X, y: np.floor(4.0 * X[:, 0] ** 2)]
        tracemalloc.start()
        try:
            monte_carlo_en(fns, _gaussian_sampler, n=800, reps=1000, seed=0,
                           reference_sample_size=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def _bad_loss(kind):
    def fn(X, y):
        losses = np.abs(X[:, 0])
        if kind == "short":
            return losses[:-1]
        losses[3] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[kind]
        return losses
    return fn


class TestLossFunctionContract:
    def test_wrong_length_raises_shape_error(self):
        fns = [lambda X, y: np.abs(X[:, 0]), _bad_loss("short")]
        with pytest.raises(ShapeError, match=r"^loss function 1 returned 199 losses for 200 rows$"):
            monte_carlo_en(fns, _gaussian_sampler, n=20, reps=3, seed=0,
                           reference_sample_size=200)

    def test_wrong_length_on_the_block_raises_shape_error(self):
        def per_call_sample(X, y):  # right for the reference, wrong for a block
            return np.abs(X[:20, 0]) if X.shape[0] != 200 else np.abs(X[:, 0])

        with pytest.raises(ShapeError, match=r"^loss function 0 returned 20 losses for 60 rows$"):
            monte_carlo_en([per_call_sample], _gaussian_sampler, n=20, reps=3, seed=0,
                           reference_sample_size=200)

    @pytest.mark.parametrize("kind, text", [
        ("nan", "losses must be finite (no NaN/inf)"),
        ("inf", "losses must be finite (no NaN/inf)"),
        ("negative", "losses must be nonnegative"),
    ])
    def test_invalid_loss_keeps_build_cdf_text(self, kind, text):
        with pytest.raises(InvalidLoss) as build_err:
            build_cdf(_bad_loss(kind)(np.ones((5, 1)), None))
        assert str(build_err.value) == text
        with pytest.raises(InvalidLoss) as mc_err:
            monte_carlo_en([_bad_loss(kind)], _gaussian_sampler, n=20, reps=3, seed=0,
                           reference_sample_size=200)
        assert str(mc_err.value) == text

    @pytest.mark.parametrize("kind, error, text", [
        ("short", ShapeError, "loss function 0 returned 19999 losses for 20000 rows"),
        ("nan", InvalidLoss, "losses must be finite (no NaN/inf)"),
        ("negative", InvalidLoss, "losses must be nonnegative"),
    ])
    def test_script_reports_one_error_line(self, tmp_path, monkeypatch, capsys,
                                           kind, error, text):
        spec = importlib.util.spec_from_file_location("validate_bounds", SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        class BadModel:
            batch_losses = staticmethod(_bad_loss(kind))

        monkeypatch.setattr(script, "init_model", lambda *a, **k: BadModel())
        monkeypatch.setattr(sys, "argv", ["validate_bounds.py", "--n", "20", "--reps", "3",
                                          "--out", str(tmp_path)])
        assert script.main() == error.exit_code
        err = capsys.readouterr().err
        assert err == f"validate_bounds: error: {text}\n"
