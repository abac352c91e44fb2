import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskcdf.bounds import (
    BoundCertificate,
    certificate_finite_class,
    cdf_uniform_bound,
    excess_risk_bound,
    growth_finite_class,
    mcdiarmid_term,
    monte_carlo_en,
    rademacher_finite_class,
    rademacher_growth,
    rademacher_permutation,
    rademacher_vc_sauer,
    risk_error_bound,
    wasserstein_risk_error_bound,
)
from riskcdf.data import blob_mixture_sampler
from riskcdf.errors import ConfigError, InvalidDelta, InvalidGrowth, WeakReference
from riskcdf.models import init_model
from riskcdf.risks import HolderConstants
from riskcdf.seeds import derive_seed, standard_normal


class TestMcDiarmidTerm:
    def test_delta_one_is_zero(self):
        assert mcdiarmid_term(37, 1.0) == 0.0

    def test_unit_value(self):
        assert mcdiarmid_term(50, math.exp(-100)) == pytest.approx(1.0)

    def test_formula(self):
        assert mcdiarmid_term(100000, 0.05) == pytest.approx(
            math.sqrt(math.log(20) / 200000)
        )

    @pytest.mark.parametrize("delta", [0.0, -0.2, 1.0001])
    def test_invalid_delta(self, delta):
        with pytest.raises(InvalidDelta):
            mcdiarmid_term(10, delta)


class TestRademacherBounds:
    def test_singleton_class(self):
        assert rademacher_finite_class(64, 1) == pytest.approx(math.sqrt(math.log(4) / 128))

    def test_finite_class_values(self):
        assert rademacher_finite_class(100, 5) == pytest.approx(0.1223873, abs=1e-6)
        assert rademacher_finite_class(50000, 5) == pytest.approx(0.0054733, abs=1e-6)

    def test_permutation_matches_finite_class_formula(self):
        for n, size in [(10, 3), (200, 7), (5000, 64)]:
            assert rademacher_permutation(n, size) == rademacher_finite_class(n, size)

    def test_permutation_value(self):
        assert rademacher_permutation(200, 4) == pytest.approx(0.0832555, abs=1e-6)

    def test_growth_values(self):
        assert rademacher_growth(77, 1.0) == 0.0
        assert rademacher_growth(100, growth_finite_class(100, 5)) == pytest.approx(
            2 * math.sqrt(math.log(505) / 100)
        )
        with pytest.raises(InvalidGrowth):
            rademacher_growth(10, 0.5)

    def test_vc_sauer_value(self):
        assert rademacher_vc_sauer(100, 3) == pytest.approx(
            2 * math.sqrt(3 * math.log(101) / 100)
        )

    def test_finite_class_beats_growth_preset(self):
        for n in (100, 1000, 10000):
            for size in (2, 10, 100):
                fc = rademacher_finite_class(n, size)
                gr = rademacher_growth(n, growth_finite_class(n, size))
                assert fc < gr


class TestCertificates:
    def test_zero_rademacher_delta_one(self):
        cert = cdf_uniform_bound(0.0, 10, 1.0)
        assert cert.epsilon == 0.0

    def test_spot_values(self):
        assert certificate_finite_class(100, 5, 0.1).epsilon == pytest.approx(0.35207, abs=1e-4)
        assert certificate_finite_class(50000, 5, 0.05).epsilon == pytest.approx(0.01642, abs=1e-5)

    def test_composition_invariant(self):
        cert = certificate_finite_class(321, 9, 0.2)
        assert cert.epsilon == pytest.approx(
            2 * cert.rademacher_bound + mcdiarmid_term(321, 0.2)
        )

    def test_monotonicity(self):
        base = certificate_finite_class(500, 8, 0.1).epsilon
        assert certificate_finite_class(2000, 8, 0.1).epsilon < base
        assert certificate_finite_class(500, 8, 0.01).epsilon > base
        assert certificate_finite_class(500, 80, 0.1).epsilon > base

    def test_serialization(self):
        cert = certificate_finite_class(100, 5, 0.1)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["method"] == "finite_class"
        assert payload["inputs"] == {"class_size": 5}
        assert payload["epsilon"] == pytest.approx(cert.epsilon)


def with_epsilon(epsilon):
    return BoundCertificate(n=1, delta=1.0, rademacher_bound=0.0, method="user_supplied",
                            epsilon=epsilon)


class TestRiskErrorPropagation:
    def test_linear_propagation(self):
        cert = cdf_uniform_bound(0.0, 100, 1.0)
        assert risk_error_bound(cert, HolderConstants(3.0)) == 0.0
        cert2 = certificate_finite_class(50000, 5, 0.05)
        assert risk_error_bound(cert2, HolderConstants(1.0)) == cert2.epsilon
        # CVaR at alpha=0.05 on [0, 1] losses: constant 20x the mean's.
        assert risk_error_bound(cert2, HolderConstants(20.0)) == pytest.approx(20 * cert2.epsilon)

    def test_holder_exponent(self):
        assert risk_error_bound(with_epsilon(0.1), HolderConstants(2.0, 1.0)) == pytest.approx(0.2)
        assert risk_error_bound(with_epsilon(0.04), HolderConstants(1.0, 0.5)) == pytest.approx(0.2)
        assert risk_error_bound(with_epsilon(0.0), HolderConstants(7.0, 0.3)) == 0.0

    def test_wasserstein_propagation(self):
        cert = cdf_uniform_bound(0.0, 200, 0.5)
        eps = cert.epsilon
        assert wasserstein_risk_error_bound(cert, 1.0, 1.0, 1.0) == pytest.approx(eps)
        cert_known = cdf_uniform_bound((0.02 - mcdiarmid_term(20000, 0.5)) / 2, 20000, 0.5)
        assert cert_known.epsilon == pytest.approx(0.02)
        assert wasserstein_risk_error_bound(cert_known, 1.0, 2.0, 0.5) == pytest.approx(0.2)

    def test_excess_risk_doubles(self):
        assert excess_risk_bound(0.0) == 0.0
        assert excess_risk_bound(0.1) == pytest.approx(0.2)
        assert excess_risk_bound(0.328) == pytest.approx(0.656)
        with pytest.raises(ConfigError):
            excess_risk_bound(-0.1)


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

    def test_validate_bounds_script_exits_with_config_code(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "validate_bounds.py"),
             "--reps", "0", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == ConfigError.exit_code
        assert "reps" in proc.stderr and "Traceback" not in proc.stderr

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
