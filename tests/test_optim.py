import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcdf.cdf import build_cdf
from riskcdf.errors import ConfigError, DataError, Diverged, InvalidLoss
from riskcdf.models import LossModel, init_model, relative_error
from riskcdf.optim import (
    TrainConfig,
    distortion_gradient,
    estimate_beta,
    noisy_gd_step,
    stationarity_report,
    train,
)
from riskcdf.risks import (
    DistortionSpec,
    cvar_distortion,
    distortion_risk,
    identity_distortion,
    load_distortion_csv,
)
from riskcdf.seeds import rng_from, standard_normal

loss_vectors = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=30
)


def passthrough_model(n):
    """Linear model exposing one loss per diagonal example: loss_i = params[i]^2."""
    X = np.eye(n)
    y = np.zeros(n)
    return X, y


def random_problem(arch, seed, n=25, dim=3):
    rng = rng_from(seed, "problem")
    X = standard_normal(rng, (n, dim))
    if arch == "linear_squared":
        y = standard_normal(rng, n)
    else:
        y = (rng.random(n) < 0.5).astype(float)
    model = init_model(arch, dim, (4,) if arch == "mlp_tanh" else (), seed=seed)
    return model, X, y


def empirical_distortion_risk(model, X, y, spec):
    """Distortion risk of the model's per-example losses, through their CDF."""
    return distortion_risk(build_cdf(model.batch_losses(X, y)), spec).value


class TestEmpiricalDistortionRisk:
    def test_identity_is_mean(self):
        model, X, y = random_problem("linear_squared", 0, n=4)
        losses = model.batch_losses(X, y)
        assert empirical_distortion_risk(model, X, y, identity_distortion()) == pytest.approx(
            float(np.mean(losses))
        )

    def test_agrees_exactly_with_cdf_evaluator(self):
        model, X, y = random_problem("logistic_crossentropy", 3)
        spec = cvar_distortion(0.25)
        _, trace = train(model, X, y, TrainConfig(distortion=spec, iterations=1, eta=0.1))
        assert trace.risk[0] == empirical_distortion_risk(model, X, y, spec)

    def test_single_example(self):
        m = LossModel("linear_squared", params=np.array([2.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([0.0])
        assert empirical_distortion_risk(m, X, y, cvar_distortion(0.05)) == pytest.approx(4.0)

    def test_order_invariance(self):
        model, X, y = random_problem("logistic_crossentropy", 8)
        perm = rng_from(8, "perm").permutation(X.shape[0])
        spec = cvar_distortion(0.5)
        assert empirical_distortion_risk(model, X[perm], y[perm], spec) == pytest.approx(
            empirical_distortion_risk(model, X, y, spec)
        )


class TestDistortionGradient:
    def test_identity_weights_recover_mean_gradient(self):
        model, X, y = random_problem("mlp_tanh", 5, n=12)
        grad = distortion_gradient(model, X, y, identity_distortion())
        mean_grad = model.batch_gradients(X, y).mean(axis=0)
        assert np.max(np.abs(grad - mean_grad)) < 1e-12

    def test_cvar_half_weights(self):
        # n=4, g(t)=min(2t,1): increments at (1, .75, .5, .25) are (0,0,.5,.5).
        X, y = passthrough_model(4)
        m = LossModel("linear_squared", params=np.array([1.0, 2.0, 3.0, 4.0]), input_dim=4)
        grad = distortion_gradient(m, X, y, cvar_distortion(0.5))
        # losses (1,4,9,16) already ascending; grad_i = 2*params_i on coord i.
        assert grad == pytest.approx([0.0, 0.0, 0.5 * 6.0, 0.5 * 8.0])

    def test_single_example_weight_one(self):
        model, X, y = random_problem("logistic_crossentropy", 2, n=1)
        grad = distortion_gradient(model, X, y, cvar_distortion(0.05))
        assert np.allclose(grad, model.batch_gradients(X, y)[0])

    @given(st.integers(min_value=1, max_value=40), st.sampled_from([0.05, 0.3, 1.0]))
    @settings(max_examples=40)
    def test_weights_nonnegative_sum_to_one(self, n, alpha):
        weights = cvar_distortion(alpha).rank_weights(n)
        assert np.all(weights >= -1e-15)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("arch", ["linear_squared", "logistic_crossentropy", "mlp_tanh"])
    @pytest.mark.parametrize("spec_name,spec", [
        ("identity", identity_distortion()),
        ("cvar_half", cvar_distortion(0.5)),
    ])
    def test_directional_finite_difference(self, arch, spec_name, spec):
        h = 1e-6
        checked = 0
        trial = 0
        while checked < 15:
            trial += 1
            model, X, y = random_problem(arch, 300 + trial)
            losses = model.batch_losses(X, y)
            if np.min(np.diff(np.sort(losses))) < 1e-4:
                continue  # re-sample near-ties: sort order must not flip within +-h
            rng = rng_from(trial, "direction", arch, spec_name)
            u = standard_normal(rng, model.dim)
            u /= np.linalg.norm(u)
            up = empirical_distortion_risk(model.with_params(model.params + h * u), X, y, spec)
            dn = empirical_distortion_risk(model.with_params(model.params - h * u), X, y, spec)
            fd = (up - dn) / (2 * h)
            ip = float(distortion_gradient(model, X, y, spec) @ u)
            assert relative_error(fd, ip) <= 1e-4
            checked += 1


def old_distortion_gradient(model, X, y, spec):
    """The per-example contraction the fused step replaced, kept as the oracle."""
    losses = model.batch_losses(X, y)
    n = losses.shape[0]
    order = np.argsort(losses, kind="stable")
    levels = spec(1.0 - np.arange(n + 1) / n)
    weights = levels[:-1] - levels[1:]
    return model.batch_gradients(X, y)[order].T @ weights


ORACLE_MODELS = [("linear_squared", ()), ("logistic_crossentropy", ()),
                 ("mlp_tanh", (4,)), ("mlp_tanh", (5, 3))]


def oracle_problem(trial):
    """Random dataset; every odd trial repeats rows so that losses tie."""
    arch, hidden = ORACLE_MODELS[trial % len(ORACLE_MODELS)]
    rng = rng_from(trial, "oracle")
    n = int(rng.integers(2, 60))
    dim = int(rng.integers(1, 5))
    X = standard_normal(rng, (n, dim))
    if arch == "linear_squared":
        y = standard_normal(rng, n)
    else:
        y = (rng.random(n) < 0.5).astype(float)
    if trial % 2:
        rows = rng.integers(0, max(1, n // 3), n)
        X, y = X[rows], y[rows]
    return init_model(arch, dim, hidden, seed=trial), X, y


@pytest.fixture(scope="module")
def concave_file_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "concave.csv"
    path.write_text("t,g\n0,0\n0.1,0.45\n0.35,0.8\n0.7,0.95\n1,1\n")
    return load_distortion_csv(path)


def oracle_specs(n, rng, file_spec):
    # alpha * n lies strictly between two integers, so one sorted loss gets
    # a fractional weight.
    alpha = (int(rng.integers(0, n)) + float(rng.uniform(0.1, 0.9))) / n
    return [identity_distortion(), cvar_distortion(alpha), file_spec]


class TestFusedStepOracle:
    def test_matches_per_example_contraction(self, concave_file_spec):
        ties = 0
        for trial in range(120):
            model, X, y = oracle_problem(trial)
            losses = model.batch_losses(X, y)
            ties += np.unique(losses).size < losses.size
            for spec in oracle_specs(X.shape[0], rng_from(trial, "alpha"), concave_file_spec):
                fused = distortion_gradient(model, X, y, spec)
                oracle = old_distortion_gradient(model, X, y, spec)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(fused - oracle)) <= 1e-12 * scale, (trial, spec.name)
        assert ties >= 60

    def test_loss_and_vjp_losses_are_batch_losses(self):
        for trial in range(40):
            model, X, y = oracle_problem(trial)
            losses, _ = model.loss_and_vjp(X, y)
            assert np.array_equal(losses, model.batch_losses(X, y))

    @pytest.mark.parametrize("trial", range(8))
    def test_train_risk_is_cdf_risk_of_each_iterate(self, trial, concave_file_spec):
        model, X, y = oracle_problem(trial)
        for spec in oracle_specs(X.shape[0], rng_from(trial, "alpha"), concave_file_spec):
            cfg = TrainConfig(distortion=spec, iterations=12, eta=0.05, seed=trial,
                              snapshot_every=1)
            _, trace = train(model, X, y, cfg)
            assert [t for t, _, _ in trace.snapshots] == list(range(1, 13))
            for t, theta, grad in trace.snapshots:
                current = model.with_params(theta)
                losses = current.batch_losses(X, y)
                assert trace.risk[t - 1] == distortion_risk(build_cdf(losses), spec).value
                assert np.array_equal(grad, distortion_gradient(current, X, y, spec))

    def test_negative_losses_raise_invalid_loss(self):
        class ShiftedLinear(LossModel):
            """linear_squared with every loss lowered by one, so some go negative."""

            def loss_and_vjp(self, X, y):
                losses, vjp = super().loss_and_vjp(X, y)
                return losses - 1.0, vjp

        X, y = np.array([[1.0], [2.0]]), np.array([1.0, 0.0])
        model = ShiftedLinear("linear_squared", params=np.array([1.0]), input_dim=1)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=3, eta=0.1)
        with pytest.raises(InvalidLoss):
            train(model, X, y, cfg)
        with pytest.raises(InvalidLoss):
            empirical_distortion_risk(model, X, y, identity_distortion())

    def test_mlp_step_memory_at_least_halves(self):
        n = 100_000
        rng = rng_from(0, "memory")
        X = standard_normal(rng, (n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        model = init_model("mlp_tanh", 2, (32,), seed=0)
        spec = cvar_distortion(0.05)

        def peak(fn):
            tracemalloc.start()
            try:
                fn(model, X, y, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fused, old = peak(distortion_gradient), peak(old_distortion_gradient)
        assert fused < 0.5 * old, (fused, old)


class TestNoisyStep:
    def test_zero_gradient_zero_noise(self):
        theta = np.array([1.0, -2.0])
        assert np.array_equal(noisy_gd_step(theta, np.zeros(2), 0.5, rng=None), theta)

    def test_zero_eta(self):
        theta = np.array([1.0])
        out = noisy_gd_step(theta, np.array([3.0]), 0.0, rng=rng_from(0, "x"))
        assert np.array_equal(out, theta)

    def test_arithmetic(self):
        out = noisy_gd_step(np.array([0.0]), np.array([2.0]), 0.5, rng=None)
        assert out == pytest.approx([-1.0])

    def test_noise_unit_mean_square(self):
        rng = rng_from(7, "noise_scale")
        d = 50
        sq = [np.sum((noisy_gd_step(np.zeros(d), np.zeros(d), 1.0, rng)) ** 2)
              for _ in range(400)]
        assert np.mean(sq) == pytest.approx(1.0, rel=0.15)


class TestTrain:
    @pytest.mark.parametrize("arch", ["logistic_crossentropy", "mlp_tanh"])
    @pytest.mark.parametrize("label", [2.0, -0.5, float("nan")])
    def test_crossentropy_rejects_labels_outside_unit_interval(self, arch, label, monkeypatch):
        model, X, y = random_problem(arch, 4, n=6)
        y[3] = label

        def no_step(self, X, y):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(LossModel, "loss_and_vjp", no_step)  # rejected before any step
        cfg = TrainConfig(distortion=identity_distortion(), iterations=3, eta=0.1)
        with pytest.raises(DataError, match=f"{arch}: label {label:g} of example 4 is outside"):
            train(model, X, y, cfg)

    def test_linear_squared_takes_any_label(self):
        model, X, y = random_problem("linear_squared", 4, n=6)
        y[3] = 7.5
        cfg = TrainConfig(distortion=identity_distortion(), iterations=2, eta=0.01)
        _, trace = train(model, X, y, cfg)
        assert trace.iterations == 2

    def test_eta_zero_is_flat(self):
        model, X, y = random_problem("logistic_crossentropy", 1)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=5, eta=0.0,
                          seed=0, noise=False)
        _, trace = train(model, X, y, cfg)
        assert np.all(trace.risk == trace.risk[0])

    def test_quadratic_geometric_convergence(self):
        # One example, identity g: plain GD on loss (p*x - y)^2, closed form
        # contraction |p_t - y/x| = |1 - 2*eta*x^2|^t |p_0 - y/x|.
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([3.0])
        eta = 0.25
        cfg = TrainConfig(distortion=identity_distortion(), iterations=30, eta=eta,
                          seed=0, noise=False)
        final, trace = train(m, X, y, cfg)
        rate = abs(1 - 2 * eta)
        for t in range(1, 10):
            expect = (rate ** t * 3.0) ** 2
            assert trace.risk[t] == pytest.approx(expect, rel=1e-9)
        assert final.params[0] == pytest.approx(3.0, abs=1e-3)

    def test_bit_reproducible(self):
        model, X, y = random_problem("logistic_crossentropy", 4)
        cfg = TrainConfig(distortion=cvar_distortion(0.25), iterations=40, eta=0.05, seed=12)
        final_a, trace_a = train(model, X, y, cfg)
        final_b, trace_b = train(model, X, y, cfg)
        assert np.array_equal(final_a.params, final_b.params)
        assert np.array_equal(trace_a.risk, trace_b.risk)

    def test_divergence_guard(self):
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([0.0])
        cfg = TrainConfig(distortion=identity_distortion(), iterations=500, eta=10.0,
                          seed=0, noise=False)
        with pytest.raises(Diverged) as err:
            train(m, X, y, cfg)
        assert err.value.trace is not None
        assert err.value.trace.iterations < 500

    def test_running_average_matches_mean(self):
        model, X, y = random_problem("logistic_crossentropy", 6)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=25, eta=0.1, seed=3)
        _, trace = train(model, X, y, cfg)
        sq = trace.grad_norm ** 2
        for t in (0, 10, 24):
            assert trace.avg_sq_grad_norm[t] == pytest.approx(float(np.mean(sq[:t + 1])))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(distortion=identity_distortion(), iterations=0, eta=0.1)
        with pytest.raises(ConfigError):
            TrainConfig(distortion=identity_distortion(), iterations=5)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=100, beta=2.0)
        assert cfg.effective_eta == pytest.approx(1 / (2.0 * 10.0))

    @pytest.mark.parametrize("rates", [
        {"eta": float("nan")}, {"eta": float("inf")},
        {"beta": float("nan")}, {"beta": float("inf")},
    ])
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(distortion=identity_distortion(), iterations=5, **rates)

    def test_trace_csv(self, tmp_path):
        model, X, y = random_problem("linear_squared", 9)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=8, eta=0.01, seed=1)
        _, trace = train(model, X, y, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,risk,grad_norm,avg_sq_grad_norm"
        assert len(lines) == 9


class TestStationarity:
    def test_zero_gradient_start(self):
        # Loss constant in theta: gradient identically zero, bound trivially holds.
        m = LossModel("linear_squared", params=np.array([0.5]), input_dim=1)
        X, y = np.array([[0.0]]), np.array([1.0])
        cfg = TrainConfig(distortion=identity_distortion(), iterations=20, eta=0.1,
                          seed=0, noise=False)
        _, trace = train(m, X, y, cfg)
        report = stationarity_report(trace, beta=1.0)
        assert report.mean_sq_grad_norm == 0.0
        assert report.holds

    def test_quadratic_run_with_matched_rate(self):
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([2.0])
        beta = 2.0  # exact smoothness of (p - 2)^2
        T = 400
        cfg = TrainConfig(distortion=identity_distortion(), iterations=T, beta=beta, seed=5)
        _, trace = train(m, X, y, cfg)
        report = stationarity_report(trace, beta=beta)
        assert report.holds
        assert report.best_risk_is_surrogate

    def test_longer_runs_shrink_average(self):
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([2.0])
        means = []
        for T in (100, 400):
            cfg = TrainConfig(distortion=identity_distortion(), iterations=T, beta=2.0, seed=5)
            _, trace = train(m, X, y, cfg)
            means.append(stationarity_report(trace, beta=2.0).mean_sq_grad_norm)
        assert means[1] < means[0]

    def test_beta_estimate_positive(self):
        model, X, y = random_problem("logistic_crossentropy", 13)
        cfg = TrainConfig(distortion=identity_distortion(), iterations=50, eta=0.05,
                          seed=2, snapshot_every=5)
        _, trace = train(model, X, y, cfg)
        assert estimate_beta(trace) > 0
        report = stationarity_report(trace)
        assert report.beta_estimated


def test_toy_experiment_script_runs(tmp_path):
    """scripts/toy_experiment.py trains under the mean and CVaR objectives;
    the CVaR-trained model has the smaller tail."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "toy_experiment.py"),
         "--iters", "30", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "risk_comparison.csv", newline="") as fh:
        rows = {row["objective"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"mean", "cvar0.05"}
    assert float(rows["cvar0.05"]["cvar_0.05"]) < float(rows["mean"]["cvar_0.05"])
