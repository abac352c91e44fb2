import csv
import math
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
from riskcdf.errors import ConfigError, DataError, Diverged, EmptySample, InvalidLoss, ShapeError
from riskcdf import optim
from riskcdf.data import _BUFFER_DOUBLES, toy_blobs
from riskcdf.models import (ARCHITECTURES, MAX_CROSSENTROPY_LOSS, LossModel, init_model,
                            relative_error)
from riskcdf.optim import (
    distortion_gradient,
    estimate_beta,
    noisy_gd_step,
    stationarity_report,
    train,
)
from riskcdf.risks import (
    cvar_distortion,
    distortion_risk,
    identity_distortion,
    load_distortion_csv,
)
from riskcdf.seeds import rng_from, standard_normal, standard_normal_rows

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
        _, trace = train(model, X, y, spec, 1, eta=0.1)
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

    def test_repeated_calls_build_the_weights_once(self, rank_weight_calls):
        model, X, y = random_problem("mlp_tanh", 7, n=30)
        spec = cvar_distortion(0.05)
        grads = [distortion_gradient(model, X, y, spec) for _ in range(3)]
        assert rank_weight_calls == [30]
        assert all(np.array_equal(grad, grads[0]) for grad in grads)


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
            _, trace = train(model, X, y, spec, 12, eta=0.05, seed=trial)
            assert [t for t, _, _ in trace.snapshots] == list(range(1, 13))
            for t, theta, grad in trace.snapshots:
                current = model.with_params(theta)
                losses = current.batch_losses(X, y)
                assert trace.risk[t - 1] == distortion_risk(build_cdf(losses), spec).value
                assert np.array_equal(grad, distortion_gradient(current, X, y, spec))

    @pytest.mark.parametrize("spec", [identity_distortion(), cvar_distortion(0.5)],
                             ids=["identity", "cvar-half"])
    def test_negative_losses_raise_invalid_loss(self, spec):
        class ShiftedLinear(LossModel):
            """linear_squared with every loss lowered by one, so some go negative."""

            def loss_and_vjp(self, X, y):
                losses, vjp = super().loss_and_vjp(X, y)
                return losses - 1.0, vjp

        # Losses (-1, 3, 8, 15): under CVaR at 1/2 the negative one is at a
        # rank of zero weight, below every example the step sorts.
        X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 0.0, 0.0, 0.0])
        model = ShiftedLinear("linear_squared", params=np.array([1.0]), input_dim=1)
        with pytest.raises(InvalidLoss):
            train(model, X, y, spec, 3, eta=0.1)
        with pytest.raises(InvalidLoss):
            distortion_gradient(model, X, y, spec)
        with pytest.raises(InvalidLoss):
            empirical_distortion_risk(model, X, y, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("spec", [identity_distortion(), cvar_distortion(0.5)],
                             ids=["identity", "cvar-half"])
    def test_gradient_rejects_non_finite_losses(self, spec, bad):
        class OneBadLoss(LossModel):
            """linear_squared with the second loss replaced by ``bad``."""

            def loss_and_vjp(self, X, y):
                losses, vjp = super().loss_and_vjp(X, y)
                losses[1] = bad
                return losses, vjp

        # Finite data and parameters, so the one non-finite loss among finite
        # ones is what the check rejects.
        X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.zeros(4)
        model = OneBadLoss("linear_squared", params=np.array([1.0]), input_dim=1)
        with pytest.raises(InvalidLoss, match="finite"):
            distortion_gradient(model, X, y, spec)

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


def tied_problem(trial):
    """Losses tied across a rank, each tied example with its own gradient.

    Odd trials use the passthrough model with params[i] from five values,
    so that loss_i = params[i]^2 ties, and its gradient 2 * params[i] lies
    on coordinate i alone.
    Even trials use a logistic model whose losses below score -28 are all
    clamped at MAX_CROSSENTROPY_LOSS, with gradients about -x for distinct x.
    """
    rng = rng_from(trial, "tied")
    n = int(rng.integers(4, 40))
    if trial % 2:
        X, y = passthrough_model(n)
        params = rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0], n)
        return LossModel("linear_squared", params=params, input_dim=n), X, y
    x = np.where(rng.random(n) < 0.5, rng.uniform(-300.0, -40.0, n), rng.uniform(-5.0, 5.0, n))
    model = LossModel("logistic_crossentropy", params=np.array([1.0]), input_dim=1)
    return model, x[:, None], np.ones(n)


def straddling_cvar(losses, rng):
    """CVaR whose first weighted rank lo splits a run of tied losses, with
    alpha * n strictly between two integers; None if no run can be split."""
    n = losses.shape[0]
    ascending = np.sort(losses)
    splits = np.flatnonzero(ascending[1:] == ascending[:-1]) + 1
    if splits.size == 0:
        return None
    lo = int(rng.choice(splits))
    spec = cvar_distortion((n - lo - float(rng.uniform(0.1, 0.9))) / n)
    weights = spec.rank_weights(n)
    assert np.all(weights[:lo] == 0.0) and weights[lo] > 0.0
    return spec


class TestTiesAtFirstWeightedRank:
    """Ties that cross the first weighted rank break as a full stable sort breaks them."""

    def test_gradient_matches_per_example_contraction(self):
        straddled = clamped = 0
        for trial in range(80):
            model, X, y = tied_problem(trial)
            losses = model.batch_losses(X, y)
            spec = straddling_cvar(losses, rng_from(trial, "lo"))
            if spec is None:
                continue
            straddled += 1
            clamped += np.sum(losses == MAX_CROSSENTROPY_LOSS) > 1
            fused = distortion_gradient(model, X, y, spec)
            oracle = old_distortion_gradient(model, X, y, spec)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(fused - oracle)) <= 1e-12 * scale, trial
        assert straddled >= 60 and clamped >= 20

    @pytest.mark.parametrize("trial", range(6))
    def test_train_risk_and_gradient_of_each_iterate(self, trial, zero_step_noise):
        model, X, y = tied_problem(trial)
        spec = straddling_cvar(model.batch_losses(X, y), rng_from(trial, "lo"))
        assert spec is not None
        # Without noise, tied examples of equal weight stay tied.
        _, trace = train(model, X, y, spec, 10, eta=0.01)
        for t, theta, grad in trace.snapshots:
            current = model.with_params(theta)
            losses = current.batch_losses(X, y)
            assert trace.risk[t - 1] == distortion_risk(build_cdf(losses), spec).value
            oracle = old_distortion_gradient(current, X, y, spec)
            assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestWeightedRowsOnly:
    """A step backpropagates the examples at weighted ranks and no others."""

    @pytest.mark.parametrize("risk, alpha", [("mean", 1.0), ("cvar", 0.05)])
    def test_rows_passed_to_vjp(self, risk, alpha):
        calls = []

        class RowRecorder(LossModel):
            def loss_and_vjp(self, X, y):
                losses, vjp = super().loss_and_vjp(X, y)

                def recording_vjp(rows, v):
                    calls.append((losses, np.arange(losses.shape[0])[rows]))
                    return vjp(rows, v)

                return losses, recording_vjp

        X, y = toy_blobs(seed=0)
        n, dim = X.shape
        start = init_model("logistic_crossentropy", dim, seed=0)
        model = RowRecorder("logistic_crossentropy", params=start.params, input_dim=dim)
        spec = identity_distortion() if risk == "mean" else cvar_distortion(alpha)
        train(model, X, y, spec, 4, eta=0.05)
        distortion_gradient(model, X, y, spec)
        assert len(calls) == 5
        weighted = math.ceil(alpha * n)
        for losses, rows in calls:
            assert np.unique(rows).size == rows.size
            if risk == "mean":
                assert np.array_equal(np.sort(rows), np.arange(n))
                continue
            boundary = np.sort(losses)[n - weighted]
            ties = int(np.sum(losses == boundary))
            assert weighted <= rows.size <= weighted + ties
            assert np.all(losses[rows] >= boundary)


class TestNoisyStep:
    def test_zero_eta(self):
        theta = np.array([1.0])
        out = noisy_gd_step(theta, np.array([3.0]), 0.0, rng=rng_from(0, "x"))
        assert np.array_equal(out, theta)

    def test_arithmetic(self):
        theta, grad = np.array([0.0, 1.0, -2.0]), np.array([2.0, -0.5, 0.25])
        out = noisy_gd_step(theta, grad, 0.5, rng=rng_from(3, "step"))
        w = standard_normal(rng_from(3, "step"), 3) / math.sqrt(3)
        assert out.tobytes() == (theta - 0.5 * (grad + w)).tobytes()

    def test_mismatched_shapes_are_config_error(self):
        want = r"^shape mismatch: theta \(3,\) vs gradient \(2,\)$"
        with pytest.raises(ConfigError, match=want):
            noisy_gd_step(np.zeros(3), np.zeros(2), 0.1, rng=rng_from(0, "x"))

    def test_noise_unit_mean_square(self):
        rng = rng_from(7, "noise_scale")
        d = 50
        sq = [np.sum((noisy_gd_step(np.zeros(d), np.zeros(d), 1.0, rng)) ** 2)
              for _ in range(400)]
        assert np.mean(sq) == pytest.approx(1.0, rel=0.15)

    # d = 1 and 3 fill a block with 4096 and 1365 steps, 700 with 5, 2049 with
    # one; a step of d = 4097 needs more than the buffer, so a block is one step.
    @pytest.mark.parametrize("d", [1, 3, 700, 2049, 4097])
    def test_block_noise_is_the_per_step_stream(self, d):
        block = max(1, _BUFFER_DOUBLES // (2 * d))
        steps = 2 * block + 1  # two full blocks and one step of a third
        per_step = rng_from(5, "gd_noise")
        expected = np.array([standard_normal(per_step, d) / math.sqrt(d) for _ in range(steps)])
        blocked = rng_from(5, "gd_noise")
        drawn = np.concatenate([
            standard_normal_rows(blocked, np.empty((rows, 2, d))) / math.sqrt(d)
            for rows in (block, block, 1)])
        assert drawn.tobytes() == expected.tobytes()

        # train takes the same steps as noisy_gd_step drawing its own noise.
        X = standard_normal(rng_from(d, "X"), (4, d)) / math.sqrt(d)
        y = np.array([0.5, -1.0, 2.0, 0.0])
        model = LossModel("linear_squared", params=np.full(d, 0.1), input_dim=d)
        spec = cvar_distortion(0.5)
        final, trace = train(model, X, y, spec, steps, eta=1e-3, seed=5)
        theta, rng = model.params, rng_from(5, "gd_noise")
        for _ in range(steps):
            grad = distortion_gradient(model.with_params(theta), X, y, spec)
            theta = noisy_gd_step(theta, grad, 1e-3, rng)
        assert final.params.tobytes() == theta.tobytes()


class TestDataShapes:
    """Every entry point that takes (X, y) rejects a shape that does not fit
    with :class:`ShapeError`: a 3-D ``X``, or a label count other than n."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("call, X_shape, n_labels, match", [
        (lambda m, X, y: m.batch_losses(X, y), (5, 2, 2), 5, "features must be 2-D"),
        (lambda m, X, y: m.batch_gradients(X, y), (5, 2), 4, "5 examples but 4 labels"),
        (lambda m, X, y: m.loss_and_vjp(X, y), (5, 2), 6, "5 examples but 6 labels"),
        (lambda m, X, y: distortion_gradient(m, X, y, identity_distortion()), (5, 2), 3,
         "5 examples but 3 labels"),
        (lambda m, X, y: train(m, X, y, identity_distortion(), 2, eta=0.1), (5, 2), 3,
         "5 examples but 3 labels"),
        (lambda m, X, y: train(m, X, y, identity_distortion(), 2, eta=0.1), (5, 2, 2), 5,
         "features must be 2-D"),
    ], ids=["batch_losses-3d", "batch_gradients-short", "loss_and_vjp-long",
            "distortion_gradient-short", "train-short", "train-3d"])
    def test_shape_error(self, arch, call, X_shape, n_labels, match):
        model = init_model(arch, 2, (3,) if arch == "mlp_tanh" else (), seed=0)
        with pytest.raises(ShapeError, match=f"^{arch}: {match}"):
            call(model, np.ones(X_shape), np.ones(n_labels))


# The two entry points that take a dataset: both check its values once,
# before the first forward pass.
DATA_ENTRY_POINTS = {
    "train": lambda m, X, y: train(m, X, y, identity_distortion(), 3, eta=0.1),
    "distortion_gradient": lambda m, X, y: distortion_gradient(m, X, y, identity_distortion()),
}


def no_forward_pass(self, X, y):
    raise AssertionError("a forward pass ran")


class TestTrain:
    @pytest.mark.parametrize("make_spec", [identity_distortion, lambda: cvar_distortion(0.05)],
                             ids=["mean", "cvar:0.05"])
    def test_rank_weights_built_once_per_run(self, make_spec, rank_weight_calls):
        model, X, y = random_problem("logistic_crossentropy", 6, n=40)
        train(model, X, y, make_spec(), 50, eta=0.01)
        assert rank_weight_calls == [40]

    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_no_rows_is_empty_sample(self, arch, entry):
        model = init_model(arch, 2, (3,) if arch == "mlp_tanh" else (), seed=0)
        with pytest.raises(EmptySample, match="^no training examples$"):
            DATA_ENTRY_POINTS[entry](model, np.ones((0, 2)), np.ones(0))

    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    @pytest.mark.parametrize("arch", ["logistic_crossentropy", "mlp_tanh"])
    @pytest.mark.parametrize("label", [2.0, -0.5, 1.05])
    def test_crossentropy_rejects_labels_outside_unit_interval(self, arch, label, entry,
                                                               monkeypatch):
        model, X, y = random_problem(arch, 4, n=6)
        y[3] = label
        monkeypatch.setattr(LossModel, "loss_and_vjp", no_forward_pass)
        with pytest.raises(DataError, match=f"{arch}: label {label:g} of example 4 is outside"):
            DATA_ENTRY_POINTS[entry](model, X, y)

    @pytest.mark.parametrize("entry", DATA_ENTRY_POINTS)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("where, value, what", [
        ((3, 1), np.inf, "feature 2 of example 4 is inf"),
        ((0, 0), -np.inf, "feature 1 of example 1 is -inf"),
        ((5, 2), np.nan, "feature 3 of example 6 is nan"),
        ((3, None), np.nan, "label of example 4 is nan"),
        ((2, None), np.inf, "label of example 3 is inf"),
    ], ids=["inf-feature", "-inf-feature", "nan-feature", "nan-label", "inf-label"])
    def test_non_finite_data_is_a_data_error(self, arch, entry, where, value, what,
                                            monkeypatch):
        model, X, y = random_problem(arch, 4, n=6)
        i, j = where
        if j is None:
            y[i] = value
        else:
            X[i, j] = value
        monkeypatch.setattr(LossModel, "loss_and_vjp", no_forward_pass)
        with pytest.raises(DataError, match=f"^{arch}: {what}, not a finite number$") as err:
            DATA_ENTRY_POINTS[entry](model, X, y)
        assert err.value.exit_code == 3

    def test_first_non_finite_value_is_named(self):
        # Non-finite values are named before the [0, 1] label rule applies, in
        # example order and with the features before the label.
        model, X, y = random_problem("logistic_crossentropy", 4, n=6)
        X[4, 0], X[2, 2], y[2], y[1] = np.nan, np.inf, 7.0, -3.0
        with pytest.raises(DataError, match="feature 3 of example 3 is inf"):
            model.check_values(X, y)
        X[2, 2] = 0.0
        y[2] = np.nan
        with pytest.raises(DataError, match="label of example 3 is nan"):
            model.check_values(X, y)

    def test_values_are_checked_once_per_call(self, monkeypatch):
        model, X, y = random_problem("logistic_crossentropy", 4, n=6)
        calls = []
        check = LossModel.check_values

        def counted(self, X, y):
            calls.append(X.shape)
            return check(self, X, y)

        monkeypatch.setattr(LossModel, "check_values", counted)
        train(model, X, y, identity_distortion(), 5, eta=0.1)
        distortion_gradient(model, X, y, identity_distortion())
        assert calls == [(6, 3), (6, 3)]

    def test_linear_squared_takes_any_label(self):
        model, X, y = random_problem("linear_squared", 4, n=6)
        y[3] = 7.5
        _, trace = train(model, X, y, identity_distortion(), 2, eta=0.01)
        assert trace.iterations == 2

    def test_eta_zero_is_flat(self, zero_step_noise):
        model, X, y = random_problem("logistic_crossentropy", 1)
        _, trace = train(model, X, y, identity_distortion(), 5, eta=0.0, seed=0)
        assert np.all(trace.risk == trace.risk[0])

    def test_quadratic_geometric_convergence(self, zero_step_noise):
        # One example, identity g: plain GD on loss (p*x - y)^2, closed form
        # contraction |p_t - y/x| = |1 - 2*eta*x^2|^t |p_0 - y/x|.
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([3.0])
        eta = 0.25
        final, trace = train(m, X, y, identity_distortion(), 30, eta=eta, seed=0)
        rate = abs(1 - 2 * eta)
        for t in range(1, 10):
            expect = (rate ** t * 3.0) ** 2
            assert trace.risk[t] == pytest.approx(expect, rel=1e-9)
        assert final.params[0] == pytest.approx(3.0, abs=1e-3)

    def test_bit_reproducible(self):
        model, X, y = random_problem("logistic_crossentropy", 4)
        final_a, trace_a = train(model, X, y, cvar_distortion(0.25), 40, eta=0.05, seed=12)
        final_b, trace_b = train(model, X, y, cvar_distortion(0.25), 40, eta=0.05, seed=12)
        assert np.array_equal(final_a.params, final_b.params)
        assert np.array_equal(trace_a.risk, trace_b.risk)

    def test_divergence_guard(self, zero_step_noise):
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([0.0])
        with pytest.raises(Diverged) as err:
            train(m, X, y, identity_distortion(), 500, eta=10.0, seed=0)
        assert err.value.trace is not None
        assert err.value.trace.iterations < 500

    def test_non_finite_step_is_divergence(self, zero_step_noise):
        # The first step overflows while its risk, at the initial iterate, is finite.
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([0.0])
        with pytest.raises(
                Diverged, match="^the step at iteration 1 made the parameters non-finite$") as err:
            train(m, X, y, identity_distortion(), 3, eta=1e308, seed=0)
        assert err.value.trace.risk.tolist() == [1.0]

    def test_partial_trace_average_is_running_mean(self, zero_step_noise):
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([0.0])
        with pytest.raises(Diverged) as err:
            train(m, X, y, identity_distortion(), 500, eta=10.0, seed=0)
        trace = err.value.trace
        assert trace.iterations >= 3
        running, expected = 0.0, []
        for t, gn in enumerate(trace.grad_norm.tolist(), 1):
            running += gn * gn
            expected.append(running / t)
        assert trace.avg_sq_grad_norm.tolist() == expected

    def test_running_average_matches_mean(self):
        model, X, y = random_problem("logistic_crossentropy", 6)
        _, trace = train(model, X, y, identity_distortion(), 25, eta=0.1, seed=3)
        sq = trace.grad_norm ** 2
        for t in (0, 10, 24):
            assert trace.avg_sq_grad_norm[t] == pytest.approx(float(np.mean(sq[:t + 1])))

    @pytest.mark.parametrize("iterations", [7, 100])
    def test_per_run_work_is_not_repeated_per_step(self, iterations, monkeypatch):
        d = 300  # a noise block holds 8192 // 600 = 13 steps
        model = LossModel("linear_squared", params=np.zeros(d), input_dim=d)
        X = standard_normal(rng_from(2, "X"), (5, d)) / math.sqrt(d)
        y = np.ones(5)
        validations, draws = [], []
        validate = LossModel.__post_init__
        monkeypatch.setattr(LossModel, "__post_init__",
                            lambda self: (validations.append(1), validate(self))[1])

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def random(self, *args, **kwargs):
                draws.append(1)
                return self.rng.random(*args, **kwargs)

        derive = optim.rng_from
        monkeypatch.setattr(optim, "rng_from", lambda *a: CountingGenerator(derive(*a)))
        train(model, X, y, identity_distortion(), iterations, eta=0.01)
        assert len(validations) <= 1
        assert len(draws) <= math.ceil(iterations / (_BUFFER_DOUBLES // (2 * d))) + 1

    def test_config_validation(self, zero_step_noise):
        model, X, y = random_problem("logistic_crossentropy", 1)
        with pytest.raises(ConfigError):
            train(model, X, y, identity_distortion(), 0, eta=0.1)
        with pytest.raises(ConfigError):
            train(model, X, y, identity_distortion(), 5)
        # 1 / (2 * sqrt(100)) is the double 0.05, so the beta rule takes the same steps.
        _, by_beta = train(model, X, y, identity_distortion(), np.int64(100), beta=2.0)
        _, by_eta = train(model, X, y, identity_distortion(), 100, eta=0.05)
        for field in ("risk", "grad_norm", "avg_sq_grad_norm"):
            assert getattr(by_beta, field).tobytes() == getattr(by_eta, field).tobytes()
        assert by_beta.snapshots[-1][1].tobytes() == by_eta.snapshots[-1][1].tobytes()

    @pytest.mark.parametrize("iterations", [2.5, True])
    def test_iterations_must_be_an_integer(self, iterations):
        model, X, y = random_problem("linear_squared", 1)
        with pytest.raises(ConfigError, match="^iterations must be an integer >= 1, got "):
            train(model, X, y, identity_distortion(), iterations, eta=0.1)

    @pytest.mark.parametrize("rates", [
        {"eta": float("nan")}, {"eta": float("inf")},
        {"beta": float("nan")}, {"beta": float("inf")},
    ])
    def test_non_finite_rates_rejected(self, rates):
        model, X, y = random_problem("linear_squared", 1)
        with pytest.raises(ConfigError, match="finite"):
            train(model, X, y, identity_distortion(), 5, **rates)

    def test_trace_csv(self, tmp_path):
        model, X, y = random_problem("linear_squared", 9)
        _, trace = train(model, X, y, identity_distortion(), 8, eta=0.01, seed=1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,risk,grad_norm,avg_sq_grad_norm"
        assert len(lines) == 9


class TestStationarity:
    def test_zero_gradient_start(self, zero_step_noise):
        # Loss constant in theta: gradient identically zero, bound trivially holds.
        m = LossModel("linear_squared", params=np.array([0.5]), input_dim=1)
        X, y = np.array([[0.0]]), np.array([1.0])
        _, trace = train(m, X, y, identity_distortion(), 20, eta=0.1, seed=0)
        report = stationarity_report(trace, beta=1.0)
        assert report["mean_sq_grad_norm"] == 0.0
        assert report["holds"]

    def test_quadratic_run_with_matched_rate(self):
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([2.0])
        beta = 2.0  # exact smoothness of (p - 2)^2
        T = 400
        _, trace = train(m, X, y, identity_distortion(), T, beta=beta, seed=5)
        report = stationarity_report(trace, beta=beta)
        assert report["holds"]
        assert report["best_risk_is_surrogate"]

    def test_longer_runs_shrink_average(self):
        m = LossModel("linear_squared", params=np.array([0.0]), input_dim=1)
        X, y = np.array([[1.0]]), np.array([2.0])
        means = []
        for T in (100, 400):
            _, trace = train(m, X, y, identity_distortion(), T, beta=2.0, seed=5)
            means.append(stationarity_report(trace, beta=2.0)["mean_sq_grad_norm"])
        assert means[1] < means[0]

    def test_overflowing_movement_is_config_error(self):
        # The step takes the parameters to about 3.5e307: finite, but the norm
        # of their movement overflows.  Neither call warns.
        X, y = toy_blobs(seed=0)
        model = init_model("mlp_tanh", 2, (8,), seed=0)
        _, trace = train(model, X, y, identity_distortion(), 2, eta=1e308, seed=0)
        with pytest.raises(ConfigError,
                           match="^cannot estimate beta: parameter movement is not finite$"):
            estimate_beta(trace)

    def test_beta_estimate_positive(self):
        model, X, y = random_problem("logistic_crossentropy", 13)
        _, trace = train(model, X, y, identity_distortion(), 50, eta=0.05, seed=2)
        assert estimate_beta(trace) > 0
        report = stationarity_report(trace)
        assert report["beta_estimated"]

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf])
    def test_beta_rule_shared_with_config(self, beta):
        """A beta that is not finite and positive is a ConfigError in both
        places it is given, with the same message."""
        model, X, y = random_problem("logistic_crossentropy", 13)
        _, trace = train(model, X, y, identity_distortion(), 5, eta=0.05, seed=2)
        with pytest.raises(ConfigError) as from_report:
            stationarity_report(trace, beta=beta)
        with pytest.raises(ConfigError) as from_train:
            train(model, X, y, identity_distortion(), 5, beta=beta)
        assert str(from_report.value) == str(from_train.value)
        assert str(from_report.value) == f"beta must be finite and positive, got {beta}"


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
