import json
import math
import re

import numpy as np
import pytest

from riskcdf.errors import ConfigError, FormatError, NumericError, ShapeError
from riskcdf.models import (
    ARCHITECTURES,
    MAX_CROSSENTROPY_LOSS,
    PROB_CLAMP,
    LossModel,
    _crossentropy,
    _crossentropy_residual,
    _sigmoid_pair,
    finite_difference_check,
    init_model,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from riskcdf.seeds import rng_from, standard_normal


def per_example_loss(model, x, y):
    """Oracle: the loss of one example, features ``x`` and label ``y``."""
    return float(model.batch_losses([x], [y])[0])


def per_example_gradient(model, x, y):
    """Oracle: one example's loss gradient, by the backward pass training runs."""
    return model.loss_and_vjp([x], [y])[1](slice(None), np.ones(1))


def random_case(arch, trial, input_dim=3, hidden=(4,)):
    seed = 1000 + trial
    model = init_model(arch, input_dim, hidden if arch == "mlp_tanh" else (), seed=seed)
    rng = rng_from(seed, "case")
    x = standard_normal(rng, input_dim)
    y = float(standard_normal(rng, 1)[0]) if arch == "linear_squared" else float(rng.random() < 0.5)
    return model, x, y


def direction_case(arch, trial, input_dim=3, hidden=(4,)):
    """A random case and a random direction in its parameter space."""
    model, x, y = random_case(arch, trial, input_dim, hidden)
    return model, x, y, standard_normal(rng_from(1000 + trial, "direction"), model.dim)


class TestPerExampleLoss:
    def test_linear_zero_params_zero_target(self):
        m = LossModel("linear_squared", params=np.zeros(3), input_dim=3)
        assert per_example_loss(m, [1.0, -2.0, 0.5], 0.0) == 0.0

    def test_logistic_at_even_odds(self):
        m = LossModel("logistic_crossentropy", params=np.zeros(2), input_dim=2)
        assert per_example_loss(m, [3.0, -1.0], 1.0) == pytest.approx(math.log(2))

    def test_linear_squared_residual(self):
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        assert per_example_loss(m, [2.0], 1.0) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        m = LossModel("linear_squared", params=np.zeros(3), input_dim=3)
        with pytest.raises(ShapeError):
            per_example_loss(m, [1.0, 2.0], 0.0)

    def test_losses_clamped_and_nonnegative(self):
        m = LossModel("logistic_crossentropy", params=np.array([100.0]), input_dim=1)
        loss = per_example_loss(m, [10.0], 0.0)
        assert 0.0 <= loss <= MAX_CROSSENTROPY_LOSS

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_nonnegativity_random(self, arch):
        for trial in range(30):
            model, x, y = random_case(arch, trial)
            assert per_example_loss(model, x, y) >= 0.0


def clip_crossentropy(p, q, y):
    """Oracle: the clamped cross-entropy in its np.clip form."""
    return -(y * np.log(np.clip(p, PROB_CLAMP, 1.0))
             + (1.0 - y) * np.log(np.clip(q, PROB_CLAMP, 1.0)))


def clip_residual(p, y):
    """Oracle: the clamped loss residual in its np.clip form."""
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP) - y


def assert_same_floats(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


class TestClampsMatchClipOracle:
    """The one-sided clamps equal the np.clip forms: a sigmoid never exceeds 1."""

    SCORES = np.concatenate([
        [0.0, -0.0, np.nan, 800.0, -800.0, 27.6, -27.6, 27.7, -27.7, 36.8, -36.8, 1e-300],
        np.linspace(-800.0, 800.0, 4001),
        40.0 * standard_normal(rng_from(0, "scores"), 4000),
    ])

    @pytest.mark.parametrize("labels", ["zero", "one", "half", "uniform"])
    def test_loss_and_residual(self, labels):
        n = self.SCORES.shape[0]
        y = {"zero": np.zeros(n), "one": np.ones(n), "half": np.full(n, 0.5),
             "uniform": rng_from(1, "labels").random(n)}[labels]
        p, q = _sigmoid_pair(self.SCORES)
        assert_same_floats(_crossentropy(p, q, y), clip_crossentropy(p, q, y))
        assert_same_floats(_crossentropy_residual(p, y), clip_residual(p, y))
        # batch_losses, which certify's Monte Carlo runs, reaches them the same way.
        model = LossModel("logistic_crossentropy", params=np.ones(1), input_dim=1)
        assert_same_floats(model.batch_losses(self.SCORES[:, None], y),
                           clip_crossentropy(p, q, y))


class TestPerExampleGradient:
    def test_linear_gradient(self):
        m = LossModel("linear_squared", params=np.array([1.0]), input_dim=1)
        grad = per_example_gradient(m, [2.0], 1.0)
        assert grad == pytest.approx([4.0])

    def test_logistic_gradient_at_zero_score(self):
        m = LossModel("logistic_crossentropy", params=np.zeros(2), input_dim=2)
        x = np.array([3.0, -1.0])
        grad = per_example_gradient(m, x, 1.0)
        assert grad == pytest.approx(-0.5 * x)

    def test_zero_features_give_zero_weight_gradient(self):
        m = LossModel("linear_squared", params=np.array([0.3, -0.7]), input_dim=2)
        grad = per_example_gradient(m, [0.0, 0.0], 2.0)
        assert np.all(grad == 0.0)

    def test_batch_matches_per_example(self):
        # per_example_gradient runs the training backward pass (loss_and_vjp),
        # so this holds it against the per-example matrix of batch_gradients.
        for arch, hidden in [("linear_squared", ()), ("logistic_crossentropy", ()),
                             ("mlp_tanh", (5, 2))]:
            model = init_model(arch, 3, hidden, seed=11)
            rng = rng_from(11, "batch")
            X = standard_normal(rng, (7, 3))
            y = (rng.random(7) < 0.5).astype(float)
            batch = model.batch_gradients(X, y)
            for i in range(7):
                row = per_example_gradient(model, X[i], y[i])
                assert np.allclose(batch[i], row, atol=1e-12), arch

    def test_mlp_without_hidden_layer_is_logistic_with_a_bias(self):
        # With no hidden layer the MLP's parameters [w, b] score x as w . x + b:
        # logistic regression on the features with a constant-1 column.
        rng = rng_from(12, "no_hidden")
        X = standard_normal(rng, (9, 3))
        y = (rng.random(9) < 0.5).astype(float)
        mlp = init_model("mlp_tanh", 3, (), seed=12)
        logistic = LossModel("logistic_crossentropy", params=mlp.params, input_dim=4)
        X1 = np.hstack([X, np.ones((9, 1))])
        assert np.allclose(mlp.batch_losses(X, y), logistic.batch_losses(X1, y))
        v = standard_normal(rng, 9)
        mlp_losses, mlp_vjp = mlp.loss_and_vjp(X, y)
        log_losses, log_vjp = logistic.loss_and_vjp(X1, y)
        assert np.allclose(mlp_losses, log_losses)
        assert np.allclose(mlp_vjp(slice(None), v), log_vjp(slice(None), v))


def worst_error(model, x, y, directions, step=1e-6):
    """The largest finite_difference_check error over ``directions``."""
    return max(finite_difference_check(model, x, y, v, step=step) for v in directions)


def coordinates_and_one_direction(arch, trial):
    """A random case, every basis vector of its parameters and one random direction."""
    model, x, y, u = direction_case(arch, trial)
    return model, x, y, [*np.eye(model.dim), u]


class TestFiniteDifference:
    def test_linear_tiny_step(self):
        assert worst_error(*coordinates_and_one_direction("linear_squared", 0)) <= 1e-7

    def test_linear_large_step_still_exact(self):
        # Central differences are exact for losses quadratic along a line.
        assert worst_error(*coordinates_and_one_direction("linear_squared", 1),
                           step=1e-1) <= 1e-10

    def test_logistic(self):
        assert worst_error(*coordinates_and_one_direction("logistic_crossentropy", 2)) <= 1e-5

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            finite_difference_check(*direction_case("linear_squared", 3), step=0.0)

    def test_overflowing_step_is_numeric_error(self):
        # The bumped losses overflow to inf, so their difference is NaN.
        with pytest.raises(NumericError, match="^the finite-difference relative error is nan "
                                               r"at step 1e\+300$"):
            finite_difference_check(*direction_case("linear_squared", 3), step=1e300)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_hundred_random_draws(self, arch):
        # Every coordinate of every draw, as a coordinate-by-coordinate check would.
        worst = 0.0
        for t in range(100):
            model, x, y = random_case(arch, t)
            worst = max(worst, worst_error(model, x, y, np.eye(model.dim)))
        assert worst <= 1e-4

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_hundred_random_directions(self, arch):
        worst = max(finite_difference_check(*direction_case(arch, t)) for t in range(100))
        assert worst <= 1e-4

    def test_basis_vector_is_the_coordinate_difference(self):
        # Along e_i the check is coordinate i's central difference against
        # gradient entry i, on the scale of the gradient's largest entry.
        model, x, y = random_case("mlp_tanh", 4)
        grad = per_example_gradient(model, x, y)
        step = 1e-6
        for i, e in enumerate(np.eye(model.dim)):
            hi = per_example_loss(model.with_params(model.params + step * e), x, y)
            lo = per_example_loss(model.with_params(model.params - step * e), x, y)
            want = abs((hi - lo) / (2.0 * step) - grad[i]) / max(1.0, np.max(np.abs(grad)))
            assert finite_difference_check(model, x, y, e, step=step) == want, i

    @pytest.mark.parametrize("input_dim, hidden, dim", [(3, (4,), 21), (100, (128,), 13_057)])
    def test_three_passes_at_any_parameter_count(self, monkeypatch, input_dim, hidden, dim):
        model, x, y, u = direction_case("mlp_tanh", 5, input_dim, hidden)
        assert model.dim == dim
        passes = []
        forward = LossModel.loss_and_vjp

        def counted(self, X, y):
            passes.append(self)
            return forward(self, X, y)

        monkeypatch.setattr(LossModel, "loss_and_vjp", counted)
        assert finite_difference_check(model, x, y, u) <= 1e-4
        assert len(passes) == 3

    def test_wrong_length_direction_is_shape_error(self):
        model, x, y, u = direction_case("mlp_tanh", 6)
        with pytest.raises(ShapeError, match="^mlp_tanh: direction has 20 entries, not 21$"):
            finite_difference_check(model, x, y, u[:-1])

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_direction_not_finite_or_all_zero_is_config_error(self, bad):
        model, x, y, u = direction_case("mlp_tanh", 6)
        u = np.zeros_like(u) if bad == 0.0 else np.concatenate([u[:-1], [bad]])
        with pytest.raises(ConfigError, match="^mlp_tanh: direction must be finite and not "
                                              "all zero$"):
            finite_difference_check(model, x, y, u)


class TestLipschitzInParameters:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_loss_change_bounded_by_gradient_scale(self, arch):
        # |loss(a) - loss(b)| <= K ||a - b|| with K from observed gradient
        # norms on the segment's endpoints (x1.5 headroom).
        rng = rng_from(99, "lipschitz", arch)
        model, x, y = random_case(arch, 7)
        norms, steps = [], []
        for _ in range(50):
            a = standard_normal(rng, model.dim) * 0.5
            b = a + standard_normal(rng, model.dim) * 0.05
            ma, mb = model.with_params(a), model.with_params(b)
            la, lb = per_example_loss(ma, x, y), per_example_loss(mb, x, y)
            ga = np.linalg.norm(per_example_gradient(ma, x, y))
            gb = np.linalg.norm(per_example_gradient(mb, x, y))
            norms.append(max(ga, gb))
            steps.append((abs(la - lb), np.linalg.norm(a - b)))
        K = 1.5 * max(norms)
        for dloss, dtheta in steps:
            assert dloss <= K * dtheta + 1e-9


class TestCheckpointRoundTrip:
    def test_round_trip(self, tmp_path):
        model = init_model("mlp_tanh", 4, (3,), seed=5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.architecture == model.architecture
        assert loaded.input_dim == model.input_dim
        assert loaded.hidden == model.hidden
        assert np.array_equal(loaded.params, model.params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_not_written(self, tmp_path, value):
        model = init_model("linear_squared", 2).with_params([0.5, value])
        path = tmp_path / "ckpt.json"
        with pytest.raises(NumericError, match=f"cannot write {path}"):
            save_checkpoint(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("vector, bad", [
        ("[NaN, 1.0]", "parameter_vector[0] is not a finite number: nan"),
        ("[1.0, Infinity]", "parameter_vector[1] is not a finite number: inf"),
        ('["a", 1.0]', "parameter_vector[0] is not a finite number: 'a'"),
        (f"[1.0, {10 ** 400}]", f"parameter_vector[1] is not a finite number: {10 ** 400}"),
        ('["1.5", 1.0]', "parameter_vector[0] is not a finite number: '1.5'"),
        ("[1.0, true]", "parameter_vector[1] is not a finite number: True"),
        ("[null, 1.0]", "parameter_vector[0] is not a finite number: None"),
    ], ids=["nan", "infinity", "string", "401-digits", "numeric-string", "true", "null"])
    def test_bad_parameter_is_not_loaded(self, tmp_path, vector, bad):
        path = tmp_path / "ckpt.json"
        path.write_text('{"architecture": "linear_squared", '
                        '"hyperparameters": {"input_dim": 2, "hidden": []}, '
                        f'"parameter_vector": {vector}}}')
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {bad}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hyper, bad", [
        ('"input_dim": "x", "hidden": [2]', "input_dim is not an integer >= 1: 'x'"),
        ('"input_dim": 2, "hidden": ["a"]', "hidden[0] is not an integer >= 1: 'a'"),
        ('"input_dim": 2.9, "hidden": [2]', "input_dim is not an integer >= 1: 2.9"),
    ], ids=["input-dim-string", "hidden-string", "input-dim-fraction"])
    def test_bad_width_is_not_loaded(self, tmp_path, hyper, bad):
        path = tmp_path / "ckpt.json"
        path.write_text(f'{{"architecture": "mlp_tanh", "hyperparameters": {{{hyper}}}, '
                        f'"parameter_vector": {[0.5] * 9}}}')
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {bad}')}$"):
            load_checkpoint(path)

    def test_checkpoint_not_utf8_is_not_loaded(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b'{"architecture": "\xff"}')
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: invalid checkpoint JSON: ')}"):
            load_checkpoint(path)

    def test_init_is_seeded_uniform(self):
        a = init_model("logistic_crossentropy", 6, seed=42)
        b = init_model("logistic_crossentropy", 6, seed=42)
        c = init_model("logistic_crossentropy", 6, seed=43)
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)
        assert np.all(np.abs(a.params) <= 0.5)

    def test_caller_array_stays_writable(self):
        source = np.zeros(2)
        model = LossModel("logistic_crossentropy", params=source, input_dim=2)
        assert source.flags.writeable and not model.params.flags.writeable

    def test_caller_writes_leave_the_params_alone(self):
        source = np.zeros(3)
        model = LossModel("logistic_crossentropy", params=source, input_dim=3)
        source[0] = np.nan
        assert model.params.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("field", ["architecture", "hyperparameters", "parameter_vector",
                                       "input_dim"])
    def test_missing_field_is_not_loaded(self, tmp_path, field):
        hyper = {"input_dim": 2}
        payload = {"architecture": "linear_squared", "hyperparameters": hyper,
                   "parameter_vector": [0.5, 1.0]}
        payload.pop(field, None)
        hyper.pop(field, None)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: missing checkpoint "
                                              f"field: '{field}'$"):
            load_checkpoint(path)

    # The smallest vector here is 1e14 float64s, 728 TiB, more than a 48-bit
    # address space maps, so none is ever partly allocated.
    @pytest.mark.parametrize("arch, input_dim, hidden, count", [
        ("logistic_crossentropy", 10 ** 14, (), 10 ** 14),
        ("linear_squared", 10 ** 19, (), 10 ** 19),
        ("mlp_tanh", 2, (10 ** 14,), 4 * 10 ** 14 + 1),
    ])
    def test_parameter_vector_beyond_memory_is_config_error(self, arch, input_dim, hidden,
                                                           count):
        want = f"^{arch}: cannot hold {count} parameters in memory$"
        with pytest.raises(ConfigError, match=want):
            init_model(arch, input_dim, hidden)

    def test_with_params_rebinds_a_read_only_copy(self):
        class Tagged(LossModel):
            pass

        model = Tagged("mlp_tanh", params=np.zeros(9), input_dim=2, hidden=(2,))
        source = np.arange(9.0)
        rebound = model.with_params(source)
        source[0] = 99.0
        assert type(rebound) is Tagged and rebound.hidden == (2,)
        assert rebound.params.tolist() == list(range(9)) and not rebound.params.flags.writeable
        assert model.params.tolist() == [0.0] * 9
        with pytest.raises(ShapeError, match="^mlp_tanh: expected 9 parameters, got 8$"):
            model.with_params(np.zeros(8))

    def test_parameter_count(self):
        assert parameter_count("linear_squared", 7) == 7
        assert parameter_count("mlp_tanh", 3, (4, 2)) == (4 * 3 + 4) + (2 * 4 + 2) + (2 + 1)

    def test_unknown_architecture_is_config_error(self):
        with pytest.raises(ConfigError, match="^unknown architecture 'cnn'$"):
            parameter_count("cnn", 2)

    def test_wrong_parameter_count_is_shape_error(self):
        with pytest.raises(ShapeError, match="^linear_squared: expected 3 parameters, got 2$"):
            LossModel("linear_squared", params=np.zeros(2), input_dim=3)

    @pytest.mark.parametrize("arch, input_dim, hidden, match", [
        ("mlp_tanh", 2, (-3,), r"hidden widths must be integers >= 1, got \(-3,\)"),
        ("mlp_tanh", 2, (0,), r"hidden widths must be integers >= 1, got \(0,\)"),
        ("logistic_crossentropy", 3, (4, 0), r"hidden widths must be integers >= 1"),
        ("logistic_crossentropy", -2, (), "input_dim must be an integer >= 1, got -2"),
        ("linear_squared", 0, (), "input_dim must be an integer >= 1, got 0"),
        ("mlp_tanh", 2.5, (3,), "input_dim must be an integer >= 1, got 2.5"),
        ("mlp_tanh", 2, (True,), r"hidden widths must be integers >= 1, got \(True,\)"),
    ])
    def test_bad_shape_is_config_error(self, arch, input_dim, hidden, match):
        with pytest.raises(ConfigError, match=f"^{arch}: {match}"):
            init_model(arch, input_dim, hidden)
        with pytest.raises(ConfigError, match=f"^{arch}: {match}"):
            LossModel(arch, params=np.zeros(3), input_dim=input_dim, hidden=hidden)
