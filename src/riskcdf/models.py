"""Parameterized predictors with nonnegative per-example losses.

Three architectures, all exposing exact per-example loss gradients and a
one-pass vector-Jacobian product (:meth:`LossModel.loss_and_vjp`) for use
in sorted-loss risk minimization:

* ``linear_squared``: score = theta . x, loss = (score - y)^2;
* ``logistic_crossentropy``: p = sigmoid(theta . x), binary cross-entropy;
* ``mlp_tanh``: tanh hidden layers (affine with biases), scalar output
  score, sigmoid + cross-entropy on top; gradients by hand-rolled
  backpropagation.

Cross-entropy probabilities are clamped to [1e-12, 1 - 1e-12], which keeps
losses within [0, MAX_CROSSENTROPY_LOSS] and gradients bounded.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .seeds import rng_from

__all__ = [
    "ARCHITECTURES",
    "MAX_CROSSENTROPY_LOSS",
    "Example",
    "LossModel",
    "parameter_count",
    "init_model",
    "per_example_loss",
    "per_example_gradient",
    "finite_difference_check",
    "relative_error",
    "save_checkpoint",
    "load_checkpoint",
]

ARCHITECTURES = ("linear_squared", "logistic_crossentropy", "mlp_tanh")

PROB_CLAMP = 1e-12
MAX_CROSSENTROPY_LOSS = -math.log(PROB_CLAMP)


@dataclass(frozen=True)
class Example:
    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64).ravel())
        object.__setattr__(self, "y", float(self.y))


def _sigmoid_pair(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(s) and its stable complement sigmoid(-s) from one exponential.

    exp(-|s|) never overflows.  Bit for bit this is 1/(1+exp(-s)) for
    s >= 0 and exp(s)/(1+exp(s)) for s < 0, and the mirror image for -s.
    """
    e = np.exp(-np.abs(scores))
    denom = 1.0 + e
    return np.where(scores >= 0, 1.0, e) / denom, np.where(scores <= 0, 1.0, e) / denom


def _crossentropy(p: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    # q = sigmoid(-s) is the stable complement of p = sigmoid(s); clamping
    # both sides caps the loss exactly at MAX_CROSSENTROPY_LOSS.
    return -(y * np.log(np.clip(p, PROB_CLAMP, 1.0))
             + (1.0 - y) * np.log(np.clip(q, PROB_CLAMP, 1.0)))


def _crossentropy_residual(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d score, with p clamped so the gradient stays bounded."""
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP) - y


def parameter_count(architecture: str, input_dim: int, hidden: tuple[int, ...] = ()) -> int:
    if architecture in ("linear_squared", "logistic_crossentropy"):
        return int(input_dim)
    if architecture == "mlp_tanh":
        dims = [int(input_dim), *map(int, hidden), 1]
        return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))
    raise ConfigError(f"unknown architecture {architecture!r}")


@dataclass(frozen=True)
class LossModel:
    """A parameter vector plus an architecture tag.

    Immutable; training produces new instances via :meth:`with_params`.
    """

    architecture: str
    params: np.ndarray = field(repr=False)
    input_dim: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        arr = np.asarray(self.params, dtype=np.float64).ravel()
        expected = parameter_count(self.architecture, self.input_dim, self.hidden)
        if arr.shape[0] != expected:
            raise ShapeError(
                f"{self.architecture}: expected {expected} parameters, got {arr.shape[0]}"
            )
        object.__setattr__(self, "params", arr)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        self.params.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.params.shape[0]

    def with_params(self, params: np.ndarray) -> "LossModel":
        return replace(self, params=np.array(params, dtype=np.float64))

    def _check_features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ShapeError(
                f"{self.architecture}: expected feature dimension {self.input_dim}, "
                f"got {X.shape[1]}"
            )
        return X

    def check_labels(self, y) -> None:
        """Raise :class:`DataError` if a cross-entropy model gets a label outside
        [0, 1], where its loss can be negative; any label suits linear_squared."""
        if self.architecture == "linear_squared":
            return
        y = np.asarray(y, dtype=np.float64).ravel()
        bad = np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))
        if bad.size:
            raise DataError(f"{self.architecture}: label {y[bad[0]]:g} of example {bad[0] + 1} "
                            "is outside [0, 1], which cross-entropy needs")

    def _mlp_layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        dims = [self.input_dim, *self.hidden, 1]
        layers = []
        offset = 0
        for i in range(len(dims) - 1):
            n_out, n_in = dims[i + 1], dims[i]
            w = self.params[offset:offset + n_out * n_in].reshape(n_out, n_in)
            offset += n_out * n_in
            b = self.params[offset:offset + n_out]
            offset += n_out
            layers.append((w, b))
        return layers

    def _mlp_forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Scores and per-layer activations (inputs first, scores excluded)."""
        layers = self._mlp_layers()
        activations = [X]
        a = X
        for w, b in layers[:-1]:
            a = a @ w.T
            a += b
            np.tanh(a, out=a)
            activations.append(a)
        w_out, b_out = layers[-1]
        scores = a @ w_out.T + b_out
        return scores[:, 0], activations

    def batch_losses(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-example losses: the forward pass of :meth:`loss_and_vjp`."""
        return self.loss_and_vjp(X, y)[0]

    def loss_and_vjp(self, X: np.ndarray, y: np.ndarray
                     ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Per-example losses and their vector-Jacobian product, from one forward pass.

        Returns ``(losses, vjp)`` where ``vjp(v)`` is
        ``sum_i v_i * grad loss_i``, i.e. ``batch_gradients(X, y).T @ v``
        up to summation order.  The loss residuals d loss / d score are
        formed inside ``vjp``, so a forward pass alone does no backward
        work.  ``vjp`` backpropagates the weighted residuals once through
        the kept activations, so it needs O(n * width + d) memory, not the
        (n, d) per-example gradients.
        """
        X = self._check_features(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if self.architecture == "linear_squared":
            resid = X @ self.params - y
            return resid ** 2, lambda v: (v * (2.0 * resid)) @ X
        if self.architecture == "logistic_crossentropy":
            p, q = _sigmoid_pair(X @ self.params)
            return _crossentropy(p, q, y), lambda v: (v * _crossentropy_residual(p, y)) @ X
        scores, activations = self._mlp_forward(X)
        p, q = _sigmoid_pair(scores)
        return _crossentropy(p, q, y), lambda v: self._mlp_vjp(
            activations, v * _crossentropy_residual(p, y))

    def _mlp_vjp(self, activations: list[np.ndarray], delta: np.ndarray) -> np.ndarray:
        """sum_i of delta_i * d score_i / d params, by one backward pass."""
        layers = self._mlp_layers()
        delta = delta[:, None]  # (n, 1)
        parts = []
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            parts.append(delta.sum(axis=0))
            parts.append((delta.T @ activations[i]).ravel())  # (out, in)
            if i > 0:  # tanh' = 1 - a^2, formed in place: one (n, width) temporary
                slope = np.square(activations[i])
                np.subtract(1.0, slope, out=slope)
                slope *= delta @ w
                delta = slope
        return np.concatenate(parts[::-1])

    def batch_gradients(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-example loss gradients, shape (n, parameter count).

        Builds the full matrix; training uses :meth:`loss_and_vjp`.
        """
        X = self._check_features(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        if self.architecture == "linear_squared":
            resid = X @ self.params - y
            return 2.0 * resid[:, None] * X
        if self.architecture == "logistic_crossentropy":
            p, _ = _sigmoid_pair(X @ self.params)
            return _crossentropy_residual(p, y)[:, None] * X
        return self._mlp_batch_gradients(X, y)

    def _mlp_batch_gradients(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        layers = self._mlp_layers()
        scores, activations = self._mlp_forward(X)
        p, _ = _sigmoid_pair(scores)
        n = X.shape[0]
        grads = np.empty((n, self.dim))
        # dL/dscore; backpropagate through the affine/tanh stack.
        delta = _crossentropy_residual(p, y)[:, None]  # (n, 1)
        offsets = []
        offset = 0
        for w, b in layers:
            offsets.append(offset)
            offset += w.size + b.size
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            a_prev = activations[i]
            gw = delta[:, :, None] * a_prev[:, None, :]  # (n, out, in)
            start = offsets[i]
            grads[:, start:start + w.size] = gw.reshape(n, -1)
            grads[:, start + w.size:start + w.size + b.size] = delta
            if i > 0:
                da = delta @ w  # (n, in)
                delta = da * (1.0 - activations[i] ** 2)
        return grads


def init_model(architecture: str, input_dim: int, hidden: tuple[int, ...] = (),
               seed: int = 0) -> LossModel:
    """Fresh model with parameters uniform on [-0.5, 0.5] from the seed."""
    count = parameter_count(architecture, input_dim, hidden)
    rng = rng_from(seed, "init", architecture)
    params = rng.random(count) - 0.5
    return LossModel(architecture=architecture, params=params,
                     input_dim=int(input_dim), hidden=tuple(hidden))


def per_example_loss(model: LossModel, z: Example) -> float:
    return float(model.batch_losses(z.x[None, :], np.array([z.y]))[0])


def per_example_gradient(model: LossModel, z: Example) -> np.ndarray:
    """The gradient of one example's loss, by the backward pass that training runs."""
    return model.loss_and_vjp(z.x[None], [z.y])[1](np.ones(1))


def relative_error(a, b) -> float:
    """Max elementwise |a - b| scaled by max(1, |a|, |b|) over the arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def finite_difference_check(model: LossModel, z: Example, step: float = 1e-6) -> float:
    """Central-difference check of the analytic gradient; returns the
    relative error (unit-floored scale, see :func:`relative_error`)."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"step must be finite and positive, got {step}")
    grad = per_example_gradient(model, z)
    fd = np.empty_like(grad)
    base = model.params
    for i in range(base.shape[0]):
        bump = np.zeros_like(base)
        bump[i] = step
        hi = per_example_loss(model.with_params(base + bump), z)
        lo = per_example_loss(model.with_params(base - bump), z)
        fd[i] = (hi - lo) / (2.0 * step)
    return relative_error(fd, grad)


def save_checkpoint(model: LossModel, path) -> None:
    payload = {
        "architecture": model.architecture,
        "hyperparameters": {"input_dim": model.input_dim, "hidden": list(model.hidden)},
        "parameter_vector": [float(v) for v in model.params],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> LossModel:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid checkpoint JSON: {exc}") from None
    try:
        hyper = payload["hyperparameters"]
        return LossModel(
            architecture=payload["architecture"],
            params=np.asarray(payload["parameter_vector"], dtype=np.float64),
            input_dim=int(hyper["input_dim"]),
            hidden=tuple(int(h) for h in hyper.get("hidden", [])),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing checkpoint field: {exc}") from None
