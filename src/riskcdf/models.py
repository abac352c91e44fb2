"""Parameterized predictors with nonnegative per-example losses.

Three architectures, all exposing exact per-example loss gradients and a
one-pass vector-Jacobian product (:meth:`LossModel.loss_and_vjp`) for use
in sorted-loss risk minimization.  ``vjp(rows, v)`` backpropagates weights
on a subset of the examples only, so a risk that weights few of them (CVaR
at a small level) pays for those rows alone:

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
from dataclasses import dataclass, field

import numpy as np

from .data import _is_count, _real, _write_json
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .seeds import rng_from

__all__ = [
    "ARCHITECTURES",
    "MAX_CROSSENTROPY_LOSS",
    "LossModel",
    "parameter_count",
    "init_model",
    "finite_difference_check",
    "relative_error",
    "save_checkpoint",
    "load_checkpoint",
]

ARCHITECTURES = ("linear_squared", "logistic_crossentropy", "mlp_tanh")

PROB_CLAMP = 1e-12
MAX_CROSSENTROPY_LOSS = -math.log(PROB_CLAMP)


def _sigmoid_pair(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(s) and its stable complement sigmoid(-s) from one exponential.

    exp(-|s|) never overflows.  Bit for bit this is 1/(1+exp(-s)) for
    s >= 0 and exp(s)/(1+exp(s)) for s < 0, and the mirror image for -s;
    ``scores`` is not written.
    """
    e = np.abs(scores)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    upper = scores >= 0
    p = np.where(upper, 1.0, e)
    p /= denom
    q = np.where(upper, e, 1.0)
    q /= denom
    return p, q


def _crossentropy(p: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-(y log p + (1 - y) log q), computed in place in two arrays of the
    labels' size; ``p``, ``q`` and ``y`` are not written."""
    # q = sigmoid(-s) is the stable complement of p = sigmoid(s); clamping
    # both sides below caps the loss exactly at MAX_CROSSENTROPY_LOSS.  A
    # sigmoid never exceeds 1, so no upper clamp is needed.
    loss = np.maximum(q, PROB_CLAMP)
    np.log(loss, out=loss)
    term = np.subtract(1.0, y)
    loss *= term
    np.maximum(p, PROB_CLAMP, out=term)
    np.log(term, out=term)
    term *= y
    loss += term
    np.negative(loss, out=loss)
    return loss


def _crossentropy_residual(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d score, with p clamped to [PROB_CLAMP, 1 - PROB_CLAMP] so the
    gradient stays bounded."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP) - y


def parameter_count(architecture: str, input_dim: int, hidden: tuple[int, ...] = ()) -> int:
    """The length of the parameter vector of an architecture and shape.

    ``input_dim`` and every ``hidden`` width must be integers >= 1, for
    every architecture, else :class:`ConfigError`; only ``mlp_tanh`` reads
    ``hidden``.
    """
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {architecture!r}")
    if not _is_count(input_dim):
        raise ConfigError(f"{architecture}: input_dim must be an integer >= 1, got {input_dim!r}")
    hidden = tuple(hidden)
    if not all(map(_is_count, hidden)):
        raise ConfigError(f"{architecture}: hidden widths must be integers >= 1, got {hidden!r}")
    if architecture != "mlp_tanh":
        return int(input_dim)
    dims = [int(input_dim), *map(int, hidden), 1]
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True, eq=False)
class LossModel:
    """A parameter vector plus an architecture tag.

    Immutable: :attr:`params` is a read-only float64 copy of the vector
    given.  Construction checks the architecture and the parameter count;
    :meth:`with_params` binds a new parameter vector of the same
    shape without checking them again, which is all a training step does
    to the model.
    """

    architecture: str
    params: np.ndarray = field(repr=False)
    input_dim: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        expected = parameter_count(self.architecture, self.input_dim, self.hidden)
        arr = np.array(self.params, dtype=np.float64).ravel()
        if arr.shape[0] != expected:
            raise ShapeError(
                f"{self.architecture}: expected {expected} parameters, got {arr.shape[0]}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "params", arr)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def dim(self) -> int:
        return self.params.shape[0]

    def with_params(self, params: np.ndarray) -> "LossModel":
        """This model, of the same class, holding a read-only float64 copy of
        ``params``, which must have as many entries as :attr:`params`, else
        :class:`ShapeError`."""
        arr = np.array(params, dtype=np.float64).ravel()
        if arr.shape != self.params.shape:
            raise ShapeError(
                f"{self.architecture}: expected {self.dim} parameters, got {arr.shape[0]}"
            )
        arr.flags.writeable = False
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__, params=arr)
        return model

    def _check_data(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``X`` and ``y`` as float64 arrays, ``y`` flat: ``X`` must be 2-D with
        :attr:`input_dim` columns and ``y`` hold one label per row, else
        :class:`ShapeError`."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ShapeError(f"{self.architecture}: features must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.input_dim:
            raise ShapeError(
                f"{self.architecture}: expected feature dimension {self.input_dim}, "
                f"got {X.shape[1]}"
            )
        if y.shape[0] != X.shape[0]:
            raise ShapeError(f"{self.architecture}: {X.shape[0]} examples but "
                             f"{y.shape[0]} labels")
        return X, y

    def check_values(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        """``X`` and ``y`` as :meth:`_check_data` returns them, after checking
        their values.

        The first non-finite feature or label, in example order and the
        features before the label, raises :class:`DataError` naming its
        example and column.  So does a label outside [0, 1] for a
        cross-entropy model, whose loss can be negative there; any finite
        label suits linear_squared.
        """
        X, y = self._check_data(X, y)
        finite = np.isfinite(X).all(axis=1)
        finite &= np.isfinite(y)
        if not finite.all():
            i = int(finite.argmin())
            cols = np.flatnonzero(~np.isfinite(X[i]))
            if cols.size:
                what, value = f"feature {cols[0] + 1}", X[i, cols[0]]
            else:
                what, value = "label", y[i]
            raise DataError(f"{self.architecture}: {what} of example {i + 1} is {value:g}, "
                            "not a finite number")
        if self.architecture != "linear_squared":
            bad = np.flatnonzero((y < 0.0) | (y > 1.0))
            if bad.size:
                raise DataError(f"{self.architecture}: label {y[bad[0]]:g} of example "
                                f"{bad[0] + 1} is outside [0, 1], which cross-entropy needs")
        return X, y

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
                     ) -> tuple[np.ndarray, Callable[[np.ndarray | slice, np.ndarray], np.ndarray]]:
        """Per-example losses and their vector-Jacobian product, from one forward pass.

        Returns ``(losses, vjp)`` where ``vjp(rows, v)`` is
        ``sum_k v[k] * grad loss_{rows[k]}``, i.e.
        ``batch_gradients(X, y)[rows].T @ v`` up to summation order.
        ``rows`` is an index array, or ``slice(None)`` for every example in
        order, which gathers nothing.  ``vjp`` gathers only the rows it is
        given from the inputs, labels, probabilities and kept activations,
        forms their loss residuals d loss / d score (so a forward pass alone
        does no backward work) and backpropagates the weighted residuals
        once: O(len(rows) * width + d) work and memory, never the (n, d)
        per-example gradients.
        """
        X, y = self._check_data(X, y)
        if self.architecture == "linear_squared":
            resid = X @ self.params - y
            return resid ** 2, lambda rows, v: (v * (2.0 * resid[rows])) @ X[rows]
        if self.architecture == "logistic_crossentropy":
            p, q = _sigmoid_pair(X @ self.params)
            return _crossentropy(p, q, y), lambda rows, v: (
                (v * _crossentropy_residual(p[rows], y[rows])) @ X[rows])
        scores, activations = self._mlp_forward(X)
        p, q = _sigmoid_pair(scores)
        return _crossentropy(p, q, y), lambda rows, v: self._mlp_vjp(
            [a[rows] for a in activations], v * _crossentropy_residual(p[rows], y[rows]))

    def _mlp_vjp(self, activations: list[np.ndarray], delta: np.ndarray) -> np.ndarray:
        """sum_i of delta_i * d score_i / d params, by one backward pass."""
        layers = self._mlp_layers()
        delta = delta[:, None]  # (rows, 1)
        parts = []
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            parts.append(delta.sum(axis=0))
            parts.append((delta.T @ activations[i]).ravel())  # (out, in)
            if i > 0:  # tanh' = 1 - a^2, formed in place: one (rows, width) temporary
                slope = np.square(activations[i])
                np.subtract(1.0, slope, out=slope)
                slope *= delta @ w
                delta = slope
        return np.concatenate(parts[::-1])

    def batch_gradients(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-example loss gradients, shape (n, parameter count).

        Builds the full matrix; training uses :meth:`loss_and_vjp`.
        """
        X, y = self._check_data(X, y)
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
    """Fresh model with parameters uniform on [-0.5, 0.5] from the seed; a
    parameter vector numpy cannot hold raises :class:`ConfigError`."""
    count = parameter_count(architecture, input_dim, hidden)
    rng = rng_from(seed, "init", architecture)
    try:
        params = rng.random(count) - 0.5
    except (MemoryError, ValueError):
        raise ConfigError(f"{architecture}: cannot hold {count} parameters in memory") from None
    return LossModel(architecture=architecture, params=params,
                     input_dim=int(input_dim), hidden=tuple(hidden))


def relative_error(a, b) -> float:
    """Max elementwise |a - b| scaled by max(1, |a|, |b|) over the arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def finite_difference_check(model: LossModel, x, y: float, direction,
                            step: float = 1e-6) -> float:
    """Central-difference check of one example's loss gradient g (features
    ``x``, label ``y``; g as training backpropagates it) along ``direction``,
    a vector v with one entry per parameter: |fd - g . v| / max(1, max_i |g_i|),
    fd the central difference of the loss at ``step`` along v.  A basis vector
    e_i gives coordinate i's error; standard normal entries see an error e in
    g as e . v, of root-mean-square size |e|.  Three model passes at any
    parameter count.  A ``direction`` without :attr:`LossModel.dim` entries
    raises :class:`ShapeError`, one not finite or all zero :class:`ConfigError`,
    and a step that overflows the losses :class:`NumericError` naming it."""
    if not 0.0 < (h := _real(step)) < math.inf:
        raise ConfigError(f"step must be finite and positive, got {step}")
    v = np.asarray(direction, dtype=np.float64).ravel()
    if v.shape != model.params.shape:
        raise ShapeError(f"{model.architecture}: direction has {v.size} entries, not {model.dim}")
    if not (np.isfinite(v).all() and v.any()):
        raise ConfigError(f"{model.architecture}: direction must be finite and not all zero")
    grad = model.loss_and_vjp([x], [y])[1](slice(None), np.ones(1))
    with np.errstate(all="ignore"):  # a non-finite error is raised below, not warned
        hi = model.with_params(model.params + h * v).batch_losses([x], [y])[0]
        lo = model.with_params(model.params - h * v).batch_losses([x], [y])[0]
        miss = float(abs((hi - lo) / (2.0 * h) - grad @ v))
    error = miss / max(1.0, float(np.max(np.abs(grad))))
    if not math.isfinite(error):
        raise NumericError(f"the finite-difference relative error is {error} at step {h:g}")
    return error


def save_checkpoint(model: LossModel, path) -> None:
    """Write the model as standard JSON: a NaN or infinite parameter raises
    :class:`NumericError` before the file is opened."""
    payload = {
        "architecture": model.architecture,
        "hyperparameters": {"input_dim": model.input_dim, "hidden": list(model.hidden)},
        "parameter_vector": [float(v) for v in model.params],
    }
    _write_json(payload, path)


def _parameter(path, i: int, value) -> float:
    """Entry ``i`` of a checkpoint's ``parameter_vector`` as a finite float,
    else :class:`FormatError` naming the file and the index."""
    number = _real(value)
    if not math.isfinite(number):
        raise FormatError(f"{path}: parameter_vector[{i}] is not a finite number: {value!r}")
    return number


def _width(path, name: str, value) -> int:
    """A checkpoint's ``input_dim`` or hidden width as it must be, a JSON
    integer of at least 1, else :class:`FormatError` naming the file and field."""
    if not _is_count(value):
        raise FormatError(f"{path}: {name} is not an integer >= 1: {value!r}")
    return value


def load_checkpoint(path) -> LossModel:
    """The model a :func:`save_checkpoint` file holds; a missing field, a
    parameter that is not a finite number or a width that is not a positive
    integer raises :class:`FormatError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a non-UTF-8 byte
            raise FormatError(f"{path}: invalid checkpoint JSON: {exc}") from None
    try:
        hyper = payload["hyperparameters"]
        return LossModel(
            architecture=payload["architecture"],
            params=np.array([_parameter(path, i, v)
                             for i, v in enumerate(payload["parameter_vector"])]),
            input_dim=_width(path, "input_dim", hyper["input_dim"]),
            hidden=tuple(_width(path, f"hidden[{i}]", h)
                         for i, h in enumerate(hyper.get("hidden", []))),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing checkpoint field: {exc}") from None
