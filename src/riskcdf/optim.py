"""Empirical distortion risk minimization by reweighted gradient descent.

The training objective is a distortion risk of the per-example losses:
the rank weights ``spec.rank_weights(n)`` dotted with the sorted losses,
as :func:`riskcdf.risks.distortion_risk` evaluates it, for a distortion
spec (a spectrum is one): ``train --risk`` takes ``mean``, ``cvar:ALPHA``,
``distortion-file:PATH`` and ``spectral-file:PATH``.  Where it is
differentiable, its gradient reweights the per-example loss gradients by
the same weights:

    grad = sum_i [g(1 - (i-1)/n) - g(1 - i/n)] * grad loss of i-th smallest,

with nonnegative weights summing to g(1) - g(0) = 1 (identity g recovers
the plain average gradient).  Each descent step adds an isotropic Gaussian
perturbation with per-coordinate variance 1/d, which keeps the iterates at
differentiable points almost surely:

    theta <- theta - eta * (grad + w),   w ~ N(0, I/d).

The step size over T steps is ``eta`` as given or 1/(beta * sqrt(T)) from a
smoothness estimate beta, the rate of the descent guarantee that
:func:`stationarity_report` checks.

Once per run, :func:`train` checks its arguments and the labels and
converts the features and labels to float64 arrays.  Each iteration then
rebinds the iterate (:meth:`LossModel.with_params`), makes one forward
pass (:meth:`LossModel.loss_and_vjp`), ranks the losses with
:meth:`DistortionSpec.weigh`, makes one vector-Jacobian product that
backpropagates the rank weights to the rows they reach, and adds the step's
noise, drawn for a block of steps at a time.  ``weigh`` is the one rank
rule: the risk value and the gradient's row weights come from the same sort
and the same weights, which the spec builds once per run, and no
per-example gradient matrix is built: O(n * width + d) memory per step.
Under CVaR at level alpha < 1 only the largest losses are sorted, and
the top ceil(alpha * n) backpropagated.

Ordering of the dataset never changes the risk value, and a fixed seed
reproduces a run bit for bit under the same numpy and BLAS build and the
same BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py times calls through the names bound here, so
# build_cdf and distortion_risk stay bound although training reads neither:
# its risk is the rank-weighted sum that distortion_risk computes.
from .cdf import build_cdf  # noqa: F401
from .data import _BUFFER_DOUBLES, _is_count, _real, _write_csv
from .errors import ConfigError, Diverged, EmptySample
from .models import LossModel
from .risks import DistortionSpec, distortion_risk  # noqa: F401
from .seeds import rng_from, standard_normal, standard_normal_rows

__all__ = [
    "DIVERGENCE_GUARD",
    "TrainTrace",
    "distortion_gradient",
    "noisy_gd_step",
    "train",
    "estimate_beta",
    "stationarity_report",
]

DIVERGENCE_GUARD = 1e12


def _positive_beta(beta: float) -> float:
    """``beta`` as a float: a smoothness constant must be finite and positive."""
    if not 0.0 < (b := _real(beta)) < math.inf:
        raise ConfigError(f"beta must be finite and positive, got {beta}")
    return b


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Per-iteration training record.

    ``risk[t-1]``, ``grad_norm[t-1]`` are measured at the pre-step iterate
    theta_t; ``avg_sq_grad_norm`` is the running mean of squared gradient
    norms up to t.  Snapshots hold (t, theta_t, grad_t) every
    ``max(1, T // 100)`` iterations, always including t=1 and the final
    iterate.
    """

    risk: np.ndarray
    grad_norm: np.ndarray
    snapshots: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @property
    def iterations(self) -> int:
        return self.risk.shape[0]

    @property
    def avg_sq_grad_norm(self) -> np.ndarray:
        return np.cumsum(self.grad_norm ** 2) / np.arange(1, self.iterations + 1)

    @property
    def initial_risk(self) -> float:
        return float(self.risk[0])

    @property
    def best_risk(self) -> float:
        return float(np.min(self.risk))

    def to_csv(self, path) -> None:
        """Write a header and one row per iteration, CSV with CRLF line ends."""
        _write_csv(path, ["t", "risk", "grad_norm", "avg_sq_grad_norm"],
                   [range(1, self.iterations + 1), self.risk, self.grad_norm,
                    self.avg_sq_grad_norm])


def distortion_gradient(model: LossModel, X: np.ndarray, y: np.ndarray,
                        spec: DistortionSpec) -> np.ndarray:
    """CDF-reweighted full-batch gradient of the empirical distortion risk.

    One forward pass, the rows and row weights of :meth:`DistortionSpec.weigh`
    and one vector-Jacobian product, as in a training step; the spec builds
    its rank weights once for repeated calls at one n.  The features and
    labels are checked first, as :func:`train` checks them
    (:meth:`LossModel.check_values`).  NaN, infinite or negative losses
    raise :class:`InvalidLoss`, as :func:`build_cdf` does.
    """
    # check_values returns float64 arrays of checked shape, so the forward
    # pass's own shape check copies nothing (np.asarray returns X itself,
    # ravel a view of y), as in every step of train.
    losses, vjp = model.loss_and_vjp(*model.check_values(X, y))
    if losses.size == 0:
        raise EmptySample("no training examples")
    _, rows, v = spec.weigh(losses)
    return vjp(rows, v)


def noisy_gd_step(theta: np.ndarray, gradient: np.ndarray, eta: float,
                  rng: np.random.Generator) -> np.ndarray:
    """One descent step theta - eta*(gradient + w), w ~ N(0, I/d) drawn from ``rng``.

    :func:`train` makes the same step, with the same noise stream, from
    noise drawn in blocks.
    """
    theta = np.asarray(theta, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if theta.shape != gradient.shape:
        raise ConfigError(f"shape mismatch: theta {theta.shape} vs gradient {gradient.shape}")
    d = theta.shape[0]
    w = standard_normal(rng, d) / math.sqrt(d)
    return theta - eta * (gradient + w)


def train(model: LossModel, X: np.ndarray, y: np.ndarray, distortion: DistortionSpec,
          iterations: int, *, eta: float | None = None, beta: float | None = None,
          seed: int = 0) -> tuple[LossModel, TrainTrace]:
    """Run the perturbed descent loop; returns the final model and trace.

    ``distortion`` is the objective and ``iterations`` (an integer >= 1)
    the number of steps T.  The step size is ``eta`` (finite and
    nonnegative) or, when ``eta`` is None, ``1 / (beta * sqrt(T))`` from the
    smoothness estimate ``beta`` (finite and positive); one of the two must
    be given, else :class:`ConfigError`.  ``seed`` seeds the step noise,
    which every step adds.

    Once per run it checks the shapes and values of ``X`` and ``y``
    (:meth:`LossModel.check_values`) and converts them to float64 arrays;
    ``distortion`` builds its rank weights once, at the first step.  Each
    iteration costs one parameter rebind, one forward pass, one
    :meth:`DistortionSpec.weigh` and one vector-Jacobian product over the
    rows it returns, in O(n * width + d) memory.  The step is
    :func:`noisy_gd_step`'s, with its noise stream bit for bit, but the
    noise comes from one :func:`~riskcdf.seeds.standard_normal_rows` draw
    per block of ``max(1, 8192 // (2 * d))`` steps, 2d
    uniforms a step, so one 64 KB buffer holds a block unless a step alone
    needs more.  ``risk[t-1]`` equals
    ``distortion_risk(build_cdf(losses), distortion).value`` on the
    iterate's losses bit for bit.  Negative losses raise
    :class:`InvalidLoss`, as :func:`build_cdf` does, and a non-finite
    feature or label, or a label that the model's loss does not accept,
    raises :class:`DataError` before the first step.  The trace snapshots
    the iterate every ``max(1, T // 100)`` iterations, plus at t = 1 and
    t = T.

    Raises :class:`Diverged` (with the partial trace attached) if the risk
    exceeds the divergence guard or stops being finite, or if a step makes
    the parameters non-finite.
    """
    if not _is_count(iterations):
        raise ConfigError(f"iterations must be an integer >= 1, got {iterations!r}")
    if eta is None and beta is None:
        raise ConfigError("either eta or beta must be given")
    if eta is not None and not 0.0 <= _real(eta) < math.inf:
        raise ConfigError(f"eta must be finite and nonnegative, got {eta}")
    if beta is not None:
        _positive_beta(beta)
    eta = float(eta) if eta is not None else 1.0 / (beta * math.sqrt(iterations))
    rng = rng_from(seed, "gd_noise")
    t_total = int(iterations)
    cadence = max(1, t_total // 100)

    theta = model.params
    try:
        risk = np.empty(t_total)
        grad_norm = np.empty(t_total)
    except (MemoryError, ValueError):
        raise ConfigError(f"cannot hold the trace of {t_total} iterations in memory") from None
    snapshots: list[tuple[int, np.ndarray, np.ndarray]] = []

    def make_trace(upto: int) -> TrainTrace:
        return TrainTrace(risk=risk[:upto].copy(), grad_norm=grad_norm[:upto].copy(),
                          snapshots=tuple(snapshots))

    X, y = model.check_values(X, y)
    n = X.shape[0]
    if n == 0:
        raise EmptySample("no training examples")
    d = theta.shape[0]
    block = max(1, _BUFFER_DOUBLES // (2 * d))
    # One noise buffer, allocated before the loop, holds each block's noise:
    # a block array allocated mid-run, above the step's large temporaries,
    # can make the allocator return and re-fault the heap top every step
    # (~100 page faults a step for mlp_tanh with 32 units under the mean at n = 1050).
    uniforms = np.empty((block, 2, d))
    current = model
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised, not warned
        for t in range(1, t_total + 1):
            current = current.with_params(theta)
            losses, vjp = current.loss_and_vjp(X, y)
            if not np.isfinite(losses).all():
                raise Diverged(f"non-finite loss at iteration {t}", trace=make_trace(t - 1))
            rho, rows, v = distortion.weigh(losses)
            grad = vjp(rows, v)
            if not math.isfinite(rho) or rho > DIVERGENCE_GUARD:
                raise Diverged(f"risk {rho} exceeded guard at iteration {t}",
                               trace=make_trace(t - 1))
            risk[t - 1] = rho
            grad_norm[t - 1] = math.sqrt(grad.dot(grad))  # np.linalg.norm's formula
            if t == 1 or t == t_total or t % cadence == 0:
                snapshots.append((t, theta.copy(), grad.copy()))
            k = (t - 1) % block
            if k == 0:
                noise = standard_normal_rows(rng, uniforms[:min(block, t_total - t + 1)])
                noise /= math.sqrt(d)
            theta = theta - eta * (grad + noise[k])
            if not np.isfinite(theta).all():
                raise Diverged(f"the step at iteration {t} made the parameters non-finite",
                               trace=make_trace(t))
        return current.with_params(theta), make_trace(t_total)


def estimate_beta(trace: TrainTrace) -> float:
    """Crude smoothness estimate: max gradient-change ratio over snapshots."""
    pairs = zip(trace.snapshots[:-1], trace.snapshots[1:])
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, not warned
        for (_, th_a, g_a), (_, th_b, g_b) in pairs:
            dth = float(np.linalg.norm(th_b - th_a))
            if not math.isfinite(dth):
                raise ConfigError("cannot estimate beta: parameter movement is not finite")
            if dth > 0:
                best = max(best, float(np.linalg.norm(g_b - g_a)) / dth)
    if best == 0.0:
        raise ConfigError("cannot estimate beta: no parameter movement in snapshots")
    return best


def stationarity_report(trace: TrainTrace, beta: float | None = None) -> dict:
    """Average squared gradient norm against its descent guarantee, as the
    dict ``train`` writes to ``stationarity.json``.

    ``rhs`` is (2*beta/sqrt(T)) * (initial risk - best risk + 1/(2*beta)),
    using the best observed risk as a surrogate for the optimum (flagged by
    ``best_risk_is_surrogate``; the surrogate makes the check stricter), and
    ``holds`` is ``mean_sq_grad_norm <= rhs``.  The decile means expose the
    descent trend of the squared gradient norms over a single run.

    ``beta=None`` estimates beta from the trace (``beta_estimated``); a given
    beta must be finite and positive, as :func:`train` requires, else
    :class:`ConfigError`.
    """
    estimated = beta is None
    b = estimate_beta(trace) if estimated else _positive_beta(beta)
    t_total = trace.iterations
    sq = trace.grad_norm ** 2
    lhs = float(np.mean(sq))
    rhs = (2.0 * b / math.sqrt(t_total)) * (trace.initial_risk - trace.best_risk + 1.0 / (2.0 * b))
    decile = max(1, t_total // 10)
    return {
        "mean_sq_grad_norm": lhs,
        "beta": b,
        "beta_estimated": estimated,
        "iterations": t_total,
        "initial_risk": trace.initial_risk,
        "best_risk": trace.best_risk,
        "rhs": rhs,
        "holds": lhs <= rhs,
        "best_risk_is_surrogate": True,
        "first_decile_mean_sq": float(np.mean(sq[:decile])),
        "last_decile_mean_sq": float(np.mean(sq[-decile:])),
    }
