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

Each iteration makes one forward pass (:meth:`LossModel.loss_and_vjp`),
one stable sort, and one vector-Jacobian product that backpropagates the
rank weights.  The risk value and the gradient come from the same sort and
weights, the weights are computed once per run, and no per-example
gradient matrix is built: O(n * width + d) memory per step.

Only the ranks from ``lo``, the first rank with a nonzero weight, count.
When ``lo > 0`` (CVaR at level alpha < 1 has ``lo = n - ceil(alpha * n)``)
a step selects the candidates, the losses at or above the ``lo``-th
smallest, in O(n); it sorts only those and backpropagates only the
``n - lo`` rows the weights reach.  When ``lo == 0`` (the smallest loss
has weight, as under the mean) it sorts all n losses and backpropagates
every row in example order.

The sort breaks ties stably by original index; the candidates keep that
order, so ties at rank ``lo`` break as in a sort of all n losses.
Ordering of the dataset never changes the risk value, and a fixed seed
reproduces a run bit for bit in single-threaded mode.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py times calls through the names bound here, so
# build_cdf and distortion_risk stay bound although training reads neither:
# its risk is the rank-weighted sum that distortion_risk computes.
from .cdf import build_cdf  # noqa: F401
from .errors import ConfigError, Diverged, EmptySample, InvalidLoss
from .models import LossModel
from .risks import DistortionSpec, distortion_risk  # noqa: F401
from .seeds import rng_from, standard_normal

__all__ = [
    "DIVERGENCE_GUARD",
    "TrainConfig",
    "TrainTrace",
    "StationarityReport",
    "distortion_gradient",
    "noisy_gd_step",
    "train",
    "estimate_beta",
    "stationarity_report",
]

DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Gradient descent configuration.

    When ``eta`` is omitted, the learning rate defaults to
    ``1 / (beta * sqrt(iterations))`` from the smoothness estimate
    ``beta``.  ``noise=False`` is a test hook that zeroes the Gaussian
    perturbation; production runs keep it on.
    """

    distortion: DistortionSpec
    iterations: int
    eta: float | None = None
    beta: float | None = None
    seed: int = 0
    noise: bool = True
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.eta is None and self.beta is None:
            raise ConfigError("either eta or beta must be given")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be finite and nonnegative, got {self.eta}")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"beta must be finite and positive, got {self.beta}")

    @property
    def effective_eta(self) -> float:
        if self.eta is not None:
            return float(self.eta)
        return 1.0 / (self.beta * math.sqrt(self.iterations))

    @property
    def effective_snapshot_every(self) -> int:
        if self.snapshot_every is not None:
            return max(1, int(self.snapshot_every))
        return max(1, self.iterations // 100)


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration training record.

    ``risk[t-1]``, ``grad_norm[t-1]`` are measured at the pre-step iterate
    theta_t; ``avg_sq_grad_norm`` is the running mean of squared gradient
    norms up to t.  Snapshots hold (t, theta_t, grad_t) at the configured
    cadence, always including t=1 and the final iterate.
    """

    risk: np.ndarray
    grad_norm: np.ndarray
    avg_sq_grad_norm: np.ndarray
    snapshots: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @property
    def iterations(self) -> int:
        return self.risk.shape[0]

    @property
    def initial_risk(self) -> float:
        return float(self.risk[0])

    @property
    def best_risk(self) -> float:
        return float(np.min(self.risk))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "risk", "grad_norm", "avg_sq_grad_norm"])
            for t in range(self.iterations):
                writer.writerow([
                    t + 1,
                    f"{self.risk[t]:.17g}",
                    f"{self.grad_norm[t]:.17g}",
                    f"{self.avg_sq_grad_norm[t]:.17g}",
                ])


def _first_weighted_rank(weights: np.ndarray) -> int:
    """``lo``: the first rank whose weight is nonzero; ranks below it carry no weight."""
    return int(np.argmax(weights != 0.0))


def _risk_and_gradient(losses: np.ndarray,
                       vjp: Callable[[np.ndarray | slice, np.ndarray], np.ndarray],
                       weights: np.ndarray, lo: int) -> tuple[float, np.ndarray]:
    """Distortion risk and its gradient from one stable sort of the weighted ranks.

    ``weights`` is ``spec.rank_weights(n)`` and ``lo`` its
    :func:`_first_weighted_rank`.  For ``lo == 0`` all n losses are sorted
    and the weights, scattered back to example order, are backpropagated
    through every row.  For ``lo > 0`` the candidates are the rows whose
    loss is at least the ``lo``-th smallest, found by one partition and
    listed in index order, so ties at rank ``lo`` among them break as the
    full stable sort breaks them.  Only the candidates are sorted, and
    ``vjp`` gets the top ``n - lo`` of them with ``weights[lo:]``.

    The risk is ``weights`` dotted with the ascending losses, zeros
    standing in below rank ``lo`` where every weight is zero, so it equals
    ``distortion_risk(build_cdf(losses), spec).value`` bit for bit.
    ``losses`` must be finite.  Negative losses raise :class:`InvalidLoss`,
    as :func:`build_cdf` does; for ``lo > 0`` the partition does not put
    the minimum first, so it is checked on its own.
    """
    if lo == 0:
        order = np.argsort(losses, kind="stable")
        ascending = losses[order]
        if ascending[0] < 0.0:
            raise InvalidLoss("losses must be nonnegative")
        v = np.empty_like(losses)
        v[order] = weights
        return float(weights @ ascending), vjp(slice(None), v)
    if losses.min() < 0.0:
        raise InvalidLoss("losses must be nonnegative")
    candidates = np.flatnonzero(losses >= np.partition(losses, lo)[lo])
    top = candidates[np.argsort(losses[candidates], kind="stable")[lo - losses.shape[0]:]]
    ascending = np.zeros_like(losses)
    ascending[lo:] = losses[top]
    return float(weights @ ascending), vjp(top, weights[lo:])


def distortion_gradient(model: LossModel, X: np.ndarray, y: np.ndarray,
                        spec: DistortionSpec) -> np.ndarray:
    """CDF-reweighted full-batch gradient of the empirical distortion risk.

    One forward pass, one stable sort and one vector-Jacobian product, as
    in a training step: only the examples at ranks the weights reach are
    sorted and backpropagated (:func:`_risk_and_gradient`).  NaN, infinite
    or negative losses raise :class:`InvalidLoss`, as :func:`build_cdf` does.
    """
    losses, vjp = model.loss_and_vjp(X, y)
    if losses.size == 0:
        raise EmptySample("no training examples")
    if not np.all(np.isfinite(losses)):
        raise InvalidLoss("losses must be finite (no NaN/inf)")
    weights = spec.rank_weights(losses.shape[0])
    _, grad = _risk_and_gradient(losses, vjp, weights, _first_weighted_rank(weights))
    return grad


def noisy_gd_step(theta: np.ndarray, gradient: np.ndarray, eta: float,
                  rng: np.random.Generator | None) -> np.ndarray:
    """One descent step theta - eta*(gradient + w), w ~ N(0, I/d).

    ``rng=None`` zeroes the perturbation (test hook).
    """
    theta = np.asarray(theta, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if theta.shape != gradient.shape:
        raise ConfigError(f"shape mismatch: theta {theta.shape} vs gradient {gradient.shape}")
    d = theta.shape[0]
    if rng is None:
        w = np.zeros(d)
    else:
        w = standard_normal(rng, d) / math.sqrt(d)
    return theta - eta * (gradient + w)


def train(model: LossModel, X: np.ndarray, y: np.ndarray,
          config: TrainConfig) -> tuple[LossModel, TrainTrace]:
    """Run the perturbed descent loop; returns the final model and trace.

    Each iteration costs one forward pass, one stable sort and one
    vector-Jacobian product, in O(n * width + d) memory; the sort and the
    backward pass cover only the ranks from the first nonzero weight up,
    found once per run (:func:`_risk_and_gradient`).  ``risk[t-1]``
    equals ``distortion_risk(build_cdf(losses), distortion).value`` on the
    iterate's losses bit for bit.  Negative losses raise
    :class:`InvalidLoss`, as :func:`build_cdf` does, and labels that the
    model's loss does not accept raise :class:`DataError` before the first
    step (:meth:`LossModel.check_labels`).

    Raises :class:`Diverged` (with the partial trace attached) if the risk
    exceeds the divergence guard or stops being finite.
    """
    eta = config.effective_eta
    rng = rng_from(config.seed, "gd_noise") if config.noise else None
    cadence = config.effective_snapshot_every
    t_total = config.iterations

    theta = model.params
    risk = np.empty(t_total)
    grad_norm = np.empty(t_total)
    avg_sq = np.empty(t_total)
    snapshots: list[tuple[int, np.ndarray, np.ndarray]] = []
    running_sq = 0.0

    def make_trace(upto: int) -> TrainTrace:
        return TrainTrace(
            risk=risk[:upto].copy(),
            grad_norm=grad_norm[:upto].copy(),
            avg_sq_grad_norm=avg_sq[:upto].copy(),
            snapshots=tuple(snapshots),
        )

    n = np.atleast_2d(X).shape[0]
    if n == 0:
        raise EmptySample("no training examples")
    model.check_labels(y)
    weights = config.distortion.rank_weights(n)
    lo = _first_weighted_rank(weights)
    current = model
    for t in range(1, t_total + 1):
        current = current.with_params(theta)
        losses, vjp = current.loss_and_vjp(X, y)
        if not np.all(np.isfinite(losses)):
            raise Diverged(f"non-finite loss at iteration {t}", trace=make_trace(t - 1))
        rho, grad = _risk_and_gradient(losses, vjp, weights, lo)
        if not math.isfinite(rho) or rho > DIVERGENCE_GUARD:
            raise Diverged(f"risk {rho} exceeded guard at iteration {t}",
                           trace=make_trace(t - 1))
        risk[t - 1] = rho
        gn = float(np.linalg.norm(grad))
        grad_norm[t - 1] = gn
        running_sq += gn * gn
        avg_sq[t - 1] = running_sq / t
        if t == 1 or t == t_total or t % cadence == 0:
            snapshots.append((t, theta.copy(), grad.copy()))
        theta = noisy_gd_step(theta, grad, eta, rng)
    return current.with_params(theta), make_trace(t_total)


def estimate_beta(trace: TrainTrace) -> float:
    """Crude smoothness estimate: max gradient-change ratio over snapshots."""
    pairs = zip(trace.snapshots[:-1], trace.snapshots[1:])
    best = 0.0
    for (_, th_a, g_a), (_, th_b, g_b) in pairs:
        dth = float(np.linalg.norm(th_b - th_a))
        if dth > 0:
            best = max(best, float(np.linalg.norm(g_b - g_a)) / dth)
    if best == 0.0:
        raise ConfigError("cannot estimate beta: no parameter movement in snapshots")
    return best


@dataclass(frozen=True)
class StationarityReport:
    """Average squared gradient norm against its descent guarantee.

    ``rhs`` is (2*beta/sqrt(T)) * (initial risk - best risk + 1/(2*beta)),
    using the best observed risk as a surrogate for the optimum (flagged by
    ``best_risk_is_surrogate``; the surrogate makes the check stricter).
    The decile means expose the descent trend of the squared gradient
    norms over a single run.
    """

    mean_sq_grad_norm: float
    beta: float
    beta_estimated: bool
    iterations: int
    initial_risk: float
    best_risk: float
    rhs: float
    holds: bool
    best_risk_is_surrogate: bool
    first_decile_mean_sq: float
    last_decile_mean_sq: float

    def to_dict(self) -> dict:
        return {
            "mean_sq_grad_norm": self.mean_sq_grad_norm,
            "beta": self.beta,
            "beta_estimated": self.beta_estimated,
            "iterations": self.iterations,
            "initial_risk": self.initial_risk,
            "best_risk": self.best_risk,
            "rhs": self.rhs,
            "holds": self.holds,
            "best_risk_is_surrogate": self.best_risk_is_surrogate,
            "first_decile_mean_sq": self.first_decile_mean_sq,
            "last_decile_mean_sq": self.last_decile_mean_sq,
        }


def stationarity_report(trace: TrainTrace, beta: float | None = None) -> StationarityReport:
    """Check the average squared gradient norm against the smoothness bound."""
    estimated = beta is None
    b = estimate_beta(trace) if estimated else float(beta)
    t_total = trace.iterations
    sq = trace.grad_norm ** 2
    lhs = float(np.mean(sq))
    rhs = (2.0 * b / math.sqrt(t_total)) * (trace.initial_risk - trace.best_risk + 1.0 / (2.0 * b))
    decile = max(1, t_total // 10)
    return StationarityReport(
        mean_sq_grad_norm=lhs,
        beta=b,
        beta_estimated=estimated,
        iterations=t_total,
        initial_risk=trace.initial_risk,
        best_risk=trace.best_risk,
        rhs=rhs,
        holds=lhs <= rhs,
        best_risk_is_surrogate=True,
        first_decile_mean_sq=float(np.mean(sq[:decile])),
        last_decile_mean_sq=float(np.mean(sq[-decile:])),
    )
