"""Uniform-convergence certificates for loss-CDF estimation.

The certified quantity is the worst-case sup-norm CDF estimation error over
a hypothesis class: with probability at least 1 - delta,

    e_n  <=  2 * R(n) + sqrt(log(1/delta) / (2n)),

where R(n) is any upper bound on the class's Rademacher complexity for
threshold-composed losses.  Available R(n) bounds:

* finite class of size |F|:        sqrt(log(4|F|) / (2n))
* permutation complexity N:        sqrt(log(4N) / (2n))
* growth number G (labelings):     2 * sqrt(log(G) / n), with the preset
  G = (n+1)|F| for a finite class
* VC dimension nu:                 2 * sqrt(nu * log(n+1) / n), the growth
  bound at G = (n+1)**nu in log space, so it never overflows

Natural logarithms throughout.  Every count (n, |F|, N, G, nu) must be a
finite number, and so must R(n).  A certificate propagates to risk errors
via L * epsilon**p for sup-norm Holder risks, and to excess risk via
doubling.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

# perfbench/tracing.py times calls through the names bound here, so
# sup_norm_distance stays bound although the Monte Carlo loop calls the
# rows kernel.
from .cdf import _check_losses, build_cdf, sup_norm_distance, sup_norm_distances  # noqa: F401
from .errors import ConfigError, InvalidDelta, InvalidGrowth, ShapeError, WeakReference
from .seeds import rng_from

__all__ = [
    "BoundCertificate",
    "mcdiarmid_term",
    "rademacher_finite_class",
    "rademacher_permutation",
    "rademacher_growth",
    "growth_finite_class",
    "rademacher_vc_sauer",
    "cdf_uniform_bound",
    "certificate_finite_class",
    "certificate_permutation",
    "certificate_growth",
    "certificate_vc_sauer",
    "risk_error_bound",
    "excess_risk_bound",
    "MonteCarloEnResult",
    "monte_carlo_en",
]


def _finite(value, what: str, error: type[ConfigError] = ConfigError) -> float:
    """``value`` as a float, which must be finite: a NaN or infinite count, or an
    integer too large for a float (a 400-digit one), raises ``error``."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise error(f"{what} must be a finite number, got {value!r}")
    return x


def _check_n(n: int) -> int:
    _finite(n, "sample size")
    if int(n) != n or n < 1:
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    return int(n)


def _check_delta(delta: float) -> float:
    if not (0.0 < delta <= 1.0):
        raise InvalidDelta(f"delta must be in (0, 1], got {delta!r}")
    return float(delta)


def mcdiarmid_term(n: int, delta: float) -> float:
    """Concentration term sqrt(log(1/delta) / (2n))."""
    n = _check_n(n)
    delta = _check_delta(delta)
    return math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def rademacher_finite_class(n: int, class_size: int) -> float:
    """Rademacher bound sqrt(log(4|F|) / (2n)) for a finite class."""
    n = _check_n(n)
    if _finite(class_size, "class size") < 1:
        raise ConfigError(f"class size must be >= 1, got {class_size}")
    return math.sqrt(math.log(4.0 * class_size) / (2.0 * n))


def rademacher_permutation(n: int, n_pi: float) -> float:
    """Rademacher bound sqrt(log(4N) / (2n)) from permutation complexity N."""
    n = _check_n(n)
    if _finite(n_pi, "permutation complexity") < 1:
        raise ConfigError(f"permutation complexity must be >= 1, got {n_pi}")
    return math.sqrt(math.log(4.0 * n_pi) / (2.0 * n))


def rademacher_growth(n: int, growth: float) -> float:
    """Rademacher bound 2 * sqrt(log(G) / n) from a growth number G."""
    n = _check_n(n)
    if _finite(growth, "growth", InvalidGrowth) < 1:
        raise InvalidGrowth(f"growth must be >= 1, got {growth}")
    return 2.0 * math.sqrt(math.log(growth) / n)


def growth_finite_class(n: int, class_size: int) -> float:
    """Labeling count (n+1)|F| of threshold-composed losses for a finite class."""
    return (_check_n(n) + 1) * _finite(class_size, "class size")


def rademacher_vc_sauer(n: int, nu: int) -> float:
    """Growth bound with the VC preset, computed in log space: 2*sqrt(nu*log(n+1)/n)."""
    n = _check_n(n)
    if _finite(nu, "VC dimension") < 0:
        raise ConfigError(f"VC dimension must be nonnegative, got {nu}")
    return 2.0 * math.sqrt(nu * math.log(n + 1.0) / n)


@dataclass(frozen=True)
class BoundCertificate:
    """A computed CDF uniform-convergence bound with its inputs.

    ``epsilon = 2 * rademacher_bound + sqrt(log(1/delta)/(2n))`` holds by
    construction for every method except ``user_supplied``.
    """

    n: int
    delta: float
    rademacher_bound: float
    method: str
    epsilon: float
    inputs: dict = field(default_factory=dict)

    @property
    def vacuous(self) -> bool:
        """Whether epsilon >= 1: a sup-norm CDF distance never exceeds 1, so
        such a bound certifies nothing."""
        return self.epsilon >= 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "vacuous": self.vacuous}


def cdf_uniform_bound(rademacher_bound: float, n: int, delta: float,
                      method: str = "user_supplied", inputs: dict | None = None) -> BoundCertificate:
    """Assemble a certificate: epsilon = 2 * R + sqrt(log(1/delta)/(2n))."""
    n = _check_n(n)
    delta = _check_delta(delta)
    if _finite(rademacher_bound, "rademacher bound") < 0:
        raise ConfigError(f"rademacher bound must be nonnegative, got {rademacher_bound}")
    eps = 2.0 * rademacher_bound + mcdiarmid_term(n, delta)
    return BoundCertificate(n=n, delta=delta, rademacher_bound=float(rademacher_bound),
                            method=method, epsilon=eps, inputs=dict(inputs or {}))


def certificate_finite_class(n: int, class_size: int, delta: float) -> BoundCertificate:
    return cdf_uniform_bound(rademacher_finite_class(n, class_size), n, delta,
                             method="finite_class", inputs={"class_size": int(class_size)})


def certificate_permutation(n: int, n_pi: float, delta: float) -> BoundCertificate:
    return cdf_uniform_bound(rademacher_permutation(n, n_pi), n, delta,
                             method="permutation", inputs={"n_pi": n_pi})


def certificate_growth(n: int, growth: float, delta: float) -> BoundCertificate:
    return cdf_uniform_bound(rademacher_growth(n, growth), n, delta,
                             method="growth", inputs={"growth": growth})


def certificate_vc_sauer(n: int, nu: int, delta: float) -> BoundCertificate:
    return cdf_uniform_bound(rademacher_vc_sauer(n, nu), n, delta,
                             method="vc_sauer", inputs={"nu": int(nu)})


def risk_error_bound(cert: BoundCertificate, L: float | None, p: float) -> float | None:
    """Simultaneous estimation-error bound L * epsilon**p (None if L is unknown) for
    every sup-norm Holder risk with constants at most (L, p) and every hypothesis."""
    return None if L is None else float(L) * cert.epsilon ** p


def excess_risk_bound(risk_error: float) -> float:
    """Excess risk of the empirical risk minimizer: twice the uniform risk error."""
    if risk_error < 0:
        raise ConfigError(f"risk error must be nonnegative, got {risk_error}")
    return 2.0 * float(risk_error)


@dataclass(frozen=True)
class MonteCarloEnResult:
    """Empirical distribution of the worst-case CDF estimation error.

    ``values[r]`` is, for repetition r, the maximum over models of the
    sup-norm distance between the model's n-sample CDF and its reference
    CDF.  The reference is itself empirical (built once from
    ``reference_sample_size`` draws), so each value carries an
    approximation bias of that reference's own estimation error.
    """

    values: np.ndarray

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.values, q))

    def violation_fraction(self, epsilon: float) -> float:
        return float(np.mean(self.values > epsilon))

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "e_n"])
            for r, v in enumerate(self.values):
                writer.writerow([r, f"{v:.17g}"])


def _row_losses(fn, j: int, X, y, rows: int) -> np.ndarray:
    """``loss_fns[j]`` on a dataset of ``rows`` examples, one loss per row."""
    losses = np.asarray(fn(X, y), dtype=np.float64).ravel()
    if losses.size != rows:
        raise ShapeError(f"loss function {j} returned {losses.size} losses for {rows} rows")
    return losses


def monte_carlo_en(
    loss_fns: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    sample_data: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    n: int,
    reps: int,
    seed: int,
    reference_sample_size: int,
    threads: int = 1,
) -> MonteCarloEnResult:
    """Estimate the distribution of the worst-case CDF error by simulation.

    Parameters
    ----------
    loss_fns : sequence of callables
        One per fixed model; each maps a dataset ``(X, y)`` to a 1-D array
        of nonnegative per-example losses.  Each must be row-wise: the
        losses of datasets stacked along axis 0 are their losses stacked,
        since repetitions are evaluated in blocks by one call.
    sample_data : callable
        ``(rng, size) -> (X, y)`` drawing fresh i.i.d. data.
    n, reps, seed : int
        Evaluation sample size, repetition count, and root seed.  Each
        repetition derives its own seed from ``(seed, "rep", r)``, so the
        first k values do not depend on ``reps``.
    reference_sample_size : int
        Size of the stand-in for the true CDF; should be at least 10 * n
        (a :class:`WeakReference` warning is emitted otherwise).
    threads : int
        Accepted for existing callers and ignored: repetitions run serially.

    Repetitions run in blocks of ``max(1, reference_sample_size // n)``, so
    a block holds about as many losses as the reference.  Per block and
    model there is one loss call on the block's stacked draws, one sort of
    its rows and one :func:`~riskcdf.cdf.sup_norm_distances` pass against
    the reference: O(reps n log N) time for a reference of N points, and
    working memory of O(N) beyond the reference data.

    Raises :class:`ConfigError` if ``n`` or ``reps`` is below 1,
    :class:`ShapeError` if a loss function returns other than one loss per
    row, and :class:`InvalidLoss` for a NaN, infinite or negative loss.
    """
    if n < 1 or reps < 1:
        raise ConfigError(f"monte_carlo_en needs n >= 1 and reps >= 1, got n={n}, reps={reps}")
    if reference_sample_size < 10 * n:
        warnings.warn(
            f"reference sample ({reference_sample_size}) is below 10x the "
            f"evaluation sample ({n}); reference bias may dominate",
            WeakReference,
            stacklevel=2,
        )
    ref_rng = rng_from(seed, "reference")
    x_ref, y_ref = sample_data(ref_rng, reference_sample_size)
    references = [build_cdf(_row_losses(fn, j, x_ref, y_ref, reference_sample_size))
                  for j, fn in enumerate(loss_fns)]

    values = np.zeros(reps)
    block = max(1, reference_sample_size // n)
    for start in range(0, reps, block):
        draws = [sample_data(rng_from(seed, "rep", r), n)
                 for r in range(start, min(start + block, reps))]
        x = np.concatenate([d[0] for d in draws])
        y = np.concatenate([d[1] for d in draws])
        out = values[start:start + len(draws)]
        for j, (fn, ref) in enumerate(zip(loss_fns, references)):
            losses = _check_losses(_row_losses(fn, j, x, y, len(draws) * n))
            rows = np.sort(losses.reshape(len(draws), n), axis=1)
            np.maximum(out, sup_norm_distances(rows, ref), out=out)
    return MonteCarloEnResult(values=values)
