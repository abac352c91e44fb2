"""Uniform-convergence certificates for loss-CDF estimation.

The certified quantity is the worst-case sup-norm CDF estimation error over
a hypothesis class: with probability at least 1 - delta,

    e_n  <=  2 * R(n) + sqrt(log(1/delta) / (2n)),

where R(n) is any upper bound on the class's Rademacher complexity for
threshold-composed losses.  :data:`CERTIFICATE_METHODS` holds the available
R(n) bounds, one per complexity count, and :func:`certificate` reads it:

* finite class of size |F|:        sqrt(log(4|F|) / (2n))
* permutation complexity N:        sqrt(log(4N) / (2n))
* growth number G (labelings):     2 * sqrt(log(G) / n); a finite class has
  G <= (n+1)|F|, the ``bound`` command's preset
* VC dimension nu:                 2 * sqrt(nu * log(n+1) / n), the growth
  bound at G = (n+1)**nu in log space, so it never overflows

Natural logarithms throughout.  Every count (n, |F|, N, G, nu) must be a
finite number, and so must R(n).  A certificate propagates to risk errors
via L * epsilon**p for sup-norm Holder risks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cdf import _check_losses, build_cdf, sup_norm_distances
# sup_norm_distances is imported because the Monte Carlo loop calls it.
# sup_norm_distance is bound only for perfbench/tracing.py, which times
# calls through the name bound here; nothing here calls it.
from .cdf import sup_norm_distance  # noqa: F401
from .data import _is_count, _is_real, _real, _write_csv
from .errors import ConfigError, InvalidDelta, InvalidGrowth, ShapeError, WeakReference
from .seeds import rng_from

__all__ = [
    "BoundCertificate",
    "CERTIFICATE_METHODS",
    "certificate",
    "certificate_finite_class",
    "risk_error_bound",
    "MonteCarloEnResult",
    "monte_carlo_en",
]


def _finite(value, what: str, error: type[ConfigError] = ConfigError) -> float:
    """``value`` as a finite float (:func:`data._real`): a bool, a string, None,
    NaN, infinity or an integer beyond float range raises ``error``."""
    x = _real(value)
    if not math.isfinite(x):
        raise error(f"{what} must be a finite number, got {value!r}")
    return x


def _check_n(n: int) -> int:
    if _is_real(n):
        _finite(n, "sample size")
    if not _is_count(n):
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    return int(n)


# method -> (its count's flag, the count's name in messages, the least valid
# count, the error a bad count raises, R(n, count)).
CERTIFICATE_METHODS: dict[str, tuple[str, str, int, type[ConfigError],
                                     Callable[[int, float], float]]] = {
    "finite_class": ("class_size", "class size", 1, ConfigError,
                     lambda n, size: math.sqrt(math.log(4.0 * size) / (2.0 * n))),
    "permutation": ("n_pi", "permutation complexity", 1, ConfigError,
                    lambda n, n_pi: math.sqrt(math.log(4.0 * n_pi) / (2.0 * n))),
    "growth": ("growth", "growth", 1, InvalidGrowth,
               lambda n, growth: 2.0 * math.sqrt(math.log(growth) / n)),
    "vc_sauer": ("nu", "VC dimension", 0, ConfigError,
                 lambda n, nu: 2.0 * math.sqrt(nu * math.log(n + 1.0) / n)),
}


@dataclass(frozen=True)
class BoundCertificate:
    """A computed CDF uniform-convergence bound with its inputs.

    ``epsilon = 2 * rademacher_bound + sqrt(log(1/delta)/(2n))`` holds by
    construction.
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


def _check_count(method: str, count) -> float:
    """``count`` as a float, checked as ``method``'s complexity count: finite and
    at least the method's least valid count, else the method's error."""
    _, what, least, error, _ = CERTIFICATE_METHODS[method]
    value = _finite(count, what, error)
    if value < least:
        condition = "nonnegative" if least == 0 else f">= {least}"
        raise error(f"{what} must be {condition}, got {count}")
    return value


def certificate(method: str, n: int, delta: float, count: float) -> BoundCertificate:
    """The certificate of ``method``, a key of :data:`CERTIFICATE_METHODS`, for
    ``n`` samples, confidence ``1 - delta`` and the method's complexity ``count``.

    Checks the method, then n, then the count, then delta, then that R(n) is
    finite; an unknown method raises :class:`ConfigError`, a bad count the
    method's error, a bad delta :class:`InvalidDelta`.
    """
    if method not in CERTIFICATE_METHODS:
        raise ConfigError(f"unknown certificate method {method!r}; expected "
                          f"{' | '.join(CERTIFICATE_METHODS)}")
    flag, _, _, _, rademacher = CERTIFICATE_METHODS[method]
    n = _check_n(n)
    _check_count(method, count)
    if not 0.0 < _real(delta) <= 1.0:
        raise InvalidDelta(f"delta must be in (0, 1], got {delta!r}")
    delta = float(delta)
    r = _finite(rademacher(n, count), "rademacher bound")
    eps = 2.0 * r + math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    return BoundCertificate(n=n, delta=delta, rademacher_bound=r, method=method,
                            epsilon=eps, inputs={flag: count})


def certificate_finite_class(n: int, class_size: int, delta: float) -> BoundCertificate:
    return certificate("finite_class", n, delta, class_size)


def risk_error_bound(cert: BoundCertificate, L: float | None, p: float) -> float | None:
    """Simultaneous estimation-error bound L * epsilon**p (None if L is unknown) for
    every sup-norm Holder risk with constants at most (L, p) and every hypothesis."""
    return None if L is None else float(L) * cert.epsilon ** p


@dataclass(frozen=True, eq=False)
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
        _write_csv(path, ["rep", "e_n"], [range(len(self.values)), self.values])


# The most losses one loss call, sort or KS pass of monte_carlo_en handles:
# 8,192 doubles are 64 KB, so each block's temporaries are small, and the
# allocator hands the same memory back block after block.
MC_BLOCK_LOSSES = 8192


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

    Repetitions run in blocks of ``max(1, min(reference_sample_size,
    MC_BLOCK_LOSSES) // n)``, so a block holds at most 8,192 losses unless
    one sample alone holds more, and the reference's losses are computed
    in chunks of the same size.  Per block and model there is one loss
    call on the block's stacked draws and one
    :func:`~riskcdf.cdf.sup_norm_distances` pass against the reference,
    which sorts the block's rows.  For a reference of N points, its KS
    passes take O(N) once per model, to build the reference's bucket index
    on the first block, then O(reps n) plus O(c log N) for the c points
    that are searched, most often a few in a hundred.  Working memory
    beyond the reference data is O(min(N, 8192) + n): each temporary in
    the loop, the KS pass's sorted rows, bounds, searches and differences
    too, holds at most one block's rows (64 KB per float column), so the
    allocator hands the same pages back block after block: page faults do
    not grow with ``reps``.

    Raises :class:`ConfigError` unless n, reps and reference_sample_size are
    integers >= 1 and there is a model, :class:`ShapeError` if a loss
    function returns other than one loss per row, and :class:`InvalidLoss`
    for a NaN, infinite or negative loss.
    """
    if not (_is_count(n) and _is_count(reps) and _is_count(reference_sample_size)):
        raise ConfigError(f"monte_carlo_en needs integers n, reps, reference_sample_size >= 1, "
                          f"got {n!r}, {reps!r}, {reference_sample_size!r}")
    if len(loss_fns) == 0:
        raise ConfigError("monte_carlo_en needs at least one model")
    if reference_sample_size < 10 * n:
        warnings.warn(
            f"reference sample ({reference_sample_size}) is below 10x the "
            f"evaluation sample ({n}); reference bias may dominate",
            WeakReference,
            stacklevel=2,
        )
    ref_rng = rng_from(seed, "reference")
    x_ref, y_ref = sample_data(ref_rng, reference_sample_size)
    chunk = min(reference_sample_size, MC_BLOCK_LOSSES)
    ref_losses = np.empty(reference_sample_size)
    references = []
    for j, fn in enumerate(loss_fns):
        for s in range(0, reference_sample_size, chunk):
            part = slice(s, s + chunk)
            ref_losses[part] = _row_losses(fn, j, x_ref[part], y_ref[part],
                                           min(chunk, reference_sample_size - s))
        references.append(build_cdf(ref_losses))

    values = np.zeros(reps)
    block = max(1, chunk // n)
    for start in range(0, reps, block):
        draws = [sample_data(rng_from(seed, "rep", r), n)
                 for r in range(start, min(start + block, reps))]
        x = np.concatenate([d[0] for d in draws])
        y = np.concatenate([d[1] for d in draws])
        out = values[start:start + len(draws)]
        for j, (fn, ref) in enumerate(zip(loss_fns, references)):
            losses = _check_losses(_row_losses(fn, j, x, y, len(draws) * n))
            np.maximum(out, sup_norm_distances(losses.reshape(len(draws), n), ref), out=out)
    return MonteCarloEnResult(values=values)
