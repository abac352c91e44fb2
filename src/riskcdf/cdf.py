"""Empirical loss CDFs: construction, distances, quantile moments, CSV I/O.

The estimator is the step function F(r) = (1/n) * #{i : x_i <= r}, i.e.
right-continuous with the "<= r" convention.  Duplicate values are allowed;
the step height at a repeated value is multiplicity/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import _check_loss_cells, _is_count, _is_real, _real, _write_csv, read_numeric_csv
from .errors import (EmptySample, FormatError, InvalidLoss, InvalidOrder, NumericError,
                     ShapeError, SupportViolation)

__all__ = [
    "EmpiricalCDF",
    "build_cdf",
    "sup_norm_distance",
    "sup_norm_distances",
    "wasserstein1",
    "moment",
    "read_losses_csv",
    "write_cdf_csv",
]


class _Buckets(NamedTuple):
    """Equal-width buckets over a sorted sample's finite range [lo, hi].

    ``below[k]`` is the fraction of the sample in buckets below k, k = 0..B;
    :func:`_bucket_of` maps a value to its bucket.  A sample with fewer than
    two buckets' worth of points, or whose finite range is empty, a single
    point or too wide for a float, has one bucket: ``below`` is [0, 1].
    """

    lo: float
    hi: float
    scale: float  # buckets per unit, B / (hi - lo)
    below: np.ndarray


# Points per bucket of the index, on average, and the most points one step
# of its build maps: 8,192 doubles are 64 KB, as in the Monte Carlo blocks.
_BUCKET_POINTS = 16
_BUILD_CHUNK = 8192


def _bucket_of(x: np.ndarray, index: _Buckets) -> np.ndarray:
    """Bucket of each x, min(floor((clip(x, lo, hi) - lo) * scale), B - 1).

    Every step is monotone in x, so x <= y gives a bucket no higher, and a
    finite range keeps every step finite.  ``x`` must hold no NaN."""
    t = np.clip(x, index.lo, index.hi)
    t -= index.lo
    t *= index.scale
    np.minimum(t, index.below.shape[0] - 2, out=t)
    return t.astype(np.intp)


def _bucket_index(values: np.ndarray) -> _Buckets:
    """The :class:`_Buckets` of ascending ``values`` with no NaN: B = N // 16
    buckets, counted in chunks of at most 8,192 values.  O(N) time."""
    n = values.shape[0]
    finite = values[np.searchsorted(values, -np.inf, side="right"):
                    np.searchsorted(values, np.inf, side="left")]
    buckets = n // _BUCKET_POINTS
    scale = 0.0
    if buckets > 1 and finite.size and finite[0] < finite[-1]:
        lo, hi = float(finite[0]), float(finite[-1])
        scale = buckets / (hi - lo)  # 0 if the span overflows, inf if it underflows
    if not 0.0 < scale < math.inf:
        below = np.array([0.0, 1.0])
        below.flags.writeable = False
        return _Buckets(0.0, 0.0, 0.0, below)
    index = _Buckets(lo, hi, scale, np.empty(buckets + 1))
    counts = np.zeros(buckets + 1, dtype=np.intp)
    for s in range(0, n, _BUILD_CHUNK):
        counts[1:] += np.bincount(_bucket_of(values[s:s + _BUILD_CHUNK], index),
                                  minlength=buckets)
    np.divide(np.cumsum(counts, out=counts), n, out=index.below)
    index.below.flags.writeable = False
    return index


@dataclass(frozen=True, eq=False)
class EmpiricalCDF:
    """Sorted sample with step-function CDF semantics.

    ``values`` may be any 1-D sample with no NaN, in any order, else
    :class:`ShapeError` or :class:`InvalidLoss` naming the first NaN.  The CDF
    holds its own sorted, read-only float64 copy, so a later write to the
    caller's array changes nothing here.  :func:`build_cdf` builds one from
    nonnegative losses; a signed sample gets one for the distances alone.  An
    empty sample raises :class:`EmptySample`.
    """

    values: np.ndarray = field(repr=False)
    _index: _Buckets | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.size == 0:
            raise EmptySample("loss sample is empty")
        if values.ndim != 1:
            raise ShapeError(f"a CDF sample must be 1-D, got shape {values.shape}")
        ordered = np.sort(values)
        if np.isnan(ordered[-1]):  # NaN sorts last
            raise InvalidLoss("CDF sample values must not be NaN: "
                              f"values[{np.isnan(values).argmax()}] is NaN")
        ordered.flags.writeable = False
        object.__setattr__(self, "values", ordered)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def _buckets(self) -> _Buckets:
        """The sample's bucket index for :func:`sup_norm_distances`, built on first use."""
        index = self._index
        if index is None:
            index = _bucket_index(self.values)
            object.__setattr__(self, "_index", index)
        return index

    def eval(self, r):
        """Fraction of the sample <= r (right-continuous, vectorized)."""
        idx = np.searchsorted(self.values, r, side="right")
        out = idx / self.n
        return float(out) if np.isscalar(r) else out

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique jump locations, 0.0 never written -0.0, and the CDF value attained at each."""
        pts = np.unique(self.values) + 0.0
        return pts, self.eval(pts)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


def build_cdf(losses) -> EmpiricalCDF:
    """Build the empirical CDF of a nonnegative loss sample, in any order.

    Raises
    ------
    EmptySample
        if ``losses`` is empty.
    InvalidLoss
        if ``losses`` is not an array of numbers, or any is NaN, infinite or negative.
    """
    try:
        arr = np.asarray(losses, dtype=np.float64).ravel()
    except (TypeError, ValueError):
        raise InvalidLoss("losses must be an array of numbers, all rows of one length") from None
    return EmpiricalCDF(_check_losses(arr))


def _check_losses(losses: np.ndarray) -> np.ndarray:
    """Return ``losses`` after :func:`_check_loss_range` on its smallest and largest."""
    if losses.size:
        _check_loss_range(losses.min(), losses.max())  # NaN if any loss is
    return losses


def _check_loss_range(least: float, most: float) -> None:
    """Raise :class:`InvalidLoss` with the text :func:`build_cdf` uses unless
    the smallest and largest loss are finite and nonnegative (a NaN fails)."""
    if not -np.inf < least <= most < np.inf:
        raise InvalidLoss("losses must be finite (no NaN/inf)")
    if least < 0.0:
        raise InvalidLoss("losses must be nonnegative")


def _support_bound(smallest: float, largest: float, support_bound: float) -> float:
    """``support_bound`` as the float D for losses in [``smallest``, ``largest``].

    This is the one [0, D] rule.  Every Holder constant riskcdf reports holds
    for losses in [0, D] only, so a negative loss, or a D that is not a finite
    number (None too) or is below the largest loss, raises
    :class:`SupportViolation`.  A caller that infers D passes the largest loss.
    """
    if smallest < 0.0:
        raise SupportViolation(f"losses must be nonnegative, got {smallest}")
    if not _is_real(support_bound):
        raise SupportViolation(f"support bound must be a finite number, got {support_bound!r}")
    d = _real(support_bound)
    if not largest <= d < math.inf:
        raise SupportViolation(f"support bound {d} must be finite and at least the "
                               f"largest loss {largest}")
    return d


def sup_norm_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Exact Kolmogorov-Smirnov distance between two step CDFs.

    The one-row case of :func:`sup_norm_distances`: the sorted values of the
    sample with fewer points, n, are the row, against the larger, of N:
    O(n + c log N), plus O(N) to index the larger the first time it is a reference.
    """
    if a.n > b.n:
        a, b = b, a
    return float(sup_norm_distances(a.values[np.newaxis], b)[0])


def sup_norm_distances(rows: np.ndarray, reference: EmpiricalCDF) -> np.ndarray:
    """Exact KS distance from the step CDF of each row to ``reference``.

    ``rows`` is a non-empty (m, n) array, else :class:`ShapeError`, its rows
    in any order (sorted in a copy if need be) with no NaN, else
    :class:`InvalidLoss` naming the row and the position of the first NaN.
    The result holds m distances.  F_row is constant on each interval
    [x_i, x_(i+1)) between its own breakpoints, and on the two tails, while
    F_ref is monotone there.  So |F_row - F_ref| on each such interval is
    largest at one of its ends: the value at the left end or the left limit
    at the right end.  Checking the value and the left limit at the row's
    points alone is therefore exact, whichever sample is larger.

    No absolute value is needed either: the result is the larger of
    max(F_row(x) - F_ref(x)) and max(F_ref(x-) - F_row(x-)) over the row's
    points x.  Where the value-side difference is negative, the left-limit
    difference at the row's next distinct point is at least its size, since
    F_ref only grew and F_row held still in between; a row's largest point
    has F_row = 1 there, so its value-side difference is never negative.
    Likewise a negative left-limit difference is dominated by the value-side
    one at the row's previous distinct point, and the smallest point has
    F_row(x-) = 0.

    Nor are the row's own counts needed: the two maxima are taken over the
    row's positions i = 0..n-1 as max((i+1)/n - F_ref(x_i)) and
    max(F_ref(x_i-) - i/n).  F_ref is the same at every point of a run of
    equal values, (i+1)/n is largest at the run's last point, where it is
    F_row(x_i), and i/n is smallest at its first, where it is F_row(x_i-);
    the other points of the run give smaller differences.  Float division
    and subtraction are monotone, so this holds for the rounded numbers
    too, and each maximum is a number the all-breakpoints formula also
    compares: the result is the same float.

    Most points cannot attain their row's maximum, so most are never
    searched for.  The reference's bucket index (:class:`_Buckets`) puts
    each point x in a bucket k by a monotone map, so the fractions
    ``below[k] <= F_ref(x-) <= F_ref(x) <= below[k+1]`` bound both of its
    differences, by the same monotone rounding.  Only the points whose
    upper bound exceeds the best lower bound in their row are searched.
    The others keep their lower bounds, none above the row's maximum; if
    one of them attains it, the best lower bound already equals it.  A
    point searched gets a left search, for F_ref(x-), and a right one, for
    F_ref(x).  Cost: O(m n) per call plus O(c log N) for the c points
    searched in a reference of N points, with O(m n) working memory.  The
    reference builds its index on its first call, in O(N): less than the
    sort that made it.  Rows of another dtype are widened to float64
    first, so they are bucketed as the index was built.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.size == 0:
        raise ShapeError(f"KS rows must be a non-empty 2-D array, got shape {rows.shape}")
    if np.isnan(rows.max()):  # a NaN maximum means a NaN somewhere
        r, i = np.argwhere(np.isnan(rows))[0]
        raise InvalidLoss(f"KS rows must not be NaN: row {r} has a NaN at position {i}")
    m, n = rows.shape
    flat = rows.ravel()
    descent = flat[1:] < flat[:-1]
    descent[n - 1::n] = False  # the pairs that span two rows
    if descent.any():  # ascending rows, as every CDF's values are, are used as given
        rows = np.sort(rows, axis=1)
    ref = reference.values
    value_level = np.arange(1, n + 1) / n  # F_row(x_i) at the run's last point
    left_level = np.arange(n) / n  # F_row(x_i-) at the run's first point
    index = reference._buckets()
    k = _bucket_of(rows, index)
    least = index.below.take(k)
    most = index.below[1:].take(k)
    best = np.maximum(value_level - most, least - left_level)  # lower bounds
    np.subtract(value_level, least, out=least)
    np.subtract(most, left_level, out=most)
    upper = np.maximum(least, most, out=least)
    keys = np.flatnonzero(upper > best.max(axis=1, keepdims=True))
    at = keys % n
    np.put(best, keys, _one_sided_max(ref, rows.take(keys), value_level.take(at),
                                      left_level.take(at)))
    return best.max(axis=1)


def _one_sided_max(ref: np.ndarray, x: np.ndarray, value_level: np.ndarray,
                   left_level: np.ndarray) -> np.ndarray:
    """max(value_level - F_ref(x), F_ref(x-) - left_level) at each point x,
    with F_ref the step CDF of the sorted sample ``ref``."""
    below = np.searchsorted(ref, x, side="left")
    at_most = np.searchsorted(ref, x, side="right")
    value_side = value_level - at_most / ref.shape[0]
    return np.maximum(value_side, below / ref.shape[0] - left_level, out=value_side)


def wasserstein1(a: EmpiricalCDF, b: EmpiricalCDF, support_bound: float) -> float:
    """Exact integral of |F_a - F_b| over [0, support_bound].

    Both samples must lie within [0, D] for a finite D = ``support_bound``,
    else :class:`SupportViolation` (:func:`_support_bound`).  The difference
    of two step functions is piecewise constant on the merged breakpoints, so
    the integral is a finite sum with no quadrature error.
    """
    _support_bound(min(a.min, b.min), max(a.max, b.max), support_bound)
    pts = np.unique(np.concatenate([a.values, b.values]))
    # |F_a - F_b| is zero below the first breakpoint (both 0) and above the
    # last (both 1), so only the interior segments contribute.
    if pts.size < 2:
        return 0.0
    gaps = np.abs(a.eval(pts[:-1]) - b.eval(pts[:-1]))
    return float(np.sum(gaps * np.diff(pts)))


def moment(cdf: EmpiricalCDF, k: int) -> float:
    """k-th raw moment (1/n) * sum(values**k) for an integer k >= 1, not a bool,
    else :class:`InvalidOrder`; one that overflows raises :class:`NumericError`
    naming k."""
    if not _is_count(k):
        raise InvalidOrder(f"moment order must be a positive integer, got {k!r}")
    with np.errstate(over="ignore"):  # reported below, not warned
        m = float(np.mean(cdf.values ** _real(k)))  # an order beyond float range is inf
    if not np.isfinite(m):
        raise NumericError(f"moment of order {k} is not finite: {m}")
    return m


def read_losses_csv(path) -> np.ndarray:
    """Read a single-column CSV of loss values.

    Parsed by :func:`riskcdf.data.read_numeric_csv`; the first filled row
    is a header exactly when it is not a number.  A non-finite or negative
    loss raises :class:`InvalidLoss` naming its file row and column.
    """
    names, values = read_numeric_csv(path, header=None)
    if values.shape[1] != 1:
        raise FormatError(f"{path}: expected a single column, got {values.shape[1]}")
    _check_loss_cells(path, names, values)
    return values[:, 0]


def write_cdf_csv(cdf: EmpiricalCDF, path) -> None:
    """Export the CDF as (breakpoint, cumulative_probability) rows."""
    _write_csv(path, ["breakpoint", "cumulative_probability"], cdf.breakpoints())
