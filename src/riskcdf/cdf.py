"""Empirical loss CDFs: construction, distances, quantile moments, CSV I/O.

The estimator is the step function F(r) = (1/n) * #{i : x_i <= r}, i.e.
right-continuous with the "<= r" convention.  Duplicate values are allowed;
the step height at a repeated value is multiplicity/n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _check_loss_cells, _write_csv, read_numeric_csv
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


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted sample with step-function CDF semantics.

    ``values``, read-only, must be 1-D and ascending with no NaN: else
    :class:`ShapeError`, or :class:`InvalidLoss` naming the first bad position.
    :func:`build_cdf` builds one from nonnegative losses; a signed sample, for
    the distances alone, gets one as ``EmpiricalCDF(np.sort(x))``.  An empty
    sample raises :class:`EmptySample`.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.size == 0:
            raise EmptySample("loss sample is empty")
        if values.ndim != 1:
            raise ShapeError(f"a CDF sample must be 1-D, got shape {values.shape}")
        nan = np.isnan(values)
        if nan.any():
            raise InvalidLoss(f"CDF sample values must not be NaN: values[{nan.argmax()}] is NaN")
        decrease = values[1:] < values[:-1]
        if decrease.any():
            i = int(decrease.argmax()) + 1
            raise InvalidLoss(f"CDF sample values must be ascending: values[{i}] = {values[i]} "
                              f"is below values[{i - 1}] = {values[i - 1]}")
        object.__setattr__(self, "values", values)
        values.flags.writeable = False

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def eval(self, r):
        """Fraction of the sample <= r (right-continuous, vectorized)."""
        idx = np.searchsorted(self.values, r, side="right")
        out = idx / self.n
        return float(out) if np.isscalar(r) else out

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique jump locations and the CDF value attained at each."""
        pts = np.unique(self.values)
        return pts, self.eval(pts)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


def build_cdf(losses) -> EmpiricalCDF:
    """Build the empirical CDF of a nonnegative loss sample.

    Raises
    ------
    EmptySample
        if ``losses`` is empty.
    InvalidLoss
        if any value is NaN, infinite, or negative.
    """
    arr = np.asarray(losses, dtype=np.float64).ravel()
    return EmpiricalCDF(np.sort(_check_losses(arr)))


def _check_losses(losses: np.ndarray) -> np.ndarray:
    """Return ``losses`` after checking that every value is finite and nonnegative.

    Raises :class:`InvalidLoss` with the text :func:`build_cdf` uses.
    """
    if not np.all(np.isfinite(losses)):
        raise InvalidLoss("losses must be finite (no NaN/inf)")
    if np.any(losses < 0.0):
        raise InvalidLoss("losses must be nonnegative")
    return losses


def sup_norm_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Exact Kolmogorov-Smirnov distance between two step CDFs.

    The one-row case of :func:`sup_norm_distances`, run on the sample with
    fewer points: O(n log N) for samples of n <= N points.
    """
    if a.n > b.n:
        a, b = b, a
    return float(sup_norm_distances(a.values[np.newaxis], b)[0])


def sup_norm_distances(rows: np.ndarray, reference: EmpiricalCDF) -> np.ndarray:
    """Exact KS distance from the step CDF of each row to ``reference``.

    ``rows`` is an (m, n) array whose rows are sorted ascending; the result
    holds m distances.  F_row is constant on each interval [x_i, x_(i+1))
    between its own breakpoints, and on the two tails, while F_ref is
    monotone there.  So |F_row - F_ref| on each such interval is largest at
    one of its ends: the value at the left end or the left limit at the
    right end.  Checking the value and the left limit at the row's points
    alone is therefore exact, whichever sample is larger.  Each number
    compared is one the all-breakpoints formula also compares, so the
    result is the same float.

    A row's own counts (< x and <= x at its points) are the ends of its runs
    of equal values, found by one running max and one running min, so they
    need no search.  The reference is searched once, on the left; the right
    count is searched only for points equal to a reference value.  Cost:
    O(m n log N) for a reference of N points, with O(m n) working memory.
    """
    m, n = rows.shape
    pos = np.arange(n)
    starts = np.ones((m, n), dtype=bool)  # rows[:, i] begins a run of equal values
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    below = np.where(starts, pos, 0)
    np.maximum.accumulate(below, axis=1, out=below)
    ends = np.ones((m, n), dtype=bool)  # rows[:, i] ends a run
    ends[:, :-1] = starts[:, 1:]
    at_most = np.where(ends, pos + 1, n)
    np.minimum.accumulate(at_most[:, ::-1], axis=1, out=at_most[:, ::-1])

    ref = reference.values
    keys = rows.ravel()
    ref_below = np.searchsorted(ref, keys, side="left")
    ref_at_most = ref_below.copy()
    hit = ref[np.minimum(ref_below, ref.size - 1)] == keys
    ref_at_most[hit] = np.searchsorted(ref, keys[hit], side="right")

    d = np.empty((2, m, n))
    for out, own, other in ((d[0], at_most, ref_at_most), (d[1], below, ref_below)):
        np.divide(own, n, out=out)
        out -= other.reshape(m, n) / reference.n
        np.abs(out, out=out)
    return d.max(axis=(0, 2))


def wasserstein1(a: EmpiricalCDF, b: EmpiricalCDF, support_bound: float) -> float:
    """Exact integral of |F_a - F_b| over [0, support_bound].

    Both samples must lie within [0, support_bound].  The difference of two
    step functions is piecewise constant on the merged breakpoints, so the
    integral is a finite sum with no quadrature error.
    """
    d = float(support_bound)
    for name, c in (("first", a), ("second", b)):
        if c.min < 0.0 or c.max > d:
            raise SupportViolation(
                f"{name} sample has values outside [0, {d}]: range [{c.min}, {c.max}]"
            )
    pts = np.unique(np.concatenate([a.values, b.values]))
    # |F_a - F_b| is zero below the first breakpoint (both 0) and above the
    # last (both 1), so only the interior segments contribute.
    if pts.size < 2:
        return 0.0
    gaps = np.abs(a.eval(pts[:-1]) - b.eval(pts[:-1]))
    return float(np.sum(gaps * np.diff(pts)))


def moment(cdf: EmpiricalCDF, k: int) -> float:
    """k-th raw moment (1/n) * sum(values**k) for integer k >= 1; one that
    overflows raises :class:`NumericError` naming k."""
    if int(k) != k or k < 1:
        raise InvalidOrder(f"moment order must be a positive integer, got {k!r}")
    with np.errstate(over="ignore"):  # reported below, not warned
        m = float(np.mean(cdf.values ** int(k)))
    if not np.isfinite(m):
        raise NumericError(f"moment of order {int(k)} is not finite: {m}")
    return m


def read_losses_csv(path, has_header: bool = False) -> np.ndarray:
    """Read a single-column CSV of loss values.

    Parsed by :func:`riskcdf.data.read_numeric_csv`; the first filled row
    is a header when ``has_header`` is set.  A non-finite or negative loss
    raises :class:`InvalidLoss` naming its file row and column.
    """
    names, values = read_numeric_csv(path, header=has_header)
    if values.shape[1] != 1:
        raise FormatError(f"{path}: expected a single column, got {values.shape[1]}")
    _check_loss_cells(path, names, values)
    return values[:, 0]


def write_cdf_csv(cdf: EmpiricalCDF, path) -> None:
    """Export the CDF as (breakpoint, cumulative_probability) rows."""
    _write_csv(path, ["breakpoint", "cumulative_probability"], cdf.breakpoints())
