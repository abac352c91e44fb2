"""Empirical loss CDFs: construction, distances, quantile moments, CSV I/O.

The estimator is the step function F(r) = (1/n) * #{i : x_i <= r}, i.e.
right-continuous with the "<= r" convention.  Duplicate values are allowed;
the step height at a repeated value is multiplicity/n.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import read_numeric_csv
from .errors import EmptySample, FormatError, InvalidLoss, InvalidOrder, SupportViolation

__all__ = [
    "EmpiricalCDF",
    "build_cdf",
    "build_cdf_unchecked",
    "sup_norm_distance",
    "wasserstein1",
    "moment",
    "read_losses_csv",
    "write_cdf_csv",
]


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted sample with step-function CDF semantics.

    ``values`` is ascending-sorted and read-only; construction goes through
    :func:`build_cdf` (nonnegative losses) or :func:`build_cdf_unchecked`
    (signed samples, distance use only).
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        self.values.flags.writeable = False

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def eval(self, r):
        """Fraction of the sample <= r (right-continuous, vectorized)."""
        idx = np.searchsorted(self.values, r, side="right")
        out = idx / self.n
        return float(out) if np.isscalar(r) else out

    def eval_left(self, r):
        """Left limit F(r-): fraction of the sample strictly below r."""
        idx = np.searchsorted(self.values, r, side="left")
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
    if arr.size == 0:
        raise EmptySample("loss sample is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidLoss("losses must be finite (no NaN/inf)")
    if np.any(arr < 0.0):
        raise InvalidLoss("losses must be nonnegative")
    return EmpiricalCDF(np.sort(arr))


def build_cdf_unchecked(values) -> EmpiricalCDF:
    """Build a CDF from a possibly signed sample.

    Skips the nonnegativity check; intended for distance computations on
    signed data.  Finiteness is still required so ordering is well defined.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptySample("sample is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidLoss("values must be finite (no NaN/inf)")
    return EmpiricalCDF(np.sort(arr))


def sup_norm_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Exact Kolmogorov-Smirnov distance between two step CDFs.

    Let ``a`` be the sample with fewer points.  F_a is constant on each
    interval [a_(i), a_(i+1)) between its own breakpoints, and on the two
    tails, while F_b is monotone there.  So |F_a - F_b| on each such
    interval is largest at one of its ends: the value at the left end or
    the left limit at the right end.  Checking the value and the left limit
    at a's breakpoints alone is therefore exact, and costs O(n log N) for
    samples of n <= N points.  Every number compared is one the all-
    breakpoints formula also compares, so the result is the same float.
    """
    if a.n > b.n:
        a, b = b, a
    x = a.values
    d_right = np.abs(a.eval(x) - b.eval(x)).max()
    d_left = np.abs(a.eval_left(x) - b.eval_left(x)).max()
    return float(max(d_right, d_left))


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
    """k-th raw moment (1/n) * sum(values**k) for integer k >= 1."""
    if int(k) != k or k < 1:
        raise InvalidOrder(f"moment order must be a positive integer, got {k!r}")
    return float(np.mean(cdf.values ** int(k)))


def read_losses_csv(path, has_header: bool = False) -> np.ndarray:
    """Read a single-column CSV of loss values.

    Parsed by :func:`riskcdf.data.read_numeric_csv`; the first filled row
    is a header when ``has_header`` is set.
    """
    _, values = read_numeric_csv(path, header=has_header)
    if values.shape[1] != 1:
        raise FormatError(f"{path}: expected a single column, got {values.shape[1]}")
    return values[:, 0]


def write_cdf_csv(cdf: EmpiricalCDF, path) -> None:
    """Export the CDF as (breakpoint, cumulative_probability) rows."""
    pts, probs = cdf.breakpoints()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["breakpoint", "cumulative_probability"])
        for p, q in zip(pts, probs):
            writer.writerow([f"{p:.17g}", f"{q:.17g}"])
