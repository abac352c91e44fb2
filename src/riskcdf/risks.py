"""Law-invariant risk functionals evaluated on empirical CDFs.

Supported families:

* distortion risks  rho(F) = integral of g(1 - F(r)) dr  for a
  non-decreasing g on [0,1] with g(0)=0, g(1)=1 (mean, CVaR, tabulated
  custom distortions).  They subsume the spectral risks: a non-decreasing
  spectrum h >= 0 with unit integral and cumulative H is the distortion
  g(t) = 1 - H(1 - t), whose Lipschitz constant is h(1);
* optimized certainty equivalents (OCE) and their risk-seeking inversion:
  the mean, entropic and CVaR presets, each an exact closed form;
* moment composites (mean + c * variance).

On a step CDF every distortion risk is a rank-weighted sum of the sorted
losses, evaluated exactly (no quadrature):

    sum_i w_i * x_(i),   w_i = g(1 - (i-1)/n) - g(1 - i/n),

where g is the distortion and w is ``spec.rank_weights(n)``: nonnegative
weights summing to 1, checked as they are built (tables are also checked
exactly at their knots).  The CVaR OCE presets and the training step
(:meth:`DistortionSpec.weigh`) use the same vector.  Every evaluator
reports the value together with sup-norm Holder constants (L, p) so that a
CDF error budget epsilon translates to a risk error budget L * epsilon^p.
Each L is a closed form, not a grid estimate: 1/alpha, the table's
steepest slope or h(1) for distortions (times D),
D, D/alpha and e^D - 1 for the mean, CVaR and entropic OCEs and
D + 3 |c| D^2 for mean + c * variance.  Every L holds for losses in [0, D]
only, and one rule, ``cdf._support_bound``, checks each sample and D.

:data:`RISK_TOKENS` is the one grammar of ``--risk`` tokens (:func:`parse_risk`);
its distortion tokens, the ones training takes, are :data:`DISTORTION_TOKENS`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cdf import EmpiricalCDF, _check_loss_range, _support_bound, moment
from .data import _is_count, _is_real, _real, read_numeric_csv
from .errors import (
    ConfigError,
    FormatError,
    InvalidAlpha,
    InvalidDistortion,
    InvalidSpectrum,
    NumericError,
)

__all__ = [
    "DistortionSpec",
    "OceSpec",
    "RiskValue",
    "RISK_TOKENS",
    "DISTORTION_TOKENS",
    "parse_risk",
    "parse_distortion",
    "token_path",
    "identity_distortion",
    "cvar_distortion",
    "cvar_spectrum",
    "oce_cvar_spec",
    "oce_entropic_spec",
    "oce_mean_spec",
    "distortion_risk",
    "cvar",
    "spectral_risk",
    "oce_risk",
    "inverted_oce_risk",
    "mean_variance",
    "load_distortion_csv",
    "load_spectrum_csv",
]

DISTORTION_TOL = 1e-9


def _check_distortion_levels(name: str, levels: np.ndarray) -> None:
    """g at increasing points of [0, 1] must be finite and non-decreasing."""
    if not np.all(np.isfinite(levels)):
        raise InvalidDistortion(f"{name}: distortion produced non-finite values")
    if np.min(np.diff(levels)) < -DISTORTION_TOL:
        raise InvalidDistortion(f"{name}: distortion is not non-decreasing")


def _check_spectrum_values(name: str, values: np.ndarray) -> None:
    """h at increasing points of [0, 1] must be finite, nonnegative and non-decreasing."""
    if not np.all(np.isfinite(values)):
        raise InvalidSpectrum(f"{name}: spectrum produced non-finite values")
    if np.min(values) < -DISTORTION_TOL:
        raise InvalidSpectrum(f"{name}: spectrum is negative")
    if np.min(np.diff(values), initial=0.0) < -DISTORTION_TOL:
        raise InvalidSpectrum(f"{name}: spectrum is not non-decreasing")


@dataclass(frozen=True)
class RiskValue:
    """A risk's value on a CDF and its Holder modulus (L, p) in the CDF sup
    norm: a CDF error epsilon moves the value by at most L * epsilon**p.
    ``L`` is None when unknown; the value and a given L must be finite."""

    value: float
    risk_name: str
    L: float | None
    p: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericError(f"risk {self.risk_name!r} evaluated to {self.value}")
        if self.L is not None and not math.isfinite(self.L):
            raise NumericError(f"risk {self.risk_name!r} has Holder constant L = {self.L}")


@dataclass(frozen=True)
class DistortionSpec:
    """A distortion function g: [0,1] -> [0,1] plus its Lipschitz constant.

    g is vectorised and must be finite and non-decreasing with g(0)=0 and
    g(1)=1 (tolerance 1e-9).  Construction checks g(0) and g(1), and
    :meth:`rank_weights` the levels it reads, so every risk has valid weights.
    ``lipschitz_constant`` is the constant of g itself (the induced risk
    constant on losses supported in [0, D] is this times D); ``None`` means
    unknown.
    """

    g: Callable = field(repr=False)
    name: str = "custom"
    lipschitz_constant: float | None = None
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g0, g1 = self(np.array([0.0, 1.0]))
        if not abs(g0) <= DISTORTION_TOL:  # NaN fails too
            raise InvalidDistortion(f"{self.name}: g(0) = {float(g0)}, expected 0")
        if not abs(g1 - 1.0) <= DISTORTION_TOL:
            raise InvalidDistortion(f"{self.name}: g(1) = {float(g1)}, expected 1")

    def __call__(self, t) -> np.ndarray:
        """g at the points ``t``: one value per point, else :class:`InvalidDistortion`."""
        t = np.asarray(t, dtype=np.float64)
        levels = np.asarray(self.g(t), dtype=np.float64)
        if levels.shape != t.shape:
            raise InvalidDistortion(f"{self.name}: g returned shape {levels.shape} "
                                    f"for points of shape {t.shape}")
        return levels

    def rank_weights(self, n: int) -> np.ndarray:
        """Weight g(1 - (i-1)/n) - g(1 - i/n) of the i-th smallest of n losses, i = 1..n.

        ``n`` must be an integer >= 1 whose weights numpy can hold, else :class:`ConfigError`."""
        if not _is_count(n):
            raise ConfigError(f"{self.name}: rank weights need an integer n >= 1, got {n!r}")
        try:
            ranks = np.arange(n + 1)
        except (MemoryError, ValueError):
            raise ConfigError(f"{self.name}: cannot hold the rank weights of {n} losses "
                              "in memory") from None
        levels = self(1.0 - ranks / n)  # g(1 - i/n), i = 0..n
        _check_distortion_levels(self.name, levels[::-1])
        return levels[:-1] - levels[1:]

    def _ranked(self, n: int) -> tuple[np.ndarray, int]:
        """``rank_weights(n)``, read-only, and ``lo``, its first rank with a
        nonzero weight (ranks below it carry none); built once for the last n."""
        last = self._last
        if last is None or last[0] != n:
            weights = self.rank_weights(n)
            weights.flags.writeable = False
            last = (n, weights, int(np.argmax(weights != 0.0)))
            object.__setattr__(self, "_last", last)
        return last[1], last[2]

    @staticmethod
    def _rank_sum(weights: np.ndarray, ascending: np.ndarray) -> float:
        """``weights``, the spec's ``_ranked(n)[0]``, dotted with n ascending losses."""
        return float(weights @ ascending)

    def weigh(self, losses: np.ndarray) -> tuple[float, np.ndarray | slice, np.ndarray]:
        """The risk of losses in example order, and the ``rows`` and weights
        ``v`` of its gradient, sum_k v[k] * grad losses[rows][k].

        It ranks as one stable sort of all n losses does, so the risk equals
        ``distortion_risk(build_cdf(losses), self).value`` bit for bit.  If
        the first rank with weight, ``lo``, is 0, ``rows`` is every row and
        ``v`` the weights in example order.  Else one partition finds the
        losses at or above the ``lo``-th smallest, kept in index order so that
        ties break as in the full sort, and only they are sorted: ``rows`` is
        the top ``n - lo``, ascending, and ``v`` is ``weights[lo:]``.  NaN,
        infinite or negative losses raise :class:`InvalidLoss`."""
        n = losses.shape[0]
        weights, lo = self._ranked(n)
        if lo == 0:
            order = losses.argsort(kind="stable")
            ascending = losses[order]
            _check_loss_range(ascending[0], ascending[-1])  # NaN sorts last
            v = np.empty(n)
            v[order] = weights
            return self._rank_sum(weights, ascending), slice(None), v
        least = losses.min()  # NaN if any loss is: the partition below needs none
        _check_loss_range(least, least)
        kth = losses.copy()
        kth.partition(lo)
        candidates = (losses >= kth[lo]).nonzero()[0]
        rows = candidates[losses[candidates].argsort(kind="stable")[lo - n:]]
        ascending = np.zeros(n)
        ascending[lo:] = losses[rows]
        _check_loss_range(least, ascending[-1])  # the largest loss, +inf too, is a row
        return self._rank_sum(weights, ascending), rows, weights[lo:]


# riskcdf builds no SpectrumSpec: a spectrum is a DistortionSpec.  The class
# stays only for the benchmark tracer's SpectrumSpec.__post_init__ binding,
# with a hook of its own so that the tracer does not wrap DistortionSpec's
# twice.  ROADMAP item 1 deletes it together with that binding.
class SpectrumSpec(DistortionSpec):
    __post_init__ = DistortionSpec.__post_init__


@dataclass(frozen=True)
class OceSpec:
    """An optimized certainty equivalent on losses in [0, D]: its exact value
    and its Holder constant.

    ``closed_form(sorted_losses)`` is the exact OCE of any real sorted sample
    for a convex, non-decreasing disutility phi with phi(0) = 0.
    ``lipschitz_constant`` is the risk's sup-norm constant on [0, D]:
    phi(D) - phi(0), the largest increment phi(D - x) - phi(-x) over x in
    [0, D], since the increments of a convex phi grow with their start.  An
    OCE moves with a shift of its losses, so this constant depends only on
    the support's width D; the reflection -X that :func:`inverted_oce_risk`
    evaluates keeps that width, so L is the same in both directions.  It
    must be finite: an overflowing one raises :class:`NumericError`,
    as it does for every risk.  The presets (:func:`oce_mean_spec`,
    :func:`oce_entropic_spec`, :func:`oce_cvar_spec`) build every OCE riskcdf
    evaluates, each with its constant in closed form.  D must be finite and
    nonnegative, else :class:`SupportViolation`.
    """

    support_bound: float
    lipschitz_constant: float
    closed_form: Callable = field(repr=False)
    name: str = "oce"

    def __post_init__(self):
        d = _support_bound(0.0, 0.0, self.support_bound)
        if not math.isfinite(self.lipschitz_constant):
            raise NumericError(f"{self.name}: non-finite Holder constant "
                               f"{self.lipschitz_constant} with support bound D = {d:g}")


def identity_distortion() -> DistortionSpec:
    """g(t) = t: the distorted risk is the plain mean."""
    return DistortionSpec(g=lambda t: np.asarray(t, dtype=np.float64),
                          name="mean", lipschitz_constant=1.0)


def cvar_distortion(alpha: float) -> DistortionSpec:
    """g(t) = min(t/alpha, 1): expected value of the top 100*alpha% losses."""
    if not 0.0 < (a := _real(alpha)) <= 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha!r}")
    return DistortionSpec(
        g=lambda t: np.minimum(np.asarray(t, dtype=np.float64), a) / a,  # min(t/a, 1), without overflow
        name=f"cvar:{a:g}",
        lipschitz_constant=1.0 / a,
    )


def cvar_spectrum(alpha: float) -> DistortionSpec:
    """h(u) = (1/alpha) * 1{u >= 1-alpha} as its distortion 1 - H(1 - t), which
    is CVaR's min(t/alpha, 1): :func:`cvar_distortion` under the spectrum's
    name, so g(0) = 0 and g(1) = 1 however small alpha is."""
    return dataclasses.replace(cvar_distortion(alpha), name=f"cvar_spectrum:{_real(alpha):g}")


def oce_mean_spec(support_bound: float) -> OceSpec:
    """phi(x) = x: lambda cancels and the OCE reduces to the mean; L = D."""
    return OceSpec(support_bound=support_bound, lipschitz_constant=_real(support_bound),
                   name="oce:mean", closed_form=lambda x: float(np.mean(x)))


def oce_cvar_spec(alpha: float, support_bound: float) -> OceSpec:
    """phi(x) = max(x, 0)/alpha: the certainty-equivalent form of CVaR; L = D/alpha.

    The objective is piecewise linear in lambda with its optimum at a sample
    quantile, so the value is the distortion risk g(t) = min(t/alpha, 1): the
    rank weights of :func:`cvar`, so the two are equal.
    """
    spec = cvar_distortion(alpha)
    return OceSpec(support_bound=support_bound,
                   lipschitz_constant=_real(support_bound) / float(alpha),
                   name=f"oce:{spec.name}",
                   closed_form=lambda x: spec._rank_sum(spec._ranked(x.shape[0])[0], x))


def _entropic_value(x: np.ndarray) -> float:
    """log mean exp(x), shifted by the largest value so exp never overflows."""
    m = float(x[-1])
    return m + float(np.log(np.mean(np.exp(x - m))))


def oce_entropic_spec(support_bound: float) -> OceSpec:
    """phi(x) = exp(x) - 1: the entropic risk, log mean exp(x) in closed form;
    L = e^D - 1, which overflows for D above about 709.78."""
    with np.errstate(over="ignore"):  # an infinite L is reported by OceSpec, not warned
        lipschitz = float(np.expm1(_real(support_bound)))
    return OceSpec(support_bound=support_bound, lipschitz_constant=lipschitz,
                   name="oce:entropic", closed_form=_entropic_value)


def distortion_risk(cdf: EmpiricalCDF, spec: DistortionSpec,
                    support_bound: float | None = None) -> RiskValue:
    """Distortion risk of an empirical CDF, spectral risks included: the
    spec's rank weights, kept for the last sample size, dotted with the sorted losses."""
    d = _support_bound(cdf.min, cdf.max, cdf.max if support_bound is None else support_bound)
    L = None if spec.lipschitz_constant is None else spec.lipschitz_constant * d
    return RiskValue(value=spec._rank_sum(spec._ranked(cdf.n)[0], cdf.values),
                     risk_name=spec.name, L=L)


spectral_risk = distortion_risk  # a spectral risk is a distortion risk


def cvar(cdf: EmpiricalCDF, alpha: float, support_bound: float | None = None) -> RiskValue:
    """Conditional value at risk at level alpha (top 100*alpha% mean)."""
    return distortion_risk(cdf, cvar_distortion(alpha), support_bound=support_bound)


def oce_risk(cdf: EmpiricalCDF, spec: OceSpec) -> RiskValue:
    """Optimized certainty equivalent: min over lambda in [0, D] of lambda + E[phi(X - lambda)]."""
    _support_bound(cdf.min, cdf.max, spec.support_bound)
    return RiskValue(value=spec.closed_form(cdf.values), risk_name=spec.name,
                     L=spec.lipschitz_constant)


def inverted_oce_risk(cdf: EmpiricalCDF, spec: OceSpec) -> RiskValue:
    """Risk-seeking inversion: max over lambda in [0, D] of lambda - E[phi(lambda - X)].

    With lambda = -mu this is -(min over mu in [-D, 0] of mu + E[phi(-X - mu)]),
    the negated OCE of the reflected losses -X in [-D, 0]: the spec's closed
    form on the reversed, negated sorted sample.  Adding 0.0 makes a zero
    value 0.0, not -0.0, and leaves every other value as it is."""
    _support_bound(cdf.min, cdf.max, spec.support_bound)
    return RiskValue(value=-spec.closed_form(-cdf.values[::-1]) + 0.0,
                     risk_name=f"inverted_{spec.name}", L=spec.lipschitz_constant)


def mean_variance(cdf: EmpiricalCDF, c: float, support_bound: float | None = None) -> RiskValue:
    """mean + c * variance, from the first two raw moments.

    The sup-norm constant on losses in [0, D] is D (the mean) plus |c| times
    D^2 (the second raw moment) and 2 D^2 (the squared mean): D + 3 |c| D^2.
    A ``c`` that is not a real number raises :class:`ConfigError`.
    """
    if not _is_real(c):
        raise ConfigError(f"mean_var: c must be a real number, got {c!r}")
    c = _real(c)
    d = _support_bound(cdf.min, cdf.max, cdf.max if support_bound is None else support_bound)
    m1 = moment(cdf, 1)
    m2 = moment(cdf, 2)
    return RiskValue(
        value=m1 + c * (m2 - m1 * m1),
        risk_name=f"mean_var:{c:g}",
        L=d + 3.0 * abs(c) * d * d,
    )


def _load_table_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two columns, at least two rows, strictly increasing first column; header optional."""
    _, values = read_numeric_csv(path, header=None)
    if values.shape[1] != 2:
        raise FormatError(f"{path}: expected two columns, got {values.shape[1]}")
    if values.shape[0] < 2:
        raise FormatError(f"{path}: need at least two numeric rows")
    x, y = np.ascontiguousarray(values.T)
    if not np.all(np.diff(x) > 0):  # a NaN knot fails this too
        raise FormatError(f"{path}: first column must be strictly increasing")
    return x, y


def _on_unit_interval(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interpolant's knots on [0, 1] (0, 1 and the table's knots between), its values there."""
    knots = np.union1d([0.0, 1.0], x[(x > 0.0) & (x < 1.0)])
    return knots, np.interp(knots, x, y)


def load_distortion_csv(path) -> DistortionSpec:
    """Load a tabulated distortion (t, g(t)) with linear interpolation.

    The interpolant is checked at its knots on [0, 1], which is exact on all
    of [0, 1]: finite, non-decreasing, g(0) = 0 and g(1) = 1.  The
    Lipschitz constant is exact too: the steepest |dg/dt| among the
    interpolant's pieces that meet (0, 1), however short they are (outside
    the table the interpolant is flat).
    """
    t, g = _load_table_csv(path)
    name = f"distortion_file:{path}"
    _check_distortion_levels(name, _on_unit_interval(t, g)[1])
    meets = (t[:-1] < 1.0) & (t[1:] > 0.0)
    slopes = np.abs(np.diff(g) / np.diff(t))[meets]
    return DistortionSpec(
        g=lambda u: np.interp(np.asarray(u, dtype=np.float64), t, g),
        name=name,
        lipschitz_constant=float(np.max(slopes, initial=0.0)),
    )


def load_spectrum_csv(path) -> DistortionSpec:
    """Load a tabulated spectrum (u, h(u)) with linear interpolation, as its distortion.

    The interpolant is checked at its knots on [0, 1], which is exact on all
    of [0, 1]: finite, nonnegative and non-decreasing.  The cumulative H is
    its exact antiderivative (quadratic between knots, with the trapezoid
    sums at the knots), so H(1) = 1 checks the unit integral exactly and
    rank weights are exact for the table.
    """
    u, h = _load_table_csv(path)
    name = f"spectrum_file:{path}"
    knots, hv = _on_unit_interval(u, h)
    _check_spectrum_values(name, hv)
    width = np.diff(knots)
    cum_knots = np.concatenate([[0.0], np.cumsum(0.5 * (hv[1:] + hv[:-1]) * width)])
    if not abs(cum_knots[-1] - 1.0) <= DISTORTION_TOL:
        raise InvalidSpectrum(f"{name}: cumulative spectrum must run from 0 to 1")
    slope = np.diff(hv) / width

    def distortion(t):  # g(t) = 1 - H(1 - t); rank weights H(i/n) - H((i-1)/n)
        u = np.clip(1.0 - np.asarray(t, dtype=np.float64), 0.0, 1.0)
        j = np.clip(np.searchsorted(knots, u, side="right") - 1, 0, width.size - 1)
        du = u - knots[j]
        return 1.0 - (cum_knots[j] + hv[j] * du + 0.5 * slope[j] * du * du)

    return DistortionSpec(g=distortion, name=name, lipschitz_constant=float(hv[-1]))


# The risk-token grammar.  A form's last piece in capitals is its parameter:
# the rest of the token, a path for PATH and a finite number otherwise.
# Distortion tokens build a spec from it, the others an evaluator (with D).
# The loaders are looked up when called, so a wrapped one (a tracer's) runs.
DISTORTION_TOKENS: dict[str, Callable] = {
    "mean": lambda _: identity_distortion(),
    "cvar:ALPHA": cvar_distortion,
    "distortion-file:PATH": lambda path: load_distortion_csv(path),
    "spectral-file:PATH": lambda path: load_spectrum_csv(path),
}
_VALUE_TOKENS: dict[str, Callable] = {
    "mean_var:C": lambda c, d: functools.partial(mean_variance, c=c, support_bound=d),
    "oce:mean": lambda _, d: functools.partial(oce_risk, spec=oce_mean_spec(d)),
    "oce:entropic": lambda _, d: functools.partial(oce_risk, spec=oce_entropic_spec(d)),
    "oce:cvar:ALPHA": lambda a, d: functools.partial(oce_risk, spec=oce_cvar_spec(a, d)),
}
RISK_TOKENS = (*DISTORTION_TOKENS, *_VALUE_TOKENS)


def _match(token: str, forms, what: str) -> tuple[str, str | float | None]:
    """The form among ``forms`` that ``token`` has, and its parameter (None if it takes none)."""
    for form in forms:
        prefix, _, param = form.rpartition(":")
        if not param.isupper():
            if token == form:
                return form, None
        elif token.startswith(prefix + ":"):
            text = token[len(prefix) + 1:]
            if param == "PATH":
                return form, text
            try:
                if math.isfinite(value := float(text)):
                    return form, value
            except ValueError:
                pass
            raise ConfigError(f"{token!r}: {text!r} is not a finite number")
    raise ConfigError(f"{token!r} is not a {what}; expected {' | '.join(forms)}")


def parse_risk(token: str, support_bound: float) -> Callable[[EmpiricalCDF], RiskValue]:
    """The evaluator ``cdf -> RiskValue`` of the risk a token of
    :data:`RISK_TOKENS` names, on losses in [0, support_bound].

    Files are read and specs validated once per token, and rank weights built
    once per sample size, not once per CDF.
    """
    form, param = _match(token, RISK_TOKENS, "risk")
    if form not in DISTORTION_TOKENS:
        return _VALUE_TOKENS[form](param, support_bound)
    return functools.partial(distortion_risk, spec=DISTORTION_TOKENS[form](param),
                             support_bound=support_bound)


def parse_distortion(token: str) -> DistortionSpec:
    """The rank-weighted spec a token of :data:`DISTORTION_TOKENS` names."""
    form, param = _match(token, DISTORTION_TOKENS, "distortion risk")
    return DISTORTION_TOKENS[form](param)


def token_path(token: str) -> str | None:
    """The file a ``...:PATH`` risk token names, else None."""
    head, _, rest = token.partition(":")
    return rest if f"{head}:PATH" in RISK_TOKENS else None

