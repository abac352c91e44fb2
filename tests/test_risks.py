import json
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcdf.bounds import certificate
from riskcdf.cdf import EmpiricalCDF, build_cdf, sup_norm_distance, wasserstein1
from riskcdf.cli import main
from riskcdf.errors import (
    ConfigError,
    FormatError,
    InvalidAlpha,
    InvalidDelta,
    InvalidDistortion,
    InvalidGrowth,
    InvalidLoss,
    InvalidSpectrum,
    NumericError,
    SupportViolation,
)
from riskcdf.models import MAX_CROSSENTROPY_LOSS, finite_difference_check, init_model
from riskcdf.optim import stationarity_report, train
from riskcdf.risks import (
    DISTORTION_TOKENS,
    DistortionSpec,
    OceSpec,
    RiskValue,
    cvar,
    cvar_distortion,
    cvar_spectrum,
    distortion_risk,
    identity_distortion,
    inverted_oce_risk,
    load_distortion_csv,
    load_spectrum_csv,
    mean_variance,
    oce_cvar_spec,
    oce_entropic_spec,
    oce_mean_spec,
    oce_risk,
    parse_distortion,
    parse_risk,
    spectral_risk,
)

loss_vectors = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=40
)


def top_fraction_mean(losses, alpha):
    """CVaR oracle for alpha * n integer: mean of the top alpha * n losses."""
    losses = np.sort(np.asarray(losses, dtype=float))
    k = round(alpha * len(losses))
    return float(np.mean(losses[-k:]))


ESS_SUP = DistortionSpec(g=lambda t: (np.asarray(t) > 0).astype(float), name="ess_sup")


@dataclass(frozen=True)
class FormerSpectrumSpec:
    """Oracle: riskcdf's former spectrum type, a spectrum h with its exact
    cumulative H.  The weight of the i-th smallest of n losses is the
    difference H(i/n) - H((i-1)/n), and the Lipschitz constant is h(1)."""

    h: Callable = field(repr=False)
    cumulative: Callable = field(repr=False)

    def rank_weights(self, n):
        return np.diff(np.asarray(self.cumulative(np.arange(n + 1) / n), dtype=float))

    def max_value(self):
        return float(self.h(1.0))


def former_cvar_spectrum(alpha):
    """h(u) = (1/alpha) * 1{u >= 1-alpha}, as riskcdf built it as a former spectrum."""
    return FormerSpectrumSpec(
        h=lambda u: np.where(np.asarray(u, dtype=float) >= 1.0 - alpha, 1.0 / alpha, 0.0),
        cumulative=lambda t: np.maximum(np.asarray(t, dtype=float) - (1.0 - alpha), 0.0) / alpha)


def former_spectrum_table(u, h):
    """A table (u, h(u)) as riskcdf loaded it as a former spectrum: h
    interpolated linearly, H its exact antiderivative (quadratic between the
    knots on [0, 1], trapezoid sums at them)."""
    knots = np.union1d([0.0, 1.0], u[(u > 0.0) & (u < 1.0)])
    hv = np.interp(knots, u, h)
    width = np.diff(knots)
    cum_knots = np.concatenate([[0.0], np.cumsum(0.5 * (hv[1:] + hv[:-1]) * width)])
    slope = np.diff(hv) / width

    def cumulative(t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, width.size - 1)
        dt = t - knots[j]
        return cum_knots[j] + hv[j] * dt + 0.5 * slope[j] * dt * dt

    return FormerSpectrumSpec(h=lambda x: np.interp(np.asarray(x, dtype=float), u, h),
                              cumulative=cumulative)


def cumulative(spec, t):
    """H(t) = 1 - g(1 - t) of a spectrum riskcdf built as its distortion g."""
    return 1.0 - spec(1.0 - np.asarray(t, dtype=float))


class TestDistortionRisk:
    def test_identity_is_mean(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert distortion_risk(cdf, identity_distortion()).value == pytest.approx(2.5)

    def test_cvar_half(self):
        cdf = build_cdf([1, 2, 3, 4])
        # Oracle: mean of top half = (3+4)/2; telescoping 1+1+1+0.5 agrees.
        assert distortion_risk(cdf, cvar_distortion(0.5)).value == pytest.approx(3.5)

    def test_essential_supremum(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert distortion_risk(cdf, ESS_SUP).value == pytest.approx(4.0)

    def test_invalid_distortions_rejected(self):
        with pytest.raises(InvalidDistortion):
            DistortionSpec(g=lambda t: np.asarray(t) + 0.1, name="bad_endpoints")
        with pytest.raises(InvalidDistortion):
            DistortionSpec(g=lambda t: 1.0 - np.asarray(t), name="decreasing")

    def test_narrow_decrease_rejected_by_rank_weights(self):
        # g(0) = 0 and g(1) = 1, but g falls from 0.6 to 0.2 on (0.50001, 0.50002):
        # a 10,001-point grid steps over the dip, and at n = 100,000 one weight is -0.4.
        spec = DistortionSpec(g=lambda t: np.interp(t, [0, 0.50001, 0.50002, 0.50003, 1],
                                                    [0, 0.6, 0.2, 0.6, 1]), name="dip")
        assert np.all(spec.rank_weights(10_000) >= 0.0)
        with pytest.raises(InvalidDistortion, match="dip: distortion is not non-decreasing"):
            spec.rank_weights(100_000)

    @pytest.mark.parametrize("g, match", [
        (lambda t: np.where(np.asarray(t) == 0.5, np.nan, t), "non-finite"),
        (lambda t: np.full(np.shape(t), np.nan), r"g\(0\) = nan, expected 0"),
    ], ids=["nan-inside", "nan-everywhere"])
    def test_non_finite_distortion_rejected(self, g, match):
        with pytest.raises(InvalidDistortion, match=match):
            DistortionSpec(g=g, name="bad").rank_weights(4)

    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_rank_weights_need_a_positive_integer(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^mean: rank weights need an integer n >= 1, "
                                                  f"got {n!r}$"):
                identity_distortion().rank_weights(n)

    def test_rank_weights_beyond_memory_are_config_error(self):
        # 1e19 exceeds numpy's largest dimension, so nothing is ever allocated.
        with pytest.raises(ConfigError, match="^mean: cannot hold the rank weights of "
                                              f"{10 ** 19} losses in memory$"):
            identity_distortion().rank_weights(10 ** 19)

    def test_risk_constant_scales_with_support(self):
        cdf = build_cdf([0.0, 1.0, 5.0])
        rv = cvar(cdf, 0.5, support_bound=5.0)
        assert rv.L == pytest.approx(10.0)
        assert rv.p == 1.0

    @pytest.mark.parametrize("evaluate", [
        lambda cdf, d: distortion_risk(cdf, identity_distortion(), d),
        lambda cdf, d: spectral_risk(cdf, cvar_spectrum(1.0), d),
        lambda cdf, d: mean_variance(cdf, 0.5, d),
        lambda cdf, d: cvar(cdf, 0.5, d),
        lambda cdf, d: oce_risk(cdf, oce_mean_spec(d)),
        lambda cdf, d: inverted_oce_risk(cdf, oce_mean_spec(d)),
        lambda cdf, d: oce_risk(cdf, oce_entropic_spec(d)),
        lambda cdf, d: inverted_oce_risk(cdf, oce_entropic_spec(d)),
        lambda cdf, d: oce_risk(cdf, oce_cvar_spec(0.5, d)),
        lambda cdf, d: inverted_oce_risk(cdf, oce_cvar_spec(0.5, d)),
        lambda cdf, d: wasserstein1(cdf, build_cdf([0.0, 2.0]), d),
    ], ids=["distortion", "spectral", "mean_variance", "cvar", "oce_mean", "inverted_oce_mean",
            "oce_entropic", "inverted_oce_entropic", "oce_cvar", "inverted_oce_cvar",
            "wasserstein1"])
    @pytest.mark.parametrize("losses, d", [
        ([0.0, 1.0, 5.0], -1.0), ([0.0, 1.0, 5.0], 4.9), ([0.0, 1.0, 5.0], float("nan")),
        ([0.0, 1.0, 5.0], float("inf")), ([-1.0, 1.0, 5.0], 5.0),
    ], ids=["-1.0", "4.9", "nan", "inf", "negative_loss"])
    def test_support_bound_must_cover_the_sample(self, evaluate, losses, d):
        """Every evaluator checks its sample and D by one rule, with its text.
        An OCE preset checks D as it is built, as for the sample [0, 0], so a
        D that fails there names the largest loss 0.0."""
        if losses[0] < 0:
            message = "losses must be nonnegative, got -1.0"
        else:
            message = (re.escape(f"support bound {d} must be finite and at least the largest "
                                 "loss ") + r"[05]\.0")
        with pytest.raises(SupportViolation, match=f"^{message}$"):
            evaluate(EmpiricalCDF(np.array(losses)), d)
        result = evaluate(build_cdf([0.0, 1.0, 5.0]), 5.0)
        assert not isinstance(result, RiskValue) or result.L >= 5.0

    @given(loss_vectors)
    @settings(max_examples=80)
    def test_identity_matches_mean_to_1e12(self, losses):
        cdf = build_cdf(losses)
        assert abs(distortion_risk(cdf, identity_distortion()).value - np.mean(losses)) < 1e-12

    @given(loss_vectors, st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60)
    def test_translation_shifts_by_constant(self, losses, c):
        spec = cvar_distortion(0.3)
        base = distortion_risk(build_cdf(losses), spec).value
        shifted = distortion_risk(build_cdf(np.asarray(losses) + c), spec).value
        assert shifted == pytest.approx(base + c, rel=1e-9, abs=1e-9)

    @given(loss_vectors, st.randoms(use_true_random=False))
    def test_law_invariance(self, losses, rnd):
        spec = cvar_distortion(0.25)
        shuffled = list(losses)
        rnd.shuffle(shuffled)
        assert distortion_risk(build_cdf(shuffled), spec).value == pytest.approx(
            distortion_risk(build_cdf(losses), spec).value
        )


class TestRiskValue:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_numeric_error(self, value):
        with pytest.raises(NumericError, match=f"^risk 'cvar' evaluated to {value}$") as err:
            RiskValue(value, "cvar", 1.0)
        assert err.value.exit_code == 4


class TestRankWeightCache:
    """A spec keeps the read-only rank weights of the last sample size and
    ``lo``, their first nonzero rank, for every rank-weighted caller."""

    @pytest.mark.parametrize("make_spec", [identity_distortion, lambda: cvar_distortion(0.05),
                                           lambda: cvar_spectrum(0.3), lambda: ESS_SUP],
                             ids=["mean", "cvar", "cvar_spectrum", "ess_sup"])
    @pytest.mark.parametrize("n", [1, 7, 1050])
    def test_equal_rank_weights_bit_for_bit(self, make_spec, n):
        spec = make_spec()
        weights, lo = spec._ranked(n)
        want = spec.rank_weights(n)
        assert weights.dtype == want.dtype and weights.tobytes() == want.tobytes()
        assert lo == np.flatnonzero(want)[0]

    def test_weights_are_read_only(self):
        weights, _ = cvar_distortion(0.05)._ranked(20)
        with pytest.raises(ValueError, match="read-only"):
            weights[-1] = 1.0

    @pytest.mark.parametrize("alpha, n", [(0.05, 1050), (0.25, 3), (0.3, 7), (1.0, 5)])
    def test_first_weighted_rank(self, alpha, n):
        assert identity_distortion()._ranked(n)[1] == 0
        assert cvar_distortion(alpha)._ranked(n)[1] == n - math.ceil(alpha * n)

    def test_cvar_first_weighted_rank_at_training_size(self):
        assert cvar_distortion(0.05)._ranked(1050)[1] == 997

    def test_new_sample_size_rebuilds(self, rank_weight_calls):
        spec = cvar_distortion(0.05)
        first, _ = spec._ranked(40)
        assert spec._ranked(40)[0] is first
        assert spec._ranked(41)[0].shape == (41,)
        assert spec._ranked(40)[0] is not first
        assert rank_weight_calls == [40, 41, 40]

    def test_shared_by_distortion_risk_and_oce_cvar(self, rank_weight_calls):
        spec = cvar_distortion(0.5)
        for losses in ([1, 2, 3, 4], [4, 0, 1, 1]):
            distortion_risk(build_cdf(losses), spec)
        oce = oce_cvar_spec(0.5, 4.0)
        for losses in ([1, 2, 3], [0, 0, 4]):
            oce_risk(build_cdf(losses), oce)
            inverted_oce_risk(build_cdf(losses), oce)
        assert rank_weight_calls == [4, 3]

    def test_no_weights_argument(self):
        with pytest.raises(TypeError, match="weights"):
            distortion_risk(build_cdf([1, 2, 3]), identity_distortion(),
                            weights=np.array([1.0, 0.0, 0.0]))

    def test_equality_hash_repr_and_replace_ignore_the_cache(self):
        spec = cvar_distortion(0.05)
        before = (hash(spec), repr(spec))
        spec._ranked(30)
        copy = replace(spec)
        assert copy == spec and (hash(spec), repr(spec)) == before
        assert copy._last is None


def token_spec(form, alpha, tmp_path):
    """The spec of a :data:`DISTORTION_TOKENS` form at level ``alpha``: CVaR's
    g(t) = min(t/alpha, 1) as a distortion table, and as a spectrum table a
    ramp from 0 at 1 - alpha to 2/alpha at 1, whose weights start there."""
    if alpha == 1.0:
        dist, spec = ([0.0, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 2.0])
    else:
        dist = ([0.0, alpha, 1.0], [0.0, 1.0, 1.0])
        spec = ([0.0, 1.0 - alpha, 1.0], [0.0, 0.0, 2.0 / alpha])
    path = {"distortion-file:PATH": write_table(tmp_path / "dist.csv", *dist),
            "spectral-file:PATH": write_table(tmp_path / "spec.csv", *spec)}.get(form)
    return parse_distortion(form.replace("ALPHA", f"{alpha}").replace("PATH", f"{path}"))


def tie_heavy_losses(rng):
    """Losses drawn from one to four levels, the largest cross-entropy loss among them."""
    n = int(rng.choice([1, 2, 3, 7, 20, 41, 200]))
    pool = rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 5.0), MAX_CROSSENTROPY_LOSS],
                      int(rng.integers(1, 5)))
    return rng.choice(pool, n)


class TestWeigh:
    """``weigh`` is a stable sort of all n losses: the risk, and the row
    weights in example order, equal a full stable-argsort oracle's."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("form", list(DISTORTION_TOKENS))
    def test_matches_full_stable_sort(self, form, alpha, tmp_path):
        spec = token_spec(form, alpha, tmp_path)
        rng = np.random.default_rng(37)
        fixed = [np.array([0.7]), np.full(9, MAX_CROSSENTROPY_LOSS), np.zeros(20),
                 np.array([MAX_CROSSENTROPY_LOSS, 0.0, MAX_CROSSENTROPY_LOSS, 1.0] * 10)]
        for losses in fixed + [tie_heavy_losses(rng) for _ in range(150)]:
            n = losses.size
            order = losses.argsort(kind="stable")
            w = spec.rank_weights(n)
            want_v = np.empty(n)
            want_v[order] = w
            risk, rows, v = spec.weigh(losses)
            assert risk == float(w @ losses[order]) == distortion_risk(build_cdf(losses),
                                                                       spec).value
            if isinstance(rows, slice):
                assert rows == slice(None) and v.size == n
            else:
                assert rows.tolist() == order[n - rows.size:].tolist()
            scattered = np.zeros(n)
            scattered[rows] = v
            assert scattered.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("spec", [identity_distortion(), cvar_distortion(0.05)],
                             ids=["mean", "cvar:0.05"])
    def test_rejects_what_build_cdf_rejects(self, spec, bad):
        """The full sort (mean) and the partition (cvar) raise build_cdf's
        InvalidLoss for a NaN, infinite or negative loss anywhere, and for a
        vector of NaN alone."""
        for at in (0, 7, 19):
            losses = np.linspace(0.0, 2.0, 20)
            losses[at] = bad
            with pytest.raises(InvalidLoss) as built:
                build_cdf(losses)
            with pytest.raises(InvalidLoss) as weighed:
                spec.weigh(losses)
            assert str(weighed.value) == str(built.value)
        with pytest.raises(InvalidLoss, match=r"^losses must be finite \(no NaN/inf\)$"):
            spec.weigh(np.full(20, np.nan))


def train_tiny(**step):
    """train on one example for two steps, with the step-size arguments given."""
    return train(init_model("linear_squared", 1), [[1.0]], [0.0], identity_distortion(), 2,
                 **step)


def check_tiny(step):
    """finite_difference_check on a one-parameter model with the step given."""
    return finite_difference_check(init_model("linear_squared", 1), [1.0], 0.0, [1.0], step)


def oce_with_constant(constant):
    """An OCE spec on [0, 1] with the Holder constant given."""
    return OceSpec(support_bound=1.0, lipschitz_constant=constant, closed_form=float)


def identity_with_constant(constant):
    """The identity distortion with the Holder constant given."""
    return DistortionSpec(g=lambda t: np.asarray(t, dtype=np.float64), lipschitz_constant=constant)


@pytest.mark.parametrize("call, error", [
    (lambda: certificate("finite_class", 10, 0.1, "3"), ConfigError),
    (lambda: certificate("finite_class", 10, 0.1, None), ConfigError),
    (lambda: certificate("growth", 10, 0.1, "3"), InvalidGrowth),
    (lambda: certificate("finite_class", 10, None, 3), InvalidDelta),
    (lambda: certificate("finite_class", 10, "0.1", 3), InvalidDelta),
    (lambda: cvar_distortion("0.5"), InvalidAlpha),
    (lambda: DistortionSpec(g=lambda t: 1.0), InvalidDistortion),
    (lambda: DistortionSpec(g=lambda t: np.asarray(t)[:2]).rank_weights(3), InvalidDistortion),
    (lambda: build_cdf([[1, 2], [3]]), InvalidLoss),
    (lambda: train_tiny(eta="0.1"), ConfigError),
    (lambda: train_tiny(beta="1"), ConfigError),
    (lambda: check_tiny("1e-6"), ConfigError),
    (lambda: mean_variance(build_cdf([1.0]), "1"), ConfigError),
    (lambda: mean_variance(build_cdf([1.0]), 1.0, support_bound="a"), SupportViolation),
    (lambda: oce_mean_spec("5"), SupportViolation),
    (lambda: oce_entropic_spec("a"), SupportViolation),
    (lambda: oce_cvar_spec(0.5, "a"), SupportViolation),
    (lambda: oce_mean_spec(None), SupportViolation),
    (lambda: oce_entropic_spec(None), SupportViolation),
    (lambda: oce_cvar_spec(0.5, None), SupportViolation),
    (lambda: oce_with_constant(None), NumericError),
    (lambda: oce_with_constant("1"), NumericError),
    (lambda: oce_with_constant(True), NumericError),
    (lambda: identity_with_constant("a"), NumericError),
    (lambda: identity_with_constant(True), NumericError),
    (lambda: identity_with_constant(math.nan), NumericError),
], ids=["count-str", "count-none", "growth-str", "delta-none", "delta-str", "alpha-str",
        "g-scalar", "g-short", "ragged-losses", "eta-str", "beta-str", "step-str", "c-str",
        "support-bound-str", "oce-mean-d-str", "oce-entropic-d-str", "oce-cvar-d-str",
        "oce-mean-d-none", "oce-entropic-d-none", "oce-cvar-d-none", "oce-constant-none",
        "oce-constant-str", "oce-constant-true", "distortion-constant-str",
        "distortion-constant-true", "distortion-constant-nan"])
def test_non_numeric_argument_raises_typed_error(call, error):
    """A library argument of the wrong type raises the error its value check
    raises, not a raw TypeError or ValueError from inside the check."""
    with pytest.raises(error) as info:
        call()
    assert info.type is error
    assert "non-decreasing" not in str(info.value)


def test_oce_support_bound_none_is_not_a_number():
    """A risk of a sample infers a None D from it, but an OCE spec has no
    sample: a None D fails as any other non-number does."""
    with pytest.raises(SupportViolation, match="^support bound must be a finite number, got None$"):
        oce_mean_spec(None)


@pytest.mark.parametrize("call, error, text", [
    (lambda: oce_entropic_spec(Fraction(800)), NumericError, "D = 800"),
    (lambda: check_tiny(Fraction(10 ** 200)), NumericError, "at step 1e+200"),
], ids=["oce-entropic-d", "step"])
def test_fraction_message_formats_its_float(call, error, text):
    """A message formats the float its check made, not the argument, which
    may be a Fraction that has no ``:g`` format before Python 3.12."""
    with pytest.raises(error, match=f"{re.escape(text)}$") as info:
        call()
    assert info.type is error


@pytest.mark.parametrize("constant, message", [
    (None, "oce: non-finite Holder constant None with support bound D = 1"),
    ("a", "oce: non-finite Holder constant 'a' with support bound D = 1"),
    (Fraction(10 ** 400), "oce: non-finite Holder constant inf with support bound D = 1"),
    (math.inf, "oce: non-finite Holder constant inf with support bound D = 1"),
], ids=["none", "str", "fraction-beyond-float", "inf"])
def test_oce_constant_message_names_the_spec(constant, message):
    with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
        oce_with_constant(constant)


@pytest.mark.parametrize("make", [oce_with_constant, identity_with_constant],
                         ids=["oce", "distortion"])
def test_holder_constant_is_stored_as_its_float(make):
    """A real constant is kept as its float (``data._real``): a float is
    unchanged, an int, Fraction or numpy scalar becomes a Python float."""
    for constant, want in [(0.1, 0.1), (3, 3.0), (Fraction(1, 3), 1 / 3),
                           (np.float32(0.5), 0.5), (np.int64(2), 2.0)]:
        stored = make(constant).lipschitz_constant
        assert type(stored) is float and stored == want
    assert identity_with_constant(None).lipschitz_constant is None


def test_subnormal_cvar_keeps_its_infinite_constant():
    """1/alpha overflows for a subnormal alpha: the spec builds, so it can
    train, and a risk evaluated with it reports the infinite constant."""
    spec = cvar_distortion(5e-324)
    assert spec.lipschitz_constant == math.inf
    assert spec.rank_weights(4).tolist() == [0.0, 0.0, 0.0, 1.0]
    with pytest.raises(NumericError, match="has Holder constant L = inf$"):
        distortion_risk(build_cdf([1.0, 2.0]), spec)


def test_fraction_alpha_names_its_float():
    half = Fraction(1, 2)
    names = [cvar_distortion(half).name, cvar_spectrum(half).name, oce_cvar_spec(half, 5.0).name]
    assert names == ["cvar:0.5", "cvar_spectrum:0.5", "oce:cvar:0.5"]
    assert cvar_distortion(half).lipschitz_constant == 2.0


@pytest.mark.parametrize("call, error", [
    (lambda: cvar_distortion(True), InvalidAlpha),
    (lambda: certificate("finite_class", 10, 0.1, True), ConfigError),
    (lambda: certificate("vc_sauer", 10, 0.1, False), ConfigError),
    (lambda: certificate("finite_class", 10, True, 3), InvalidDelta),
    (lambda: train_tiny(eta=True), ConfigError),
    (lambda: train_tiny(beta=True), ConfigError),
    (lambda: stationarity_report(train_tiny(eta=0.1)[1], beta=True), ConfigError),
    (lambda: check_tiny(True), ConfigError),
    (lambda: mean_variance(build_cdf([1.0]), True), ConfigError),
    (lambda: mean_variance(build_cdf([1.0]), 1.0, support_bound=True), SupportViolation),
    (lambda: oce_mean_spec(True), SupportViolation),
], ids=["alpha-true", "count-true", "nu-false", "delta-true", "eta-true", "beta-true",
        "stationarity-beta-true", "step-true", "c-true", "support-bound-true",
        "oce-mean-d-true"])
def test_bool_is_not_a_number(call, error):
    """A bool is no real number to any check (``data._is_real``), as it is no count."""
    with pytest.raises(error, match="got (True|False)$") as info:
        call()
    assert info.type is error


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("call, error", [
    (lambda x: train_tiny(eta=x), ConfigError),
    (lambda x: train_tiny(beta=x), ConfigError),
    (lambda x: stationarity_report(train_tiny(eta=0.1)[1], beta=x), ConfigError),
    (check_tiny, ConfigError),
    (lambda x: certificate("finite_class", 10, x, 3), InvalidDelta),
    (cvar_distortion, InvalidAlpha),
    (lambda x: mean_variance(build_cdf([1.0, 2.0]), x), NumericError),
    (lambda x: mean_variance(build_cdf([1.0]), 1.0, support_bound=x), SupportViolation),
    (lambda x: distortion_risk(build_cdf([1.0]), identity_distortion(), x), SupportViolation),
    (lambda x: wasserstein1(build_cdf([1.0]), build_cdf([2.0]), x), SupportViolation),
    (lambda x: parse_risk("mean", x)(build_cdf([1.0])), SupportViolation),
    (oce_mean_spec, SupportViolation),
    (lambda x: oce_cvar_spec(0.5, x), SupportViolation),
    (oce_entropic_spec, SupportViolation),
    (oce_with_constant, NumericError),
    (lambda x: distortion_risk(build_cdf([1.0]), identity_with_constant(x)), NumericError),
], ids=["eta", "beta", "stationarity-beta", "step", "delta", "alpha", "c", "support-bound",
        "distortion-risk-d", "wasserstein1-d", "parse-risk-d", "oce-mean-d", "oce-cvar-d",
        "oce-entropic-d", "oce-constant", "distortion-constant"])
def test_integer_beyond_float_range_fails_as_infinity(call, error, sign):
    """An integer no float holds (``data._real``) raises the error that the
    infinity of its sign raises, not a raw OverflowError."""
    for value in (sign * 10 ** 400, sign * math.inf):
        with pytest.raises(error) as info:
            call(value)
        assert info.type is error


class TestCvar:
    def test_alpha_one_is_mean(self):
        assert cvar(build_cdf([1, 2, 3, 4]), 1.0).value == pytest.approx(2.5)

    def test_quarter_and_half(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert cvar(cdf, 0.25).value == pytest.approx(4.0)
        assert cvar(cdf, 0.5).value == pytest.approx(3.5)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(InvalidAlpha):
            cvar(build_cdf([1.0]), alpha)

    def test_integer_quantile_matches_top_mean_exactly(self):
        rng = np.random.default_rng(5)
        losses = rng.uniform(0, 10, 40)
        cdf = build_cdf(losses)
        for alpha in (0.05, 0.25, 0.5, 1.0):
            assert abs(cvar(cdf, alpha).value - top_fraction_mean(losses, alpha)) < 1e-12

    @pytest.mark.parametrize("alpha", [1e-320, 1e-17, 0.05, 1 / 3, 0.5, 1.0])
    def test_distortion_is_min_of_ratio_and_one_without_overflow(self, alpha):
        t = 1.0 - np.arange(38) / 37
        with np.errstate(all="raise"):
            g = cvar_distortion(alpha)(t)
        with np.errstate(over="ignore"):
            assert g.tobytes() == np.minimum(t / alpha, 1.0).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_bad_alpha_raises_on_every_call(self, alpha):
        for _ in range(2):
            with pytest.raises(InvalidAlpha):
                cvar_distortion(alpha)

    @given(loss_vectors)
    @settings(max_examples=60)
    def test_monotone_in_alpha_and_dominates_mean(self, losses):
        cdf = build_cdf(losses)
        values = [cvar(cdf, a).value for a in (0.1, 0.3, 0.6, 1.0)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(3))
        assert values[-1] == pytest.approx(float(np.mean(losses)))
        assert values[0] >= float(np.mean(losses)) - 1e-12


class TestSpectralRisk:
    def test_uniform_spectrum_is_mean(self):
        # cvar_spectrum(1) is h = 1 on [0, 1].
        assert spectral_risk(build_cdf([1, 2, 3, 4]), cvar_spectrum(1.0)).value == pytest.approx(2.5)

    def test_step_spectrum_matches_cvar(self):
        # h = 2 on [0.5, 1]: rank weights (0, 0, 0.5, 0.5).
        cdf = build_cdf([1, 2, 3, 4])
        assert spectral_risk(cdf, cvar_spectrum(0.5)).value == pytest.approx(3.5)

    def test_constant_sample(self):
        assert spectral_risk(build_cdf([2.0] * 5), cvar_spectrum(1.0)).value == pytest.approx(2.0)

    @pytest.mark.parametrize("table, text", [
        ("0,2\n1,2\n", "cumulative spectrum must run from 0 to 1"),
        ("0,1.5\n1,0.5\n", "spectrum is not non-decreasing"),
        ("0,-1\n1,3\n", "spectrum is negative"),
        ("0,1\n0.5,nan\n1,1\n", "spectrum produced non-finite values"),
    ], ids=["mass-2", "decreasing", "negative", "nan"])
    def test_invalid_spectra_rejected(self, tmp_path, capsys, table, text):
        path, losses = tmp_path / "spec.csv", tmp_path / "losses.csv"
        path.write_text("u,h\n" + table)
        losses.write_text("m\n1\n2\n")
        assert main(["assess", "--input", str(losses), "--risk", f"spectral-file:{path}",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"riskcdf: error: spectrum_file:{path}: {text}\n"

    @given(loss_vectors, st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    @settings(max_examples=60)
    def test_cvar_spectrum_equals_cvar_distortion(self, losses, alpha):
        cdf = build_cdf(losses)
        assert abs(spectral_risk(cdf, cvar_spectrum(alpha)).value - cvar(cdf, alpha).value) < 1e-12

    @pytest.mark.parametrize("alpha", [1e-17, 1e-320])
    def test_cvar_spectrum_below_float_resolution(self, alpha):
        # 1 - alpha rounds to 1 here, so a cumulative max(u - (1 - alpha), 0)/alpha
        # would make g(0) = 1 and fail construction.
        spec = cvar_spectrum(alpha)
        for n in (1, 7, 1050):
            assert np.array_equal(spec.rank_weights(n), cvar_distortion(alpha).rank_weights(n))

    def test_linear_spectrum_weights_are_exact(self, tmp_path):
        path = tmp_path / "linear.csv"
        path.write_text("u,h\n0,0\n1,2\n")  # h(u) = 2u, H(t) = t^2
        spec = load_spectrum_csv(path)
        cdf = build_cdf([1, 2, 3, 4])
        # w_i = (i/n)^2 - ((i-1)/n)^2, here (1, 3, 5, 7)/16.
        expect = np.dot([1, 3, 5, 7], [1, 2, 3, 4]) / 16
        assert spectral_risk(cdf, spec).value == pytest.approx(expect, rel=1e-15)
        assert spectral_risk(cdf, spec, support_bound=4.0).L == 2.0 * 4.0


SPECTRUM_TABLE = "u,h\n0,0.25\n0.6,0.25\n1,4\n"  # integrates to 1


def random_spectrum_table(rng):
    """(u, h): a non-decreasing h >= 0 with unit integral on 2 to 6 knots,
    some pieces flat, the end knots sometimes inside (0, 1) or beyond it."""
    inner = np.sort(rng.choice(np.arange(3, 38), rng.integers(0, 5), replace=False)) / 40
    u = np.concatenate([[rng.choice([-0.25, 0.0, 0.05])], inner, [rng.choice([0.95, 1.0, 1.5])]])
    rise = rng.uniform(0.0, 2.0, u.size) * (rng.random(u.size) < 0.6)
    h = np.cumsum(rise)
    knots = np.union1d([0.0, 1.0], u[(u > 0.0) & (u < 1.0)])
    hv = np.interp(knots, u, h)
    mass = float(np.sum(0.5 * (hv[1:] + hv[:-1]) * np.diff(knots)))
    if mass == 0.0:
        h, mass = np.ones_like(h), 1.0
    return u, h / mass


class TestSpectrumAgainstFormerType:
    """A spectrum is the distortion g(t) = 1 - H(1 - t).  Its rank weights,
    constant and values are checked against the former spectrum type, which
    took differences of H."""

    @pytest.mark.parametrize("n", [1, 7, 1050, 20_000])
    def test_weights_and_constant_match(self, tmp_path, n):
        rng = np.random.default_rng(n)
        pairs = [(cvar_spectrum(a), former_cvar_spectrum(a)) for a in (0.05, 0.3, 1.0)]
        for k in range(40):
            u, h = random_spectrum_table(rng)
            table = load_spectrum_csv(write_table(tmp_path / f"h{k}.csv", u, h))
            pairs.append((table, former_spectrum_table(u, h)))
        cdf = build_cdf([0.0, 2.5])
        for spec, former in pairs:
            np.testing.assert_allclose(spec.rank_weights(n), former.rank_weights(n),
                                       rtol=0, atol=1e-15)
            assert spec.lipschitz_constant == former.max_value()
            assert spectral_risk(cdf, spec, support_bound=3.0).L == former.max_value() * 3.0

    @pytest.mark.parametrize("n", [1, 7, 1050, 20_000])
    def test_assess_values_match(self, tmp_path, n):
        rng = np.random.default_rng(100 + n)
        formers, tokens = [], []
        for k in range(6):
            u, h = random_spectrum_table(rng)
            formers.append(former_spectrum_table(u, h))
            tokens += ["--risk", f"spectral-file:{write_table(tmp_path / f'h{k}.csv', u, h)}"]
        losses = np.round(rng.uniform(0.0, 5.0, (n, 3)) * 4) / 4  # ties in [0, 5]
        src = tmp_path / "losses.csv"
        src.write_text("a,b,c\n" + "".join(f"{x:.17g},{y:.17g},{z:.17g}\n" for x, y, z in losses))
        assert main(["assess", "--input", str(src), *tokens, "--out", str(tmp_path / "out")]) == 0
        records = json.loads((tmp_path / "out" / "assessment.json").read_text())["records"]
        want = [former.rank_weights(n) @ np.sort(losses[:, j])
                for former in formers for j in range(3)]
        assert len(records) == len(want)
        for record, value in zip(records, want):
            assert abs(record["value"] - value) <= 1e-14, (record["risk_name"], record["model"])

    def test_train_spectral_file_matches_distortion_file(self, tmp_path):
        spec_path = tmp_path / "spec.csv"
        spec_path.write_text(SPECTRUM_TABLE)
        g = load_spectrum_csv(spec_path)
        n = 1050  # the blob preset's size
        # Knots at the levels 1 - i/n where training reads g, so interpolation is exact.
        t = (1.0 - np.arange(n + 1) / n)[::-1]
        dist_path = write_table(tmp_path / "dist.csv", t, g(t))
        traces = []
        for token in (f"spectral-file:{spec_path}", f"distortion-file:{dist_path}"):
            out = tmp_path / token.split(":")[0]
            assert main(["train", "--risk", token, "--eta", "0.1", "--iters", "40",
                         "--seed", "5", "--add-bias", "--out", str(out)]) == 0
            traces.append(np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1))
        assert traces[0].shape == (40, 4)
        np.testing.assert_allclose(traces[0][:, 1], traces[1][:, 1], rtol=0, atol=1e-15)


class TestOce:
    def test_linear_phi_is_mean(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert oce_risk(cdf, oce_mean_spec(4.0)).value == pytest.approx(2.5, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1e-17])  # 1 - 1e-17 rounds to 1
    def test_cvar_form(self, alpha):
        cdf = build_cdf([1, 2, 3, 4])
        spec = oce_cvar_spec(alpha, support_bound=4.0)
        assert oce_risk(cdf, spec).value == cvar(cdf, alpha).value

    def test_entropic_constant_sample(self):
        cdf = build_cdf([2.0, 2.0, 2.0])
        assert oce_risk(cdf, oce_entropic_spec(3.0)).value == pytest.approx(2.0, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            oce_risk(build_cdf([0.0, 5.0]), oce_mean_spec(4.0))

    def test_inverted_linear_phi_is_mean(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert inverted_oce_risk(cdf, oce_mean_spec(4.0)).value == pytest.approx(2.5, abs=1e-12)

    def test_inverted_entropic_constant_sample(self):
        cdf = build_cdf([1.5] * 4)
        assert inverted_oce_risk(cdf, oce_entropic_spec(2.0)).value == pytest.approx(1.5, abs=1e-12)

    def test_inverted_cvar_form_lower_tail(self):
        # Brute-force lambda grid oracle for the lower-tail analogue.
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        lam = np.linspace(0, 4, 400001)
        obj = lam - np.mean(np.maximum(lam[:, None] - losses[None, :], 0.0) / 0.5, axis=1)
        expect = float(np.max(obj))  # = 1.5
        cdf = build_cdf(losses)
        spec = oce_cvar_spec(0.5, support_bound=4.0)
        assert inverted_oce_risk(cdf, spec).value == pytest.approx(expect, abs=1e-12)

    @given(loss_vectors, st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_oce_cvar_matches_distortion_cvar(self, losses, alpha):
        cdf = build_cdf(losses)
        spec = oce_cvar_spec(alpha, support_bound=10.0)
        assert oce_risk(cdf, spec).value == cvar(cdf, alpha).value

    def test_overflowing_phi_names_support_bound_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"non-finite .* D = 800$"):
                oce_entropic_spec(800.0)


def cvar_kink_oracles(losses, alpha):
    """Upper and lower CVaR by exact kink search.

    Both OCE objectives are piecewise linear in lambda with kinks at the
    sample points, so their optimum over [0, D] is attained at one of them.
    """
    x = np.asarray(losses, dtype=float)
    lam = x[:, None]
    upper = np.min(x + np.mean(np.maximum(x[None, :] - lam, 0.0), axis=1) / alpha)
    lower = np.max(x - np.mean(np.maximum(lam - x[None, :], 0.0), axis=1) / alpha)
    return float(upper), float(lower)


def random_oce_cases(count=240, seed=2024):
    """(losses, D, alpha); every other case integer-valued with heavy ties."""
    rng = np.random.default_rng(seed)
    alphas = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]
    for i in range(count):
        n = int(rng.integers(1, 61))
        if i % 2 == 0:
            d = float(rng.integers(1, 9))
            losses = rng.integers(0, int(d) + 1, n).astype(float)
        else:
            d = float(rng.uniform(0.5, 10.0))
            losses = rng.uniform(0.0, d, n)
        yield losses, d, alphas[i % len(alphas)]


class TestOceAgainstOracles:
    def test_cases_cover_ties_and_fractional_alpha_n(self):
        cases = list(random_oce_cases())
        assert len(cases) >= 200
        assert sum(np.unique(x).size < x.size for x, _, _ in cases) >= 100
        assert sum(abs(a * x.size - round(a * x.size)) > 1e-9 for x, _, a in cases) >= 100

    def test_mean_preset(self):
        for x, d, _ in random_oce_cases():
            cdf, spec = build_cdf(x), oce_mean_spec(d)
            assert oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-12)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-12)

    def test_entropic_preset(self):
        for x, d, _ in random_oce_cases():
            cdf, spec = build_cdf(x), oce_entropic_spec(d)
            assert oce_risk(cdf, spec).value == pytest.approx(
                np.log(np.mean(np.exp(x))), abs=1e-12)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(
                -np.log(np.mean(np.exp(-x))), abs=1e-12)

    def test_cvar_preset(self):
        for x, d, alpha in random_oce_cases():
            cdf, spec = build_cdf(x), oce_cvar_spec(alpha, support_bound=d)
            upper, lower = cvar_kink_oracles(x, alpha)
            assert oce_risk(cdf, spec).value == pytest.approx(upper, abs=1e-12)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(lower, abs=1e-12)

    def test_linear_phi_at_large_support_accepted(self):
        assert oce_mean_spec(1e6).lipschitz_constant == 1e6
        assert oce_cvar_spec(0.1, support_bound=1e6).lipschitz_constant == 1e7

    def test_memory_is_linear_in_n(self):
        rng = np.random.default_rng(5)
        cdf = build_cdf(rng.uniform(0.0, 5.0, 100_000))
        spec = oce_entropic_spec(5.0)
        tracemalloc.start()
        try:
            oce_risk(cdf, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
SEARCH_TOL = 1e-7  # the lambda bracket width


def golden_section(fn, lo, hi, tol):
    """Minimize fn on [lo, hi] by golden-section search to bracket width tol."""
    a, b = float(lo), float(hi)
    x1, x2 = b - INV_GOLDEN * (b - a), a + INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_GOLDEN * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def phi_constant(phi, d):
    """The oracle's OCE constant phi(D) - phi(0), from phi read at [0, D]."""
    at_zero, at_d = phi(np.array([0.0, d]))
    return float(at_d - at_zero)


def search_oce(phi, d, x, sign):
    """The OCE (sign = +1) or its inversion (sign = -1) of losses x in [0, d]
    for any convex phi, each by its own definition.

    sign * lambda + mean(phi(sign * (x - lambda))) is convex in lambda, so
    golden-section search over [0, d] finds its minimum; sign times that
    minimum is the value.
    """
    _, best = golden_section(
        lambda lam: sign * lam + float(np.mean(phi(sign * (x - lam)))), 0.0, d, SEARCH_TOL)
    return sign * best


def searched_spec(phi, d, name):
    """An OceSpec for any convex phi with the constant phi(d) - phi(0): its
    closed form is the searched OCE of the sample moved to start at 0, moved
    back, so it holds for any real sample no wider than d."""
    return OceSpec(support_bound=d, lipschitz_constant=phi_constant(phi, d), name=name,
                   closed_form=lambda x: search_oce(phi, d, x - x[0], +1.0) + float(x[0]))


PRESETS = {
    "mean": lambda d, alpha: oce_mean_spec(d),
    "entropic": lambda d, alpha: oce_entropic_spec(d),
    "cvar": lambda d, alpha: oce_cvar_spec(alpha, support_bound=d),
}

# The oracle: each preset's disutility phi (given alpha), which riskcdf never evaluates.
PRESET_PHIS = {
    "mean": lambda alpha: lambda x: np.asarray(x, dtype=np.float64),
    "entropic": lambda alpha: lambda x: np.expm1(np.asarray(x, dtype=np.float64)),
    "cvar": lambda alpha: lambda x: np.maximum(np.asarray(x, dtype=np.float64), 0.0) / alpha,
}


def preset_cases(alphas):
    """(preset, alpha) for the mean and entropic presets and CVaR at each alpha."""
    return [("mean", None), ("entropic", None), *(("cvar", a) for a in alphas)]


class TestOceClosedForms:
    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_preset_matches_search(self, preset):
        for x, d, alpha in random_oce_cases():
            cdf, spec, phi = build_cdf(x), PRESETS[preset](d, alpha), PRESET_PHIS[preset](alpha)
            assert oce_risk(cdf, spec).value == pytest.approx(
                search_oce(phi, d, x, +1.0), abs=1e-6)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(
                search_oce(phi, d, x, -1.0), abs=1e-6)

    SHIFTS = [-250.0, -7.5, -1e-3, 0.37, 3.0, 250.0]

    @pytest.mark.parametrize("preset", list(PRESETS))
    def test_closed_form_moves_with_a_shift(self, preset):
        """closed_form(x + c) = closed_form(x) + c, the premise of the
        inversion -OCE(-X): on samples in [0, D] with ties and n = 1, their
        reflections, all-negative samples, and shifts of both signs."""
        cases = [(np.array([2.5]), 3.0, 0.5), *random_oce_cases(count=60, seed=35)]
        for x, d, alpha in cases:
            spec, x = PRESETS[preset](d, alpha), np.sort(x)
            for sample in (x, -x[::-1], x - (d + 1.0)):
                value = spec.closed_form(sample)
                for c in self.SHIFTS:
                    assert_matches_oracle(spec.closed_form(sample + c), value + c)

    def test_cvar_preset_equals_cvar_exactly(self):
        for x, d, alpha in random_oce_cases():
            cdf = build_cdf(x)
            assert oce_risk(cdf, oce_cvar_spec(alpha, d)).value == cvar(cdf, alpha).value

    @pytest.mark.parametrize("losses, d", [
        ([2.5], 3.0),                 # n = 1
        ([1.0, 1.0, 1.0, 1.0], 2.0),  # constant sample
        ([0.0, 0.0, 0.0], 0.0),       # D = 0
    ], ids=["n1", "constant", "d0"])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    def test_degenerate_samples(self, losses, d, alpha):
        cdf, value = build_cdf(losses), losses[0]
        for spec in (oce_mean_spec(d), oce_entropic_spec(d), oce_cvar_spec(alpha, d)):
            assert oce_risk(cdf, spec).value == pytest.approx(value, abs=1e-15)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(value, abs=1e-15)

    def test_alpha_one_is_the_mean(self):
        x = np.array([0.0, 1.0, 1.0, 3.5, 7.0])
        cdf, spec = build_cdf(x), oce_cvar_spec(1.0, 7.0)
        assert oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-15)
        assert inverted_oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-15)

    def test_alpha_below_one_over_n(self):
        # alpha * n = 0.4 < 1: the upper value is the maximum, the lower the minimum.
        x = np.array([1.0, 2.0, 2.0, 6.0])
        cdf, spec = build_cdf(x), oce_cvar_spec(0.1, 6.0)
        assert oce_risk(cdf, spec).value == pytest.approx(6.0, abs=1e-15)
        assert inverted_oce_risk(cdf, spec).value == pytest.approx(1.0, abs=1e-15)
        phi = PRESET_PHIS["cvar"](0.1)
        assert oce_risk(cdf, spec).value == pytest.approx(search_oce(phi, 6.0, x, +1.0), abs=1e-6)
        assert inverted_oce_risk(cdf, spec).value == pytest.approx(
            search_oce(phi, 6.0, x, -1.0), abs=1e-6)


class TestMeanVariance:
    def test_examples(self):
        assert mean_variance(build_cdf([1, 2, 3]), 0.0).value == pytest.approx(2.0)
        assert mean_variance(build_cdf([1, 2, 3]), 0.5).value == pytest.approx(7 / 3)
        assert mean_variance(build_cdf([4.0] * 3), 2.0).value == pytest.approx(4.0)

    @pytest.mark.parametrize("c", [-1.0, -0.1, 0.5])
    def test_constant_bounds_the_change_on_tie_heavy_pairs(self, c):
        d = 3.0
        rng = np.random.default_rng(11)
        for _ in range(300):
            f, g = (build_cdf(np.round(rng.uniform(0, d, rng.integers(1, 30)) * 2) / 2)
                    for _ in range(2))
            rv = mean_variance(f, c, d)
            assert rv.L == d + 3 * abs(c) * d * d > 0
            change = abs(rv.value - mean_variance(g, c, d).value)
            assert change <= rv.L * sup_norm_distance(f, g) + 1e-12


class TestOceLipschitzConstant:
    SUPPORTS = [0.0, 1e-3, 0.37, 1.0, 3.7, 5.0, 20.0, 123.456, 300.0, 709.78, 1e6]
    ALPHAS = [0.01, 0.05, 0.1, 0.123, 0.3333, 0.5, 1.0]

    def test_linear_phi(self):
        assert oce_mean_spec(1.0).lipschitz_constant == 1.0

    def test_cvar_phi(self):
        assert oce_cvar_spec(0.5, support_bound=1.0).lipschitz_constant == 2.0

    def test_degenerate_support(self):
        assert oce_mean_spec(0.0).lipschitz_constant == 0.0

    def test_inverted_direction_linear(self):
        cdf, spec = build_cdf([0.25, 1.0]), oce_mean_spec(1.0)
        assert inverted_oce_risk(cdf, spec).L == oce_risk(cdf, spec).L == 1.0

    def test_preset_constants_equal_phi_oracle_bit_for_bit(self):
        """Each preset's closed-form constant (D, D/alpha, e^D - 1) is the
        oracle's phi(D) - phi(0) exactly, and so is L in both directions; an
        entropic constant that overflows raises NumericError, without a warning."""
        supports = self.SUPPORTS + list(np.random.default_rng(26).uniform(0.0, 709.0, 300))
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in supports:
                cdf = build_cdf([0.0, d])
                for preset, alpha in preset_cases(self.ALPHAS):
                    with np.errstate(over="ignore"):
                        want = phi_constant(PRESET_PHIS[preset](alpha), d)
                    if not np.isfinite(want):
                        with pytest.raises(NumericError, match=r"non-finite .* D = "):
                            PRESETS[preset](d, alpha)
                        continue
                    spec = PRESETS[preset](d, alpha)
                    assert spec.lipschitz_constant == want, (spec.name, d)
                    assert oce_risk(cdf, spec).L == want, (spec.name, d)
                    assert inverted_oce_risk(cdf, spec).L == want, (spec.name, d)
                    checked += 1
        assert checked == 2798


GRID_POINTS = 10_001

CONVEX_PHIS = {
    "squared_hinge": lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) ** 2,
    "two_slopes": lambda x: np.maximum(0.5 * np.asarray(x, dtype=float), 2.0 * np.asarray(x)),
    "softplus": lambda x: np.logaddexp(0.0, np.asarray(x, dtype=float)) - np.log(2.0),
}


def grid_oce_lipschitz(phi, d, inverted):
    """The former grid estimate of an OCE constant, kept as an oracle: the max
    over x on a 10,001-point grid of [0, D] of phi(D - x) - phi(-x), or of
    phi(x) - phi(x - D) for the inverted risk."""
    if d == 0.0:
        return 0.0
    x = np.linspace(0.0, d, GRID_POINTS)
    if inverted:
        vals = phi(x) - phi(x - d)
    else:
        vals = phi(d - x) - phi(-x)
    return float(np.max(vals))


def grid_spectrum_max(former):
    """The former grid estimate of a spectrum's largest value, kept as an oracle."""
    return float(np.max(former.h(np.linspace(0.0, 1.0, GRID_POINTS))))


def grid_distortion_slope(t, g):
    """The former grid estimate of a distortion table's slope, kept as an oracle:
    the largest finite difference of the interpolant on a 10,001-point grid."""
    interp = np.interp(np.linspace(0.0, 1.0, GRID_POINTS), t, g)
    return float(np.max(np.abs(np.diff(interp)))) * (GRID_POINTS - 1)


def write_table(path, t, v):
    path.write_text("t,v\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, v)))
    return path


def grid_check_distortion(levels):
    """The former construction check of a distortion, kept as a test: g at the
    10,001 points k/10,000 is finite and non-decreasing from 0 to 1 (tolerance 1e-9)."""
    assert np.all(np.isfinite(levels))
    assert abs(levels[0]) <= 1e-9 and abs(levels[-1] - 1.0) <= 1e-9
    assert np.min(np.diff(levels)) >= -1e-9


def grid_check_spectrum(spec):
    """The former construction check of a spectrum, kept as a test on its
    distortion g(t) = 1 - H(1 - t).  On the 10,001-point grid the scaled
    differences 10,000 * diff(g) are the means of h over the 10,000 cells,
    read from u = 1 down: they are nonnegative and non-decreasing in u
    (tolerance 1e-9 in units of h, as the former check on h), and g running
    from 0 to 1 is the unit integral of h."""
    levels = spec(np.linspace(0.0, 1.0, GRID_POINTS))
    grid_check_distortion(levels)
    cells = GRID_POINTS - 1
    assert np.min(np.diff(levels)) * cells >= -1e-9
    assert np.max(np.diff(levels, 2)) * cells <= 1e-9


def oce_cvar_levels(spec, inverted):
    """g(k/n), k = 0..n with n = 10,000, of the distortion inside a CVaR OCE
    preset or its inversion: its value on the losses that are 1 on the top k
    ranks and 0 below is the sum of the top k rank weights, g(k/n) - g(0).
    The inversion's value is read as inverted_oce_risk reads it, the negated
    closed form of the reflected losses."""
    n = GRID_POINTS - 1
    ranks = np.arange(n)
    levels = []
    for k in range(n + 1):
        x = (ranks >= n - k).astype(float)
        levels.append(-spec.closed_form(-x[::-1]) if inverted else spec.closed_form(x))
    return np.array(levels)


def benchmark_shaped_tables(rng):
    """(t, g) and (u, h) drawn as the benchmark's assess job draws its tables:
    a concave distortion on three knots at multiples of 0.1, and an increasing
    spectrum on 0, 0.3, 0.6, 0.9, 1 integrating to 1."""
    knots = np.sort(rng.choice(np.arange(1, 10), 3, replace=False)) / 10
    t = np.concatenate([[0.0], knots, [1.0]])
    slopes = np.sort(rng.uniform(0.2, 3.0, t.size - 1))[::-1]
    g = np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    u = np.array([0.0, 0.3, 0.6, 0.9, 1.0])
    h = np.cumsum(rng.uniform(0.1, 1.0, u.size))
    h /= float(np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(u)))
    return (t, g / g[-1]), (u, h)


class TestExactConstantsAgainstGrids:
    SUPPORTS = [0.0, 1e-3, 0.37, 1.0, 5.0, 20.0, 300.0]
    ALPHAS = [0.01, 0.05, 0.1, 0.5, 1.0]

    def preset_specs(self, d):
        """(spec, its oracle phi) for each preset."""
        for preset, alpha in preset_cases(self.ALPHAS):
            yield PRESETS[preset](d, alpha), PRESET_PHIS[preset](alpha)

    def oce_specs(self, d):
        yield from self.preset_specs(d)
        for name, phi in CONVEX_PHIS.items():
            yield searched_spec(phi, d, name), phi

    @pytest.mark.parametrize("d", SUPPORTS)
    def test_preset_phi_is_a_disutility(self, d):
        """Each preset's oracle phi is finite on a 10,001-point grid of [-D, D],
        has phi(0) = 0, and is non-decreasing and convex there (second
        differences, tolerance 1e-9 scaled by max(1, max |phi|)); the constant
        phi(D) - phi(0) relies on all three."""
        grid = np.linspace(-d, d, GRID_POINTS)
        for spec, phi in self.preset_specs(d):
            vals = phi(grid)
            assert np.all(np.isfinite(vals)), spec.name
            assert phi(np.zeros(1))[0] == 0.0, spec.name
            assert np.min(np.diff(vals)) >= -1e-9, spec.name
            scale = max(1.0, float(np.max(np.abs(vals))))
            assert np.min(np.diff(vals, 2)) >= -1e-9 * scale, spec.name

    @pytest.mark.parametrize("d", SUPPORTS)
    def test_oce_constant_equals_grid_bit_for_bit(self, d):
        cdf = build_cdf([0.0, d])
        for spec, phi in self.oce_specs(d):
            upper, lower = oce_risk(cdf, spec).L, inverted_oce_risk(cdf, spec).L
            assert upper == lower == spec.lipschitz_constant, spec.name
            assert upper == grid_oce_lipschitz(phi, d, inverted=False), spec.name
            assert lower == grid_oce_lipschitz(phi, d, inverted=True), spec.name

    def test_spectrum_constant_equals_grid_bit_for_bit(self, tmp_path):
        # Shaped like the benchmark's table: increasing h on 0, 0.3, 0.6, 0.9, 1.
        u = np.array([0.0, 0.3, 0.6, 0.9, 1.0])
        h = np.cumsum(np.random.default_rng(3).uniform(0.1, 1.0, u.size))
        h /= float(np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(u)))
        table = load_spectrum_csv(write_table(tmp_path / "spec.csv", u, h))
        pairs = [(table, former_spectrum_table(u, h))]
        pairs += [(cvar_spectrum(a), former_cvar_spectrum(a)) for a in self.ALPHAS]
        cdf = build_cdf([0.5, 2.0])
        for spec, former in pairs:
            top = grid_spectrum_max(former)
            assert spec.lipschitz_constant == top, spec.name
            assert spectral_risk(cdf, spec, support_bound=2.0).L == top * 2.0, spec.name

    def test_distortion_slope_matches_grid_on_wide_pieces(self, tmp_path):
        # Concave and shaped like the benchmark's table: knots on multiples of 0.1.
        t = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        g = np.concatenate([[0.0], np.cumsum(np.array([2.7, 1.4, 0.9, 0.3]) * np.diff(t))])
        g /= g[-1]
        spec = load_distortion_csv(write_table(tmp_path / "dist.csv", t, g))
        assert spec.lipschitz_constant == pytest.approx(grid_distortion_slope(t, g), rel=1e-12)

    def test_steep_short_piece_is_exact(self, tmp_path):
        t, g = [0.0, 0.5, 0.50001, 1.0], [0.0, 0.1, 0.9, 1.0]
        spec = load_distortion_csv(write_table(tmp_path / "steep.csv", t, g))
        assert spec.lipschitz_constant == pytest.approx(0.8 / 1e-5, rel=1e-9)
        # The grid steps over the 1e-5-wide piece and reports a tenth of the slope.
        assert grid_distortion_slope(t, g) < spec.lipschitz_constant / 9
        cdf = build_cdf([1.0, 3.0])
        assert distortion_risk(cdf, spec, support_bound=4.0).L == spec.lipschitz_constant * 4.0

    def test_package_specs_pass_the_former_grid_checks(self, tmp_path):
        """Every spec riskcdf builds passes the 10,001-point grid checks,
        unit integral included; construction checks only what is exact."""
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        spectra = [cvar_spectrum(a) for a in self.ALPHAS]
        for alpha in self.ALPHAS:
            grid_check_distortion(cvar_distortion(alpha)(grid))
        grid_check_distortion(identity_distortion()(grid))
        for alpha in (0.05, 0.1, 1.0):  # the upper tail is cvar:alpha, the lower its mirror
            spec = oce_cvar_spec(alpha, support_bound=1.0)
            grid_check_distortion(oce_cvar_levels(spec, inverted=False))
            grid_check_distortion(oce_cvar_levels(spec, inverted=True))
        rng = np.random.default_rng(1)
        for k in range(5):
            (t, g), (u, h) = benchmark_shaped_tables(rng)
            grid_check_distortion(load_distortion_csv(write_table(tmp_path / f"g{k}.csv", t, g))(grid))
            spectra.append(load_spectrum_csv(write_table(tmp_path / f"h{k}.csv", u, h)))
        for spec in spectra:
            grid_check_spectrum(spec)

    def test_pieces_outside_unit_interval_ignored(self, tmp_path):
        # Steep pieces end at t = 0 and start at t = 1; g is the identity between.
        t, g = [-0.5, 0.0, 1.0, 1.0001], [-5.0, 0.0, 1.0, 3.0]
        spec = load_distortion_csv(write_table(tmp_path / "outside.csv", t, g))
        assert spec.lipschitz_constant == 1.0


class TestTableLoaders:
    def test_distortion_table(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("t,g\n0,0\n0.5,0.8\n1,1\n")
        spec = load_distortion_csv(path)
        assert spec.lipschitz_constant == pytest.approx(1.6, rel=1e-15)
        cdf = build_cdf([1, 2])
        # g(1)=1, g(0.5)=0.8: telescoping 1*1 + 0.8*1 = 1.8.
        assert distortion_risk(cdf, spec).value == pytest.approx(1.8)

    def test_spectrum_table(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("u,h\n0,1\n1,1\n")
        spec = load_spectrum_csv(path)
        assert spectral_risk(build_cdf([1, 2, 3, 4]), spec).value == pytest.approx(2.5)

    def test_spectrum_table_cumulative_is_exact_integral(self, tmp_path):
        # h = 0.5 on [0, 1/4], linear from 0.5 to 1.5 on [1/4, 3/4] (slope 2),
        # 1.5 on [3/4, 1]; the table omits the end points 0 and 1.
        path = tmp_path / "spec.csv"
        path.write_text("u,h\n0.25,0.5\n0.75,1.5\n")
        spec = load_spectrum_csv(path)

        def exact(t):
            mid = np.clip(t, 0.25, 0.75) - 0.25
            return (0.5 * np.minimum(t, 0.25) + 0.5 * mid + mid * mid
                    + 1.5 * np.maximum(t - 0.75, 0.0))

        t = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(cumulative(spec, t), exact(t), rtol=0, atol=1e-12)
        edges = np.arange(8) / 7
        np.testing.assert_allclose(spec.rank_weights(7), np.diff(exact(edges)), rtol=0, atol=1e-12)
        losses = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        want = float(np.diff(exact(edges)) @ np.sort(losses))
        assert spectral_risk(build_cdf(losses), spec).value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("table, exact", [
        # h(u) = 2u with knots at 0 and 1 themselves: H(t) = t^2.
        ("0,0\n0.5,1\n1,2\n", lambda t: t * t),
        # Knots outside [0, 1]: h(u) = 0.75 + 0.5u there, H(t) = 0.75t + 0.25t^2.
        ("-0.5,0.5\n1.5,1.5\n", lambda t: 0.75 * t + 0.25 * t * t),
    ])
    def test_spectrum_table_end_knots(self, tmp_path, table, exact):
        path = tmp_path / "spec.csv"
        path.write_text("u,h\n" + table)
        spec = load_spectrum_csv(path)
        t = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(cumulative(spec, t), exact(t), rtol=0, atol=1e-12)

    C_DIP = 1.0 / (1.0 - 2e-7)  # the dip below keeps the unit integral

    @pytest.mark.parametrize("load, table, error, match", [
        (load_distortion_csv, "0,0\n0.50001,0.6\n0.50002,0.2\n0.50003,0.6\n1,1\n",
         InvalidDistortion, "not non-decreasing"),
        (load_distortion_csv, "0,0\n0.5,nan\n1,1\n", InvalidDistortion, "non-finite"),
        (load_distortion_csv, "0.2,0.1\n1,1\n", InvalidDistortion, r"g\(0\) = .*0\.1"),
        (load_distortion_csv, "0,0\n0.8,0.9\n", InvalidDistortion, r"g\(1\) = .*0\.9"),
        (load_spectrum_csv, f"0,{C_DIP!r}\n0.5,{C_DIP!r}\n0.5000001,{-C_DIP!r}\n"
                            f"0.5000002,{C_DIP!r}\n1,{C_DIP!r}\n",
         InvalidSpectrum, "spectrum is negative"),
        (load_spectrum_csv, "0,1.5\n1,0.5\n", InvalidSpectrum, "not non-decreasing"),
        (load_spectrum_csv, "0,1\n0.5,nan\n1,1\n", InvalidSpectrum, "non-finite"),
        (load_spectrum_csv, "0,2\n1,2\n", InvalidSpectrum, "must run from 0 to 1"),
        (load_distortion_csv, "t,g\n0,0\nnan,0.5\n1,1\n", FormatError, "strictly increasing"),
        (load_spectrum_csv, "u,h\n0,1\nnan,1\n1,1\n", FormatError, "strictly increasing"),
        (load_distortion_csv, "0,0,0\n1,1,1\n", FormatError, "expected two columns, got 3$"),
        (load_spectrum_csv, "u,h\n0,1\n", FormatError, "need at least two numeric rows$"),
    ], ids=["g-narrow-dip", "g-nan", "g-at-0", "g-at-1",
            "h-narrow-negative-dip", "h-decreasing", "h-nan", "h-mass-2", "t-nan", "u-nan",
            "g-three-columns", "h-one-row"])
    def test_invalid_table_rejected_at_its_knots(self, tmp_path, load, table, error, match):
        path = tmp_path / "table.csv"
        path.write_text(table)
        with pytest.raises(error, match=match):
            load(path)

    def test_knots_outside_unit_interval_are_not_checked(self, tmp_path):
        # Decreasing and negative beyond [0, 1], valid on it.
        path = tmp_path / "spec.csv"
        path.write_text("-1,5\n0,1\n1,1\n2,-3\n")
        assert load_spectrum_csv(path).rank_weights(4).tolist() == [0.25] * 4

    def test_bad_table(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n0,1\n")
        with pytest.raises(Exception):
            load_distortion_csv(path)


def telescoped(losses, g):
    """Oracle: the distortion integral of the step CDF as the telescoping sum
    sum_i g(1 - (i-1)/n) * (x_(i) - x_(i-1)) with x_(0) = 0."""
    x = np.sort(np.asarray(losses, dtype=float))
    n = x.size
    coeff = np.asarray(g(1.0 - np.arange(n) / n), dtype=float)
    return float(coeff @ np.diff(x, prepend=0.0))


def lower_tail_g(alpha):
    """The inverted CVaR OCE's distortion: g(t) = max(t - 1 + alpha, 0)/alpha."""
    return lambda t: np.maximum(np.asarray(t, dtype=float) - (1.0 - alpha), 0.0) / alpha


def assert_matches_oracle(value, oracle):
    assert abs(value - oracle) <= 1e-12 * max(1.0, abs(oracle)), (value, oracle)


class TestRankWeightsAgainstTelescopedSum:
    def test_distortion_risk(self):
        for x, _, _ in random_oce_cases():
            cdf = build_cdf(x)
            for spec in (identity_distortion(), ESS_SUP):
                assert_matches_oracle(distortion_risk(cdf, spec).value, telescoped(x, spec))

    def test_cvar_with_integral_and_fractional_alpha_n(self):
        integral = fractional = 0
        for x, _, alpha in random_oce_cases():
            if abs(alpha * x.size - round(alpha * x.size)) < 1e-9:
                integral += 1
            else:
                fractional += 1
            value = cvar(build_cdf(x), alpha).value
            assert_matches_oracle(value, telescoped(x, cvar_distortion(alpha)))
        assert integral >= 50 and fractional >= 50

    def test_oce_cvar_both_directions(self):
        for x, d, alpha in random_oce_cases():
            cdf, spec = build_cdf(x), oce_cvar_spec(alpha, d)
            assert_matches_oracle(oce_risk(cdf, spec).value,
                                  telescoped(x, cvar_distortion(alpha)))
            assert_matches_oracle(inverted_oce_risk(cdf, spec).value,
                                  telescoped(x, lower_tail_g(alpha)))

    def test_distortion_tables(self, tmp_path):
        rng = np.random.default_rng(77)
        for k in range(6):
            # Non-decreasing g from 0 to 1 on random knots, some pieces flat.
            inner = np.sort(rng.choice(np.arange(1, 20), 4, replace=False)) / 20
            t = np.concatenate([[0.0], inner, [1.0]])
            rise = rng.uniform(0.0, 1.0, t.size - 1) * (rng.random(t.size - 1) < 0.7)
            rise[k % rise.size] += 0.1
            g = np.concatenate([[0.0], np.cumsum(rise)])
            g /= g[-1]
            path = tmp_path / f"dist{k}.csv"
            path.write_text("t,g\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, g)))
            spec = load_distortion_csv(path)
            for x, _, _ in random_oce_cases(count=40, seed=k):
                assert_matches_oracle(distortion_risk(build_cdf(x), spec).value,
                                      telescoped(x, spec))

    @pytest.mark.parametrize("spec", [
        identity_distortion(), cvar_distortion(0.05), cvar_distortion(0.3), cvar_distortion(1.0),
        cvar_spectrum(0.05), cvar_spectrum(0.3), cvar_spectrum(1.0),
    ], ids=lambda spec: spec.name)
    @pytest.mark.parametrize("n", [1, 2, 7, 20, 1000, 20_000])
    def test_preset_weights_nonnegative_sum_to_one(self, spec, n):
        w = spec.rank_weights(n)
        assert w.shape == (n,)
        assert np.all(w >= 0.0)
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12
