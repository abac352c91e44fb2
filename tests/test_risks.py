import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcdf.cdf import build_cdf
from riskcdf.errors import (
    InvalidAlpha,
    InvalidDistortion,
    InvalidSpectrum,
    SupportViolation,
)
from riskcdf.risks import (
    DistortionSpec,
    OceSpec,
    SpectrumSpec,
    cvar,
    cvar_distortion,
    cvar_spectrum,
    distortion_risk,
    holder_risk_error,
    identity_distortion,
    inverted_oce_risk,
    load_distortion_csv,
    load_spectrum_csv,
    mean_variance,
    oce_cvar_spec,
    oce_entropic_spec,
    oce_lipschitz_constant,
    oce_mean_spec,
    oce_risk,
    spectral_risk,
    spectrum_to_distortion,
    uniform_spectrum,
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

    def test_risk_constant_scales_with_support(self):
        cdf = build_cdf([0.0, 1.0, 5.0])
        rv = cvar(cdf, 0.5, support_bound=5.0)
        assert rv.holder.L == pytest.approx(10.0)
        assert rv.holder.p == 1.0

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
        assert spectral_risk(build_cdf([1, 2, 3, 4]), uniform_spectrum()).value == pytest.approx(2.5)

    def test_step_spectrum_matches_cvar(self):
        # h = 2 on [0.5, 1]: rank weights (0, 0, 0.5, 0.5).
        cdf = build_cdf([1, 2, 3, 4])
        assert spectral_risk(cdf, cvar_spectrum(0.5)).value == pytest.approx(3.5)

    def test_constant_sample(self):
        assert spectral_risk(build_cdf([2.0] * 5), uniform_spectrum()).value == pytest.approx(2.0)

    def test_invalid_spectra_rejected(self):
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec(h=lambda u: 2.0 * np.ones_like(np.asarray(u)), name="mass2")
        with pytest.raises(InvalidSpectrum):
            SpectrumSpec(h=lambda u: 2.0 * (np.asarray(u) < 0.5), name="decreasing")

    @given(loss_vectors, st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    @settings(max_examples=60)
    def test_cvar_spectrum_equals_cvar_distortion(self, losses, alpha):
        cdf = build_cdf(losses)
        assert abs(spectral_risk(cdf, cvar_spectrum(alpha)).value - cvar(cdf, alpha).value) < 1e-12

    def test_quadrature_fallback_without_cumulative(self):
        spec = SpectrumSpec(h=lambda u: 2.0 * np.asarray(u, dtype=float), name="linear")
        cdf = build_cdf([1, 2, 3, 4])
        # w_i = (i/n)^2 - ((i-1)/n)^2, here (1, 3, 5, 7)/16.
        expect = np.dot([1, 3, 5, 7], [1, 2, 3, 4]) / 16
        assert spec.cumulative is None
        assert spectral_risk(cdf, spec).value == pytest.approx(expect, rel=1e-9)

    def test_spectrum_to_distortion_reproduces_cvar(self):
        spec = spectrum_to_distortion(cvar_spectrum(0.5))
        cdf = build_cdf([1, 2, 3, 4])
        assert distortion_risk(cdf, spec).value == pytest.approx(3.5)


class TestOce:
    def test_linear_phi_is_mean(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert oce_risk(cdf, oce_mean_spec(4.0)).value == pytest.approx(2.5, abs=1e-9)

    def test_cvar_form(self):
        cdf = build_cdf([1, 2, 3, 4])
        spec = oce_cvar_spec(0.5, support_bound=4.0)
        assert oce_risk(cdf, spec).value == pytest.approx(cvar(cdf, 0.5).value, abs=1e-6)

    def test_entropic_constant_sample(self):
        cdf = build_cdf([2.0, 2.0, 2.0])
        assert oce_risk(cdf, oce_entropic_spec(3.0)).value == pytest.approx(2.0, abs=1e-6)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            oce_risk(build_cdf([0.0, 5.0]), oce_mean_spec(4.0))

    def test_inverted_linear_phi_is_mean(self):
        cdf = build_cdf([1, 2, 3, 4])
        assert inverted_oce_risk(cdf, oce_mean_spec(4.0)).value == pytest.approx(2.5, abs=1e-9)

    def test_inverted_entropic_constant_sample(self):
        cdf = build_cdf([1.5] * 4)
        assert inverted_oce_risk(cdf, oce_entropic_spec(2.0)).value == pytest.approx(1.5, abs=1e-6)

    def test_inverted_cvar_form_lower_tail(self):
        # Brute-force lambda grid oracle for the lower-tail analogue.
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        lam = np.linspace(0, 4, 400001)
        obj = lam - np.mean(np.maximum(lam[:, None] - losses[None, :], 0.0) / 0.5, axis=1)
        expect = float(np.max(obj))  # = 1.5
        cdf = build_cdf(losses)
        spec = oce_cvar_spec(0.5, support_bound=4.0)
        assert inverted_oce_risk(cdf, spec).value == pytest.approx(expect, abs=1e-6)

    @given(loss_vectors, st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_oce_cvar_matches_distortion_cvar(self, losses, alpha):
        cdf = build_cdf(losses)
        spec = oce_cvar_spec(alpha, support_bound=10.0)
        assert oce_risk(cdf, spec).value == pytest.approx(cvar(cdf, alpha).value, abs=1e-6)

    def test_phi_validation(self):
        with pytest.raises(InvalidSpectrum):
            OceSpec(phi=lambda x: np.asarray(x) + 1.0, support_bound=1.0, name="phi0")
        with pytest.raises(InvalidSpectrum):
            OceSpec(phi=lambda x: -np.asarray(x), support_bound=1.0, name="dec")


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
            assert oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-6)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(np.mean(x), abs=1e-6)

    def test_entropic_preset(self):
        for x, d, _ in random_oce_cases():
            cdf, spec = build_cdf(x), oce_entropic_spec(d)
            assert oce_risk(cdf, spec).value == pytest.approx(
                np.log(np.mean(np.exp(x))), abs=1e-6)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(
                -np.log(np.mean(np.exp(-x))), abs=1e-6)

    def test_cvar_preset(self):
        for x, d, alpha in random_oce_cases():
            cdf, spec = build_cdf(x), oce_cvar_spec(alpha, support_bound=d)
            upper, lower = cvar_kink_oracles(x, alpha)
            assert oce_risk(cdf, spec).value == pytest.approx(upper, abs=1e-6)
            assert inverted_oce_risk(cdf, spec).value == pytest.approx(lower, abs=1e-6)

    def test_non_convex_phi_rejected(self):
        with pytest.raises(InvalidSpectrum, match="convex"):
            OceSpec(phi=lambda x: np.asarray(x) ** 3, support_bound=2.0, name="cube")

    def test_linear_phi_at_large_support_accepted(self):
        OceSpec(phi=lambda x: 3.7 * np.asarray(x), support_bound=1e6, name="linear")
        oce_cvar_spec(0.1, support_bound=1e6)

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


class TestMeanVariance:
    def test_examples(self):
        assert mean_variance(build_cdf([1, 2, 3]), 0.0).value == pytest.approx(2.0)
        assert mean_variance(build_cdf([1, 2, 3]), 0.5).value == pytest.approx(7 / 3)
        assert mean_variance(build_cdf([4.0] * 3), 2.0).value == pytest.approx(4.0)


class TestOceLipschitzConstant:
    def test_linear_phi(self):
        assert oce_lipschitz_constant(oce_mean_spec(1.0)) == pytest.approx(1.0)

    def test_cvar_phi(self):
        spec = oce_cvar_spec(0.5, support_bound=1.0)
        assert oce_lipschitz_constant(spec) == pytest.approx(2.0)

    def test_degenerate_support(self):
        assert oce_lipschitz_constant(oce_mean_spec(0.0)) == 0.0

    def test_inverted_direction_linear(self):
        assert oce_lipschitz_constant(oce_mean_spec(1.0), inverted=True) == pytest.approx(1.0)

    def test_computed_once_per_spec(self):
        calls = []

        def phi(x):
            calls.append(1)
            return np.expm1(np.asarray(x, dtype=np.float64))

        spec = OceSpec(phi=phi, support_bound=2.0)
        fresh = oce_entropic_spec(2.0)
        for inverted in (False, True):
            first = oce_lipschitz_constant(spec, inverted=inverted)
            seen = len(calls)
            assert oce_lipschitz_constant(spec, inverted=inverted) == first
            assert len(calls) == seen
            assert first == oce_lipschitz_constant(fresh, inverted=inverted)
        before = len(calls)
        oce_risk(build_cdf([0.5, 1.0]), spec)
        oce_lipschitz_constant(spec, grid_size=101)
        assert len(calls) > before  # the search and a new grid size still evaluate phi


class TestHolderRiskError:
    def test_values(self):
        assert holder_risk_error(2.0, 1.0, 0.1) == pytest.approx(0.2)
        assert holder_risk_error(1.0, 0.5, 0.04) == pytest.approx(0.2)
        assert holder_risk_error(7.0, 0.3, 0.0) == 0.0


class TestTableLoaders:
    def test_distortion_table(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("t,g\n0,0\n0.5,0.8\n1,1\n")
        spec = load_distortion_csv(path)
        assert spec.lipschitz_estimated
        assert spec.lipschitz_constant == pytest.approx(1.6, rel=1e-3)
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
        np.testing.assert_allclose(spec.cumulative(t), exact(t), rtol=0, atol=1e-12)
        edges = np.arange(8) / 7
        np.testing.assert_allclose(spec.block_weights(7), np.diff(exact(edges)), rtol=0, atol=1e-12)
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
        np.testing.assert_allclose(spec.cumulative(t), exact(t), rtol=0, atol=1e-12)

    def test_bad_table(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n0,1\n")
        with pytest.raises(Exception):
            load_distortion_csv(path)
