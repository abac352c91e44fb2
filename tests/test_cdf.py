import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcdf.cdf import (
    EmpiricalCDF,
    build_cdf,
    moment,
    read_losses_csv,
    sup_norm_distance,
    sup_norm_distances,
    wasserstein1,
    write_cdf_csv,
)
from riskcdf.errors import (EmptySample, InvalidLoss, InvalidOrder, NumericError, ShapeError,
                            SupportViolation)

finite_losses = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=50
)


def brute_force_ks(a, b):
    """Independent oracle: scan both limits at every merged breakpoint."""
    pts = np.unique(np.concatenate([a, b]))
    best = 0.0
    for p in pts:
        fa = np.mean(a <= p)
        fb = np.mean(b <= p)
        fa_l = np.mean(a < p)
        fb_l = np.mean(b < p)
        best = max(best, abs(fa - fb), abs(fa_l - fb_l))
    return best


class TestBuildCdf:
    def test_eval_examples(self):
        c = build_cdf([3, 1, 2])
        assert c.eval(1.5) == pytest.approx(1 / 3)
        assert c.eval(0) == 0.0
        assert c.eval(3) == 1.0

    def test_right_continuity_at_jump(self):
        c = build_cdf([1.0, 1.0, 2.0])
        assert c.eval(1.0) == pytest.approx(2 / 3)
        assert c.eval(np.nextafter(1.0, 0.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            build_cdf([])

    def test_empty_signed_sample_rejected(self):
        with pytest.raises(EmptySample, match="^loss sample is empty$"):
            EmpiricalCDF(np.array([]))

    @pytest.mark.parametrize("bad", [[1.0, float("nan")], [1.0, float("inf")], [1.0, -0.5]])
    def test_invalid_rejected(self, bad):
        with pytest.raises(InvalidLoss):
            build_cdf(bad)

    @given(finite_losses)
    def test_eval_takes_multiples_of_one_over_n(self, losses):
        c = build_cdf(losses)
        grid = np.linspace(-1.0, 101.0, 57)
        vals = c.eval(grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.allclose(vals * c.n, np.round(vals * c.n))

    @given(finite_losses, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, losses, rnd):
        shuffled = list(losses)
        rnd.shuffle(shuffled)
        assert np.array_equal(build_cdf(losses).values, build_cdf(shuffled).values)


class TestEmpiricalCdfInvariant:
    """An EmpiricalCDF holds a 1-D, ascending, NaN-free sample; anything else
    is a data error (exit code 3) that names where the sample goes wrong."""

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidLoss, match=r"values\[1\] = 1.0 is below values\[0\] = 3.0$"):
            EmpiricalCDF(np.array([3.0, 1.0, 2.0]))
        with pytest.raises(InvalidLoss, match=r"values\[3\] = 1.5 is below values\[2\] = 2.0$"):
            EmpiricalCDF(np.array([1.0, 2.0, 2.0, 1.5]))

    @pytest.mark.parametrize("values, position", [([np.nan], 0), ([1.0, np.nan, 2.0], 1),
                                                  ([1.0, 2.0, np.nan], 2)])
    def test_nan_rejected(self, values, position):
        with pytest.raises(InvalidLoss, match=rf"values\[{position}\] is NaN$"):
            EmpiricalCDF(np.array(values))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ShapeError, match=r"1-D, got shape \(2, 2\)$"):
            EmpiricalCDF(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_signed_sorted_sample_keeps_its_distance(self):
        a = EmpiricalCDF(np.array([-2.0, -0.5, 0.0, 3.0]))
        b = EmpiricalCDF(np.array([-np.inf, -1.0, 1.0, 1.0]))
        assert sup_norm_distance(a, b) == brute_force_ks(a.values, b.values) == 0.25


class TestSupNormDistance:
    def test_identical_is_zero(self):
        c = build_cdf([1, 2, 3])
        assert sup_norm_distance(c, c) == 0.0

    def test_gap_on_open_interval(self):
        # F_a jumps to 1 at 1 while F_b stays at 0.5 until 2: gap 0.5 on [1, 2).
        a = build_cdf([0, 1])
        b = build_cdf([0, 2])
        assert sup_norm_distance(a, b) == pytest.approx(0.5)

    def test_disjoint_point_masses(self):
        assert sup_norm_distance(build_cdf([0]), build_cdf([1])) == pytest.approx(1.0)

    def test_left_limit_needed(self):
        # Same support endpoints; the sup is attained just below the upper point.
        a = build_cdf([0.0, 1.0, 1.0, 1.0])
        b = build_cdf([0.0, 0.0, 0.0, 1.0])
        assert sup_norm_distance(a, b) == pytest.approx(brute_force_ks(a.values, b.values))

    @given(finite_losses, finite_losses)
    @settings(max_examples=60)
    def test_matches_brute_force(self, xs, ys):
        a, b = build_cdf(xs), build_cdf(ys)
        assert sup_norm_distance(a, b) == pytest.approx(brute_force_ks(a.values, b.values))

    @given(finite_losses, finite_losses, finite_losses)
    @settings(max_examples=40)
    def test_metric_axioms(self, xs, ys, zs):
        a, b, c = map(build_cdf, (xs, ys, zs))
        dab = sup_norm_distance(a, b)
        assert dab == pytest.approx(sup_norm_distance(b, a))
        assert dab <= sup_norm_distance(a, c) + sup_norm_distance(c, b) + 1e-12
        if dab == 0.0:
            pa, qa = a.breakpoints()
            pb, qb = b.breakpoints()
            assert np.array_equal(pa, pb) and np.allclose(qa, qb)


def signed_cdf(values):
    """The CDF of a possibly signed sample, for the distances alone."""
    return EmpiricalCDF(np.sort(values))


def left_limit(cdf, r):
    """F(r-), the fraction of the sample strictly below r."""
    return np.searchsorted(cdf.values, r, side="left") / cdf.n


def merged_breakpoint_ks(a, b):
    """The earlier sup_norm_distance: both limits at every point of either sample."""
    pts = np.concatenate([a.values, b.values])
    d_right = np.abs(a.eval(pts) - b.eval(pts)).max()
    d_left = np.abs(left_limit(a, pts) - left_limit(b, pts)).max()
    return float(max(d_right, d_left))


class TestSupNormMatchesMergedFormula:
    """The smaller-sample breakpoint scan returns the merged formula's float exactly."""

    @staticmethod
    def _draw(rng, size, kind):
        if kind == "ties":
            return rng.integers(0, 6, size).astype(float)
        if kind == "signed_ties":
            return rng.integers(-3, 4, size).astype(float)
        if kind == "signed":
            return rng.normal(size=size)
        return rng.exponential(size=size)

    def _assert_same(self, a, b):
        for x, y in ((a, b), (b, a)):
            assert sup_norm_distance(x, y) == merged_breakpoint_ks(x, y)

    def test_random_pairs_of_different_sizes(self):
        rng = np.random.default_rng(20220627)
        for i in range(2000):
            # Half of the pairs are integer-valued with heavy ties.
            kind = ("ties", "signed_ties", "continuous", "signed")[i % 4]
            m = int(rng.integers(1, 300))
            n = int(rng.integers(1, 3000))
            if m == n:
                n += 1
            xs, ys = self._draw(rng, m, kind), self._draw(rng, n, kind)
            make = signed_cdf if kind.startswith("signed") else build_cdf
            self._assert_same(make(xs), make(ys))

    def test_equal_sizes(self):
        rng = np.random.default_rng(7)
        for i in range(300):
            kind = ("ties", "continuous", "signed")[i % 3]
            n = int(rng.integers(1, 200))
            make = signed_cdf if kind == "signed" else build_cdf
            self._assert_same(make(self._draw(rng, n, kind)), make(self._draw(rng, n, kind)))

    def test_single_point_samples(self):
        rng = np.random.default_rng(11)
        for i in range(300):
            kind = ("ties", "continuous", "signed")[i % 3]
            n = int(rng.integers(1, 500))
            make = signed_cdf if kind == "signed" else build_cdf
            self._assert_same(make(self._draw(rng, 1, kind)), make(self._draw(rng, n, kind)))


class TestRowsKernelMatchesMergedFormula:
    """sup_norm_distances gives each row the merged formula's float exactly."""

    @pytest.mark.parametrize("n, big", [
        (1, 50), (7, 50), (50, 50), (200, 50), (1, 1), (3, 1), (40, 2000),
    ], ids=["n=1", "n<N", "n=N", "n>N", "both-one", "N=1", "n<<N"])
    @pytest.mark.parametrize("kind", ["ties", "signed_ties", "continuous", "shared"])
    def test_random_rows(self, n, big, kind):
        rng = np.random.default_rng(n * 1000 + big)
        draw = TestSupNormMatchesMergedFormula._draw
        if kind == "shared":
            # Continuous values, most of them also in the reference.
            pool = rng.exponential(size=max(n, big))
            ref_values = rng.choice(pool, big)
            rows = rng.choice(pool, (9, n))
        else:
            ref_values = draw(rng, big, kind)
            rows = np.stack([draw(rng, n, kind) for _ in range(9)])
        rows = np.sort(rows, axis=1)
        ref = signed_cdf(ref_values)
        got = sup_norm_distances(rows, ref)
        assert got.shape == (9,)
        for row, d in zip(rows, got):
            a = signed_cdf(row)
            want = merged_breakpoint_ks(a, ref)
            assert d == want
            assert sup_norm_distance(a, ref) == want == sup_norm_distance(ref, a)


class TestWasserstein:
    def test_identical_is_zero(self):
        c = build_cdf([1, 2])
        assert wasserstein1(c, c, 10.0) == 0.0

    def test_unit_transport(self):
        assert wasserstein1(build_cdf([0]), build_cdf([1]), 1.0) == pytest.approx(1.0)

    def test_half_gap_example(self):
        a = build_cdf([0, 1])
        b = build_cdf([0, 2])
        assert wasserstein1(a, b, 2.0) == pytest.approx(0.5)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            wasserstein1(build_cdf([0, 3]), build_cdf([0, 1]), 2.0)

    def test_equal_size_samples_are_sorted_differences(self):
        # For equal-size samples W1 is the mean absolute difference of order stats.
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 5, 20))
        ys = np.sort(rng.uniform(0, 5, 20))
        expect = np.mean(np.abs(xs - ys))
        assert wasserstein1(build_cdf(xs), build_cdf(ys), 5.0) == pytest.approx(expect)

    @given(finite_losses, finite_losses)
    @settings(max_examples=60)
    def test_dominated_by_sup_norm(self, xs, ys):
        a, b = build_cdf(xs), build_cdf(ys)
        assert wasserstein1(a, b, 100.0) <= 100.0 * sup_norm_distance(a, b) + 1e-9


class TestMoment:
    def test_examples(self):
        assert moment(build_cdf([1, 2, 3]), 1) == pytest.approx(2.0)
        assert moment(build_cdf([1, 2, 3]), 2) == pytest.approx(14 / 3)
        assert moment(build_cdf([2.5] * 7), 3) == pytest.approx(2.5 ** 3)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            moment(build_cdf([1.0]), 0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_overflow_names_the_order_without_warning(self, k):
        cdf = build_cdf([1.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moment(cdf, 1) == 5e199
            with pytest.raises(NumericError, match=rf"^moment of order {k} is not finite: inf$"):
                moment(cdf, k)

    @given(finite_losses, st.integers(min_value=1, max_value=4))
    def test_matches_direct_summation(self, losses, k):
        expect = sum(v ** k for v in losses) / len(losses)
        assert moment(build_cdf(losses), k) == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestCsvRoundTrip:
    def test_read_and_export(self, tmp_path):
        src = tmp_path / "losses.csv"
        src.write_text("loss\n1\n1\n1\n2\n")
        losses = read_losses_csv(src, has_header=True)
        c = build_cdf(losses)
        out = tmp_path / "cdf.csv"
        write_cdf_csv(c, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "breakpoint,cumulative_probability"
        assert lines[1].startswith("1,") and float(lines[1].split(",")[1]) == 0.75
        assert lines[2].startswith("2,") and float(lines[2].split(",")[1]) == 1.0

    def test_headerless(self, tmp_path):
        src = tmp_path / "plain.csv"
        src.write_text("0.5\n0.25\n")
        assert read_losses_csv(src).tolist() == [0.5, 0.25]
