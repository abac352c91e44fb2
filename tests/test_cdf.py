import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskcdf.cdf
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
    """An EmpiricalCDF holds a sorted, read-only copy of a 1-D, NaN-free
    sample; anything else is a data error (exit code 3) that names where the
    sample goes wrong."""

    def test_unsorted_sample_is_sorted_into_a_copy(self):
        rng = np.random.default_rng(12)
        sample = rng.integers(0, 9, 200) * rng.choice([-1.0, -0.0, 0.0, 0.5], 200)
        before = sample.copy()
        cdf, ordered = EmpiricalCDF(sample), EmpiricalCDF(np.sort(sample))
        assert sample.tobytes() == before.tobytes()
        assert np.array_equal(cdf.values, ordered.values)  # -0.0 and 0.0 may swap
        for got, want in zip(cdf.breakpoints(), ordered.breakpoints()):
            assert got.tobytes() == want.tobytes()
        rows = np.sort(rng.integers(-8, 9, (5, 40)) * 0.5, axis=1)
        assert np.array_equal(sup_norm_distances(rows, cdf), sup_norm_distances(rows, ordered))

    def test_caller_writes_leave_the_cdf_and_its_index_alone(self):
        # A write to the caller's array after a KS call reaches neither the
        # values nor the bucket index that call cached.
        rng = np.random.default_rng(13)
        sample = np.sort(rng.exponential(size=1000))
        rows = np.sort(rng.exponential(size=(2, 50)), axis=1)
        cdf = EmpiricalCDF(sample)
        sup_norm_distances(rows, cdf)
        sample *= 3.0
        assert np.array_equal(sup_norm_distances(rows, cdf),
                              sup_norm_distances(rows, EmpiricalCDF(sample / 3.0)))

    @pytest.mark.parametrize("values, position", [([np.nan], 0), ([1.0, np.nan, 2.0], 1),
                                                  ([1.0, 2.0, np.nan], 2)])
    def test_nan_rejected(self, values, position):
        with pytest.raises(InvalidLoss, match=rf"values\[{position}\] is NaN$"):
            EmpiricalCDF(np.array(values))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ShapeError, match=r"1-D, got shape \(2, 2\)$"):
            EmpiricalCDF(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_caller_array_stays_writable(self):
        a = np.array([1.0, 2.0, 3.0])
        cdf = EmpiricalCDF(a)
        assert a.flags.writeable and not cdf.values.flags.writeable
        with pytest.raises(ValueError):
            cdf.values[0] = 0.0

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

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (0, 4), (1, 2, 3)])
    def test_rows_must_be_non_empty_and_2d(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            sup_norm_distances(np.zeros(shape), build_cdf([1, 2, 3]))


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
    @pytest.mark.parametrize("kind", ["ties", "signed_ties", "continuous", "shared", "constant"])
    def test_random_rows(self, n, big, kind):
        rng = np.random.default_rng(n * 1000 + big)
        draw = TestSupNormMatchesMergedFormula._draw
        if kind == "constant":
            # One run spans each row; the first five rows' values are reference points.
            ref_values = draw(rng, big, "signed_ties")
            values = np.concatenate([rng.choice(ref_values, 5), rng.integers(-4, 5, 4) + 0.5])
            rows = np.repeat(values[:, np.newaxis], n, axis=1)
        elif kind == "shared":
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


def sorted_search_ks(rows, reference):
    """The kernel before the bucket index: every point of every row searched."""
    m, n = rows.shape
    ref = reference.values
    below = np.searchsorted(ref, rows.reshape(-1), side="left").reshape(m, n)
    at_most = below.copy()
    diff = ref.take(below, mode="clip")
    hit = diff == rows
    at_most[hit] = np.searchsorted(ref, rows[hit], side="right")
    np.divide(at_most, reference.n, out=diff)
    np.subtract(np.arange(1, n + 1) / n, diff, out=diff)
    value_side = diff.max(axis=1)
    np.divide(below, reference.n, out=diff)
    diff -= np.arange(n) / n
    return np.maximum(value_side, diff.max(axis=1), out=value_side)


def assert_matches_sorted_search(rows, ref_values):
    """sup_norm_distances on the sorted rows equals the full search's floats."""
    ref = signed_cdf(np.asarray(ref_values, dtype=float))
    rows = np.sort(np.asarray(rows, dtype=float), axis=1)
    got = sup_norm_distances(rows, ref)
    assert np.array_equal(got, sorted_search_ks(rows, ref))
    return ref


class TestBucketKernelMatchesSortedSearch:
    """Searching only the points that can attain a row's maximum gives the
    same floats as searching every point."""

    def test_random_tie_heavy_rows(self):
        rng = np.random.default_rng(38)
        buckets = 0
        for i in range(400):
            big = int(rng.integers(1, 4000))
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, 12))
            levels = int(rng.integers(1, 60))
            if i % 2:
                # Integer values with heavy ties; rows reach past both ends.
                ref_values = rng.integers(0, levels, big).astype(float)
                rows = rng.integers(-3, levels + 3, (m, n)).astype(float)
            else:
                # Continuous values, most rows' points also reference points.
                pool = rng.exponential(size=levels * 20)
                ref_values = rng.choice(pool, big)
                rows = rng.choice(pool, (m, n))
            ref = assert_matches_sorted_search(rows, ref_values)
            buckets += ref._buckets().below.size > 2
        assert buckets > 200  # most cases search the buckets' candidates only

    @pytest.mark.parametrize("ref_values", [
        np.full(100, 2.0),
        np.full(100, np.inf),
        np.full(100, -np.inf),
        np.r_[np.full(50, -np.inf), np.full(50, np.inf)],
        np.r_[-np.inf, np.full(98, 3.0), np.inf],
        np.r_[0.0, np.full(98, 5e-324)],  # B / span overflows
    ], ids=["all-equal", "all-inf", "all-minus-inf", "only-infinities", "one-finite-value",
            "subnormal-span"])
    def test_one_bucket_references(self, ref_values):
        rng = np.random.default_rng(3)
        rows = rng.choice(np.r_[ref_values, -1.0, 2.0, 3.0, 4.0, -np.inf, np.inf], (7, 40))
        ref = assert_matches_sorted_search(rows, ref_values)
        assert np.array_equal(ref._buckets().below, [0.0, 1.0])

    def test_infinite_endpoints(self):
        rng = np.random.default_rng(5)
        ref_values = np.r_[np.full(30, -np.inf), rng.integers(0, 20, 500), np.full(30, np.inf)]
        rows = rng.choice(np.r_[ref_values, -np.inf, np.inf, -1.0, 25.0], (9, 60))
        ref = assert_matches_sorted_search(rows, ref_values)
        assert ref._buckets().below.size > 2

    def test_overflowing_span(self):
        rng = np.random.default_rng(6)
        ref_values = np.r_[-1e308, rng.normal(size=500), 1e308]
        rows = rng.choice(np.r_[ref_values, -1.7e308, 1.7e308, 0.5], (9, 60))
        ref = assert_matches_sorted_search(rows, ref_values)
        assert np.array_equal(ref._buckets().below, [0.0, 1.0])

    def test_points_below_and_above_the_reference(self):
        rng = np.random.default_rng(7)
        ref_values = rng.uniform(10.0, 20.0, 1000)
        rows = np.r_[rng.uniform(-5.0, 10.0, (3, 50)), rng.uniform(20.0, 30.0, (3, 50)),
                     rng.uniform(0.0, 30.0, (3, 50)), np.full((1, 50), 1.7e308),
                     np.full((1, 50), -1.7e308)]
        assert_matches_sorted_search(rows, ref_values)

    @pytest.mark.parametrize("big", [1, 2, 15, 16, 31, 32, 33])
    def test_small_references(self, big):
        rng = np.random.default_rng(big)
        for _ in range(20):
            assert_matches_sorted_search(rng.integers(-1, 6, (5, 9)), rng.integers(0, 5, big))

    def test_single_point_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert_matches_sorted_search(rng.integers(-1, 12, (20, 1)), rng.integers(0, 10, 500))

    def test_single_row(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            assert_matches_sorted_search(rng.integers(-1, 12, (1, n)), rng.integers(0, 10, 500))

    def test_float32_rows(self):
        # Float32 points at 1e7 are integers, and the reference's least value
        # 1e7 - 0.5 is not one: bucketed in float32, every point would move
        # half a unit against the reference values a float64 step below it.
        rng = np.random.default_rng(11)
        pool = (1e7 + rng.uniform(0.0, 100.0, 2000)).astype(np.float32)
        near = np.nextafter(pool.astype(np.float64), -np.inf)
        ref = signed_cdf(np.r_[1e7 - 0.5, near, pool])
        assert ref._buckets().below.size > 2
        for _ in range(20):
            rows = np.sort(rng.choice(pool, (6, 100)), axis=1)
            assert np.array_equal(sup_norm_distances(rows, ref), sorted_search_ks(rows, ref))

    def test_few_points_are_searched(self, monkeypatch):
        searched = []

        def recording(ref, x, value_level, left_level):
            searched.append(x.size)
            return one_sided_max(ref, x, value_level, left_level)

        one_sided_max = riskcdf.cdf._one_sided_max
        monkeypatch.setattr("riskcdf.cdf._one_sided_max", recording)
        rng = np.random.default_rng(10)
        assert_matches_sorted_search(rng.exponential(size=(10, 800)),
                                     rng.exponential(size=20_000))
        assert len(searched) == 1 and searched[0] < 800


class TestBucketIndex:
    """The reference's bucket index is built once, on the first KS call, and
    is no part of the sample's value."""

    def test_built_once_and_reused(self):
        ref = build_cdf(np.arange(1000.0))
        rows = np.sort(np.random.default_rng(1).uniform(0, 1000, (4, 30)), axis=1)
        assert ref._index is None
        first = sup_norm_distances(rows, ref)
        index = ref._index
        assert index is not None and index.below.size == 1000 // 16 + 1
        assert np.array_equal(sup_norm_distances(rows, ref), first)
        assert ref._index is index

    @pytest.mark.parametrize("values", [np.arange(1000.0), np.ones(1000)], ids=["many", "one"])
    def test_arrays_are_read_only(self, values):
        below = build_cdf(values)._buckets().below
        assert not below.flags.writeable
        with pytest.raises(ValueError):
            below[0] = 0.5

    def test_no_part_in_equality_or_repr(self):
        # A CDF compares by identity, so the index shows in no comparison; a
        # copy made by dataclasses.replace starts without one.
        a = build_cdf(np.arange(1000.0))
        b = EmpiricalCDF(a.values)
        a._buckets()
        c = dataclasses.replace(a)
        assert b._index is None and c._index is None and a._index is not None
        assert np.array_equal(c.values, a.values)
        assert repr(a) == repr(b) == repr(c) == "EmpiricalCDF()"

    @pytest.mark.parametrize("size", [5000, 16_385, 20_000])  # one, two and three build chunks
    def test_counts_each_bucket(self, size):
        values = np.sort(np.random.default_rng(2).exponential(size=size))
        index = EmpiricalCDF(values)._buckets()
        buckets = np.minimum(((values - index.lo) * index.scale).astype(int), size // 16 - 1)
        counts = np.bincount(buckets, minlength=size // 16)
        assert np.array_equal(index.below, np.r_[0, np.cumsum(counts)] / size)


class TestSupNormRejectsNaN:
    @pytest.mark.parametrize("big", [10, 1000])
    @pytest.mark.parametrize("rows, row, position", [
        ([[1.0, np.nan]], 0, 1),
        ([[0.0, 1.0, 2.0], [1.0, np.nan, 2.0]], 1, 1),
    ], ids=["last", "mid-row"])
    def test_names_the_row(self, rows, row, position, big):
        message = f"KS rows must not be NaN: row {row} has a NaN at position {position}"
        with pytest.raises(InvalidLoss, match=f"^{re.escape(message)}$"):
            sup_norm_distances(np.array(rows), EmpiricalCDF(np.arange(float(big))))


class TestSupNormRowOrder:
    @pytest.mark.parametrize("big", [10, 1000])  # a one-bucket and a bucketed reference
    @pytest.mark.parametrize("rows", [
        [[9.0, 0.0]],
        [[0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0]],
    ], ids=["two-points", "mid-row"])
    def test_any_order_is_the_sorted_rows(self, rows, big):
        rng = np.random.default_rng(big)
        rows = np.array(rows)
        tied = rng.integers(-1, 9, size=(6, 50)) * (big / 8)  # few values, many ties
        zero = tied == 0
        tied[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
        ref = EmpiricalCDF(np.arange(float(big)))
        for given in [rows, rng.permuted(rows, axis=1), rows[:, ::-1], tied,
                      rng.permuted(tied, axis=1)]:
            kept = given.copy()
            assert np.array_equal(sup_norm_distances(given, ref),
                                  sup_norm_distances(np.sort(given, axis=1), ref))
            assert given.tobytes() == kept.tobytes()  # the caller's array is not written

    @pytest.mark.parametrize("big", [10, 1000])
    def test_equal_values_pass(self, big):
        rows = np.array([[-0.0, 0.0, 0.0, 3.0], [0.0, -0.0, 3.0, 3.0]])
        ref = np.arange(float(big))
        expected = [brute_force_ks(row, ref) for row in rows]
        assert np.allclose(sup_norm_distances(rows, EmpiricalCDF(ref)), expected,
                           rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("k", [0, 2.0, 2.5, float("nan"), float("inf"), True])
    def test_invalid_order(self, k):
        with pytest.raises(InvalidOrder, match=re.escape(
                f"moment order must be a positive integer, got {k!r}")):
            moment(build_cdf([1.0]), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 10 ** 400], ids=["2", "3", "4", "1e400"])
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
        losses = read_losses_csv(src)
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


class TestBreakpoints:
    def test_equal_to_unique_points_and_their_levels(self):
        """The points are the sorted unique values plus 0.0 and the levels the
        CDF there, for nonnegative losses and for signed samples with ties,
        +-0.0 and +-inf in any order."""
        rng = np.random.default_rng(11)
        atoms = np.array([-np.inf, -2.5, -0.0, 0.0, 0.0, 1.0, 3.0, np.inf])
        samples = (
            lambda: build_cdf(rng.integers(0, int(rng.integers(1, 8)), int(rng.integers(1, 60)))
                              * rng.uniform(0.1, 3.0)),
            lambda: EmpiricalCDF(rng.choice(atoms[:int(rng.integers(1, 9))],
                                            int(rng.integers(1, 40)))),
        )
        for sample in samples:
            for _ in range(1000):
                cdf = sample()
                points, levels = cdf.breakpoints()
                unique = np.unique(cdf.values) + 0.0
                assert points.tobytes() == unique.tobytes()
                assert levels.tobytes() == cdf.eval(unique).tobytes()

    def test_negative_zero_is_written_as_zero_in_any_row_order(self, tmp_path):
        written = []
        for rows in ("-0\n0\n1\n", "0\n-0\n1\n"):
            src = tmp_path / "losses.csv"
            src.write_text(rows)
            points, levels = build_cdf(read_losses_csv(src)).breakpoints()
            assert not np.signbit(points).any() and levels.tolist() == [2 / 3, 1.0]
            write_cdf_csv(build_cdf(read_losses_csv(src)), tmp_path / "cdf.csv")
            written.append((tmp_path / "cdf.csv").read_bytes())
        assert written[0] == written[1]
        assert written[0].splitlines()[1].startswith(b"0,")
