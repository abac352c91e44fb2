import functools
import itertools
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcdf.bounds import certificate
from riskcdf.errors import ConfigError, FormatError, InvalidLoss, ShapeError, TooLarge
from riskcdf.permcomplexity import (
    LossMatrix,
    _cover_witnesses,
    _distinct_orders,
    _permutation_table,
    exact_min_permutations,
    greedy_min_permutations,
    load_loss_matrix_csv,
    monte_carlo_permutation_complexity,
    permutation_sorts,
    weak_order,
)
from riskcdf.seeds import standard_normal


def distinct_weak_orders(m):
    """The distinct weak orders of a matrix's rows, in first-seen order, as the
    cover build and greedy form them."""
    return [tuple(r) for r in _distinct_orders(m.rows)[1].tolist()]


def brute_force_min_cover(rows):
    """Oracle: smallest k such that some k-subset of all permutations sorts every row.

    Exhaustive over subset sizes of the distinct, maximal cover sets (any
    optimal cover can be rewritten with maximal sets only, so the
    restriction loses nothing).
    """
    n = rows.shape[1]
    orders = list({weak_order(row) for row in rows})
    covers = {
        frozenset(j for j, w in enumerate(orders) if permutation_sorts(p, w))
        for p in itertools.permutations(range(n))
    }
    covers = [c for c in covers if not any(c < other for other in covers)]
    universe = frozenset(range(len(orders)))
    for k in range(1, len(orders) + 1):
        for combo in itertools.combinations(covers, k):
            if frozenset().union(*combo) == universe:
                return k
    raise AssertionError("unreachable: each order is sorted by its own argsort")


def _cover_masks(perms: np.ndarray, orders: list) -> list[int]:
    """Oracle: bitmask over weak orders (bit j) sorted by each permutation (row).

    The per-order loop over explicit permutations that the matrix-product
    cover build replaced; at most 64 orders, as for the exact solver.
    """
    ranks = np.asarray(orders, dtype=np.intp)
    k = ranks.shape[0]
    ok = np.empty((perms.shape[0], k), dtype=bool)
    for j in range(k):
        r = ranks[j][perms]
        ok[:, j] = np.all(r[:, 1:] >= r[:, :-1], axis=1)
    shifted = ok.astype(np.uint64) << np.arange(k, dtype=np.uint64)
    return shifted.sum(axis=1, dtype=np.uint64).tolist()


def cover_witnesses_oracle(rows):
    """Oracle: distinct weak orders (per-row ``np.unique`` ranks, first seen
    first) and each distinct non-empty cover mask with its first witness
    among ``itertools.permutations``."""
    orders = list(dict.fromkeys(tuple(np.unique(row, return_inverse=True)[1].tolist())
                                for row in rows))
    perm_tuples, perms = _all_permutations(rows.shape[1])
    mask_to_perm: dict = {}
    for perm, mask in zip(perm_tuples, _cover_masks(perms, orders)):
        if mask and mask not in mask_to_perm:
            mask_to_perm[mask] = perm
    return orders, mask_to_perm


@functools.cache
def _all_permutations(n):
    perm_tuples = list(itertools.permutations(range(n)))
    return perm_tuples, np.asarray(perm_tuples, dtype=np.intp)


def one_product_cover_witnesses(orders):
    """Oracle: ``_cover_witnesses`` as one product over all n! permutations,
    with int64 positions and full-size float32 and bool temporaries, as it
    was before the cover build went in blocks."""
    n = orders.shape[1]
    perms = _all_permutations(n)[1]
    pos = np.argsort(perms, axis=1)
    a, b = np.triu_indices(n, 1)
    prec = (pos[:, a] < pos[:, b]).astype(np.float32)
    lt = (orders[:, a] < orders[:, b]).T.astype(np.float32)
    gt = (orders[:, a] > orders[:, b]).T.astype(np.float32)
    sorts = np.zeros((perms.shape[0], 64), dtype=bool)
    sorts[:, : orders.shape[0]] = prec @ (gt - lt) == -lt.sum(axis=0)
    codes = np.packbits(sorts, bitorder="little").view("<u8")
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return {mask: tuple(perms[p].tolist()) for mask, p in zip(codes[first].tolist(), first) if mask}


def pinned_matrix(seed, k):
    """The k-th pinned input, shaped like the benchmark's: even k exact-sized
    integers 0..3 (n 5..8, 8..64 rows), odd k continuous (n 12, 16..64 rows)."""
    rng = np.random.default_rng([seed, k])
    if k % 2 == 0:
        n = 5 + (k // 2) % 4
        rows = int(rng.integers(8, 65))
        return rng.integers(0, 4, size=(rows, n)).astype(float)
    rows = int(rng.integers(16, 65))
    return rng.random((rows, 12))


# (value, witnesses) of both solvers on the pinned inputs as the per-order
# cover build (``_cover_masks`` above) and the unmemoised search gave them;
# each permutation is a string of hex digits.
PINS = json.loads((Path(__file__).parent / "data" / "permcomplexity_pins.json").read_text())


def _unpin(result):
    value, witnesses = result
    return value, [tuple(int(c, 16) for c in p) for p in witnesses]


def all_binary_patterns(n):
    return np.asarray(list(itertools.product([0.0, 1.0], repeat=n)))


class TestWeakOrder:
    def test_strict_order(self):
        assert weak_order([5, 1, 3]) == (2, 0, 1)

    def test_total_tie(self):
        assert weak_order([2, 2, 2]) == (0, 0, 0)

    def test_duplicate_minimum(self):
        assert weak_order([1, 3, 1]) == (0, 1, 0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidLoss):
            weak_order([1.0, float("nan")])

    def test_monotone_transform_invariance(self):
        base = np.array([0.3, -1.2, 5.0, 0.3])
        assert weak_order(base) == weak_order(np.exp(base))

    def test_sorting_semantics(self):
        w = weak_order([1, 3, 1])
        assert permutation_sorts((0, 2, 1), w)
        assert permutation_sorts((2, 0, 1), w)
        assert not permutation_sorts((1, 0, 2), w)

    def test_matrix_rejected(self):
        with pytest.raises(ShapeError):
            weak_order([[3, 1], [2, 0]])

    @pytest.mark.parametrize("perm, ranks", [
        ((0,), (0, 1)),            # too short
        ((0, 0, 1), (0, 1, 2)),    # repeated index
        ((0, 1, 3), (0, 1, 2)),    # index past the end
        ((-1, 0, 1), (0, 1, 2)),   # negative index
    ], ids=["short", "repeat", "past-end", "negative"])
    def test_non_permutation_rejected(self, perm, ranks):
        with pytest.raises(ShapeError):
            permutation_sorts(perm, ranks)


class TestCoverBuild:
    def test_matches_per_order_oracle_with_ties(self):
        # Heavy ties (2-4 levels, some rows repeated) across every exact size.
        rng = np.random.default_rng(2026)
        for i in range(500):
            n = 8 if i % 10 == 0 else int(rng.integers(1, 8))
            n_rows = int(rng.integers(1, 65 if n < 8 else 25))
            rows = rng.integers(0, int(rng.integers(2, 5)), size=(n_rows, n)).astype(float)
            if n_rows > 1 and rng.random() < 0.3:
                rows[rng.integers(0, n_rows)] = rows[0]
            orders, expected = cover_witnesses_oracle(rows)
            assert distinct_weak_orders(LossMatrix(rows)) == orders
            got = _cover_witnesses(np.asarray(orders, dtype=np.intp))
            assert list(got.items()) == list(expected.items())

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("count", [1, 63, 64])
    def test_matches_one_product_oracle_at_large_n(self, n, count):
        # 64 orders set the mask's top bit.
        rows = np.random.default_rng([n, count]).integers(0, 4, size=(400, n)).astype(float)
        orders = _distinct_orders(rows)[1][:count]
        assert orders.shape[0] == count
        got = _cover_witnesses(orders)
        assert list(got.items()) == list(one_product_cover_witnesses(orders).items())
        if count == 64:
            assert any(mask >> 63 for mask in got)

    @pytest.mark.parametrize("n", [7, 8])
    def test_all_tie_rows_match_one_product_oracle(self, n):
        tie = np.zeros((1, n), dtype=np.intp)
        got = _cover_witnesses(tie)
        assert list(got.items()) == [(1, tuple(range(n)))]
        rows = np.random.default_rng(n).integers(0, 3, size=(80, n)).astype(float)
        rows[[0, 5]] = 2.0
        orders = _distinct_orders(rows)[1][:64]
        assert not orders[0].any()
        got = _cover_witnesses(orders)
        assert list(got.items()) == list(one_product_cover_witnesses(orders).items())

    # tracemalloc counts bytes, so the tests below time nothing.  With full
    # n!-row temporaries a cold solve peaked at 24.4 MB and a warm cover
    # build at 15.5 MB; the cached n = 8 table, uint8 permutations and intp
    # consecutive-pair codes, is 2.6 MB.
    ROWS = np.random.default_rng(64).integers(0, 4, size=(64, 8)).astype(float)

    @staticmethod
    def _peak_bytes(solve):
        tracemalloc.start()
        try:
            solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cold_solve_peak_memory(self):
        _permutation_table.cache_clear()
        try:
            peak = self._peak_bytes(lambda: exact_min_permutations(LossMatrix(self.ROWS)))
        finally:
            _permutation_table.cache_clear()
        assert peak <= 5e6

    def test_cached_table_size(self):
        try:
            assert sum(a.nbytes for a in _permutation_table(8)) <= 3e6
        finally:
            _permutation_table.cache_clear()

    def test_warm_cover_peak_memory(self):
        orders = _distinct_orders(self.ROWS)[1]
        try:
            _cover_witnesses(orders)
            peak = self._peak_bytes(lambda: _cover_witnesses(orders))
        finally:
            _permutation_table.cache_clear()
        assert peak <= 2.5e6

    def test_weak_order_matches_unique_ranks(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            row = rng.integers(-3, 3, size=int(rng.integers(1, 30))) * 0.5
            assert weak_order(row) == tuple(np.unique(row, return_inverse=True)[1].tolist())


@pytest.mark.parametrize("entry", PINS["matrices"], ids=lambda e: f"k{e['k']}")
def test_pinned_outputs(entry):
    m = LossMatrix(pinned_matrix(PINS["seed"], entry["k"]))
    assert greedy_min_permutations(m) == _unpin(entry["greedy"])
    if "exact" in entry:
        assert exact_min_permutations(m) == _unpin(entry["exact"])


class TestExactSolver:
    def test_single_hypothesis(self):
        count, witnesses = exact_min_permutations(LossMatrix([[3.0, 1.0, 2.0]]))
        assert count == 1
        assert permutation_sorts(witnesses[0], weak_order([3.0, 1.0, 2.0]))

    def test_monotone_family_needs_one(self):
        base = np.array([0.7, 0.1, 0.4, 0.9])
        rows = np.stack([base, 2 * base + 1, base ** 3, np.tanh(base)])
        count, _ = exact_min_permutations(LossMatrix(rows))
        assert count == 1

    def test_all_binary_patterns_n3(self):
        rows = all_binary_patterns(3)
        count, witnesses = exact_min_permutations(LossMatrix(rows))
        # Four permutations are sufficient; the true minimum is 3 (frozen
        # from the brute-force cover oracle below).
        assert count <= 4
        assert count == 3
        assert count == brute_force_min_cover(rows)
        for row in rows:
            w = weak_order(row)
            assert any(permutation_sorts(p, w) for p in witnesses)

    def test_memoised_search_on_binary_rows(self):
        # Sixty 0/1 rows on 7 points reach the same uncovered sets along many
        # branches; a search that revisits them took 178 s (2-vCPU Xeon VM)
        # to this same result, which the memo reaches in well under a second.
        rows = np.random.default_rng(2).integers(0, 2, size=(60, 7)).astype(float)
        start = time.perf_counter()
        result = exact_min_permutations(LossMatrix(rows))
        assert time.perf_counter() - start < 10.0
        assert result == _unpin([16, [
            "3502146", "6014235", "3042156", "6251340", "6021345", "1205346",
            "1430256", "6513420", "2410356", "3504612", "6431250", "6210345",
            "6231450", "6435120", "1524306", "3512406",
        ]])

    def test_too_large_rejected(self):
        with pytest.raises(TooLarge):
            exact_min_permutations(LossMatrix(np.zeros((2, 9))))

    def test_limit_counts_distinct_orders(self):
        # 100 rows of one weak order: one permutation sorts them all.
        m = LossMatrix(np.tile([2.0, 0.0, 1.0, 1.0, 3.0], (100, 1)))
        assert exact_min_permutations(m) == (1, [(1, 2, 3, 0, 4)])
        orders = np.asarray(list(itertools.permutations(range(5)))[:65], dtype=float)
        with pytest.raises(TooLarge, match="limited to 64 distinct weak orders; got 65"):
            exact_min_permutations(LossMatrix(np.vstack([orders, orders])))

    def test_exact_beats_row_argsort_pool(self):
        # The exact optimum may use permutations that are no row's argsort:
        # on the full binary cube greedy's pool can need more.
        rows = all_binary_patterns(4)
        exact, _ = exact_min_permutations(LossMatrix(rows))
        greedy, _ = greedy_min_permutations(LossMatrix(rows))
        assert exact <= greedy

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_on_random_instances(self, n_rows, n_pts, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, size=(n_rows, n_pts)).astype(float)
        count, witnesses = exact_min_permutations(LossMatrix(rows))
        assert count == brute_force_min_cover(rows)
        for row in rows:
            w = weak_order(row)
            assert any(permutation_sorts(p, w) for p in witnesses)


class TestGreedySolver:
    def test_identical_rows(self):
        count, _ = greedy_min_permutations(LossMatrix(np.tile([2.0, 0.0, 1.0], (5, 1))))
        assert count == 1

    def test_capped_by_class_size(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(size=(12, 30))
        count, witnesses = greedy_min_permutations(LossMatrix(rows))
        assert count <= 12
        for row in rows:
            w = weak_order(row)
            assert any(permutation_sorts(p, w) for p in witnesses)

    @pytest.mark.parametrize("n_rows", [65, 100, 300])
    def test_more_than_64_weak_orders(self, n_rows):
        rows = np.random.default_rng(n_rows).uniform(size=(n_rows, 12))
        m = LossMatrix(rows)
        assert len(distinct_weak_orders(m)) == n_rows
        count, witnesses = greedy_min_permutations(m)
        assert count == len(witnesses) <= n_rows
        for row in rows:
            w = weak_order(row)
            assert any(permutation_sorts(p, w) for p in witnesses)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=12),
           st.booleans(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_witnesses_sort_every_row(self, n_rows, n_pts, ties, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.integers(0, 3, size=(n_rows, n_pts)).astype(float) if ties
                else rng.uniform(size=(n_rows, n_pts)))
        count, witnesses = greedy_min_permutations(LossMatrix(rows))
        distinct = {tuple(np.unique(row, return_inverse=True)[1]) for row in rows}
        assert count == len(witnesses) <= len(distinct)
        along = rows[:, np.array(witnesses)]  # (row, witness, position)
        assert np.all(np.any(np.all(np.diff(along, axis=2) >= 0, axis=2), axis=1))

    def test_large_n_peak_memory(self):
        # At this size ranks are gathered eight orders at a time, O(rows * n);
        # the exact solver's table over the (a, b) pairs would take n^2 bits
        # per order, 750 MB here.
        rows = np.random.default_rng(60).uniform(size=(60, 10_000))
        m = LossMatrix(rows)
        tracemalloc.start()
        try:
            count, witnesses = greedy_min_permutations(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 49e6
        assert count == len(witnesses) <= 60
        for row in rows:
            w = weak_order(row)
            assert any(permutation_sorts(p, w) for p in witnesses)

    def test_many_orders_peak_memory(self):
        # 4,000 distinct orders: their cover masks take one bit per
        # (candidate, order), 2 MB, where one byte each would take 16 MB.
        rows = np.random.default_rng(61).uniform(size=(4000, 12))
        m = LossMatrix(rows)
        tracemalloc.start()
        try:
            count, witnesses = greedy_min_permutations(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"
        assert count == len(witnesses) <= 4000

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=7),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_greedy_at_least_exact(self, n_rows, n_pts, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 4, size=(n_rows, n_pts)).astype(float)
        m = LossMatrix(rows)
        exact, _ = exact_min_permutations(m)
        greedy, _ = greedy_min_permutations(m)
        distinct = len(distinct_weak_orders(m))
        assert exact <= greedy <= distinct <= n_rows

    def test_row_deletion_never_increases_exact(self):
        rng = np.random.default_rng(17)
        rows = rng.integers(0, 3, size=(5, 5)).astype(float)
        full, _ = exact_min_permutations(LossMatrix(rows))
        for i in range(rows.shape[0]):
            sub, _ = exact_min_permutations(LossMatrix(np.delete(rows, i, axis=0)))
            assert sub <= full

    def test_bound_ordering_vs_finite_class(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(size=(10, 6))
        m = LossMatrix(rows)
        exact, _ = exact_min_permutations(m)
        greedy, _ = greedy_min_permutations(m)
        n = m.n_points
        for value in (exact, greedy):
            permutation = certificate("permutation", n, 1.0, value).rademacher_bound
            assert permutation <= certificate("finite_class", n, 1.0, 10).rademacher_bound


def _scalar_sampler(rng, size):
    return standard_normal(rng, (size, 1)), np.zeros(size)


class TestMonteCarlo:
    def test_no_models_raise_before_drawing(self):
        def sampler(rng, size):
            raise AssertionError("drew data for no model")

        with pytest.raises(ConfigError, match="at least one model"):
            monte_carlo_permutation_complexity([], sampler, n=4, reps=3, seed=0)

    def test_monotone_family_mean_exactly_one(self):
        fns = [
            lambda X, y: X[:, 0],
            lambda X, y: np.exp(X[:, 0]),
            lambda X, y: 3.0 * X[:, 0] + 1.0,
        ]
        est = monte_carlo_permutation_complexity(fns, _scalar_sampler, n=6, reps=20, seed=5)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert set(est.solvers) == {"exact"}

    def test_finite_class_cap(self):
        rng = np.random.default_rng(2)
        mats = [rng.uniform(size=2) for _ in range(3)]
        fns = [lambda X, y, w=w: X[:, 0] * w[0] + X[:, 0] ** 2 * w[1] for w in mats]
        est = monte_carlo_permutation_complexity(fns, _scalar_sampler, n=5, reps=15, seed=8)
        assert est.mean <= 3.0

    def test_identical_models_collapse(self):
        fns = [lambda X, y: np.abs(X[:, 0]), lambda X, y: np.abs(X[:, 0])]
        est = monte_carlo_permutation_complexity(fns, _scalar_sampler, n=4, reps=10, seed=3)
        assert est.mean == 1.0

    def test_many_rows_of_few_orders_solved_exactly(self):
        fns = [lambda X, y, c=c: X[:, 0] + c for c in range(70)]
        est = monte_carlo_permutation_complexity(fns, _scalar_sampler, n=6, reps=3, seed=5)
        assert est.values.tolist() == [1.0] * 3
        assert est.solvers == ("exact",) * 3

    def test_large_instance_needs_flag(self):
        fns = [lambda X, y: X[:, 0]]
        with pytest.raises(TooLarge):
            monte_carlo_permutation_complexity(fns, _scalar_sampler, n=9, reps=2, seed=1)
        est = monte_carlo_permutation_complexity(fns, _scalar_sampler, n=9, reps=2, seed=1,
                                                 allow_greedy=True)
        assert set(est.solvers) == {"greedy"}

    @pytest.mark.parametrize("n, reps", [(4, 0), (4, -1), (0, 3)])
    def test_empty_draws_rejected(self, n, reps):
        fns = [lambda X, y: X[:, 0]]
        with pytest.raises(ConfigError, match="reps >= 1"):
            monte_carlo_permutation_complexity(fns, _scalar_sampler, n=n, reps=reps, seed=1)

    @pytest.mark.parametrize("arg, value", [("n", 2.5), ("n", True), ("reps", 2.5),
                                            ("reps", True)])
    def test_non_integer_counts_rejected(self, arg, value):
        fns = [lambda X, y: X[:, 0]]
        kwargs = {"n": 4, "reps": 3, arg: value}
        with pytest.raises(ConfigError, match=rf"needs integers .* {arg}={value!r}"):
            monte_carlo_permutation_complexity(fns, _scalar_sampler, seed=1, **kwargs)

    def test_reps_beyond_memory_are_config_error(self):
        # 1e19 exceeds numpy's largest dimension, so nothing is ever allocated.
        def sampler(rng, size):
            raise AssertionError("drew data for repetitions it cannot hold")

        with pytest.raises(ConfigError, match=f"cannot hold {10 ** 19} repetitions in memory$"):
            monte_carlo_permutation_complexity([lambda X, y: X[:, 0]], sampler, n=4,
                                               reps=10 ** 19, seed=1)

    def test_wrong_loss_count_is_a_shape_error(self):
        fns = [lambda X, y: X[:, 0], lambda X, y: X[1:, 0]]
        with pytest.raises(ShapeError, match=r"^loss function 1 returned 4 losses for 5 rows$"):
            monte_carlo_permutation_complexity(fns, _scalar_sampler, n=5, reps=2, seed=1)


class TestLossMatrix:
    def test_caller_array_stays_writable(self):
        rows = np.ones((2, 3))
        m = LossMatrix(rows)
        assert rows.flags.writeable and not m.rows.flags.writeable
        with pytest.raises(ValueError):
            m.rows[0, 0] = np.nan

    def test_caller_writes_leave_the_rows_alone(self):
        rows = np.ones((2, 3))
        m = LossMatrix(rows)
        rows[0, 0] = np.nan
        assert m.rows.tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("rows, error, match", [
        ([1.0, 2.0, 3.0], FormatError, "^loss matrix must be 2-D and non-empty$"),
        ([[1.0, np.nan], [2.0, 3.0]], InvalidLoss, "^loss matrix entries must be finite$"),
    ], ids=["one-dimensional", "nan-entry"])
    def test_rejected(self, rows, error, match):
        with pytest.raises(error, match=match):
            LossMatrix(np.array(rows))


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,1\n0,1,1\n1,1,1\n")
        m = load_loss_matrix_csv(path)
        assert m.n_hypotheses == 3 and m.n_points == 3
        count, _ = exact_min_permutations(m)
        assert count == 1  # all rows already non-decreasing

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0,1,2\n")
        with pytest.raises(Exception):
            load_loss_matrix_csv(path)
