"""Instance-dependent permutation complexity of a set of loss vectors.

Given one loss vector per hypothesis (a :class:`LossMatrix`), the
permutation complexity is the minimum number of permutations of the data
indices needed so that every row is sorted (non-decreasingly) by at least
one of them.  A permutation sorts a row iff it is a linear extension of the
row's tie-aware weak order, so the problem is a set cover over distinct
weak orders:

* :func:`exact_min_permutations` tests all n! permutations against every
  weak order in one matrix product and solves the cover exactly by
  memoised depth-first branch and bound (limits: n <= 8, at most 64 rows);
* :func:`greedy_min_permutations` covers greedily using only the rows' own
  sorting permutations, giving an upper bound that never exceeds the
  number of distinct weak orders; it handles any number of rows and any n;
* :func:`monte_carlo_permutation_complexity` averages instance values over
  fresh data draws.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bounds import _row_losses
from .data import read_numeric_csv
from .errors import ConfigError, FormatError, InvalidLoss, TooLarge
from .seeds import rng_from

__all__ = [
    "WeakOrder",
    "LossMatrix",
    "weak_order",
    "permutation_sorts",
    "exact_min_permutations",
    "greedy_min_permutations",
    "PermComplexityEstimate",
    "monte_carlo_permutation_complexity",
    "load_loss_matrix_csv",
]

EXACT_MAX_N = 8
EXACT_MAX_ROWS = 64


@dataclass(frozen=True)
class WeakOrder:
    """Tie-aware ranking of indices induced by a loss vector.

    ``ranks`` uses consecutive values starting at 0; equal losses share a
    rank.  A permutation sorts the order iff ranks are non-decreasing along
    it.
    """

    ranks: tuple[int, ...]


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of each row of a 2-D array, and the row's dense tie-aware ranks."""
    order = np.argsort(rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    dense = np.zeros(rows.shape, dtype=np.intp)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    return order, ranks


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in order of first occurrence."""
    _, first = np.unique(a, axis=0, return_index=True)
    return a[np.sort(first)]


def weak_order(losses) -> WeakOrder:
    """Dense tie-aware ranks of a loss vector."""
    arr = np.asarray(losses, dtype=np.float64).reshape(1, -1)
    if np.any(np.isnan(arr)):
        raise InvalidLoss("loss vector contains NaN")
    return WeakOrder(ranks=tuple(_rank_rows(arr)[1][0].tolist()))


def permutation_sorts(perm: Sequence[int], order: WeakOrder) -> bool:
    """True iff the permutation lists the indices in non-decreasing rank order."""
    ranks = order.ranks
    return all(ranks[perm[i]] <= ranks[perm[i + 1]] for i in range(len(perm) - 1))


@dataclass(frozen=True)
class LossMatrix:
    """One loss vector per hypothesis, evaluated on a shared dataset."""

    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise FormatError("loss matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise InvalidLoss("loss matrix entries must be finite")
        object.__setattr__(self, "rows", arr)

    @property
    def n_hypotheses(self) -> int:
        return self.rows.shape[0]

    @property
    def n_points(self) -> int:
        return self.rows.shape[1]


@functools.cache
def _permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of range(n) in lexicographic order, and their precedences.

    ``prec[p, k]`` is 1 iff permutation p lists a before b, for the k-th
    pair a < b of ``np.triu_indices(n, 1)``.  Both arrays are read-only:
    the cache hands them to every caller.
    """
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.intp, count=math.factorial(n) * n).reshape(-1, n)
    pos = np.argsort(perms, axis=1)
    a, b = np.triu_indices(n, 1)
    prec = (pos[:, a] < pos[:, b]).astype(np.float32)
    perms.flags.writeable = prec.flags.writeable = False
    return perms, prec


def _cover_witnesses(orders: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each distinct non-empty cover mask with its lexicographically first witness.

    ``orders`` holds at most 64 distinct weak orders as rank rows.  Bit j of
    a mask is set iff the witness permutation sorts order j; masks are keyed
    in the order their first witnesses appear among the n! permutations.
    """
    n = orders.shape[1]
    # Permutation p sorts order j iff it reverses no strict pair of j:
    # prec @ gt + (1 - prec) @ lt = prec @ (gt - lt) + sum(lt) is zero.
    # The float32 product is exact, as every count is at most n(n-1)/2.
    perms, prec = _permutation_table(n)
    a, b = np.triu_indices(n, 1)
    lt = (orders[:, a] < orders[:, b]).T.astype(np.float32)
    gt = (orders[:, a] > orders[:, b]).T.astype(np.float32)
    sorts = np.zeros((perms.shape[0], 64), dtype=bool)
    sorts[:, : orders.shape[0]] = prec @ (gt - lt) == -lt.sum(axis=0)
    codes = np.packbits(sorts, bitorder="little").view("<u8")
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return {mask: tuple(perms[p].tolist()) for mask, p in zip(codes[first].tolist(), first) if mask}


def greedy_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Greedy set-cover upper bound with per-row sorting permutations.

    Candidates are the rows' own stable argsort permutations (ties broken
    by original index), so the cover is always feasible and the result is
    at most the number of distinct weak orders.  Works for any number of
    rows and any n: memory is O(rows * n) plus one bit per (row, order).
    """
    perms, ranks = _rank_rows(m.rows)
    orders = _distinct_rows(ranks)
    # sorts[i, j]: row i's argsort lists order j's ranks non-decreasingly.
    # Orders go in blocks of about 2**20 gathered ranks, or one at a time.
    sorts = np.empty((perms.shape[0], orders.shape[0]), dtype=bool)
    block = max(1, 2**20 // perms.size)
    for lo in range(0, orders.shape[0], block):
        along = orders[lo : lo + block][:, perms]
        sorts[:, lo : lo + block] = np.all(along[..., 1:] >= along[..., :-1], axis=2).T
    # Bit j of a mask is set iff the permutation sorts order j.
    packed = np.packbits(sorts, axis=1, bitorder="little")
    candidates: dict[tuple[int, ...], int] = {}
    for perm_row, bits in zip(perms, packed):
        candidates.setdefault(tuple(perm_row.tolist()), int.from_bytes(bits.tobytes(), "little"))
    pool = list(candidates.items())
    chosen: list[tuple[int, ...]] = []
    remaining = (1 << orders.shape[0]) - 1
    # Each step takes the first candidate, in pool order, of largest gain.
    # Gains only shrink as orders get covered, so a heap keyed by
    # (-gain when pushed, index) finds it lazily: a popped candidate whose
    # fresh key is below every stale key beats every fresh key too.
    heap = [(-mask.bit_count(), i) for i, (_, mask) in enumerate(pool)]
    heapq.heapify(heap)
    while remaining:
        _, i = heapq.heappop(heap)
        perm, mask = pool[i]
        key = (-(mask & remaining).bit_count(), i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        if not mask & remaining:  # cannot happen: every order's own perm covers it
            raise AssertionError("greedy cover stalled")
        chosen.append(perm)
        remaining &= ~mask
    return len(chosen), chosen


def exact_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum permutation count with a witness set.

    Tests all n! permutations against every distinct weak order at once,
    reduces them to distinct maximal cover sets, and solves the set cover
    by memoised depth-first branch and bound seeded with the greedy solution.
    Feasible because every weak order is sorted by at least its own
    argsort permutation.
    """
    n = m.n_points
    if n > EXACT_MAX_N:
        raise TooLarge(
            f"exact solver enumerates n! permutations and is limited to n <= "
            f"{EXACT_MAX_N}; got n = {n}. Use greedy_min_permutations instead."
        )
    if m.n_hypotheses > EXACT_MAX_ROWS:
        raise TooLarge(
            f"exact solver is limited to {EXACT_MAX_ROWS} hypotheses; "
            f"got {m.n_hypotheses}. Use greedy_min_permutations instead."
        )
    orders = _distinct_rows(_rank_rows(m.rows)[1])
    n_orders = orders.shape[0]
    universe = (1 << n_orders) - 1

    mask_to_perm = _cover_witnesses(orders)

    # Only maximal masks can appear in some optimal cover.
    masks = sorted(mask_to_perm, key=lambda mk: mk.bit_count(), reverse=True)
    maximal: list[int] = []
    for mk in masks:
        if not any((mk & other) == mk for other in maximal):
            maximal.append(mk)

    by_element: list[list[int]] = [
        [mk for mk in maximal if mk >> j & 1] for j in range(n_orders)
    ]
    # Branch on the uncovered order with the fewest covering masks (the
    # lowest such order on a tie).
    branch_order = sorted(range(n_orders), key=lambda j: len(by_element[j]))
    best_count, best_perms = greedy_min_permutations(m)
    best: list[int] = []  # masks of the incumbent (greedy witness used if never improved)
    max_cover = max(mk.bit_count() for mk in maximal)
    # Fewest masks chosen on reaching each remaining set.  A revisit at no
    # smaller depth is pruned: the first visit searched the same subtree
    # under an incumbent no better than today's, so it cannot improve it.
    seen: dict[int, int] = {}

    def dfs(remaining: int, chosen: list[int]) -> None:
        nonlocal best_count, best
        depth = len(chosen)
        if seen.get(remaining, depth + 1) <= depth:
            return
        seen[remaining] = depth
        if not remaining:
            if depth < best_count:
                best_count = depth
                best = list(chosen)
            return
        lower = depth + math.ceil(remaining.bit_count() / max_cover)
        if lower >= best_count:
            return
        pick = next(j for j in branch_order if remaining >> j & 1)
        cands = sorted(
            (mk for mk in by_element[pick]),
            key=lambda mk: (mk & remaining).bit_count(),
            reverse=True,
        )
        for mk in cands:
            chosen.append(mk)
            dfs(remaining & ~mk, chosen)
            chosen.pop()

    dfs(universe, [])
    if best:
        witnesses = [mask_to_perm[mk] for mk in best]
    else:
        witnesses = best_perms
    return best_count, witnesses


@dataclass(frozen=True)
class PermComplexityEstimate:
    """Monte Carlo estimate of the expected permutation complexity."""

    mean: float
    stderr: float
    values: np.ndarray
    solvers: tuple[str, ...]

    @property
    def reps(self) -> int:
        return self.values.shape[0]


def monte_carlo_permutation_complexity(
    loss_fns: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    sample_data: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    n: int,
    reps: int,
    seed: int,
    allow_greedy: bool = False,
) -> PermComplexityEstimate:
    """Average instance complexity over fresh n-point data draws.

    Uses the exact solver when the instance is small enough; larger
    instances require ``allow_greedy`` (the estimate is then an upper
    bound) and otherwise raise :class:`TooLarge`.  Raises :class:`ConfigError`
    if ``n`` or ``reps`` is below 1, and :class:`ShapeError` if a loss
    function returns other than one loss per example.
    """
    if n < 1 or reps < 1:
        raise ConfigError(f"monte_carlo_permutation_complexity needs n >= 1 and reps >= 1, "
                          f"got n={n}, reps={reps}")
    values = np.empty(reps)
    solvers = []
    for r in range(reps):
        rng = rng_from(seed, "perm_rep", r)
        x, y = sample_data(rng, n)
        m = LossMatrix(np.stack([_row_losses(fn, j, x, y, n) for j, fn in enumerate(loss_fns)]))
        if n <= EXACT_MAX_N and m.n_hypotheses <= EXACT_MAX_ROWS:
            count, _ = exact_min_permutations(m)
            solvers.append("exact")
        elif allow_greedy:
            count, _ = greedy_min_permutations(m)
            solvers.append("greedy")
        else:
            raise TooLarge(
                f"instance (n={n}, rows={m.n_hypotheses}) exceeds the exact "
                "solver limits; pass allow_greedy=True for an upper-bound estimate"
            )
        values[r] = count
    stderr = float(np.std(values, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return PermComplexityEstimate(
        mean=float(np.mean(values)),
        stderr=stderr,
        values=values,
        solvers=tuple(solvers),
    )


def load_loss_matrix_csv(path) -> LossMatrix:
    """Load a loss matrix: rows = hypotheses, columns = data points; header optional."""
    _, values = read_numeric_csv(path, header=None)
    return LossMatrix(values)
