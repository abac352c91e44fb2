"""Instance-dependent permutation complexity of a set of loss vectors.

Given one loss vector per hypothesis (a :class:`LossMatrix`), the
permutation complexity is the minimum number of permutations of the data
indices needed so that every row is sorted (non-decreasingly) by at least
one of them.  A permutation sorts a row iff it is a linear extension of the
row's tie-aware weak order, so the problem is a set cover over distinct
weak orders:

* :func:`exact_min_permutations` tests all n! permutations against every
  weak order through their n - 1 consecutive pairs, and solves the cover
  exactly by memoised depth-first branch and bound (limits: n <= 8, at
  most 64 distinct weak orders);
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
from .data import _is_count, _reject_cells, read_numeric_csv
from .errors import ConfigError, FormatError, InvalidLoss, ShapeError, TooLarge
from .seeds import rng_from

__all__ = [
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
EXACT_MAX_ORDERS = 64


def _distinct_orders(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct tie-aware weak orders of a 2-D array's rows, first seen first: the
    stable argsort of each one's first row, and its dense ranks in the smallest
    unsigned type."""
    order = np.argsort(rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    dense = np.zeros(rows.shape, dtype=np.intp)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    first = np.sort(np.unique(ranks, axis=0, return_index=True)[1])
    return order[first], ranks[first].astype(np.min_scalar_type(rows.shape[1]))


def weak_order(losses) -> tuple[int, ...]:
    """The tie-aware weak order a loss vector induces on its indices, as dense
    ranks: consecutive values from 0, equal losses sharing a rank.  A
    permutation sorts the vector iff the ranks are non-decreasing along it.
    Raises :class:`ShapeError` unless ``losses`` is 1-D."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"weak_order needs a 1-D loss vector, got shape {arr.shape}")
    if np.any(np.isnan(arr)):
        raise InvalidLoss("loss vector contains NaN")
    return tuple(_distinct_orders(arr.reshape(1, -1))[1][0].tolist())


def permutation_sorts(perm: Sequence[int], ranks: Sequence[int]) -> bool:
    """True iff the permutation lists the indices in non-decreasing rank order.

    Raises :class:`ShapeError` unless ``perm`` is a permutation of
    ``range(len(ranks))``.
    """
    if sorted(perm) != list(range(len(ranks))):
        raise ShapeError(f"{tuple(perm)} is not a permutation of range({len(ranks)})")
    return all(ranks[perm[i]] <= ranks[perm[i + 1]] for i in range(len(perm) - 1))


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """One loss vector per hypothesis, evaluated on a shared dataset.

    ``rows`` is held as a read-only float64 copy, so a later write to the
    caller's array changes nothing here."""

    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.rows, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise FormatError("loss matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(arr)):
            raise InvalidLoss("loss matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n_hypotheses(self) -> int:
        return self.rows.shape[0]

    @property
    def n_points(self) -> int:
        return self.rows.shape[1]


@functools.cache
def _permutation_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of range(n) in lexicographic order, and their consecutive pairs.

    ``perms`` is ``uint8`` (n <= 8).  Row i of ``pairs``, shape (n - 1, n!),
    holds ``a * n + b`` for the pair (a, b) at positions i and i + 1 of each
    permutation.  Both arrays are read-only: the cache hands them to every
    caller.
    """
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    pairs = perms.T[:-1].astype(np.intp, order="C")
    pairs *= n
    pairs += perms.T[1:]
    perms.flags.writeable = pairs.flags.writeable = False
    return perms, pairs


def _cover_witnesses(orders: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each distinct non-empty cover mask with its lexicographically first witness.

    ``orders`` holds at most 64 distinct weak orders as rank rows.  Bit j of
    a mask is set iff the witness permutation sorts order j, that is iff
    each of its consecutive pairs (a, b) has order j rank a no higher than
    b; masks are keyed in the order their first witnesses appear among the
    n! permutations.
    """
    k, n = orders.shape
    perms, pairs = _permutation_table(n)
    # ok[a * n + b]: bit j is set iff order j ranks a no higher than b.
    below = (orders[:, :, None] <= orders[:, None, :]).reshape(k, n * n)
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    ok = (below * bits[:, None]).sum(axis=0, dtype=np.uint64)
    codes = np.full(perms.shape[0], (1 << k) - 1, dtype=np.uint64)
    for row in pairs:
        codes &= ok[row]
    covering = np.flatnonzero(codes)  # ascending, so first witnesses stay first
    _, first = np.unique(codes[covering], return_index=True)
    first = covering[np.sort(first)]
    return {mask: tuple(perms[p].tolist()) for mask, p in zip(codes[first].tolist(), first)}


def greedy_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Greedy set-cover upper bound with per-row sorting permutations.

    Candidates are the rows' own stable argsort permutations (ties broken
    by original index), so the cover is always feasible and the result is
    at most the number of distinct weak orders.  An argsort is a function
    of the weak order, so only each order's first row is tried.  Memory is
    O(rows * n) plus one bit per (candidate, order), for any rows and n.
    """
    return _greedy_cover(*_distinct_orders(m.rows))


def _greedy_cover(perms: np.ndarray, orders: np.ndarray) -> tuple[int, list[tuple[int, ...]]]:
    """The greedy cover of ``orders`` by the argsorts ``perms`` (:func:`_distinct_orders`)."""
    # Bit j of packed[:, i]: candidate i lists order j's ranks non-decreasingly.
    # Orders go in blocks of about 2**20 gathered ranks, rounded up to whole bytes.
    packed = np.empty(((orders.shape[0] + 7) // 8, perms.shape[0]), dtype=np.uint8)
    block = 8 * math.ceil(max(1, 2**20 // perms.size) / 8)
    for lo in range(0, orders.shape[0], block):
        along = orders[lo : lo + block][:, perms.T]  # (order, position, candidate)
        sorts = np.all(along[:, 1:] >= along[:, :-1], axis=1)
        packed[lo // 8 : (lo + block) // 8] = np.packbits(sorts, axis=0, bitorder="little")
    candidates: dict[tuple[int, ...], int] = {}
    for perm_row, bits in zip(perms, packed.T):
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
        chosen.append(perm)
        remaining &= ~mask
    return len(chosen), chosen


def exact_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum permutation count with a witness set.

    Tests all n! permutations against every distinct weak order, one
    consecutive pair position at a time, reduces them to distinct maximal
    cover sets, and solves the set cover by memoised depth-first branch and
    bound seeded with the greedy solution.  Feasible because every weak
    order is sorted by at least its own argsort permutation.
    """
    n = m.n_points
    if n > EXACT_MAX_N:
        raise TooLarge(
            f"exact solver enumerates n! permutations and is limited to n <= "
            f"{EXACT_MAX_N}; got n = {n}. Use greedy_min_permutations instead."
        )
    perms, orders = _distinct_orders(m.rows)
    n_orders = orders.shape[0]
    if n_orders > EXACT_MAX_ORDERS:
        raise TooLarge(
            f"exact solver is limited to {EXACT_MAX_ORDERS} distinct weak orders; "
            f"got {n_orders}. Use greedy_min_permutations instead."
        )
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
    best_count, best_perms = _greedy_cover(perms, orders)
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


@dataclass(frozen=True, eq=False)
class PermComplexityEstimate:
    """Monte Carlo estimate of the expected permutation complexity."""

    values: np.ndarray
    solvers: tuple[str, ...]

    @property
    def reps(self) -> int:
        return self.values.shape[0]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def stderr(self) -> float:
        return float(np.std(self.values, ddof=1) / math.sqrt(self.reps)) if self.reps > 1 else 0.0


def monte_carlo_permutation_complexity(
    loss_fns: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    sample_data: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    n: int,
    reps: int,
    seed: int,
    allow_greedy: bool = False,
) -> PermComplexityEstimate:
    """Average instance complexity over fresh n-point data draws.

    Uses the exact solver when the instance is within its limits; larger
    instances require ``allow_greedy`` (the estimate is then an upper
    bound) and otherwise raise :class:`TooLarge`.  Raises :class:`ConfigError`
    unless ``n`` and ``reps`` are integers >= 1, numpy can hold ``reps``
    values and there is a model, and :class:`ShapeError` if a loss function
    returns other than one loss per example.
    """
    if not (_is_count(n) and _is_count(reps)):
        raise ConfigError(f"monte_carlo_permutation_complexity needs integers n >= 1 and "
                          f"reps >= 1, got n={n!r}, reps={reps!r}")
    if len(loss_fns) == 0:
        raise ConfigError("monte_carlo_permutation_complexity needs at least one model")
    try:
        values = np.empty(reps)
    except (MemoryError, ValueError):
        raise ConfigError(f"monte_carlo_permutation_complexity cannot hold {reps} "
                          "repetitions in memory") from None
    solvers = []
    for r in range(reps):
        rng = rng_from(seed, "perm_rep", r)
        x, y = sample_data(rng, n)
        m = LossMatrix(np.stack([_row_losses(fn, j, x, y, n) for j, fn in enumerate(loss_fns)]))
        try:
            values[r], _ = exact_min_permutations(m)
            solvers.append("exact")
        except TooLarge:
            if not allow_greedy:
                raise TooLarge(
                    f"instance (n={n}, rows={m.n_hypotheses}) exceeds the exact "
                    "solver limits; pass allow_greedy=True for an upper-bound estimate"
                ) from None
            values[r], _ = greedy_min_permutations(m)
            solvers.append("greedy")
    return PermComplexityEstimate(values=values, solvers=tuple(solvers))


def load_loss_matrix_csv(path) -> LossMatrix:
    """Load a loss matrix: rows = hypotheses, columns = data points; header optional.

    A non-finite entry raises :class:`InvalidLoss` naming its file row and
    column; negative entries are accepted.
    """
    names, values = read_numeric_csv(path, header=None)
    _reject_cells(path, names, ~np.isfinite(values), "non-finite")
    return LossMatrix(values)
