"""Instance-dependent permutation complexity of a set of loss vectors.

Given one loss vector per hypothesis (a :class:`LossMatrix`), the
permutation complexity is the minimum number of permutations of the data
indices needed so that every row is sorted (non-decreasingly) by at least
one of them.  A permutation sorts a row iff it is a linear extension of the
row's tie-aware weak order, so the problem is a set cover over distinct
weak orders:

* :func:`exact_min_permutations` tests all n! permutations against every
  weak order, one matrix product per fixed block of permutations, and
  solves the cover exactly by memoised depth-first branch and bound
  (limits: n <= 8, at most 64 rows);
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
EXACT_MAX_ROWS = 64
# Permutations per block of the exact cover's table build and product.
_COVER_BLOCK = 2048


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
    return tuple(_rank_rows(arr.reshape(1, -1))[1][0].tolist())


def permutation_sorts(perm: Sequence[int], ranks: Sequence[int]) -> bool:
    """True iff the permutation lists the indices in non-decreasing rank order.

    Raises :class:`ShapeError` unless ``perm`` is a permutation of
    ``range(len(ranks))``.
    """
    if sorted(perm) != list(range(len(ranks))):
        raise ShapeError(f"{tuple(perm)} is not a permutation of range({len(ranks)})")
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

    ``perms`` is ``uint8`` (n <= 8).  ``prec[p, k]`` is 1.0 (``float32``) iff
    permutation p lists a before b, for the k-th pair a < b of
    ``np.triu_indices(n, 1)``; it is filled :data:`_COVER_BLOCK` permutations
    at a time from their ``uint8`` positions, so the n = 8 table takes about
    4.8 MB and its build no more than a block's temporaries.  Both arrays are
    read-only: the cache hands them to every caller.
    """
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    a, b = np.triu_indices(n, 1)
    prec = np.empty((perms.shape[0], a.size), dtype=np.float32)
    for lo in range(0, perms.shape[0], _COVER_BLOCK):
        pos = perms[lo : lo + _COVER_BLOCK].argsort(axis=1).astype(np.uint8)
        prec[lo : lo + _COVER_BLOCK] = pos[:, a] < pos[:, b]
    perms.flags.writeable = prec.flags.writeable = False
    return perms, prec


def _cover_witnesses(orders: np.ndarray) -> dict[int, tuple[int, ...]]:
    """Each distinct non-empty cover mask with its lexicographically first witness.

    ``orders`` holds at most 64 distinct weak orders as rank rows.  Bit j of
    a mask is set iff the witness permutation sorts order j; masks are keyed
    in the order their first witnesses appear among the n! permutations.
    The permutations are tested :data:`_COVER_BLOCK` at a time against the
    read-only cached table, through one reused (block, 64) ``bool`` buffer,
    into one (n!,) ``<u8`` array of packed masks: working memory is
    O(block * 64) beside that array.
    """
    n = orders.shape[1]
    # Permutation p sorts order j iff it reverses no strict pair of j:
    # prec @ gt + (1 - prec) @ lt = prec @ (gt - lt) + sum(lt) is zero.
    # The float32 product is exact, as every count is at most n(n-1)/2.
    perms, prec = _permutation_table(n)
    a, b = np.triu_indices(n, 1)
    lt = (orders[:, a] < orders[:, b]).T.astype(np.float32)
    gt = (orders[:, a] > orders[:, b]).T.astype(np.float32)
    step, need = gt - lt, -lt.sum(axis=0)
    # Columns past the last order stay False, so their mask bits stay 0.
    sorts = np.zeros((_COVER_BLOCK, 64), dtype=bool)
    codes = np.empty(perms.shape[0], dtype="<u8")
    for lo in range(0, perms.shape[0], _COVER_BLOCK):
        block = prec[lo : lo + _COVER_BLOCK]
        hits = sorts[: len(block)]
        np.equal(block @ step, need, out=hits[:, : orders.shape[0]])
        codes[lo : lo + len(block)] = np.packbits(hits, bitorder="little").view("<u8")
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return {mask: tuple(perms[p].tolist()) for mask, p in zip(codes[first].tolist(), first) if mask}


def greedy_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Greedy set-cover upper bound with per-row sorting permutations.

    Candidates are the rows' own stable argsort permutations (ties broken
    by original index), so the cover is always feasible and the result is
    at most the number of distinct weak orders.  An argsort is a function
    of the weak order, so only each order's first row is tried.  Memory is
    O(rows * n) plus one bit per (candidate, order), for any rows and n.
    """
    perms, ranks = _rank_rows(m.rows)
    first = np.sort(np.unique(ranks, axis=0, return_index=True)[1])
    perms, orders = perms[first], ranks[first].astype(np.min_scalar_type(m.n_points))
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
        if not mask & remaining:  # cannot happen: every order's own perm covers it
            raise AssertionError("greedy cover stalled")
        chosen.append(perm)
        remaining &= ~mask
    return len(chosen), chosen


def exact_min_permutations(m: LossMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact minimum permutation count with a witness set.

    Tests all n! permutations against every distinct weak order in blocks,
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
    unless ``n`` and ``reps`` are integers >= 1, and :class:`ShapeError` if a
    loss function returns other than one loss per example.
    """
    if not (_is_count(n) and _is_count(reps)):
        raise ConfigError(f"monte_carlo_permutation_complexity needs integers n >= 1 and "
                          f"reps >= 1, got n={n!r}, reps={reps!r}")
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
    """Load a loss matrix: rows = hypotheses, columns = data points; header optional.

    A non-finite entry raises :class:`InvalidLoss` naming its file row and
    column; negative entries are accepted.
    """
    names, values = read_numeric_csv(path, header=None)
    _reject_cells(path, names, ~np.isfinite(values), "non-finite")
    return LossMatrix(values)
