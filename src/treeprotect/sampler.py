"""Uniform random plane trees and Monte Carlo survival estimates.

The root's protection number (X) is the depth of the shallowest leaf, so a
trial needs only the generations above it.  In a uniform n-vertex plane
tree let generation j hold d vertices, with m vertices at depth j or
deeper.  Given (d, m), the forest below generation j is uniform over the
F(d, m) = (d/m) C(2m-d-1, m-1) plane forests of d trees and m vertices
(Kemperman's formula, a form of the cycle lemma; F(1, m) = C_(m-1)).  The
next generation holds e vertices in C(d+e-1, e) F(e, m-d) of them, one
weak composition of e into d parts per way to hand out the children, and
in C(e-1, d-1) of those every vertex of generation j has a child.

So a trial walks the generation chain from (1, n).  At (d, m) generation
j holds no leaf with chance F(2d, m) / F(d, m), as a root with children
is an ordered pair of trees; a trial with a leaf there ends with X = j.
Given no leaf, generation j+1 holds e vertices with chance
C(e-1, d-1) F(e, m-d) / F(2d, m), held in column e - d of a row of
floats, and the walk moves on to (e, m-d).  A generation of d vertices
is leafless with probability about 2^(1-d), so a trial takes O(1)
expected steps at every n.  Trials at one state are exchangeable, so a
run holds only the count of trials at each state.  Per generation, one
binomial draw splits each state's count into its leaf and its
survivors, and only a state with survivors builds its row and splits
them over it with one multinomial draw: the work follows the states that
go on, not the trials.
`_chain_counts` walks the same chain in exact integers; it is criterion
1's sixth route to r(n, k) and the check of the float tables.

The protection number of a uniform vertex (Y) is read the same way, from
a smaller tree.  Pointing at a vertex splits an n-vertex tree into the
vertex's subtree, of some size M, and the rest, an (n-M+1)-vertex tree
with a marked leaf.  The subtree is a uniform M-vertex tree, so Y_n has
the law of X_M with P(M = m) = C_(m-1) L(n-m+1) / (n C_(n-1)), where
L(1) = 1 and L(p) = C(2p-2, p-1)/2 counts the leaves of all p-vertex
trees.  One multinomial draw over float weights splits the trials over M,
and the trials of each M walk the chain from (1, M).

The word route simulates the definition and stays as criterion 6's
cross-check, with stream 4's X draws and stream 3's Y draws.  Shuffle a
multiset of n-1 rise steps and n fall steps (total displacement -1); among
its 2n-1 cyclic rotations exactly one stays nonnegative until the final
step, the one that starts just after the first minimum of the partial
sums.  A root rise followed by that rotation is the tree word of a uniform
n-vertex plane tree, held as a row of 2n int8 steps.  A leaf is a rise
followed by a fall and its depth is the walk's height after the rise, so
`_estimate_by_words` reads X as the lowest such height minus 1, or Y as
the protection number of a vertex picked uniformly in the whole tree, one
vectorized scan per batch.  `sample_tree`, one such word as a PlaneTree,
serves only the tests and the benchmark's tracer and is not exported.
Every route returns survival counts indexed by level, total first, the
shape of DistributionTable.counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trees import PlaneTree

__all__ = [
    "RNG_ALGORITHM",
    "RNG_STREAM",
    "SampleStats",
    "make_rng",
    "estimate_survival",
]

# recorded in output so runs are reproducible across implementations
RNG_ALGORITHM = "numpy.random.PCG64"
# stream 9: per chain state, a binomial of survivors split over its no-leaf row (README: history)
RNG_STREAM = 9

# the size cap bounds Y's subtree-size table, n floats (32 MiB at the cap)
# whose rounding grows with n; one word of 2n-1 steps of the largest tree
# still fits a word-route batch of _BATCH_STEPS steps
_MAX_SIZE = 1 << 22
# a chain generation builds the chances and tables of at most _BATCH states at
# once, which bounds its memory and leaves its draws unchanged; word-route
# batches hold at most _BATCH rows and at most _BATCH_STEPS steps in all (about
# 8 MiB per int8 array), so estimates depend only on (statistic, n, trials, seed)
_BATCH = 1 << 14
_BATCH_STEPS = 1 << 23


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator of the documented algorithm."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SampleStats:
    """Survival counts of one protection statistic over Monte Carlo trials.

    counts[k] is the number of trials whose statistic is >= k, for k up to
    the largest value seen; counts[0] is the number of trials, and the
    counts are non-increasing.
    """

    counts: tuple[int, ...]

    @property
    def trials(self) -> int:
        return self.counts[0]

    def survival_fraction(self, k: int) -> float:
        if k < 0:
            raise ValueError("protection level must be nonnegative")
        return (self.counts[k] if k < len(self.counts) else 0) / self.trials

    @property
    def mean(self) -> float:
        return sum(self.counts[1:]) / self.trials


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("tree size must be positive")
    if n > _MAX_SIZE:
        raise ValueError(f"tree size must be at most {_MAX_SIZE}")


def _chain_counts(n: int) -> tuple[int, ...]:
    """r(n, k) for k = 0..n-1: n-vertex plane trees whose root is k-protected.

    The root is k-protected when generations 0..k-1 hold no leaf.  A dict
    carries each state (d, m) of generation k to the number of ways to
    build generations 0..k leafless above it; each way extends to F(d, m)
    trees and to C(e-1, d-1) ways at (e, m-d), the weights whose law
    `_chain_tables` builds.  Exact integers throughout, from math.comb alone.
    """
    counts = []
    states = {(1, n): 1}
    while states:
        # F(d, m) = (d/m) C(2m-d-1, m-1) forests hang below each way
        counts.append(
            sum(ways * d * math.comb(2 * m - d - 1, m - 1) // m for (d, m), ways in states.items())
        )
        below: dict[tuple[int, int], int] = {}
        for (d, m), ways in states.items():
            for e in range(d, m - d + 1):
                below[e, m - d] = below.get((e, m - d), 0) + ways * math.comb(e - 1, d - 1)
        states = below
    return tuple(counts)


def _chain_tables(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The rows of the states (d[i], m[i]), m >= 2d, the column of e at e - d.

    Row i holds u(e) = C(e-1, d-1) F(e, r) / F(2d, m), r = m - d, the law of
    the next generation's size given no leaf in generation j, for e = d up
    to min(r, 2d+96), then 0 up to the chunk's widest row and in one more
    cell, the remainder of `rng.multinomial`.  A row is one running product:
    the d+1 factors (m-i)/(2r-i), i = 0..d, padded with ones up to the
    chunk's largest d, give u(d), then u(e+1)/u(e) = (e+1)(r-e) / ((e-d+1)(2r-e-1)).
    The cut drops under 2e-19 of a row at d = 16, 3e-15 at d = 32 and 4e-11
    at d = 64 for m <= 2^22.  The product runs along each row in order, so
    a row does not depend on the rows beside it.
    """
    d, r = d[:, None], (m - d)[:, None]
    end = np.minimum(r, 2 * d + 96)  # the last e of the table
    i = np.arange(int(d.max()) + 1)
    k = np.arange(int((end - d).max()) + 1)  # the step from e = d + k to e + 1
    u = np.zeros((d.size, i.size + k.size))
    head, tail = u[:, : i.size], u[:, i.size :]
    head[:] = 1.0
    np.divide(r + d - i, 2 * r - i, out=head, where=i <= d)
    np.divide((d + k + 1) * (r - d - k), (k + 1) * (2 * r - d - k - 1), out=tail, where=k < end - d)
    np.cumprod(u, axis=1, out=u)
    return u[:, i.size - 1 :]


def _leafless(d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The chance F(2d, m) / F(d, m) that generation j holds no leaf at each state (d[i], m[i]).

    A plane tree whose root is not a leaf is an ordered pair of trees
    (T - z = T^2), so the leafless forests of d trees and m vertices are
    the forests of 2d trees: sum_e C(e-1, d-1) F(e, m-d) = F(2d, m), the
    sum of the state's table.  The ratio is 2 prod_(i<d) (m-d-i) / (2m-d-1-i)
    for m >= 2d and 0 below, one running product along each row, padded
    with ones up to the largest d, so a row does not depend on the others.
    """
    live = m >= 2 * d
    d, m = d[:, None], m[:, None]
    i = np.arange(int(d.max(initial=1)))
    factors = np.ones((d.size, i.size))
    np.divide(m - d - i, 2 * m - d - 1 - i, out=factors, where=(i < d) & live[:, None])
    return np.where(live, 2 * np.cumprod(factors, axis=1)[:, -1], 0.0)


def _subtree_size_pmf(n: int) -> np.ndarray:
    """Law of the subtree size M of a uniform vertex, as floats indexed by m - 1.

    With c_k = C(2k, k)/4^k, P(M = m) = c_(m-1) c_(n-m) / (2m c_(n-1)) for
    m < n and P(M = n) = 1/n.  The c_k come from one running product of the
    ratios 1 - 1/(2k), so the table costs O(n) floats and no big ints; it is
    normalized by its own sum.
    """
    c = np.arange(n, dtype=np.float64)
    c[0] = 1.0
    c[1:] = 1 - 0.5 / c[1:]
    np.cumprod(c, out=c)
    pmf = c / np.arange(1, n + 1)
    pmf[:-1] *= c[:0:-1] / 2
    pmf /= pmf.sum()
    return pmf


def _check_run(statistic: str, n: int, trials: int) -> None:
    if statistic not in ("X", "Y"):
        raise ValueError("statistic must be 'X' or 'Y'")
    _check_size(n)
    if trials < 1:
        raise ValueError("trials must be positive")


def estimate_survival(statistic: str, n: int, trials: int, seed: int) -> SampleStats:
    """Monte Carlo survival counts for X (root) or Y (uniform vertex) at size n.

    Deterministic given (statistic, n, trials, seed).  The trials at one
    state are exchangeable, so each generation first draws, state by state
    in ascending key d * 2^32 + m, one binomial of the trials whose
    generation holds no leaf, with chance `_leafless(d, m)`; then the
    states with survivors, in chunks of at most _BATCH, split them over
    their rows, the law of the next generation's size given no leaf, with
    one multinomial draw each.
    Y first splits the trials over subtree sizes with one multinomial draw.
    """
    _check_run(statistic, n, trials)
    rng = make_rng(seed)
    if statistic == "X":
        m, count = np.array([n]), np.array([trials])
    else:
        count = rng.multinomial(trials, _subtree_size_pmf(n))
        m = np.flatnonzero(count) + 1
        count = count[m - 1]
    d = np.ones_like(m)
    leaves = []
    while d.size:
        p = np.concatenate(
            [_leafless(d[lo : lo + _BATCH], m[lo : lo + _BATCH]) for lo in range(0, d.size, _BATCH)]
        )
        survivors = rng.binomial(count, p)
        tally = int(count.sum() - survivors.sum())
        live = survivors > 0
        d, m, survivors = d[live], m[live], survivors[live]
        keys, counts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for lo in range(0, d.size, _BATCH):
            dd, mm = d[lo : lo + _BATCH], m[lo : lo + _BATCH]
            # the last column is the remainder, which numpy fills with the mass
            # left: the tail past the table and the rounding, counted as a leaf
            draws = rng.multinomial(survivors[lo : lo + _BATCH], _chain_tables(dd, mm))
            tally += int(draws[:, -1].sum())
            state, column = np.nonzero(draws[:, :-1])
            keys.append((column + dd[state]) << 32 | (mm - dd)[state])
            counts.append(draws[state, column])
        leaves.append(tally)
        keys, at = np.unique(np.concatenate(keys), return_inverse=True)
        count = np.bincount(at, weights=np.concatenate(counts)).astype(np.int64)
        d, m = keys >> 32, keys & 0xFFFFFFFF
    return SampleStats(tuple(accumulate(reversed(leaves)))[::-1])


# the word routes


def _shuffled_steps(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    base = np.concatenate([np.ones(n - 1, dtype=np.int8), -np.ones(n, dtype=np.int8)])
    return rng.permuted(np.tile(base, (rows, 1)), axis=1)


def _tree_words(steps: np.ndarray) -> np.ndarray:
    """Each row's tree word of n pairs: a root rise, then its admissible rotation."""
    rows, m = steps.shape
    walk = np.cumsum(steps, axis=1, dtype=np.int32)
    first_min = np.argmin(walk, axis=1)
    # rotation starting after the first minimum, ending with the step into it:
    # the window of m steps at first_min + 1 in the row written twice
    windows = sliding_window_view(np.concatenate([steps, steps], axis=1), m, axis=1)
    words = np.ones((rows, m + 1), dtype=np.int8)
    words[:, 1:] = windows[np.arange(rows), first_min + 1]
    return words


def _batch_rows(n: int) -> int:
    """Word-route rows per batch at size n: _BATCH up to n = 256, fewer beyond."""
    return min(_BATCH, max(1, _BATCH_STEPS // (2 * n - 1)))


def sample_tree(n: int, rng: np.random.Generator) -> PlaneTree:
    """One exactly uniform plane tree with n vertices."""
    _check_size(n)
    word = _tree_words(_shuffled_steps(n, 1, rng))[0]
    return PlaneTree("".join("(" if s == 1 else ")" for s in word))


def _root_protection(words: np.ndarray) -> np.ndarray:
    """Root protection number of each tree word: its lowest leaf height minus 1."""
    heights = np.cumsum(words[:, :-1], axis=1, dtype=np.int32)
    # masked in place: every step pair but a rise then a fall has words[i] <= words[i+1]
    np.copyto(heights, np.iinfo(np.int32).max, where=words[:, :-1] <= words[:, 1:])
    return heights.min(axis=1) - 1


def _protection_scan(words: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Protection number, in each row, of preorder vertex picks[i] (the root is 0)."""
    rows, width = words.shape
    heights = np.cumsum(words, axis=1, dtype=np.int32)
    idx = np.arange(width, dtype=np.int32)[None, :]
    is_leaf = (words[:, :-1] == 1) & (words[:, 1:] == -1)

    # steps 0..i hold (i + 1 + heights[i]) / 2 rises, so the (p+1)-th rise
    # is the first step i with i + heights[i] = 2p + 1
    start = np.argmax(idx + heights == (2 * picks + 1)[:, None], axis=1)
    depth = heights[np.arange(rows), start]

    # subtree ends where the walk first returns below the vertex's depth
    closes = (idx > start[:, None]) & (heights == (depth - 1)[:, None])
    end = np.argmax(closes, axis=1)

    in_span = (idx[:, : width - 1] >= start[:, None]) & (idx[:, : width - 1] < end[:, None])
    masked = np.where(in_span & is_leaf, heights[:, :-1], np.iinfo(np.int32).max)
    return masked.min(axis=1) - depth


def _estimate_by_words(statistic: str, n: int, trials: int, seed: int) -> SampleStats:
    """X or Y survival counts read from whole shuffled tree words: criterion 6's route.

    X reads each word's root (stream 4's X draws); Y reads a vertex picked
    after the shuffle in the whole tree (stream 3's Y draws), so it does
    not rest on the pointing decomposition.  The shuffle fills rows in
    order, so X's counts equal those of the first `trials` rows of full
    batches of _batch_rows(n).
    """
    _check_run(statistic, n, trials)
    rng = make_rng(seed)
    height = _batch_rows(n)
    # the tally grows with the largest value seen, never with n
    histogram = np.zeros(1, dtype=np.int64)
    for first in range(0, trials, height):
        rows = min(height, trials - first)
        words = _tree_words(_shuffled_steps(n, rows, rng))
        if statistic == "X":
            values = _root_protection(words)
        else:
            values = _protection_scan(words, rng.integers(0, n, size=rows))
        tally = np.bincount(values, minlength=histogram.size)
        tally[: histogram.size] += histogram
        histogram = tally
    suffix = np.cumsum(histogram[::-1])[::-1]
    return SampleStats(tuple(suffix.tolist()))
