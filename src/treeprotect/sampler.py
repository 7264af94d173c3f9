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

So a trial walks the generation chain from (1, n).  At (d, m) a row of
floats gives, in its column e - d, the chance C(e-1, d-1) F(e, m-d) / F(d, m)
of "generation j holds no leaf and generation j+1 holds e vertices"; the
mass left is "generation j holds a leaf", which ends the trial with X = j,
and otherwise the walk moves on to (e, m-d).  A generation of d vertices is
leafless with probability about 2^-d, so a trial takes O(1) expected
steps at every n.  Trials at one state are exchangeable, so a run holds
only the count of trials at each state and splits it over the state's
row and its leaf with one multinomial draw per generation: the work
follows the states, not the trials.
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
# version of the way draws map to trials; 2: the final batch holds only the
# trials still needed (version 1 drew a full batch and dropped the surplus);
# 3: a batch holds at most _BATCH_STEPS steps, so batches are shorter for n >= 257;
# 4: Y reads the root of an M-vertex tree for a drawn subtree size M (X unchanged);
# 5: X and Y walk the generation chain in batches of _BATCH trials, one uniform
# per running trial and generation (the word route keeps stream 4's X and
# stream 3's Y draws);
# 6: X and Y split each chain state's trial count with one multinomial draw per
# generation, and Y first splits the trials over subtree sizes the same way;
# 7: the chain's rows are the exact transition weights, one running product
# each, and the subtree sizes' weights are normalized without a running sum
RNG_STREAM = 7

# the size cap bounds Y's subtree-size table, n floats (32 MiB at the cap)
# whose rounding grows with n; one word of 2n-1 steps of the largest tree
# still fits a word-route batch of _BATCH_STEPS steps
_MAX_SIZE = 1 << 22
# a chain generation builds the tables of at most _BATCH states at once, which
# bounds its memory and leaves its draws unchanged; word-route batches hold at
# most _BATCH rows and at most _BATCH_STEPS steps in all (about 8 MiB per
# int8 array), so estimates depend only on (statistic, n, trials, seed)
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
    trees and to C(e-1, d-1) ways at (e, m-d), the formula of
    `_chain_tables`.  Exact integers throughout, from math.comb alone.
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
    """The tables of the states (d[i], m[i]), one row each, the column of e at e - d.

    Row i holds w(e) = C(e-1, d-1) F(e, r) / F(d, m) with r = m - d, the
    formula of `_chain_counts`, for e = d up to min(r, 2d+96), then 0 up
    to the chunk's widest row.  A row is one running product: the d
    factors F(d, x)/F(d, x+1) = (x+1)(x-d+1) / ((2x-d+1)(2x-d)) for
    x = r..m-1, padded with ones up to the chunk's largest d, give w(d),
    then w(e+1)/w(e) = (e+1)(r-e) / ((e-d+1)(2r-e-1)).  As w(e) is at most
    P(e) = C(d+e-1, e) F(e, r) / F(d, m), whose ratio is at most (d+e)/(2e),
    the weights past e = 2d+96 sum to under 1e-19 at every d.  A row is
    all zeros when r < d, where a leaf is sure.  The product runs along
    each row in order, so a row does not depend on the rows beside it.
    """
    d, r = d[:, None], (m - d)[:, None]
    end = np.minimum(r, 2 * d + 96)  # the last e of the table
    j = np.arange(int(d.max(initial=1)))
    x = r + j
    k = np.arange(int((end - d).max(initial=0)))  # the step from e = d + k to e + 1
    w = np.zeros((d.size, j.size + k.size))
    head, tail = w[:, : j.size], w[:, j.size :]
    head[:] = live = r >= d
    np.divide((x + 1) * (x - d + 1), (2 * x - d + 1) * (2 * x - d), out=head, where=(j < d) & live)
    np.divide((d + k + 1) * (r - d - k), (k + 1) * (2 * r - d - k - 1), out=tail, where=k < end - d)
    np.cumprod(w, axis=1, out=w)
    return w[:, j.size - 1 :]


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
    state are exchangeable, so each generation splits every state's count
    over its table and its leaf with one multinomial draw, state by state
    in ascending key d * 2^32 + m, in chunks of at most _BATCH states;
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
        tally, keys, counts = 0, [], []
        for lo in range(0, d.size, _BATCH):
            dd, mm = d[lo : lo + _BATCH], m[lo : lo + _BATCH]
            # the leaf's column comes last, and numpy fills it with the mass left
            rows = np.pad(_chain_tables(dd, mm), ((0, 0), (0, 1)))
            draws = rng.multinomial(count[lo : lo + _BATCH], rows)
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
