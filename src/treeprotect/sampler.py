"""Uniform random plane trees and Monte Carlo survival estimates.

Sampling uses the cycle lemma: shuffle a multiset of n-1 rise steps and
n fall steps (total displacement -1); among its 2n-1 cyclic rotations
exactly one stays nonnegative until the final step, namely the rotation
that starts just after the first minimum of the partial sums.  A root
rise followed by that whole rotation is the tree word of a uniform
n-vertex plane tree: its parenthesis code, held as a row of 2n int8 steps.

In a tree word a leaf is a rise immediately followed by a fall, and its
depth is the walk's height after the rise; the root sits at height 1.  So
the root's protection number (X) is the lowest height at a rise-then-fall
pair, minus 1, which one vectorized scan with int32 heights reads from
every row of a batch.

The protection number of a uniform vertex (Y) is read the same way, from
a smaller tree.  Pointing at a vertex splits an n-vertex tree into the
vertex's subtree, of some size M, and the rest, an (n-M+1)-vertex tree
with a marked leaf.  The subtree is a uniform M-vertex tree, so Y_n has
the law of X_M with P(M = m) = C_(m-1) L(n-m+1) / (n C_(n-1)), where
L(1) = 1 and L(p) = C(2p-2, p-1)/2 counts the leaves of all p-vertex
trees.  Each trial draws M by inverse CDF from float weights and reads
the root of one uniform M-vertex tree; E[M] is about 13 at n = 200.

The full-tree pick scan, which reads the protection number of a uniformly
picked vertex of an n-vertex tree, stays as the independent cross-check of
that decomposition (`_estimate_Y_by_picks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trees import PlaneTree

__all__ = [
    "RNG_ALGORITHM",
    "RNG_STREAM",
    "SampleStats",
    "make_rng",
    "sample_tree",
    "estimate_survival",
]

# recorded in output so runs are reproducible across implementations
RNG_ALGORITHM = "numpy.random.PCG64"
# version of the way draws map to trials; 2: the final batch holds only the
# trials still needed (version 1 drew a full batch and dropped the surplus);
# 3: a batch holds at most _BATCH_STEPS steps, so batches are shorter for n >= 257;
# 4: Y reads the root of an M-vertex tree for a drawn subtree size M (X unchanged)
RNG_STREAM = 4

# batch height caps: at most _BATCH rows of 2n-1 steps and at most
# _BATCH_STEPS steps in all (about 8 MiB per int8 array); one row must fit, so
# n <= 2^22 and int32 heights stay far from overflow.  The height depends on
# n alone, so estimates depend only on (statistic, n, trials, seed).
_BATCH = 1 << 14
_BATCH_STEPS = 1 << 23


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator of the documented algorithm."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SampleStats:
    """Survival counts of one protection statistic over Monte Carlo trials.

    survival_counts[k] is the number of samples with statistic >= k; it
    starts at trials for k = 0 and is non-increasing.
    """

    statistic: str
    n: int
    trials: int
    seed: int
    survival_counts: dict[int, int]

    def survival_fraction(self, k: int) -> float:
        if k < 0:
            raise ValueError("protection level must be nonnegative")
        return self.survival_counts.get(k, 0) / self.trials

    @property
    def mean(self) -> float:
        return sum(c for k, c in self.survival_counts.items() if k >= 1) / self.trials


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
    """Rows per batch at size n: _BATCH up to n = 256, fewer beyond."""
    return min(_BATCH, max(1, _BATCH_STEPS // (2 * n - 1)))


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("tree size must be positive")
    if 2 * n - 1 > _BATCH_STEPS:
        limit = (_BATCH_STEPS + 1) // 2
        raise ValueError(f"tree size must be at most {limit}, so 2n-1 steps fit one batch")


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


def _subtree_size_cdf(n: int) -> np.ndarray:
    """CDF of the subtree size M of a uniform vertex, as floats indexed by m - 1.

    With c_k = C(2k, k)/4^k, P(M = m) = c_(m-1) c_(n-m) / (2m c_(n-1)) for
    m < n and P(M = n) = 1/n.  The c_k come from one running product of the
    ratios 1 - 1/(2k), so the table costs O(n) floats and no big ints; it is
    normalized by its own sum, so its last entry is exactly 1.
    """
    c = np.arange(n, dtype=np.float64)
    c[0] = 1.0
    c[1:] = 1 - 0.5 / c[1:]
    np.cumprod(c, out=c)
    cdf = c / np.arange(1, n + 1)
    cdf[:-1] *= c[:0:-1] / 2
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _root_values(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """X of `rows` uniform n-vertex trees."""
    return _root_protection(_tree_words(_shuffled_steps(n, rows, rng)))


def _subtree_values(cdf: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Y of `rows` trials: draw every subtree size M, then one group per M, ascending."""
    drawn = np.searchsorted(cdf, rng.random(rows), side="right") + 1
    sizes, counts = np.unique(drawn, return_counts=True)
    return np.concatenate(
        [_root_values(m, count, rng) for m, count in zip(sizes.tolist(), counts.tolist())]
    )


def _pick_values(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Y of `rows` uniform n-vertex trees, each at a vertex picked after the shuffle."""
    words = _tree_words(_shuffled_steps(n, rows, rng))
    return _protection_scan(words, rng.integers(0, n, size=rows))


def _check_run(n: int, trials: int) -> None:
    _check_size(n)
    if trials < 1:
        raise ValueError("trials must be positive")


def _survival_stats(
    statistic: str,
    n: int,
    trials: int,
    seed: int,
    batch_values: Callable[[int, np.random.Generator], np.ndarray],
) -> SampleStats:
    """Tally batch_values(rows, rng) over batches of _batch_rows(n) rows into survival counts."""
    rng = make_rng(seed)
    histogram = np.zeros(n, dtype=np.int64)
    remaining = trials
    height = _batch_rows(n)
    while remaining > 0:
        rows = min(remaining, height)
        histogram += np.bincount(batch_values(rows, rng), minlength=n)
        remaining -= rows

    suffix = np.cumsum(histogram[::-1])[::-1]
    counts = {k: int(suffix[k]) for k in range(n) if suffix[k] > 0}
    return SampleStats(statistic, n, trials, seed, counts)


def estimate_survival(statistic: str, n: int, trials: int, seed: int) -> SampleStats:
    """Monte Carlo survival counts for X (root) or Y (uniform vertex) at size n.

    Deterministic given (statistic, n, trials, seed): trials are processed
    in batches of _batch_rows(n) rows, the last holding only the trials
    still needed.  The shuffle fills rows in order, so X counts equal those
    of the first `trials` rows of full batches.  Y draws a batch's subtree
    sizes before any of its shuffles, so a short final batch changes them.
    """
    if statistic not in ("X", "Y"):
        raise ValueError("statistic must be 'X' or 'Y'")
    _check_run(n, trials)
    if statistic == "X":
        batch_values = partial(_root_values, n)
    else:
        batch_values = partial(_subtree_values, _subtree_size_cdf(n))
    return _survival_stats(statistic, n, trials, seed, batch_values)


def _estimate_Y_by_picks(n: int, trials: int, seed: int) -> SampleStats:
    """Y survival counts from uniform picks in whole n-vertex trees (stream 3's Y draws).

    The cross-check of the subtree-size route: it does not rest on the
    pointing decomposition.
    """
    _check_run(n, trials)
    return _survival_stats("Y", n, trials, seed, partial(_pick_values, n))
