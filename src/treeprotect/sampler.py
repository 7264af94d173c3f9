"""Uniform random plane trees and Monte Carlo survival estimates.

Sampling uses the cycle lemma: shuffle a multiset of n-1 rise steps and
n fall steps (total displacement -1); among its 2n-1 cyclic rotations
exactly one stays nonnegative until the final step, namely the rotation
that starts just after the first minimum of the partial sums.  A root
rise followed by that whole rotation is the tree word of a uniform
n-vertex plane tree: its parenthesis code, held as a row of 2n int8 steps.

Protection statistics are read off tree words directly: preorder vertex p
opens at the (p+1)-th rise and its depth is the walk's height after it, a
leaf is a rise immediately followed by a fall, and a vertex's protection
number is the minimum leaf depth within its subtree minus its own depth.
One vectorized numpy scan with int32 heights reads this for vertex 0 (X)
or a uniform pick (Y) in every row of a batch, instead of building trees.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# 3: a batch holds at most _BATCH_STEPS steps, so batches are shorter for n >= 257
RNG_STREAM = 3

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
    rng_algorithm: str = RNG_ALGORITHM

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


def estimate_survival(statistic: str, n: int, trials: int, seed: int) -> SampleStats:
    """Monte Carlo survival counts for X (root) or Y (uniform vertex) at size n.

    Deterministic given (statistic, n, trials, seed): trials are processed
    in batches of _batch_rows(n) rows, the last holding only the trials
    still needed.  The shuffle fills rows in order, so X counts equal those
    of the first `trials` rows of full batches; the Y picks are drawn after
    the shuffle, so a short final batch changes them.
    """
    if statistic not in ("X", "Y"):
        raise ValueError("statistic must be 'X' or 'Y'")
    _check_size(n)
    if trials < 1:
        raise ValueError("trials must be positive")

    rng = make_rng(seed)
    histogram = np.zeros(n, dtype=np.int64)
    remaining = trials
    height = _batch_rows(n)
    while remaining > 0:
        rows = min(remaining, height)
        words = _tree_words(_shuffled_steps(n, rows, rng))
        picks = rng.integers(0, n, size=rows) if statistic == "Y" else np.zeros(rows, dtype=int)
        histogram += np.bincount(_protection_scan(words, picks), minlength=n)
        remaining -= rows

    suffix = np.cumsum(histogram[::-1])[::-1]
    counts = {k: int(suffix[k]) for k in range(n) if suffix[k] > 0}
    return SampleStats(statistic, n, trials, seed, counts)
