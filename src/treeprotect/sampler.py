"""Uniform random plane trees and Monte Carlo survival estimates.

Sampling uses the cycle lemma: shuffle a multiset of n-1 rise steps and
n fall steps (total displacement -1); among its 2n-1 cyclic rotations
exactly one stays nonnegative until the final step, namely the rotation
that starts just after the first minimum of the partial sums.  Dropping
that final fall leaves a uniform Dyck word w of n-1 pairs, and "(" + w + ")"
is the parenthesis code of a uniform n-vertex plane tree.

Protection statistics are read off the Dyck word directly: a leaf is a
rise immediately followed by a fall, its depth in the tree is the height
of the walk after the rise, and a vertex's protection number is the
minimum leaf depth within its subtree minus its own depth.  The batch
estimator computes these with vectorized numpy scans instead of building
tree objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
# trials still needed (version 1 drew a full batch and dropped the surplus)
RNG_STREAM = 2

# batch height cap: estimates depend only on (statistic, n, trials, seed)
_BATCH = 1 << 14


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
    base = np.concatenate([np.ones(n - 1, dtype=np.int64), -np.ones(n, dtype=np.int64)])
    block = np.tile(base, (rows, 1))
    return rng.permuted(block, axis=1)


def _dyck_rows(steps: np.ndarray) -> np.ndarray:
    """Admissible rotation of each row, final fall dropped: rows of n-1 pairs."""
    rows, m = steps.shape
    walk = np.cumsum(steps, axis=1)
    first_min = np.argmin(walk, axis=1)
    # rotation starting after the first minimum, excluding the step into it
    offsets = (first_min[:, None] + 1 + np.arange(m - 1)[None, :]) % m
    return np.take_along_axis(steps, offsets, axis=1)


def sample_tree(n: int, rng: np.random.Generator) -> PlaneTree:
    """One exactly uniform plane tree with n vertices."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if n == 1:
        return PlaneTree.leaf()
    w = _dyck_rows(_shuffled_steps(n, 1, rng))[0]
    inner = "".join("(" if s == 1 else ")" for s in w)
    return PlaneTree.from_parens("(" + inner + ")")


def _root_protection_values(w: np.ndarray) -> np.ndarray:
    """Per-row protection number of the root, from Dyck rows of n-1 pairs."""
    heights = np.cumsum(w, axis=1)
    is_leaf = (w[:, :-1] == 1) & (w[:, 1:] == -1)
    leaf_depths = np.where(is_leaf, heights[:, :-1], np.iinfo(np.int64).max)
    return leaf_depths.min(axis=1)


def _vertex_protection_values(w: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Per-row protection number of the preorder-picks[i]-th vertex (0-based)."""
    rows, width = w.shape
    heights = np.cumsum(w, axis=1)
    idx = np.arange(width)[None, :]
    is_leaf = (w[:, :-1] == 1) & (w[:, 1:] == -1)

    # vertex 0 is the root; vertex u >= 1 is the u-th rise of w
    rise_number = np.cumsum(w == 1, axis=1)
    at_pick = rise_number == np.maximum(picks, 1)[:, None]
    start = np.argmax(at_pick, axis=1)
    depth = np.take_along_axis(heights, start[:, None], axis=1)[:, 0]

    # subtree ends where the walk first returns below the vertex's depth
    closes = (idx > start[:, None]) & (heights == (depth - 1)[:, None])
    end = np.argmax(closes, axis=1)

    in_span = (idx[:, : width - 1] >= start[:, None]) & (idx[:, : width - 1] < end[:, None])
    masked = np.where(in_span & is_leaf, heights[:, :-1], np.iinfo(np.int64).max)
    values = masked.min(axis=1) - depth

    root_values = _root_protection_values(w)
    return np.where(picks == 0, root_values, values)


def estimate_survival(statistic: str, n: int, trials: int, seed: int) -> SampleStats:
    """Monte Carlo survival counts for X (root) or Y (uniform vertex) at size n.

    Deterministic given (statistic, n, trials, seed): trials are processed
    in batches of _BATCH rows, the last holding only the trials still
    needed.  The shuffle fills rows in order, so X counts equal those of
    the first `trials` rows of full batches; the Y picks are drawn after
    the shuffle, so a short final batch changes them (RNG_STREAM 2).
    """
    if statistic not in ("X", "Y"):
        raise ValueError("statistic must be 'X' or 'Y'")
    if n < 1:
        raise ValueError("tree size must be positive")
    if trials < 1:
        raise ValueError("trials must be positive")

    if n == 1:
        return SampleStats(statistic, n, trials, seed, {0: trials})

    rng = make_rng(seed)
    histogram = np.zeros(n, dtype=np.int64)
    remaining = trials
    while remaining > 0:
        rows = min(remaining, _BATCH)
        w = _dyck_rows(_shuffled_steps(n, rows, rng))
        if statistic == "X":
            values = _root_protection_values(w)
        else:
            picks = rng.integers(0, n, size=rows)
            values = _vertex_protection_values(w, picks)
        histogram += np.bincount(values, minlength=n)
        remaining -= rows

    suffix = np.cumsum(histogram[::-1])[::-1]
    counts = {k: int(suffix[k]) for k in range(n) if suffix[k] > 0}
    return SampleStats(statistic, n, trials, seed, counts)
