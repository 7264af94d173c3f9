"""Monte Carlo sampler: exact uniformity at small n, fixed-seed statistics.

Statistical assertions use fixed seeds and a 4 sigma budget, so a failure
here means a bug, not bad luck.
"""

import math
from collections import Counter

import pytest

from treeprotect.exact import dist_X_exact, dist_Y_exact
import numpy as np

from treeprotect import sampler
from treeprotect.sampler import (
    RNG_ALGORITHM,
    SampleStats,
    estimate_survival,
    make_rng,
    sample_tree,
)


def _max_z(stats: SampleStats, table) -> float:
    worst = 0.0
    for k in range(1, table.n):
        p = float(table.survival_at(k))
        if p <= 0.0 or p >= 1.0:
            continue
        sigma = math.sqrt(p * (1.0 - p) / stats.trials)
        z = abs(stats.survival_fraction(k) - p) / sigma
        worst = max(worst, z)
    return worst


def test_same_seed_reproduces_counts():
    a = estimate_survival("X", 50, 4000, seed=123)
    b = estimate_survival("X", 50, 4000, seed=123)
    assert a.survival_counts == b.survival_counts
    assert a.rng_algorithm == RNG_ALGORITHM
    c = estimate_survival("X", 50, 4000, seed=124)
    assert c.survival_counts != a.survival_counts


def test_short_run_counts_are_the_first_rows_of_a_full_batch():
    # the final batch holds only the trials still needed; the shuffle fills
    # rows in order, so X counts match the first `trials` rows of a full batch
    n, seed = 30, 404
    full = sampler._dyck_rows(sampler._shuffled_steps(n, sampler._BATCH, make_rng(seed)))
    values = sampler._root_protection_values(full)
    for trials in (1, 999, sampler._BATCH - 1):
        suffix = np.cumsum(np.bincount(values[:trials], minlength=n)[::-1])[::-1]
        expected = {k: int(c) for k, c in enumerate(suffix) if c > 0}
        assert estimate_survival("X", n, trials, seed).survival_counts == expected


def test_sample_tree_returns_right_size():
    rng = make_rng(7)
    for n in (1, 2, 5, 40):
        tree = sample_tree(n, rng)
        assert tree.vertex_count == n


def test_sampler_uniform_over_the_five_trees_of_size_four():
    # 2*10^5 draws, expected 4*10^4 per shape; 4 sigma is about 712
    rng = make_rng(20260142)
    counts = Counter(sample_tree(4, rng).to_parens() for _ in range(200000))
    assert sorted(counts) == [
        "(((())))",
        "((()()))",
        "((())())",
        "(()(()))",
        "(()()())",
    ]
    expected = 200000 / 5
    sigma = math.sqrt(200000 * 0.2 * 0.8)
    for shape, got in counts.items():
        assert abs(got - expected) < 4 * sigma, (shape, got)


def test_sampler_uniform_at_n3():
    # path and cherry, each about half
    rng = make_rng(31)
    counts = Counter(sample_tree(3, rng).to_parens() for _ in range(20000))
    assert sorted(counts) == ["((()))", "(()())"]
    sigma = math.sqrt(20000 * 0.25)
    assert abs(counts["((()))"] - 10000) < 4 * sigma


def test_root_statistic_matches_exact_distribution():
    stats = estimate_survival("X", 4, 100000, seed=5)
    assert _max_z(stats, dist_X_exact(4)) < 4.0
    # k = 1 is certain for any tree with more than one vertex
    assert stats.survival_fraction(1) == 1.0


def test_vertex_statistic_matches_exact_distribution():
    stats = estimate_survival("Y", 4, 100000, seed=6)
    assert _max_z(stats, dist_Y_exact(4)) < 4.0
    stats50 = estimate_survival("Y", 50, 50000, seed=9)
    assert _max_z(stats50, dist_Y_exact(50)) < 4.0


def test_single_vertex_tree_is_degenerate():
    stats = estimate_survival("X", 1, 500, seed=1)
    assert stats.survival_counts == {0: 500}
    assert stats.mean == 0.0
    stats_y = estimate_survival("Y", 1, 500, seed=1)
    assert stats_y.survival_counts == {0: 500}


def test_two_vertex_tree_split():
    # root is 1-protected, the leaf is not; Y picks each with probability 1/2
    stats = estimate_survival("X", 2, 2000, seed=3)
    assert stats.survival_counts == {0: 2000, 1: 2000}
    stats_y = estimate_survival("Y", 2, 20000, seed=3)
    frac = stats_y.survival_fraction(1)
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 20000)


def test_sample_stats_mean_matches_counts():
    stats = estimate_survival("X", 10, 3000, seed=44)
    # mean of the statistic = sum over k >= 1 of survival fractions
    total = sum(
        count for k, count in stats.survival_counts.items() if k >= 1
    )
    assert stats.mean == pytest.approx(total / stats.trials)


def test_validation_errors():
    with pytest.raises(ValueError):
        estimate_survival("Z", 5, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_survival("X", 0, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_survival("X", 5, 0, seed=1)
