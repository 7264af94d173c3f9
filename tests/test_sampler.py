"""Monte Carlo sampler: exact uniformity at small n, fixed-seed statistics.

Statistical assertions use fixed seeds and a 4 sigma budget, so a failure
here means a bug, not bad luck.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

from treeprotect.exact import catalan, dist_X_exact, dist_Y_exact
import numpy as np

from treeprotect import sampler
from treeprotect.sampler import (
    SampleStats,
    estimate_survival,
    make_rng,
    sample_tree,
)
from treeprotect.trees import _protection_values, enumerate_trees


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
    c = estimate_survival("X", 50, 4000, seed=124)
    assert c.survival_counts != a.survival_counts


def test_short_run_counts_are_the_first_rows_of_a_full_batch():
    # the final batch holds only the trials still needed; the shuffle fills
    # rows in order, so X counts match the first `trials` rows of a full batch
    n, seed = 30, 404
    height = sampler._batch_rows(n)
    full = sampler._tree_words(sampler._shuffled_steps(n, height, make_rng(seed)))
    values = sampler._protection_scan(full, np.zeros(height, dtype=int))
    for trials in (1, 999, height - 1):
        suffix = np.cumsum(np.bincount(values[:trials], minlength=n)[::-1])[::-1]
        expected = {k: int(c) for k, c in enumerate(suffix) if c > 0}
        assert estimate_survival("X", n, trials, seed).survival_counts == expected


def test_batch_height_keeps_arrays_within_the_step_budget():
    # 16,384 rows up to n = 256, then as many rows of 2n-1 steps as fit in 2^23
    assert sampler._batch_rows(2) == sampler._batch_rows(256) == 16384
    assert sampler._batch_rows(257) == 16352
    assert sampler._batch_rows(1000) == 4196
    assert sampler._batch_rows(20000) == 209
    assert sampler._batch_rows(2**22) == sampler._batch_rows(10**9) == 1
    for n in (257, 1000, 4099, 20000, 2**22):
        rows = sampler._batch_rows(n)
        assert rows * (2 * n - 1) <= 2**23 < (rows + 1) * (2 * n - 1)


def test_estimate_survival_draws_batches_of_the_capped_height(monkeypatch):
    # a 2^10-step budget gives 17 rows of 59 steps at n = 30, so 40 trials are
    # batches of 17, 17 and 6; Y draws a batch's subtree sizes before its
    # shuffles, one group per size in ascending order, so its counts depend
    # on where the batches end
    n, seed = 30, 405
    monkeypatch.setattr(sampler, "_BATCH_STEPS", 1 << 10)
    assert sampler._batch_rows(n) == 17
    rng = make_rng(seed)
    cdf = sampler._subtree_size_cdf(n)
    values = []
    for rows in (17, 17, 6):
        sizes = np.sort(np.searchsorted(cdf, rng.random(rows), side="right") + 1)
        for m in sorted(set(sizes.tolist())):
            words = sampler._tree_words(sampler._shuffled_steps(m, int((sizes == m).sum()), rng))
            values.append(sampler._root_protection(words))
    suffix = np.cumsum(np.bincount(np.concatenate(values), minlength=n)[::-1])[::-1]
    expected = {k: int(c) for k, c in enumerate(suffix) if c > 0}
    assert estimate_survival("Y", n, 40, seed).survival_counts == expected


# survival counts of stream 4 (X counts are stream 3's); every run past
# n = 2 crosses a batch end
PINNED_COUNTS = {
    ("X", 1, 500, 1): {0: 500},
    ("Y", 1, 500, 1): {0: 500},
    ("X", 2, 2000, 3): {0: 2000, 1: 2000},
    ("Y", 2, 2000, 3): {0: 2000, 1: 992},
    ("X", 200, 16385, 11): {
        0: 16385, 1: 16385, 2: 7298, 3: 2175, 4: 557, 5: 148, 6: 28, 7: 7, 8: 3, 9: 2, 10: 1
    },
    ("Y", 200, 16385, 11): {
        0: 16385, 1: 8067, 2: 2708, 3: 771, 4: 194, 5: 55, 6: 16, 7: 5, 8: 1
    },
    ("X", 257, 16353, 12): {0: 16353, 1: 16353, 2: 7160, 3: 2112, 4: 552, 5: 138, 6: 29, 7: 5, 8: 2},
    ("Y", 257, 16353, 12): {0: 16353, 1: 8170, 2: 2692, 3: 754, 4: 189, 5: 45, 6: 14, 7: 1},
    ("X", 1000, 4197, 13): {0: 4197, 1: 4197, 2: 1797, 3: 571, 4: 141, 5: 24, 6: 5, 7: 2, 8: 1},
    ("Y", 1000, 4197, 13): {0: 4197, 1: 2133, 2: 700, 3: 172, 4: 53, 5: 13, 6: 3, 7: 2},
    # three batches, so that X also pins every draw between its batches
    ("X", 50, 40000, 15): {0: 40000, 1: 40000, 2: 17757, 3: 5414, 4: 1403, 5: 386, 6: 90, 7: 23, 8: 5},
}


@pytest.mark.parametrize("key", sorted(PINNED_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_stream_reproduces_pinned_counts(key):
    assert estimate_survival(*key).survival_counts == PINNED_COUNTS[key]


def _preorder_protection(parens: str) -> list[int]:
    """Oracle protection numbers indexed by preorder, from closing order."""
    stack, opened, preorder_of_closing = [], 0, []
    for ch in parens:
        if ch == "(":
            stack.append(opened)
            opened += 1
        else:
            preorder_of_closing.append(stack.pop())
    out = [0] * opened
    for p, value in zip(preorder_of_closing, _protection_values(parens)):
        out[p] = value
    return out


def test_protection_scan_matches_the_oracle_at_every_vertex():
    for n in range(1, 10):
        trees = [tree.parens for tree in enumerate_trees(n)]
        words = np.array([[1 if ch == "(" else -1 for ch in t] for t in trees], dtype=np.int8)
        expected = np.array([_preorder_protection(t) for t in trees])
        for p in range(n):
            got = sampler._protection_scan(words, np.full(len(trees), p))
            assert got.tolist() == expected[:, p].tolist(), (n, p)
        # the root-only reader of X and of the subtree-size route
        assert sampler._root_protection(words).tolist() == expected[:, 0].tolist(), n


# the whole-tree pick route keeps stream 3's Y draws: its counts are the Y
# pins of stream 3
PICK_ROUTE_COUNTS = {
    (2, 2000, 3): {0: 2000, 1: 1020},
    (257, 16353, 12): {0: 16353, 1: 8128, 2: 2704, 3: 767, 4: 193, 5: 41, 6: 6, 7: 4, 8: 1},
}


@pytest.mark.parametrize("key", sorted(PICK_ROUTE_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_pick_route_reproduces_stream_3_counts(key):
    assert sampler._estimate_Y_by_picks(*key).survival_counts == PICK_ROUTE_COUNTS[key]


def _subtree_size_weights(n: int) -> list[int]:
    """C_(m-1) L(n-m+1) for m = 1..n: pointed trees whose marked vertex has m descendants."""
    leaves = [1] + [math.comb(2 * p - 2, p - 1) // 2 for p in range(2, n + 1)]
    return [catalan(m - 1) * leaves[n - m] for m in range(1, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 1000])
def test_subtree_size_cdf_matches_the_exact_law(n):
    weights = _subtree_size_weights(n)
    # every vertex of every n-vertex tree is pointed once
    total = n * catalan(n - 1)
    assert sum(weights) == total
    exact = [float(Fraction(partial, total)) for partial in accumulate(weights)]
    got = sampler._subtree_size_cdf(n)
    assert got[-1] == 1.0
    assert np.all(np.diff(got) > 0)
    assert np.max(np.abs(got - np.array(exact))) <= 1e-12


def test_subtree_size_mean_at_200():
    n = 200
    weights = _subtree_size_weights(n)
    mean = Fraction(sum(m * w for m, w in enumerate(weights, 1)), n * catalan(n - 1))
    assert round(float(mean), 4) == 13.0096
    pmf = np.diff(sampler._subtree_size_cdf(n), prepend=0.0)
    assert round(float(pmf @ np.arange(1, n + 1)), 4) == 13.0096


def test_subtree_route_matches_the_oracle_vertex_law():
    # the law of Y from every vertex of every tree, independent of the
    # pointing decomposition the route rests on
    for n in range(1, 10):
        tally = Counter(v for tree in enumerate_trees(n) for v in _protection_values(tree.parens))
        vertices = n * catalan(n - 1)
        trials = 20000
        stats = estimate_survival("Y", n, trials, seed=500 + n)
        assert max(stats.survival_counts) <= max(tally), n
        for k in range(1, max(tally) + 1):
            p = sum(c for v, c in tally.items() if v >= k) / vertices
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(stats.survival_fraction(k) - p) < 4 * sigma, (n, k)


def test_subtree_route_agrees_with_whole_tree_picks():
    # two-sample test at n = 200: pooled binomial sigma of the difference
    n, trials = 200, 10**5
    by_size = estimate_survival("Y", n, trials, seed=3001)
    by_pick = sampler._estimate_Y_by_picks(n, trials, seed=3002)
    for k in range(1, 6):
        a, b = by_size.survival_fraction(k), by_pick.survival_fraction(k)
        pooled = (a + b) / 2
        sigma = math.sqrt(pooled * (1.0 - pooled) * 2 / trials)
        assert abs(a - b) < 4 * sigma, (k, a, b)


def test_one_row_must_fit_the_step_budget(monkeypatch):
    # 2n-1 steps per row: n = 2^22 fits 2^23 steps, n = 2^22 + 1 does not
    with pytest.raises(ValueError, match="at most 4194304"):
        estimate_survival("X", 2**22 + 1, 1, seed=1)
    with pytest.raises(ValueError, match="at most 4194304"):
        sample_tree(2**22 + 1, make_rng(1))
    # the same edge under a 2^10-step budget, where the largest tree is cheap
    monkeypatch.setattr(sampler, "_BATCH_STEPS", 1 << 10)
    assert estimate_survival("X", 512, 1, seed=1).trials == 1
    assert len(sample_tree(512, make_rng(1)).parens) == 1024
    with pytest.raises(ValueError, match="at most 512"):
        estimate_survival("Y", 513, 1, seed=1)
    with pytest.raises(ValueError, match="at most 512"):
        sample_tree(513, make_rng(1))


def test_sample_tree_returns_right_size():
    rng = make_rng(7)
    for n in (1, 2, 5, 40):
        tree = sample_tree(n, rng)
        assert len(tree.parens) == 2 * n


def test_sampler_uniform_over_the_five_trees_of_size_four():
    # 2*10^5 draws in one batch, expected 4*10^4 per shape; 4 sigma is about 712
    rng = make_rng(20260142)
    rows = sampler._tree_words(sampler._shuffled_steps(4, 200000, rng))
    shapes, tallies = np.unique(rows, axis=0, return_counts=True)
    words = ("".join("(" if s == 1 else ")" for s in w) for w in shapes)
    counts = dict(zip(words, tallies.tolist()))
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
    # path and cherry, each about half, from one batch of 20,000 rows
    rows = sampler._tree_words(sampler._shuffled_steps(3, 20000, make_rng(31)))
    shapes, tallies = np.unique(rows, axis=0, return_counts=True)
    words = ("".join("(" if s == 1 else ")" for s in w) for w in shapes)
    counts = dict(zip(words, tallies.tolist()))
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
