"""Monte Carlo sampler: exact uniformity at small n, fixed-seed statistics.

Statistical assertions use fixed seeds.  The chain's gates take the exact
binomial tail of each observed count and fail below the two-sided level
of 4 sigma, so a correct sampler fails one of them about once in 200 runs
of new seeds, however small a cell's expected count.
"""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate

import pytest

from treeprotect.exact import _protection_counts, catalan, dist_X_exact, dist_Y_exact
import numpy as np

from treeprotect import sampler
from treeprotect.sampler import (
    SampleStats,
    estimate_survival,
    make_rng,
    sample_tree,
)
from treeprotect.trees import (
    PlaneTree,
    _protection_values,
    enumerate_trees,
    oracle_r,
    oracle_s,
    protection_profile,
)


# the two-sided normal tail at 4 sigma, 2 (1 - Phi(4))
_LEVEL = 6.334e-5


def _survival_tail(stats: SampleStats, k: int, p: float) -> float:
    """Two-sided exact binomial tail of the count of trials with statistic >= k.

    Twice the smaller of P(C <= count) and P(C >= count) for C binomial
    over the trials with probability p, at most 1; the terms fall away
    from the mean, so the sum stops once they are negligible.  With p = 0
    or 1 the tail is 1 at the sure count and 0 elsewhere.
    """
    count = stats.counts[k] if k < len(stats.counts) else 0
    trials = stats.trials
    if p in (0.0, 1.0):
        return float(count == trials * p)
    head = math.lgamma(trials + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    step = 1 if count >= trials * p else -1
    tail, j = 0.0, count
    while 0 <= j <= trials:
        term = math.exp(
            head - math.lgamma(j + 1) - math.lgamma(trials - j + 1) + j * log_p + (trials - j) * log_q
        )
        tail += term
        if term <= tail * 1e-17:
            break
        j += step
    return min(1.0, 2 * tail)


def _min_tail(stats: SampleStats, table) -> float:
    """The smallest two-sided tail of the survival counts against an exact table."""
    return min(_survival_tail(stats, k, c / table.counts[0]) for k, c in enumerate(table.counts[1:], 1))


def test_same_seed_reproduces_counts():
    a = estimate_survival("X", 50, 4000, seed=123)
    b = estimate_survival("X", 50, 4000, seed=123)
    assert a.counts == b.counts
    c = estimate_survival("X", 50, 4000, seed=124)
    assert c.counts != a.counts


def _survival_tuple(values) -> tuple[int, ...]:
    """Survival counts of a list of sampled values, indexed by level."""
    suffix = np.cumsum(np.bincount(values)[::-1])[::-1]
    return tuple(int(c) for c in suffix)


def test_short_run_counts_are_the_first_rows_of_a_full_batch():
    # the final batch holds only the trials still needed; the shuffle fills
    # rows in order, so word-route X counts match the first `trials` rows
    # of a full batch
    n, seed = 30, 404
    height = sampler._batch_rows(n)
    full = sampler._tree_words(sampler._shuffled_steps(n, height, make_rng(seed)))
    values = sampler._protection_scan(full, np.zeros(height, dtype=int))
    for trials in (1, 999, height - 1, height):
        expected = _survival_tuple(values[:trials])
        assert sampler._estimate_by_words("X", n, trials, seed).counts == expected


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


def _chain_by_states(statistic, n, trials, seed) -> tuple[int, ...]:
    """Survival counts from one 1-D multinomial draw per chain state.

    Y first splits the trials over subtree sizes; then each generation
    takes its states in ascending key order, each with its own table.
    """
    rng = make_rng(seed)
    if statistic == "X":
        states = {(1, n): trials}
    else:
        sizes = rng.multinomial(trials, sampler._subtree_size_pmf(n))
        states = {(1, m): int(c) for m, c in enumerate(sizes.tolist(), 1) if c}
    leaves = []
    while states:
        below, tally = {}, 0
        for d, m in sorted(states):
            row = sampler._chain_tables(np.array([d]), np.array([m]))[0]
            *steps, leaf = rng.multinomial(states[d, m], np.append(row, 0.0)).tolist()
            tally += leaf
            # column e - d moves its trials on to (e, m - d)
            for e, c in enumerate(steps, d):
                if c:
                    below[e, m - d] = below.get((e, m - d), 0) + c
        leaves.append(tally)
        states = below
    return tuple(accumulate(reversed(leaves)))[::-1]


@pytest.mark.parametrize("statistic", ["X", "Y"])
@pytest.mark.parametrize("n", [30, 200])
def test_estimate_survival_draws_one_multinomial_per_state(monkeypatch, statistic, n):
    # chunks of 17 states, so that generations cross chunk ends: numpy draws
    # a 2-D multinomial row by row, and a zero cell draws nothing
    monkeypatch.setattr(sampler, "_BATCH", 17)
    expected = _chain_by_states(statistic, n, 2000, 405)
    assert estimate_survival(statistic, n, 2000, 405).counts == expected


# survival counts of stream 7, one multinomial draw per chain state and
# generation; Y first splits the trials over subtree sizes; the runs at
# n = 2^22 reach the widest rows
PINNED_COUNTS = {
    ("X", 1, 500, 1): {0: 500},
    ("Y", 1, 500, 1): {0: 500},
    ("X", 2, 2000, 3): {0: 2000, 1: 2000},
    ("Y", 2, 2000, 3): {0: 2000, 1: 1006},
    ("X", 9, 20000, 16): {
        0: 20000, 1: 20000, 2: 8708, 3: 2900, 4: 945, 5: 284, 6: 86, 7: 28, 8: 14
    },
    ("Y", 9, 20000, 16): {0: 20000, 1: 9951, 2: 3227, 3: 880, 4: 233, 5: 57, 6: 10, 7: 3, 8: 1},
    ("X", 200, 16385, 11): {
        0: 16385, 1: 16385, 2: 7269, 3: 2143, 4: 570, 5: 130, 6: 42, 7: 11, 8: 3, 9: 1
    },
    ("Y", 200, 16385, 11): {
        0: 16385, 1: 8147, 2: 2665, 3: 759, 4: 206, 5: 48, 6: 15, 7: 6, 8: 2, 9: 1, 10: 1
    },
    ("X", 257, 16353, 12): {
        0: 16353, 1: 16353, 2: 7309, 3: 2123, 4: 515, 5: 136, 6: 28, 7: 6, 8: 2
    },
    ("Y", 257, 16353, 12): {0: 16353, 1: 8261, 2: 2745, 3: 741, 4: 171, 5: 42, 6: 11, 7: 1},
    ("X", 1000, 4197, 13): {0: 4197, 1: 4197, 2: 1817, 3: 517, 4: 144, 5: 28, 6: 9, 7: 3, 8: 2},
    ("Y", 1000, 4197, 13): {0: 4197, 1: 2121, 2: 732, 3: 200, 4: 55, 5: 15, 6: 5, 7: 2, 8: 1},
    ("X", 50, 40000, 15): {
        0: 40000, 1: 40000, 2: 17818, 3: 5399, 4: 1453, 5: 370, 6: 96, 7: 21, 8: 3, 9: 2
    },
    ("X", 3000, 20000, 17): {
        0: 20000, 1: 20000, 2: 8925, 3: 2676, 4: 733, 5: 180, 6: 42, 7: 10, 8: 1
    },
    ("Y", 3000, 20000, 17): {0: 20000, 1: 10013, 2: 3343, 3: 918, 4: 234, 5: 58, 6: 13, 7: 1, 8: 1},
    ("X", 2**22, 10**4, 18): {
        0: 10000, 1: 10000, 2: 4450, 3: 1308, 4: 358, 5: 83, 6: 22, 7: 5, 8: 1
    },
    ("Y", 2**22, 10**4, 19): {0: 10000, 1: 4961, 2: 1595, 3: 427, 4: 99, 5: 23, 6: 4, 7: 1},
}


@pytest.mark.parametrize("key", sorted(PINNED_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_stream_reproduces_pinned_counts(key):
    assert dict(enumerate(estimate_survival(*key).counts)) == PINNED_COUNTS[key]


# the X word route keeps stream 4's draws (and streams 1-3's): its counts
# are the X pins of stream 4; every run past n = 2 crosses a batch end
WORD_ROUTE_COUNTS = {
    (1, 500, 1): {0: 500},
    (2, 2000, 3): {0: 2000, 1: 2000},
    (200, 16385, 11): {
        0: 16385, 1: 16385, 2: 7298, 3: 2175, 4: 557, 5: 148, 6: 28, 7: 7, 8: 3, 9: 2, 10: 1
    },
    (257, 16353, 12): {0: 16353, 1: 16353, 2: 7160, 3: 2112, 4: 552, 5: 138, 6: 29, 7: 5, 8: 2},
    (1000, 4197, 13): {0: 4197, 1: 4197, 2: 1797, 3: 571, 4: 141, 5: 24, 6: 5, 7: 2, 8: 1},
    # three batches, so that X also pins every draw between its batches
    (50, 40000, 15): {0: 40000, 1: 40000, 2: 17757, 3: 5414, 4: 1403, 5: 386, 6: 90, 7: 23, 8: 5},
}


@pytest.mark.parametrize("key", sorted(WORD_ROUTE_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_word_route_reproduces_stream_4_counts(key):
    assert dict(enumerate(sampler._estimate_by_words("X", *key).counts)) == WORD_ROUTE_COUNTS[key]


@pytest.mark.parametrize("n", [1, 2, 9, 200, 3000])
def test_chain_matches_the_exact_tables(n):
    # the exact binomial tail per level up to 15; a level with probability
    # 0 or 1 must be reached never or always
    trials = 10**5
    for statistic, table in (("X", dist_X_exact(n)), ("Y", dist_Y_exact(n))):
        stats = estimate_survival(statistic, n, trials, seed=6100 + n)
        assert len(stats.counts) <= n
        for k in range(1, min(n, 16)):
            p = table.counts[k] / table.counts[0]
            assert _survival_tail(stats, k, p) >= _LEVEL, (statistic, k)


def test_chain_counts_equal_the_exact_tables():
    # exact integers from math.comb alone, against the alternating-sum pass
    for n in range(1, 41):
        assert sampler._chain_counts(n) == dist_X_exact(n).counts, n


def test_chain_tables_propagate_the_exact_law():
    # push probability mass through every state with the sampler's float
    # tables; the mass reaching generation k is P(X_n >= k)
    tables = {}
    worst = 0.0
    for n in range(1, 41):
        states = {(1, n): 1.0}
        survival = []
        while states:
            survival.append(sum(states.values()))
            below = {}
            for (d, m), mass in states.items():
                if (d, m) not in tables:
                    tables[d, m] = sampler._chain_tables(np.array([d]), np.array([m]))[0].tolist()
                # a zero column, past the table or in a row with a sure leaf,
                # carries nothing
                for e, weight in enumerate(tables[d, m], d):
                    if weight:
                        below[e, m - d] = below.get((e, m - d), 0.0) + mass * weight
            states = below
        counts = dist_X_exact(n).counts
        assert len(survival) == len(counts), n
        worst = max(worst, *(abs(s - c / counts[0]) for s, c in zip(survival, counts)))
    assert worst <= 1e-15


def _forests(d: int, m: int) -> int:
    """F(d, m): plane forests of d trees and m vertices."""
    return d * math.comb(2 * m - d - 1, m - 1) // m


def test_chain_tables_do_not_depend_on_the_states_built_beside_them():
    # a generation builds each state's row among the others of its chunk,
    # so that row must equal, byte for byte, its lone build over the lone
    # width, and be zero past it
    d, m = zip(*[(d, m) for m in range(1, 61) for d in range(1, m + 1)])
    d = np.array(d + (1, 7, 40))
    m = np.array(m + (2**22, 4000000, 4194000))
    together = sampler._chain_tables(d, m)
    for row, one_d, one_m in zip(together, d, m):
        alone = sampler._chain_tables(one_d[None], one_m[None])[0]
        assert row[: alone.size].tobytes() == alone.tobytes(), (one_d, one_m)
        assert not row[alone.size :].any(), (one_d, one_m)


def test_chain_tables_stop_past_the_bulk():
    # a state's table runs from e = d to e = min(m - d, 2d + 96), empty when
    # m - d < d, so its row is positive up to column min(m - d, 2d + 96) - d
    # and zero after; the row's sum is the probability that generation j
    # holds no leaf
    d = np.array([1, 1, 2, 3, 5, 1])
    m = np.array([1, 2, 3, 500, 9, 10**6])
    rows = sampler._chain_tables(d, m)
    # (3, 500) has the chunk's widest table, e = 3..102, and (1, 10^6) alone
    # runs over e = 1..98
    assert rows.shape == (6, 100)
    assert sampler._chain_tables(d[5:], m[5:]).shape == (1, 98)
    for row, one_d, one_m in zip(rows, d, m):
        width = max(min(one_m - one_d, 2 * one_d + 96) - one_d + 1, 0)
        assert np.all(row[:width] > 0) and not row[width:].any(), (one_d, one_m)
    assert not rows[[0, 2, 4]].any()
    assert rows[1, 0] == 1.0  # (1, 2): the root has one child
    # (3, 500), cut at e = 102 of 497: exact sum over every e
    leafless = sum(math.comb(e - 1, 2) * _forests(e, 497) for e in range(3, 498))
    assert abs(rows[3].sum() - leafless / _forests(3, 500)) < 1e-15
    # (1, 10^6): the root of a huge tree never is a leaf, whatever e it has
    assert abs(rows[5].sum() - 1.0) < 1e-15


def test_chain_rows_are_the_exact_transition_counts():
    # the entry for e is C(e-1, d-1) F(e, m - d) / F(d, m), the weight that
    # _chain_counts carries from (d, m) to (e, m - d), for e = d up to the
    # table's end, and 0 elsewhere; int / int rounds the exact ratio once
    states = [(d, m) for m in range(1, 61) for d in range(1, m + 1)]
    states += [(d, m) for d in (1, 2, 5, 20, 60) for m in (500, 3000)]
    d, m = map(np.array, zip(*states))
    worst = 0.0
    for row, (one_d, one_m) in zip(sampler._chain_tables(d, m), states):
        r = one_m - one_d
        end = min(r, 2 * one_d + 96)
        for e in range(one_d, end + 1):
            exact = math.comb(e - 1, one_d - 1) * _forests(e, r) / _forests(one_d, one_m)
            worst = max(worst, abs(row[e - one_d] / exact - 1))
        assert not row[max(end - one_d + 1, 0) :].any(), (one_d, one_m)
    assert worst <= 1e-13


def test_chain_allocates_nothing_of_size_n():
    # the chain holds its batch and the states it meets, never an array of
    # length n: an int8 one at n = 2^22 would be 4 MiB
    n = 2**22
    estimate_survival("X", n, 10, seed=1)  # numpy's lazy imports
    tracemalloc.start()
    try:
        stats = estimate_survival("X", n, 1000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.trials == 1000
    assert peak < 2**20


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
        # the root-only reader of the X word route
        assert sampler._root_protection(words).tolist() == expected[:, 0].tolist(), n


# the whole-tree pick route keeps stream 3's Y draws: its counts are the Y
# pins of stream 3
PICK_ROUTE_COUNTS = {
    (2, 2000, 3): {0: 2000, 1: 1020},
    (257, 16353, 12): {0: 16353, 1: 8128, 2: 2704, 3: 767, 4: 193, 5: 41, 6: 6, 7: 4, 8: 1},
}


@pytest.mark.parametrize("key", sorted(PICK_ROUTE_COUNTS), ids=lambda key: "-".join(map(str, key)))
def test_pick_route_reproduces_stream_3_counts(key):
    assert dict(enumerate(sampler._estimate_by_words("Y", *key).counts)) == PICK_ROUTE_COUNTS[key]


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
    got = sampler._subtree_size_pmf(n)
    assert np.all(got > 0)
    assert np.max(np.abs(np.cumsum(got) - np.array(exact))) <= 1e-12


def test_subtree_size_mean_at_200():
    n = 200
    weights = _subtree_size_weights(n)
    mean = Fraction(sum(m * w for m, w in enumerate(weights, 1)), n * catalan(n - 1))
    assert round(float(mean), 4) == 13.0096
    pmf = sampler._subtree_size_pmf(n)
    assert round(float(pmf @ np.arange(1, n + 1)), 4) == 13.0096


def test_subtree_route_matches_the_oracle_vertex_law():
    # the law of Y from every vertex of every tree, independent of the
    # pointing decomposition the route rests on
    for n in range(1, 10):
        tally = Counter(v for tree in enumerate_trees(n) for v in _protection_values(tree.parens))
        vertices = n * catalan(n - 1)
        trials = 20000
        stats = estimate_survival("Y", n, trials, seed=500 + n)
        assert len(stats.counts) <= max(tally) + 1, n
        for k in range(1, max(tally) + 1):
            p = sum(c for v, c in tally.items() if v >= k) / vertices
            assert _survival_tail(stats, k, p) >= _LEVEL, (n, k)


def test_pointing_identity_behind_the_subtree_route():
    # s(n, k) = sum_m r(m, k) L(n - m + 1) exactly: a pointed vertex is the root of
    # an m-vertex subtree, and the rest is an (n - m + 1)-vertex tree pointed at
    # one of its L(n - m + 1) leaves; oracle counts up to its cap, exact beyond
    top = 60
    r, s = [None], [None]
    for m in range(1, top + 1):
        if m <= 16:
            r.append([oracle_r(m, k) for k in range(top)])
            s.append([oracle_s(m, k) for k in range(top)])
        else:
            r_m, s_m = _protection_counts(m)
            r.append(list(r_m) + [0] * (top - m))
            s.append(list(s_m) + [0] * (top - m))
    leaves = [0, 1] + [math.comb(2 * p - 2, p - 1) // 2 for p in range(2, top + 1)]
    for n in range(1, top + 1):
        for k in range(top):
            assert s[n][k] == sum(r[m][k] * leaves[n - m + 1] for m in range(1, n + 1)), (n, k)


def test_subtree_route_agrees_with_whole_tree_picks():
    # two-sample test at n = 200: pooled binomial sigma of the difference
    n, trials = 200, 10**5
    by_size = estimate_survival("Y", n, trials, seed=3001)
    by_pick = sampler._estimate_by_words("Y", n, trials, seed=3002)
    for k in range(1, 6):
        a, b = by_size.survival_fraction(k), by_pick.survival_fraction(k)
        pooled = (a + b) / 2
        sigma = math.sqrt(pooled * (1.0 - pooled) * 2 / trials)
        assert abs(a - b) < 4 * sigma, (k, a, b)


def test_sizes_past_the_cap_are_rejected():
    # 2^22 on every route; the chain walks the largest tree as cheaply as any,
    # and one word of the largest tree still fits a word-route batch
    assert estimate_survival("X", 2**22, 1, seed=1).trials == 1
    assert sampler._batch_rows(2**22) == 1
    routes = (
        partial(estimate_survival, "X"),
        partial(estimate_survival, "Y"),
        partial(sampler._estimate_by_words, "X"),
        partial(sampler._estimate_by_words, "Y"),
    )
    for route in routes:
        with pytest.raises(ValueError, match="at most 4194304"):
            route(2**22 + 1, 1, 1)
    with pytest.raises(ValueError, match="at most 4194304"):
        sample_tree(2**22 + 1, make_rng(1))


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
    assert _min_tail(stats, dist_X_exact(4)) >= _LEVEL
    # k = 1 is certain for any tree with more than one vertex
    assert stats.survival_fraction(1) == 1.0


def test_vertex_statistic_matches_exact_distribution():
    stats = estimate_survival("Y", 4, 100000, seed=6)
    assert _min_tail(stats, dist_Y_exact(4)) >= _LEVEL
    stats50 = estimate_survival("Y", 50, 50000, seed=9)
    assert _min_tail(stats50, dist_Y_exact(50)) >= _LEVEL


def test_sample_and_tree_profile_are_counts_led_by_the_total():
    # the shape of DistributionTable.counts: entry k counts statistic >= k
    stats = estimate_survival("Y", 30, 500, seed=8)
    assert type(stats.counts) is tuple and stats.counts[0] == 500 == stats.trials
    assert all(a >= b for a, b in zip(stats.counts, stats.counts[1:]))
    profile = protection_profile(PlaneTree("((())(()()))"))
    assert type(profile) is tuple and profile[0] == 6
    assert profile == (6, 3, 1)


def test_single_vertex_tree_is_degenerate():
    stats = estimate_survival("X", 1, 500, seed=1)
    assert stats.counts == (500,)
    assert stats.mean == 0.0
    stats_y = estimate_survival("Y", 1, 500, seed=1)
    assert stats_y.counts == (500,)


def test_two_vertex_tree_split():
    # root is 1-protected, the leaf is not; Y picks each with probability 1/2
    stats = estimate_survival("X", 2, 2000, seed=3)
    assert stats.counts == (2000, 2000)
    stats_y = estimate_survival("Y", 2, 20000, seed=3)
    assert _survival_tail(stats_y, 1, 0.5) >= _LEVEL


def test_sample_stats_mean_matches_counts():
    stats = estimate_survival("X", 10, 3000, seed=44)
    # mean of the statistic = sum over k >= 1 of survival fractions
    total = sum(stats.survival_fraction(k) for k in range(1, len(stats.counts)))
    assert stats.mean == pytest.approx(total)
    # past the largest value seen, no trial survives
    assert stats.survival_fraction(len(stats.counts)) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        estimate_survival("Z", 5, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_survival("X", 0, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_survival("X", 5, 0, seed=1)


@pytest.mark.parametrize("statistic", ["Z", "x", ""])
def test_word_route_rejects_other_statistics(statistic):
    # without the check, any statistic but "X" would be read at a picked vertex as Y
    with pytest.raises(ValueError, match="statistic must be 'X' or 'Y'"):
        sampler._estimate_by_words(statistic, 5, 100, 1)
