"""Monte Carlo sampler: exact uniformity at small n, fixed-seed statistics.

Statistical assertions use fixed seeds.  The chain's gates take the exact
binomial tail of each observed count and fail below the two-sided level
of 4 sigma, so a correct sampler fails one of them about once in 200 runs
of new seeds, however small a cell's expected count.
"""

import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache, partial
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
    """Survival counts from scalar draws, state by state.

    Y first splits the trials over subtree sizes; then each generation
    takes its states in ascending key order, first one binomial each for
    the trials with no leaf in the generation, then one multinomial per
    state with survivors over its row, whose last cell is the remainder.
    """
    rng = make_rng(seed)
    if statistic == "X":
        states = {(1, n): trials}
    else:
        sizes = rng.multinomial(trials, sampler._subtree_size_pmf(n))
        states = {(1, m): int(c) for m, c in enumerate(sizes.tolist(), 1) if c}
    leaves = []
    while states:
        survivors = {}
        for d, m in sorted(states):
            chance = sampler._leafless(np.array([d]), np.array([m]))[0]
            survivors[d, m] = int(rng.binomial(states[d, m], chance))
        tally = sum(states.values()) - sum(survivors.values())
        below = {}
        for (d, m), count in survivors.items():
            if not count:
                continue
            row = sampler._chain_tables(np.array([d]), np.array([m]))[0]
            *steps, rest = rng.multinomial(count, row).tolist()
            tally += rest
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
    # binomials over an array and a 2-D multinomial row by row, and a zero
    # cell draws nothing
    monkeypatch.setattr(sampler, "_BATCH", 17)
    expected = _chain_by_states(statistic, n, 2000, 405)
    assert estimate_survival(statistic, n, 2000, 405).counts == expected


# survival counts of stream 9 under numpy 2.4.6: per generation, one binomial
# draw of each state's survivors, then one multinomial draw per state with
# survivors; Y first splits the trials over subtree sizes; the runs at
# n = 2^22 reach the widest rows
PINNED_COUNTS = {
    ("X", 1, 500, 1): {0: 500},
    ("Y", 1, 500, 1): {0: 500},
    ("X", 2, 2000, 3): {0: 2000, 1: 2000},
    ("Y", 2, 2000, 3): {0: 2000, 1: 1006},
    ("X", 9, 20000, 16): {
        0: 20000, 1: 20000, 2: 8829, 3: 2849, 4: 877, 5: 262, 6: 97, 7: 34, 8: 18
    },
    ("Y", 9, 20000, 16): {0: 20000, 1: 9951, 2: 3302, 3: 924, 4: 248, 5: 65, 6: 21, 7: 6, 8: 4},
    ("X", 200, 16385, 11): {
        0: 16385, 1: 16385, 2: 7372, 3: 2180, 4: 572, 5: 161, 6: 47, 7: 18, 8: 3, 9: 2
    },
    ("Y", 200, 16385, 11): {0: 16385, 1: 8147, 2: 2687, 3: 748, 4: 184, 5: 58, 6: 8, 7: 2},
    ("X", 257, 16353, 12): {
        0: 16353, 1: 16353, 2: 7319, 3: 2221, 4: 592, 5: 156, 6: 36, 7: 12, 8: 1
    },
    ("Y", 257, 16353, 12): {0: 16353, 1: 8261, 2: 2707, 3: 710, 4: 181, 5: 38, 6: 9, 7: 1, 8: 1},
    ("X", 1000, 4197, 13): {
        0: 4197, 1: 4197, 2: 1875, 3: 567, 4: 135, 5: 42, 6: 8, 7: 4, 8: 1, 9: 1
    },
    ("Y", 1000, 4197, 13): {0: 4197, 1: 2121, 2: 711, 3: 200, 4: 51, 5: 12, 6: 4},
    ("X", 50, 40000, 15): {
        0: 40000, 1: 40000, 2: 17643, 3: 5232, 4: 1428, 5: 367, 6: 95, 7: 21, 8: 8, 9: 4, 10: 2
    },
    ("X", 3000, 20000, 17): {
        0: 20000, 1: 20000, 2: 8860, 3: 2682, 4: 707, 5: 185, 6: 39, 7: 7, 8: 2
    },
    ("Y", 3000, 20000, 17): {
        0: 20000, 1: 10013, 2: 3305, 3: 921, 4: 223, 5: 58, 6: 14, 7: 4, 8: 3, 9: 1, 10: 1
    },
    ("X", 2**22, 10**4, 18): {0: 10000, 1: 10000, 2: 4465, 3: 1313, 4: 318, 5: 83, 6: 24, 7: 6},
    ("Y", 2**22, 10**4, 19): {0: 10000, 1: 4961, 2: 1607, 3: 410, 4: 108, 5: 32, 6: 7, 7: 1, 8: 1},
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
    # push probability mass through every state as the sampler splits it:
    # the chance of no leaf first, then the row, the law of the next
    # generation's size given no leaf; the mass reaching generation k is
    # P(X_n >= k)
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
                    one = np.array([d]), np.array([m])
                    chance = sampler._leafless(*one)[0]
                    row = sampler._chain_tables(*one)[0] if chance else []
                    tables[d, m] = chance, list(row)
                chance, row = tables[d, m]
                # a zero column, past the table, carries nothing, and a state
                # with a sure leaf has no row
                for e, weight in enumerate(row, d):
                    if weight:
                        below[e, m - d] = below.get((e, m - d), 0.0) + mass * chance * weight
            states = below
        counts = dist_X_exact(n).counts
        assert len(survival) == len(counts), n
        worst = max(worst, *(abs(s - c / counts[0]) for s, c in zip(survival, counts)))
    assert worst <= 1e-15


def _forests(d: int, m: int) -> int:
    """F(d, m): plane forests of d trees and m vertices (0 when m < d)."""
    return d * math.comb(2 * m - d - 1, m - 1) // m if m >= d else 0


# every state with m <= 60, and wide states that reach the cut at e = 2d + 96;
# the live ones, m >= 2d, are those whose generation can be leafless
_LEAFLESS_STATES = [(d, m) for m in range(1, 61) for d in range(1, m + 1)] + [
    (d, m) for d in (1, 2, 5, 20, 60) for m in (500, 3000)
]
_LIVE_STATES = [(d, m) for d, m in _LEAFLESS_STATES if m >= 2 * d]


def test_chain_tables_do_not_depend_on_the_states_built_beside_them():
    # a generation builds each live state's row among the others of its
    # chunk, so that row must equal, byte for byte, its lone build over the
    # lone width, and be zero past it
    d, m = zip(*_LIVE_STATES)
    d = np.array(d + (1, 7, 40))
    m = np.array(m + (2**22, 4000000, 4194000))
    together = sampler._chain_tables(d, m)
    for row, one_d, one_m in zip(together, d, m):
        alone = sampler._chain_tables(one_d[None], one_m[None])[0]
        assert row[: alone.size].tobytes() == alone.tobytes(), (one_d, one_m)
        assert not row[alone.size :].any(), (one_d, one_m)


def test_chain_tables_stop_past_the_bulk():
    # a live state's table runs from e = d to e = min(m - d, 2d + 96), so its
    # row is positive up to column min(m - d, 2d + 96) - d and zero after,
    # up to the chunk's widest table and in the remainder cell after it
    d = np.array([1, 2, 3, 5, 1])
    m = np.array([2, 4, 500, 12, 10**6])
    rows = sampler._chain_tables(d, m)
    # (3, 500) has the chunk's widest table, e = 3..102, and (1, 10^6) alone
    # runs over e = 1..98; each adds the remainder cell
    assert rows.shape == (5, 101)
    assert sampler._chain_tables(d[4:], m[4:]).shape == (1, 99)
    for row, one_d, one_m in zip(rows, d, m):
        width = min(one_m - one_d, 2 * one_d + 96) - one_d + 1
        assert np.all(row[:width] > 0) and not row[width:].any(), (one_d, one_m)
    assert rows[0, 0] == rows[1, 0] == 1.0  # (1, 2) and (2, 4): one leafless shape
    # (3, 500), cut at e = 102 of 497, and (1, 10^6): each row is a law
    assert abs(rows[2].sum() - 1.0) < 1e-15
    assert abs(rows[4].sum() - 1.0) < 1e-15


@cache
def _kept_weights(d: int, m: int) -> tuple[tuple[int, ...], int]:
    """C(e-1, d-1) F(e, m - d) for e = d to min(m - d, 2d + 96), the table's end, and F(2d, m)."""
    r = m - d
    kept = tuple(math.comb(e - 1, d - 1) * _forests(e, r) for e in range(d, min(r, 2 * d + 96) + 1))
    return kept, _forests(2 * d, m)


def test_chain_rows_are_the_exact_transition_counts():
    # the entry for e is C(e-1, d-1) F(e, m - d) / F(2d, m), the weight that
    # _chain_counts carries from (d, m) to (e, m - d) over the leafless
    # forests, for e = d up to the table's end, and 0 elsewhere; int / int
    # rounds the exact ratio once
    d, m = map(np.array, zip(*_LIVE_STATES))
    worst = 0.0
    for row, state in zip(sampler._chain_tables(d, m), _LIVE_STATES):
        kept, leafless = _kept_weights(*state)
        for column, weight in enumerate(kept):
            worst = max(worst, abs(row[column] / (weight / leafless) - 1))
        assert not row[len(kept) :].any(), state
    assert worst <= 1e-13


def test_chain_rows_keep_all_but_the_cut_tail():
    # a row sums to the exact share of its law at e <= 2d + 96 (1 when
    # m - d <= 2d + 96), and rounding never takes it past 1
    d, m = map(np.array, zip(*_LIVE_STATES))
    sums = sampler._chain_tables(d, m).sum(axis=1)
    for total, state in zip(sums, _LIVE_STATES):
        kept, leafless = _kept_weights(*state)
        assert abs(total - sum(kept) / leafless) <= 1e-15, state
    assert sums.max() <= 1 + 1e-15


def test_leafless_forests_are_forests_of_twice_as_many_trees():
    # a root with children is an ordered pair of trees (T - z = T^2), so the
    # forests whose d roots all have children are the forests of 2d trees
    for m in range(1, 61):
        for d in range(1, m + 1):
            ways = (math.comb(e - 1, d - 1) * _forests(e, m - d) for e in range(d, m - d + 1))
            leafless = sum(ways)
            assert leafless == _forests(2 * d, m), (d, m)
            assert (leafless == 0) == (m < 2 * d), (d, m)


def test_leafless_is_the_exact_ratio():
    # F(2d, m) / F(d, m), rounded from its product of d ratios; 0 exactly when
    # m < 2d, where a leaf is sure
    d, m = map(np.array, zip(*_LEAFLESS_STATES))
    chance = sampler._leafless(d, m)
    worst = 0.0
    for p, (one_d, one_m) in zip(chance, _LEAFLESS_STATES):
        if one_m < 2 * one_d:
            assert p == 0.0, (one_d, one_m)
        else:
            exact = Fraction(_forests(2 * one_d, one_m), _forests(one_d, one_m))
            worst = max(worst, abs(p / float(exact) - 1))
    assert worst <= 1e-15


def test_leafless_ways_count_the_next_level():
    # over the states that _chain_counts reaches at generation k, the ways
    # times F(2d, m) count the trees whose root is (k+1)-protected
    for n in range(1, 41):
        r = dist_X_exact(n).counts + (0,)
        states, k = {(1, n): 1}, 0
        while states:
            assert sum(ways * _forests(2 * d, m) for (d, m), ways in states.items()) == r[k + 1]
            below = {}
            for (d, m), ways in states.items():
                for e in range(d, m - d + 1):
                    below[e, m - d] = below.get((e, m - d), 0) + ways * math.comb(e - 1, d - 1)
            states, k = below, k + 1


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: SampleStats((3, 1)).survival_fraction(-1),
            "protection level must be nonnegative",
            id="SampleStats((3, 1)).survival_fraction(-1)",
        ),
    ],
)
def test_bad_input_raises_value_error_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("statistic", ["Z", "x", ""])
def test_word_route_rejects_other_statistics(statistic):
    # without the check, any statistic but "X" would be read at a picked vertex as Y
    with pytest.raises(ValueError, match="statistic must be 'X' or 'Y'"):
        sampler._estimate_by_words(statistic, 5, 100, 1)
