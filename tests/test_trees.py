"""Tests for the brute-force layer: tree encoding, enumeration, oracles."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprotect.exact import _protection_counts, catalan
from treeprotect.sampler import _chain_counts
from treeprotect.trees import (
    PlaneTree,
    _balanced_words,
    _check_oracle_size,
    _protection_values,
    _survival_tallies,
    enumerate_trees,
    leaf_count,
    oracle_r,
    oracle_s,
    protection_number,
    protection_profile,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def _at_least(profile: tuple[int, ...], k: int) -> int:
    """Vertices with protection >= k; a profile stops at the largest level present."""
    return profile[k] if k < len(profile) else 0


def test_parens_roundtrip_small():
    # the word is the whole tree: no second, nested form is kept
    assert [field.name for field in dataclasses.fields(PlaneTree)] == ["parens"]
    for text in ["()", "(())", "(()())", "((())())", "(()(()))"]:
        assert PlaneTree(text).parens == text


def test_from_parens_rejects_malformed():
    for bad in ["", "(", ")", ")(", "()()", "(()", "(x)", "(())x"]:
        with pytest.raises(ValueError):
            PlaneTree(bad)


def test_vertex_count_matches_parens_length():
    tree = PlaneTree("((())()(()))")
    assert protection_profile(tree)[0] == len(tree.parens) // 2 == 6


def test_enumeration_counts_are_catalan():
    for n in range(1, 10):
        assert sum(1 for _ in enumerate_trees(n)) == CATALAN[n - 1]


def test_enumeration_order_is_lexicographic_n4():
    got = [t.parens for t in enumerate_trees(4)]
    assert got == ["(((())))", "((()()))", "((())())", "(()(()))", "(()()())"]


def test_enumeration_trees_distinct():
    seen = set()
    for tree in enumerate_trees(6):
        assert tree not in seen
        seen.add(tree)


def test_protection_number_examples():
    # single vertex is a leaf
    assert protection_number(PlaneTree("()")) == 0
    # path of length 3: root three edges from its only leaf
    assert protection_number(PlaneTree("(((())))")) == 3
    # root with a leaf child is only 1-protected no matter what else hangs off
    assert protection_number(PlaneTree("(()(()))")) == 1


def test_protection_profile_survival_counts():
    tree = PlaneTree("((())())")
    # two leaves, the vertex above one of them, and the root (leaf child)
    assert protection_profile(tree) == (4, 2)


def test_profile_at_least_is_survival_count():
    tree = PlaneTree("(((())))")
    profile = protection_profile(tree)
    assert profile == (4, 3, 2, 1)
    assert _at_least(profile, 3) == 1
    assert _at_least(profile, 4) == 0


def test_oracle_r_golden_values():
    assert oracle_r(4, 2) == 2
    assert oracle_r(4, 3) == 1
    # k = 0 counts every tree
    for n in range(1, 8):
        assert oracle_r(n, 0) == CATALAN[n - 1]
    # a root cannot be protected beyond the tree height
    assert oracle_r(4, 4) == 0


def test_oracle_s_golden_values():
    assert oracle_s(3, 1) == 3
    assert oracle_s(3, 2) == 1
    for n in range(1, 8):
        assert oracle_s(n, 0) == n * CATALAN[n - 1]


def test_oracle_r_matches_direct_enumeration():
    for n in range(1, 9):
        for k in range(0, n + 1):
            direct = sum(1 for t in enumerate_trees(n) if protection_number(t) >= k)
            assert oracle_r(n, k) == direct


def test_oracle_s_matches_profile_sums():
    for n in range(1, 9):
        for k in range(0, n + 1):
            direct = sum(_at_least(protection_profile(t), k) for t in enumerate_trees(n))
            assert oracle_s(n, k) == direct


def _tallies_word_by_word(n):
    """The tallies of _survival_tallies, rescanning every word on its own."""
    root_hist = [0] * (n + 1)
    vertex_hist = [0] * (n + 1)
    for word in _balanced_words(n - 1):
        values = _protection_values("(" + word + ")")
        root_hist[values[-1]] += 1
        for p in values:
            vertex_hist[p] += 1

    def survival(hist):
        return tuple(sum(hist[k:]) for k in range(n + 1))

    return survival(root_hist), survival(vertex_hist)


def test_prefix_state_count_matches_word_by_word_tallies():
    for n in range(1, 12):
        root_ge, vertex_ge = _survival_tallies(n)
        assert (root_ge, vertex_ge) == _tallies_word_by_word(n)
        # every word was counted, and every vertex of every word tallied
        assert root_ge[0] == catalan(n - 1)
        assert vertex_ge[0] == n * catalan(n - 1)


def test_survival_tallies_n13_literals():
    assert _survival_tallies(13) == (
        (208012, 208012, 91144, 28855, 8419, 2426, 704, 207, 62, 19, 6, 2, 1, 0),
        (2704156, 1352078, 442118, 121923, 32189, 8431, 2211, 582, 154, 41, 11, 3, 1, 0),
    )


def test_survival_tallies_n14_literals():
    assert _survival_tallies(14) == (
        (742900, 742900, 325878, 102731, 29737, 8481, 2430, 704, 207, 62, 19, 6, 2, 1, 0),
        (10400600, 5200300, 1703052, 469369, 123652, 32289, 8436, 2211, 582, 154, 41, 11, 3, 1, 0),
    )


def test_oracle_bound_enforced():
    with pytest.raises(ValueError, match="at most 16 for enumeration, got 17"):
        oracle_r(17, 1)
    with pytest.raises(ValueError, match="at most 16 for enumeration, got 20"):
        oracle_s(20, 1)
    with pytest.raises(ValueError, match="at most 16 for enumeration, got 17"):
        next(enumerate_trees(17))


def test_oracle_at_its_cap_matches_the_exact_engine():
    _check_oracle_size(16)
    with pytest.raises(ValueError, match="got 17"):
        _check_oracle_size(17)
    for n in (15, 16):
        root_ge, vertex_ge = _survival_tallies(n)
        r, s = _protection_counts(n)
        assert root_ge == r + (0,)
        assert vertex_ge == s + (0,)
        assert root_ge[:n] == _chain_counts(n)


def test_leaf_count_examples():
    assert leaf_count(PlaneTree("()")) == 1
    assert leaf_count(PlaneTree("(()()())")) == 3


def _protection_by_bfs(tree: PlaneTree) -> int:
    """Independent re-derivation: the smallest depth of a leaf "()" in the word."""
    word = tree.parens
    depth = 0
    leaf_depths = []
    for i, ch in enumerate(word):
        if ch == ")":
            depth -= 1
            continue
        if word[i + 1] == ")":
            leaf_depths.append(depth)
        depth += 1
    return min(leaf_depths)


_POOLS = {n: list(enumerate_trees(n)) for n in range(1, 10)}


@st.composite
def plane_trees(draw):
    pool = _POOLS[draw(st.integers(min_value=1, max_value=9))]
    return pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]


@given(plane_trees())
@settings(max_examples=150, deadline=None)
def test_protection_number_agrees_with_bfs(tree):
    assert protection_number(tree) == _protection_by_bfs(tree)


@given(plane_trees())
@settings(max_examples=150, deadline=None)
def test_roundtrip_and_profile_consistency(tree):
    assert PlaneTree(tree.parens) == tree
    assert hash(PlaneTree(tree.parens)) == hash(tree)
    profile = protection_profile(tree)
    assert _at_least(profile, protection_number(tree)) >= 1
    assert profile[0] == len(tree.parens) // 2
    assert profile[0] - _at_least(profile, 1) == leaf_count(tree)
