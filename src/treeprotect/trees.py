"""Plane trees, protection numbers, and the exhaustive enumeration oracle.

A plane tree is a rooted tree whose children are linearly ordered.  The
protection number of a vertex is the distance from that vertex to the
nearest leaf inside its own subtree: 0 for a leaf, otherwise one more than
the smallest protection number among its children.  The protection number
of a tree means the protection number of its root.

A tree is stored as nothing but its balanced-parenthesis word: the
maximal subtree rooted at a vertex is the balanced factor that starts at
the vertex's "(", so protection numbers are read off the word in one
left-to-right scan and the enumeration walks words directly.

This module is the ground truth for everything else in the package: it
enumerates every plane tree of up to 16 vertices and counts protection
numbers directly, so the generating-function and asymptotic routes can be
checked against brute force.  The oracle tallies come from one
depth-first walk, one frame per "(" written, that shares every prefix
among the words extending it; it counts each closed vertex once, weighted
by the number of ways to finish its word, and still reaches every complete
word and tallies its root there.  Those completion counts are built here,
so the oracle owes nothing to the exact engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

__all__ = [
    "PlaneTree",
    "ProtectionProfile",
    "protection_number",
    "protection_profile",
    "leaf_count",
    "enumerate_trees",
    "oracle_r",
    "oracle_s",
]

# the oracle walks C_(n-1) words; n = 16 (9.7 million trees) takes about 11 s
_MAX_ORACLE_N = 16


@dataclass(frozen=True)
class PlaneTree:
    """A plane tree stored as its balanced-parenthesis word.

    The word of a tree is "(" + the words of its children, in order, + ")",
    so a single vertex is "()" and every vertex's subtree is a contiguous
    balanced factor.  Construction rejects any other string.
    """

    parens: str

    def __post_init__(self) -> None:
        depth = 0
        for i, ch in enumerate(self.parens, 1):
            if ch not in "()":
                raise ValueError(f"unexpected character {ch!r} in tree text")
            depth += 1 if ch == "(" else -1
            if depth <= 0 and i < len(self.parens):
                raise ValueError("tree text closes its root before the end")
        if depth or not self.parens:
            raise ValueError("empty or unbalanced tree text")


@dataclass(frozen=True, eq=True)
class ProtectionProfile:
    """Survival counts of the protection numbers inside one tree.

    counts[k] is the number of vertices whose protection number is >= k;
    counts[0] equals the vertex count and the values are non-increasing.
    Keys run from 0 to the tree's maximum protection number; at_least(k)
    returns 0 beyond that.
    """

    n: int
    counts: dict[int, int]

    def at_least(self, k: int) -> int:
        if k < 0:
            raise ValueError("protection level must be nonnegative")
        return self.counts.get(k, 0)


def _protection_values(parens: str) -> list[int]:
    """Protection number of every vertex, in subtree-closing order (root last)."""
    stack: list[list[int]] = [[]]
    out: list[int] = []
    for ch in parens:
        if ch == "(":
            stack.append([])
        else:
            kids = stack.pop()
            p = 1 + min(kids) if kids else 0
            out.append(p)
            stack[-1].append(p)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced parenthesis word")
    return out


def protection_number(tree: PlaneTree) -> int:
    """Distance from the root to the nearest leaf of the tree."""
    return _protection_values(tree.parens)[-1]


def protection_profile(tree: PlaneTree) -> ProtectionProfile:
    """Survival counts of all vertex protection numbers, one traversal."""
    values = _protection_values(tree.parens)
    hist = [0] * (max(values) + 1)
    for p in values:
        hist[p] += 1
    survival = list(accumulate(reversed(hist)))[::-1]
    return ProtectionProfile(n=len(values), counts=dict(enumerate(survival)))


def leaf_count(tree: PlaneTree) -> int:
    """Number of leaves; a single vertex counts as one leaf."""
    return tree.parens.count("()")


def _balanced_words(pairs: int) -> Iterator[str]:
    """All balanced parenthesis words with `pairs` pairs, lexicographically.

    "(" sorts before ")", so the first word is "((..))" and the last is
    "()()..()".
    """
    buf: list[str] = []

    def rec(opens_left: int, closes_due: int) -> Iterator[str]:
        if opens_left == 0 and closes_due == 0:
            yield "".join(buf)
            return
        if opens_left:
            buf.append("(")
            yield from rec(opens_left - 1, closes_due + 1)
            buf.pop()
        if closes_due:
            buf.append(")")
            yield from rec(opens_left, closes_due - 1)
            buf.pop()

    yield from rec(pairs, 0)


def _check_oracle_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"tree size must be positive, got {n}")
    if n > _MAX_ORACLE_N:
        raise ValueError(f"tree size must be at most {_MAX_ORACLE_N} for enumeration, got {n}")


def enumerate_trees(n: int) -> Iterator[PlaneTree]:
    """Yield every plane tree with n vertices, in lexicographic parenthesis order."""
    _check_oracle_size(n)
    for word in _balanced_words(n - 1):
        yield PlaneTree("(" + word + ")")


def _completion_counts(n: int) -> list[list[int]]:
    """ways[o][d]: the number of ways to finish an n-vertex tree word.

    o is the number of "(" still to write and d the number of open
    vertices, the root included.  Each step either opens a vertex or
    closes the innermost one, so ways[o][d] = ways[o-1][d+1] + ways[o][d-1];
    with nothing left to open there is one way (close everything), and
    once the root has closed (d = 0) nothing more may be opened.
    """
    ways = [[1] * (n + 1)]
    for o in range(1, n):
        row = [0] * (n + 1)
        for d in range(1, n + 1 - o):
            row[d] = ways[o - 1][d + 1] + row[d - 1]
        ways.append(row)
    return ways


@lru_cache(maxsize=32)
def _survival_tallies(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(root_ge, vertex_ge) survival count vectors over all n-vertex trees.

    root_ge[k] counts trees whose root protection number is >= k, and
    vertex_ge[k] counts (tree, vertex) pairs with vertex protection >= k,
    for k = 0..n.

    One depth-first walk over the words "(" + w + ")", w balanced with
    n - 1 pairs, shares every prefix, one frame per "(" written.  Open
    vertex j (at depth j) holds low[j], the least depth of a leaf among
    its closed descendants, so it closes with protection low - j and a run
    of closes is a running minimum.  A frame has d open vertices, the
    deepest just opened, and o opens left; it recurses once per number of
    closes before the next "(", restoring every slot it writes.  A vertex
    closing at depth j >= 1 is tallied once, weighted by the ways[o][j]
    words that finish the prefix: its subtree is complete.  At o = 1 each
    of the d words puts its last leaf under the vertex at some depth L < d;
    that leaf and its parent (protection 1) are tallied in bulk, and the
    forced closes below L are a running minimum from depth L + 1 that
    tallies the root once per word, so root_ge[0] counts the words reached.
    """
    if n == 1:  # a lone leaf
        return (1, 0), (1, 0)
    ways = _completion_counts(n)
    none = n  # deeper than any leaf of an n-vertex tree
    root_hist = [0] * n
    vertex_hist = [0] * n
    low = [none] * n

    def walk(d: int, o: int) -> None:
        w = ways[o]
        carry = d - 1  # the vertex just opened is a leaf if it closes first
        if o == 1:
            vertex_hist[0] += d
            vertex_hist[1] += d
            for j in range(d - 1, 0, -1):
                m = low[j]
                if m < carry:
                    carry = m
                vertex_hist[carry - j] += w[j]
            for level in range(d):
                run = level + 1
                for i in range(level - 1, -1, -1):
                    m = low[i]
                    if m < run:
                        run = m
                    vertex_hist[run - i] += 1
                root_hist[run] += 1
            return
        m = low[d]
        low[d] = none  # slot d may still hold the low of a vertex a caller closed
        walk(d + 1, o - 1)
        low[d] = m
        for j in range(d - 1, 0, -1):
            m = low[j]
            if m < carry:
                carry = m
            vertex_hist[carry - j] += w[j]
            parent = low[j - 1]
            if carry < parent:
                low[j - 1] = carry
            low[j] = none
            walk(j + 1, o - 1)
            low[j - 1] = parent
            low[j] = m

    walk(1, n - 1)
    root_ge = [0] * (n + 1)
    vertex_ge = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        root_ge[k] = root_ge[k + 1] + root_hist[k]
        vertex_ge[k] = vertex_ge[k + 1] + vertex_hist[k]
    return tuple(root_ge), tuple(vertex_ge)


def oracle_r(n: int, k: int) -> int:
    """Count n-vertex trees with protection number >= k, by enumeration."""
    _check_oracle_size(n)
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return _survival_tallies(n)[0][min(k, n)]


def oracle_s(n: int, k: int) -> int:
    """Count (tree, vertex) pairs with vertex protection >= k, by enumeration."""
    _check_oracle_size(n)
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return _survival_tallies(n)[1][min(k, n)]
