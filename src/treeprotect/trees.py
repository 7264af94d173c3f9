"""Plane trees, protection numbers, and the brute-force counting oracle.

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
counts protection numbers over every plane tree of up to 16 vertices, so
the generating-function and asymptotic routes can be checked against
brute force.  The oracle tallies come from a forward count over prefix
states: after each "(" a prefix is summed up by the least leaf depth
below each open vertex, and a dict counts the prefixes that reach each
state.  Each closed vertex is tallied once per state, weighted by the
number of prefixes there and by the number of ways to finish the word.
Those completion counts are built here, so the oracle owes nothing to the
exact engine it checks.
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

# the oracle's last step holds fewer than 2^(n-1) prefix states: 32,753 at n = 16, about 0.33 s
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

    The words "(" + w + ")", w balanced with n - 1 pairs, are counted by
    prefix state rather than walked.  After each "(" the state is the
    tuple low[0..d-1] of the d open vertices: low[j] is the least depth of
    a leaf among vertex j's closed descendants (n if none), so the vertex
    at depth j closes with protection low - j and a run of closes is a
    running minimum.  A dict maps each state to the number of prefixes
    reaching it.  Each of the n - 1 opens after the root's moves a state
    to its d successors: close c = 0..d-1 innermost vertices, then open
    one.  A vertex closing at depth j with o opens still to write is
    tallied once, weighted by the state's count times the ways[o][j]
    words that finish the prefix; after the last open every state closes
    out and tallies its root with weight count.
    """
    ways = _completion_counts(n)
    none = n  # deeper than any leaf of an n-vertex tree
    root_hist = [0] * n
    vertex_hist = [0] * n
    counts = {(none,): 1}
    for o in range(n - 1, 0, -1):
        w = ways[o]
        step: dict[tuple[int, ...], int] = {}
        for low, count in counts.items():
            key = low + (none,)
            step[key] = step.get(key, 0) + count
            carry = len(low) - 1  # the vertex just opened is a leaf if it closes first
            for j in range(len(low) - 1, 0, -1):
                m = low[j]
                if m < carry:
                    carry = m
                vertex_hist[carry - j] += count * w[j]
                parent = low[j - 1]
                key = low[: j - 1] + (carry if carry < parent else parent, none)
                step[key] = step.get(key, 0) + count
        counts = step
    for low, count in counts.items():
        carry = len(low) - 1
        for j in range(len(low) - 1, -1, -1):
            m = low[j]
            if m < carry:
                carry = m
            vertex_hist[carry - j] += count
        root_hist[carry] += count
    root_ge = [0] * (n + 1)
    vertex_ge = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        root_ge[k] = root_ge[k + 1] + root_hist[k]
        vertex_ge[k] = vertex_ge[k + 1] + vertex_hist[k]
    return tuple(root_ge), tuple(vertex_ge)


def oracle_r(n: int, k: int) -> int:
    """Count n-vertex trees with protection number >= k, by brute force."""
    _check_oracle_size(n)
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return _survival_tallies(n)[0][min(k, n)]


def oracle_s(n: int, k: int) -> int:
    """Count (tree, vertex) pairs with vertex protection >= k, by brute force."""
    _check_oracle_size(n)
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return _survival_tallies(n)[1][min(k, n)]
