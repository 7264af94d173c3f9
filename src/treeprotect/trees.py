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
states, one symbol per step: a prefix is summed up by the least leaf
depth below each open vertex, and a dict counts the prefixes that reach
each state.  A ")" fixes the protection number of the vertex it closes,
which is tallied once per state, weighted by the number of prefixes
there and by the number of ways to finish the word.
Those completion counts are built here, so the oracle owes nothing to the
exact engine it checks.

`protection_profile` (survival counts indexed by level, total first) and
`leaf_count` check single trees in the tests and are not exported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

__all__ = [
    "PlaneTree",
    "protection_number",
    "enumerate_trees",
    "oracle_r",
    "oracle_s",
]

# the oracle's widest step holds 20,170 prefix states at n = 16, and its 2n - 2 steps 130,933
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


def protection_profile(tree: PlaneTree) -> tuple[int, ...]:
    """Survival counts of the vertex protection numbers, one traversal.

    Entry k is the number of vertices whose protection number is >= k, up
    to the largest; entry 0 is the vertex count.
    """
    values = _protection_values(tree.parens)
    hist = [0] * (max(values) + 1)
    for p in values:
        hist[p] += 1
    return tuple(accumulate(reversed(hist)))[::-1]


def leaf_count(tree: PlaneTree) -> int:
    """Number of leaves; a single vertex counts as one leaf."""
    return tree.parens.count("()")


def _balanced_words(opens: int, depth: int = 0) -> Iterator[str]:
    """Every word of `opens` "(" that closes `depth` open vertices, lexicographically.

    "(" sorts before ")", so with depth 0 the first word is "((..))" and the
    last is "()()..()".
    """
    if not opens:
        yield ")" * depth
        return
    for word in _balanced_words(opens - 1, depth + 1):
        yield "(" + word
    if depth:
        for word in _balanced_words(opens, depth - 1):
            yield ")" + word


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

    The words of n-vertex trees are counted by prefix state rather than
    walked, one symbol per step.  The state of a prefix is the tuple
    low[0..d-1] of its d open vertices: low[j] is the least depth of a leaf
    among vertex j's closed descendants (n if none).  A dict maps each
    state to the number of prefixes reaching it.  With `written` symbols
    down, o = n - (written + d) // 2 opens are left; a "(" (if o > 0)
    appends n, and a ")" (if d > 1) closes vertex j = d - 1 at its leaf
    depth L (low[j], or j itself if it is a leaf).  That vertex has
    protection L - j and is tallied once per state, weighted by the
    state's count times the ways[o][j] words that finish the prefix; its
    parent takes min(L, low[j - 1]).  After 2n - 1 symbols only the root
    is open, and it is tallied once per state with weight count.
    """
    ways = _completion_counts(n)
    none = n  # deeper than any leaf of an n-vertex tree
    root_hist = [0] * n
    vertex_hist = [0] * n
    counts = {(none,): 1}
    for written in range(1, 2 * n - 1):
        step: dict[tuple[int, ...], int] = {}
        for low, count in counts.items():
            j = len(low) - 1
            o = n - (written + j + 1) // 2
            if o:
                key = low + (none,)
                step[key] = step.get(key, 0) + count
            if j:
                leaf = low[j]
                if leaf == none:
                    leaf = j
                vertex_hist[leaf - j] += count * ways[o][j]
                parent = low[j - 1]
                key = low[: j - 1] + (leaf if leaf < parent else parent,)
                step[key] = step.get(key, 0) + count
        counts = step
    for (low,), count in counts.items():
        leaf = low if low < none else 0
        root_hist[leaf] += count
        vertex_hist[leaf] += count
    return tuple(
        tuple(accumulate(reversed(hist), initial=0))[::-1] for hist in (root_hist, vertex_hist)
    )


def _oracle_count(n: int, k: int, tally: int) -> int:
    _check_oracle_size(n)
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return _survival_tallies(n)[tally][min(k, n)]


def oracle_r(n: int, k: int) -> int:
    """Count n-vertex trees with protection number >= k, by brute force."""
    return _oracle_count(n, k, 0)


def oracle_s(n: int, k: int) -> int:
    """Count (tree, vertex) pairs with vertex protection >= k, by brute force."""
    return _oracle_count(n, k, 1)
