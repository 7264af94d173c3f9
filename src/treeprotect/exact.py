"""Exact enumeration of protection statistics via generating functions.

Notation used throughout the package:

    r(n, k)  number of n-vertex plane trees whose root protection number
             is at least k (k-protected trees),
    s(n, k)  number of (tree, vertex) pairs, over n-vertex trees, whose
             vertex protection number is at least k.

The ordinary generating function of all plane trees by vertex count is
R0(z) = (1 - sqrt(1 - 4z))/2 with [z^n] R0 = catalan(n-1).  The
k-protected series obeys the substitution recurrence

    R_k(z) = z * R_{k-1}(z) / (1 - R_{k-1}(z)),   k >= 1,

and has the closed form R_k = (1-z) * z^(k+1) * C(z)^3 / (1 + z^(k+1) * C(z)^3)
where C(z) = R0(z)/z is the Catalan generating function.  Expanding the
closed form geometrically,

    R_k(z) = sum_{j>=1} (-1)^(j-1) * (1-z) * z^((k+1)j) * C(z)^(3j),

turns every count into an alternating sum of binomials through

    [z^m] C(z)^t = C(2m+t-1, m) - C(2m+t-1, m-1),
    [z^m] C(z)^t * (1-4z)^(-1/2) = C(2m+t, m)

(the second is Graham, Knuth & Patashnik, *Concrete Mathematics*, 2nd ed.,
eq. 5.72).  Protected vertices reduce to protected roots by pointing: a
vertex with protection >= k splits the tree into a k-protected subtree and
a leaf-pointed remainder, so S_k(z) = R_k(z) * (1 + (1-4z)^(-1/2)) / 2 and
2 s(n, k) = r(n, k) + [z^n] R_k (1-4z)^(-1/2).

Term j of r(n, k) and of u(n, k) = [z^n] R_k (1-4z)^(-1/2) is read off one
binomial C(2n - (2k-1)j, n - (k+1)j) per lattice point (j, k), and one walk,
_lattice_terms, reads them along a falling line of points by exact ratio
steps from one math.comb.  That walk serves single points and the pass
alike: r_explicit and s_explicit take one k line in O(n/k) steps, and one
cached pass per size n sums every r(n, k) and u(n, k) in O(n log n) steps,
split at isqrt(n) so that no step jumps more than about 2 sqrt(n), into the
finished r(n, k) and s(n, k) that both tables hold and both means read.  The
ballot tables (r_survival_column, root_protection_totals, built on
catalan_power_coeffs) remain here as independent cross-checks; they and
central_binomials serve only criterion 1 and the tests, so they stay out of
__all__.  The recurrence, the closed form and the pointing identity run as
truncated power series in the series module, and brute force in trees;
this module imports nothing from either.

Everything here is exact and nothing floats: counts and tables are plain
ints, and Fraction appears only in the returned probabilities and moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

__all__ = [
    "catalan",
    "r_explicit",
    "s_explicit",
    "survival_X_exact",
    "survival_Y_exact",
    "mean_X_exact",
    "mean_Y_exact",
    "DistributionTable",
    "dist_X_exact",
    "dist_Y_exact",
]


def catalan(m: int) -> int:
    """Catalan number C_m; counts (m+1)-vertex plane trees."""
    if m < 0:
        raise ValueError("catalan index must be nonnegative")
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=8)
def central_binomials(order: int) -> tuple[int, ...]:
    """C(2i, i) for i = 0..order, by the ratio recurrence."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [1] * (order + 1)
    for i in range(order):
        out[i + 1] = out[i] * 2 * (2 * i + 1) // (i + 1)
    return tuple(out)


def _halve(total: int, n: int, k: int) -> int:
    """total / 2 for a coefficient of R_k * (1 + invsqrt), which pointing makes even."""
    if total % 2:
        raise ArithmeticError(f"odd pointed-vertex total at n={n}, k={k}")
    return total // 2


def _lattice_terms(a: int, b: int, da: int, db: int, count: int) -> Iterator[tuple[int, int, int]]:
    """(i, r term, u term) of the lattice points with A = a + da*i and q = b + db*i.

    Every line walked is a falling one, a k line (1-2k, -k-1) or a j line
    (-2j, -j), whose points i < count all have q >= 0 and p = A - q = q + 3j.
    So one math.comb gives B = C(A, q) at i = count - 1, and the walk climbs
    to i = 0 by the exact ratio of neighbouring binomials: three falling
    factorials, one multiply and one divmod.  The terms of the point (j, k) are
        u term = C(A, q) - C(A-2, q-1) = B (A(A-1) - qp) / (A(A-1)),
        r term = C(A-3, q) - C(A-3, q-3) = (p - q)(A u - 2B) / (A(A-2)).
    A remainder means a broken invariant and raises ArithmeticError.
    """
    if count < 1:
        return
    top, low = a + da * (count - 1), b + db * (count - 1)
    value = math.comb(top, low)
    dt, dl = -da, -db  # A and q rise as i falls
    dr = dt - dl  # the step of p: -1 on the k = 1 line, >= 0 on every other
    for i in range(count - 1, -1, -1):
        rest = top - low
        u, u_rem = divmod(value * (top * (top - 1) - low * rest), top * (top - 1))
        gap = rest - low  # p - q = 3j
        r, r_rem = divmod(top * gap * u - 2 * gap * value, top * (top - 2))
        if r_rem or u_rem:
            raise ArithmeticError(f"inexact lattice ratio at C({top}, {low})")
        yield i, r, u
        if i:
            # C(top+dt, low+dl) = C(top, low) * (top+dt)!/top! * low!/(low+dl)! * rest!/(rest+dr)!
            num, den = math.perm(top + dt, dt), math.perm(low + dl, dl)
            if dr >= 0:
                den *= math.perm(rest + dr, dr)
            else:
                num *= math.perm(rest, -dr)
            top, low = top + dt, low + dl
            value, rem = divmod(value * num, den)
            if rem:
                raise ArithmeticError(f"inexact ratio step to C({top}, {low})")


def _sum_over_j(n: int, k: int) -> tuple[int, int]:
    """(r(n, k), u(n, k)): each term summed over j >= 1 with (k+1)j <= n, sign (-1)^(j-1)."""
    sums = [0, 0, 0, 0]  # r and u at even and odd j - 1, so that no term is negated
    for i, r, u in _lattice_terms(2 * n - 2 * k + 1, n - k - 1, 1 - 2 * k, -k - 1, n // (k + 1)):
        sums[i % 2] += r
        sums[2 + i % 2] += u
    return sums[0] - sums[1], sums[2] - sums[3]


def r_explicit(n: int, k: int) -> int:
    """r(n, k), k >= 1: the k line of the same walk that the one pass takes.

    Sum over j >= 1 while n - (k+1)j >= 0 of
        (-1)^(j-1) * [ C(2n-3-(2k-1)j, n-(k+1)j) - C(2n-3-(2k-1)j, n-3-(k+1)j) ],
    each term read off B = C(A, q) by _lattice_terms.
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 1:
        raise ValueError("explicit survival counts need k >= 1; level 0 is catalan(n-1)")
    return _sum_over_j(n, k)[0]


def catalan_power_coeffs(exponent: int, count: int) -> tuple[int, ...]:
    """[z^m] C(z)^t for m = 0..count, C the Catalan generating function.

    These are ballot numbers t/(2m+t) * C(2m+t, m); the ratio between
    consecutive entries is rational with small factors, so the whole row
    costs one big multiply-divide per entry.
    """
    if exponent < 1:
        raise ValueError("exponent must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    t = exponent
    g = [0] * (count + 1)
    g[0] = 1
    for m in range(count):
        g[m + 1] = g[m] * (2 * m + t) * (2 * m + t + 1) // ((m + 1) * (m + t + 1))
    return tuple(g)


@lru_cache(maxsize=64)
def r_survival_column(k: int, order: int) -> tuple[int, ...]:
    """r(n, k) for n = 0..order in one pass, k >= 1.

    Same alternating sum as r_explicit, evaluated for a whole column at
    once: term j contributes the coefficients of (1-z) * z^((k+1)j) * C^(3j),
    and [z^q] (1-z) C^(3j) is a difference of consecutive ballot numbers.
    It costs O(order^2 / k) and serves as an independent cross-check.
    """
    if k < 1:
        raise ValueError("survival columns need k >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (order + 1)
    j = 1
    while (k + 1) * j <= order:
        shift = (k + 1) * j
        g = catalan_power_coeffs(3 * j, order - shift)
        sign = 1 if j % 2 else -1
        prev = 0
        for q in range(order - shift + 1):
            out[q + shift] += sign * (g[q] - prev)
            prev = g[q]
        j += 1
    return tuple(out)


@lru_cache(maxsize=8)
def root_protection_totals(order: int) -> tuple[int, ...]:
    """Sum of root protection numbers over all n-vertex trees, n = 0..order.

    Equals sum over k >= 1 of r(n, k).  Summing the columnwise expansion
    over k turns the shift z^((k+1)j) into a geometric series in z^j, so
    each j contributes a running sum with stride j; the whole table costs
    O(order^2) big-integer additions.  The means use the O(n log n) line
    sums instead; this table remains as their independent cross-check.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    rho = [0] * (order + 1)
    j = 1
    while 2 * j <= order:
        g = catalan_power_coeffs(3 * j, order - 2 * j)
        sign = 1 if j % 2 else -1
        running = [0] * (order + 1)
        for n in range(2 * j, order + 1):
            q = n - 2 * j
            d = g[q] - (g[q - 1] if q else 0)
            running[n] = d + running[n - j]
            rho[n] += sign * running[n]
        j += 1
    return tuple(rho)


def s_explicit(n: int, k: int) -> int:
    """s(n, k) = (r(n, k) + u(n, k)) / 2, u the pointed alternating sum.

    u(n, k) = [z^n] R_k (1-4z)^(-1/2) is the sum over j >= 1 with q = n - (k+1)j >= 0 of
        (-1)^(j-1) * [ C(2n-(2k-1)j, q) - C(2n-(2k-1)j-2, q-1) ].
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k == 0:
        return n * catalan(n - 1)
    return _halve(sum(_sum_over_j(n, k)), n, k)


_Count = Callable[[int, int], int]


def _point_survival(n: int, k: int, count: _Count, weight: int) -> Fraction:
    """count(n, k) / (weight * catalan(n-1)), with the levels 0 and >= n read directly."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k == 0:
        return Fraction(1)
    if k >= n:
        return Fraction(0)
    return Fraction(count(n, k), weight * catalan(n - 1))


def survival_X_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform n-vertex tree >= k), exact."""
    return _point_survival(n, k, r_explicit, 1)


def survival_Y_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform vertex of a uniform n-vertex tree >= k), exact."""
    return _point_survival(n, k, s_explicit, n)


# each entry holds O(n^2) digits and serves both tables and both means at one n;
# two keep two sizes, between which a shuffled list of table jobs may alternate
@lru_cache(maxsize=2)
def _protection_counts(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(r, s) with r[k] = r(n, k) and s[k] = s(n, k) for k = 0..n-1, level 0 counting all.

    For k >= 1 the lattice points (j, k) with (k+1)j <= n are split at
    h = isqrt(n), like a divisor sum: for k < h the walk steps j along each
    k line into slot k; for k >= h it steps k along each j line, adding
    point i into slot h + i.  No line is long; the pass walks O(n log n) points.
    """
    h = math.isqrt(n)
    r, u = [0] * n, [0] * n
    for k in range(1, h):
        r[k], u[k] = _sum_over_j(n, k)
    for j in range(1, n // (h + 1) + 1):
        # k = h + i for i = 0..n//j - h - 1: A steps by -2j, q by -j
        a, b = 2 * n - (2 * h - 1) * j, n - (h + 1) * j
        sign = 1 if j % 2 else -1
        for i, r_term, u_term in _lattice_terms(a, b, -2 * j, -j, n // j - h):
            r[h + i] += sign * r_term
            u[h + i] += sign * u_term
    r[0] = catalan(n - 1)
    return tuple(r), (n * r[0], *(_halve(r[k] + u[k], n, k) for k in range(1, n)))


def mean_X_exact(n: int) -> Fraction:
    """Exact mean root protection number at size n."""
    return dist_X_exact(n).mean


def mean_Y_exact(n: int) -> Fraction:
    """Exact mean vertex protection number at size n."""
    return dist_Y_exact(n).mean


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of one protection statistic at the size n = len(counts).

    counts[k] of the counts[0] equally likely outcomes (trees, or tree and
    vertex pairs) have value >= k, and none has from k = n on.  Only these
    ints are held, and the moments build exact Fractions when read:
    mean = sum over k >= 1 of P(value >= k), and the second moment uses the
    (2k-1) weights.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("a distribution table needs the count of all outcomes")

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(self.counts[1:]), self.counts[0])

    @property
    def second_moment(self) -> Fraction:
        weighted = sum((2 * k - 1) * c for k, c in enumerate(self.counts) if k >= 1)
        return Fraction(weighted, self.counts[0])

    @property
    def variance(self) -> Fraction:
        return self.second_moment - self.mean**2


def _table(n: int, slot: int) -> DistributionTable:
    """One statistic's table: its slot of the one pass at size n."""
    if n < 1:
        raise ValueError("tree size must be positive")
    return DistributionTable(_protection_counts(n)[slot])


def dist_X_exact(n: int) -> DistributionTable:
    """Exact distribution of the root protection number at size n.

    Reads r(n, k) for every k from the one alternating-binomial pass on
    plain integers.
    """
    return _table(n, 0)


def dist_Y_exact(n: int) -> DistributionTable:
    """Exact distribution of the protection number of a uniform vertex.

    Reads s(n, k), the halved pointed sums, for every k from the same pass
    as dist_X_exact.
    """
    return _table(n, 1)
