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

Term j of r(n, k) and of u(n, k) = [z^n] R_k (1-4z)^(-1/2) is a small
multiple of one scaled binomial per lattice point (j, k), and one walk,
_lattice_terms, carries that value up a line of points on which A = q + p,
q and p all climb, by one checked division a point from one math.comb.  That
walk serves single points and the pass alike.  r_explicit, s_explicit and the
survival values read one cached point function, _point_counts, which walks
one k line in O(n/k) steps and is the one place that states levels 0 and 1
in closed form (the k = 1 line, the longest and the only one whose p would
fall, sums as R_1 = R0 - z).  One cached pass per size n reads those two
levels from it and sums every other r(n, k) and u(n, k) in O(n log n) steps,
each point on its shorter line so that no step jumps more than about
2 min(j, k), into the finished r(n, k) and s(n, k) that both tables hold and
both means read.  The ballot tables (r_survival_column,
root_protection_totals, built on catalan_power_coeffs) remain here as
independent cross-checks; they and central_binomials serve only criterion 1
and the tests, so they stay out of __all__.  The recurrence and the
pointing identity run as truncated power series in the series module, and
brute force in trees; this module imports nothing from either.

Everything here is exact and nothing floats: counts and tables are plain
ints, and Fraction appears only in the returned probabilities and moments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

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


@lru_cache(maxsize=16)
def catalan(m: int) -> int:
    """Catalan number C_m, cached; counts (m+1)-vertex plane trees."""
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

    Every line walked is a falling one whose points i < count all have q >= 0
    and p = A - q = q + 3j, and A, q and p all climb as i falls: a j line
    (-2j, -j), p stepping by j, or a k line (1-2k, -k-1) with k >= 2, p stepping
    by k - 2.  The k = 1 line, whose p would fall, sums in closed form instead;
    a line whose p falls raises ValueError at its first ratio step.
    With s2 = p^2 + pq + q^2 and F = (A-3)!/(q! p!), the terms of the point (j, k) are
        u term = C(A, q) - C(A-2, q-1) = F mu,   mu = (A-2)(s2 - A),
        r term = C(A-3, q) - C(A-3, q-3) = F rho,  rho = (p-q)(s2 - 3A + 2).
    So the walk carries E = F D, D = gcd(rho, mu), an integer because D is an
    integer combination of rho and mu, and reads both terms off it by the small
    multipliers rho/D and mu/D.  One math.comb gives E = C(A, q) D / (A(A-1)(A-2))
    at i = count - 1, and the walk climbs to i = 0 by E'/E: three falling
    factorials and the two D, one multiply and one divmod a point.
    A remainder means a broken invariant and raises ArithmeticError.
    """
    if count < 1:
        return
    top, low = a + da * (count - 1), b + db * (count - 1)
    dt, dl = -da, -db  # A and q rise as i falls
    dr = dt - dl  # and so does p
    value, num, den = 1, math.comb(top, low), top * (top - 1) * (top - 2)
    for i in range(count - 1, -1, -1):
        rest = top - low
        s2 = top * top - rest * low  # p^2 + pq + q^2
        rho, mu = (rest - low) * (s2 - 3 * top + 2), (top - 2) * (s2 - top)
        d = math.gcd(rho, mu)
        value, rem = divmod(value * (num * d), den)
        if rem:
            step = "lattice ratio at" if i == count - 1 else "ratio step to"
            raise ArithmeticError(f"inexact {step} C({top}, {low})")
        yield i, value * (rho // d), value * (mu // d)
        if i:
            # E' / E = D'/D * (A'-3)!/(A-3)! * q!/q'! * p!/p'!, with A' = A + dt and so on
            num, den = math.perm(top + dt - 3, dt), math.perm(low + dl, dl) * math.perm(rest + dr, dr) * d
            top, low = top + dt, low + dl


def _alternating_line(a: int, b: int, da: int, db: int, count: int) -> tuple[int, int]:
    """The r terms and the u terms of one _lattice_terms line, each summed with sign (-1)^i."""
    sums = [0, 0, 0, 0]  # r and u at even and odd i, so that no term is negated
    for i, r, u in _lattice_terms(a, b, da, db, count):
        sums[i % 2] += r
        sums[2 + i % 2] += u
    return sums[0] - sums[1], sums[2] - sums[3]


@lru_cache(maxsize=16)
def _point_counts(n: int, k: int) -> tuple[int, int]:
    """(r(n, k), u(n, k)): the one point function, which the pass also reads at levels 0 and 1.

    Both levels are closed forms in r = catalan(n-1): level 0 counts every tree,
    and u = 2s - r with s(n, 0) = n r; level 1 (n >= 2) has R_1 = R0 - z, so
    u(n, 1) = C(2n, n)/2 - C(2n-2, n-1) = (n-1) r.  Every other level sums its
    k line, each term over j >= 1 with (k+1)j <= n and sign (-1)^(j-1); the line
    is empty from k = n on.  Cached, so that the X and Y survival values at one
    (n, k) walk its line once.
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k < min(n, 2):  # level 1 from n = 2 on: at n = 1 its k line is empty
        r = catalan(n - 1)
        return r, (2 * n - 1 if k == 0 else n - 1) * r
    return _alternating_line(2 * n - 2 * k + 1, n - k - 1, 1 - 2 * k, -k - 1, n // (k + 1))


def r_explicit(n: int, k: int) -> int:
    """r(n, k), k >= 1: the k line of the same walk that the one pass takes (k = 1: catalan(n-1)).

    Sum over j >= 1 while n - (k+1)j >= 0 of
        (-1)^(j-1) * [ C(2n-3-(2k-1)j, n-(k+1)j) - C(2n-3-(2k-1)j, n-3-(k+1)j) ],
    each term read off the scaled binomial that _lattice_terms walks.
    """
    if k < 1 <= n:  # a bad size keeps the message that _point_counts gives it
        raise ValueError("explicit survival counts need k >= 1; level 0 is catalan(n-1)")
    return _point_counts(n, k)[0]


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
    r, u = _point_counts(n, k)
    return _halve(r + u, n, k)


def survival_X_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform n-vertex tree >= k), exact."""
    return Fraction(_point_counts(n, k)[0], catalan(n - 1))


def survival_Y_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform vertex of a uniform n-vertex tree >= k), exact."""
    return Fraction(s_explicit(n, k), n * catalan(n - 1))


# each entry holds O(n^2) digits and serves both tables and both means at one n;
# two keep two sizes, between which a shuffled list of table jobs may alternate
@lru_cache(maxsize=2)
def _protection_counts(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(r, s) with r[k] = r(n, k) and s[k] = s(n, k) for k = 0..n-1, level 0 counting all.

    Each lattice point (j, k), k >= 2, with (k+1)j <= n is walked on its
    shorter line, so that no step jumps more than about 2 min(j, k): on the
    k line from j = k when j >= k, and on the j line from k = j + 1 when
    j < k; both kinds have m = min(j, k) <= isqrt(n).  Levels 0 and 1 are the
    closed forms of _point_counts, and every level's s is the halved r + u.
    The pass walks O(n log n) points.
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    r, u = [0] * n, [0] * n
    for m in range(1, math.isqrt(n) + 1):
        add = operator.add if m % 2 else operator.sub  # the sign (-1)^(j-1) at j = m
        # the j line of j = m, k = m + 1 + i: A steps by -2m, q by -m
        a, b = 2 * n - (2 * m + 1) * m, n - (m + 2) * m
        for i, r_term, u_term in _lattice_terms(a, b, -2 * m, -m, n // m - m - 1):
            r[m + 1 + i] = add(r[m + 1 + i], r_term)
            u[m + 1 + i] = add(u[m + 1 + i], u_term)
        if m > 1:  # the k line of k = m, j = m + i: A steps by 1 - 2m, q by -m - 1
            a, b = 2 * n - (2 * m - 1) * m, n - (m + 1) * m
            line_r, line_u = _alternating_line(a, b, 1 - 2 * m, -m - 1, n // (m + 1) - m + 1)
            r[m], u[m] = add(r[m], line_r), add(u[m], line_u)
    for k in range(min(n, 2)):
        r[k], u[k] = _point_counts(n, k)
    return tuple(r), tuple(_halve(r[k] + u[k], n, k) for k in range(n))


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


def dist_X_exact(n: int) -> DistributionTable:
    """Exact distribution of the root protection number at size n.

    Reads r(n, k) for every k from the one alternating-binomial pass on
    plain integers.
    """
    return DistributionTable(_protection_counts(n)[0])


def dist_Y_exact(n: int) -> DistributionTable:
    """Exact distribution of the protection number of a uniform vertex.

    Reads s(n, k), the halved pointed sums, for every k from the same pass
    as dist_X_exact.
    """
    return DistributionTable(_protection_counts(n)[1])
