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
closed form geometrically and extracting coefficients of Catalan powers
gives an explicit alternating binomial sum for r(n, k); the same expansion
evaluated columnwise powers the fast large-n routines.  These integer sums
are the default engine of the distribution tables; the series recurrence
and the brute-force oracle remain as independent cross-checks.

Protected vertices reduce to protected roots by pointing: a vertex with
protection >= k splits the tree into a k-protected subtree and a
leaf-pointed remainder, so S_k(z) = R_k(z) * (1 + (1-4z)^(-1/2)) / 2.

Everything here is exact and nothing floats: counts and series
coefficients are plain ints, and Fraction appears only in the returned
probabilities and moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, Literal

from .series import TruncatedPowerSeries
from .trees import DEFAULT_ORACLE_BOUND, oracle_r, oracle_s

__all__ = [
    "binomial",
    "catalan",
    "central_binomials",
    "series_R0",
    "series_invsqrt",
    "series_R_ge_k_recurrence",
    "series_R_ge_k_closed",
    "series_S_ge_k",
    "r_explicit",
    "catalan_power_coeffs",
    "r_survival_column",
    "root_protection_totals",
    "s_explicit",
    "survival_X_exact",
    "survival_Y_exact",
    "mean_X_exact",
    "mean_Y_exact",
    "DistributionTable",
    "dist_X_exact",
    "dist_Y_exact",
]


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention used by the alternating sums.

    Returns 0 for b < 0 and for b > a >= 0.  A call with a < 0 <= b never
    arises from a correctly truncated sum, so it is rejected loudly instead
    of silently returning something.
    """
    if b < 0:
        return 0
    if a < 0:
        raise ValueError(f"binomial({a}, {b}) with negative a and b >= 0 is a logic error")
    if b > a:
        return 0
    return math.comb(a, b)


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


def series_R0(order: int) -> TruncatedPowerSeries:
    """All plane trees by vertex count: [z^n] = catalan(n-1), constant 0."""
    coeffs = [0] * (order + 1)
    for n in range(1, order + 1):
        coeffs[n] = catalan(n - 1)
    return TruncatedPowerSeries(coeffs)


def series_invsqrt(order: int) -> TruncatedPowerSeries:
    """(1 - 4z)^(-1/2): [z^n] = C(2n, n)."""
    return TruncatedPowerSeries(central_binomials(order))


def _R_levels(order: int) -> Iterator[TruncatedPowerSeries]:
    """R_0, R_1, R_2, ... by the substitution recurrence, one step per level."""
    R = series_R0(order)
    while True:
        yield R
        R = R.shifted(1) / (1 - R)


def _halve(total: int, n: int, k: int) -> int:
    """total / 2 for a coefficient of R_k * (1 + invsqrt), which pointing makes even."""
    if total % 2:
        raise ArithmeticError(f"odd pointed-vertex total at n={n}, k={k}")
    return total // 2


def series_R_ge_k_recurrence(k: int, order: int) -> TruncatedPowerSeries:
    """k-protected trees via k substitution steps from series_R0."""
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    return next(islice(_R_levels(order), k, None))


def series_R_ge_k_closed(k: int, order: int) -> TruncatedPowerSeries:
    """k-protected trees from the closed form, k >= 1.

    R_k = (1-z) * z^(k+1) * Q / (1 + z^(k+1) * Q) with Q = (R0/z)^3, the
    cube of the Catalan generating function (Q(0) = 1, so the denominator
    is a unit).
    """
    if k < 1:
        raise ValueError("the closed form applies to protection level k >= 1")
    r0 = series_R0(order + 1)
    cat = TruncatedPowerSeries(r0.coeffs[1:])  # R0/z, order `order`
    q = (cat * cat * cat).shifted(k + 1)
    one = TruncatedPowerSeries.constant(1, order)
    z = TruncatedPowerSeries.z(order) if order >= 1 else TruncatedPowerSeries.zero(0)
    return (one - z) * q / (one + q)


def series_S_ge_k(k: int, order: int) -> TruncatedPowerSeries:
    """Vertices with protection >= k, summed over trees: S_k = R_k*(1+isqrt)/2."""
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    pointed = series_R_ge_k_recurrence(k, order) * (1 + series_invsqrt(order))
    return TruncatedPowerSeries(_halve(c, n, k) for n, c in enumerate(pointed.coeffs))


def r_explicit(n: int, k: int) -> int:
    """r(n, k) as an alternating binomial sum, k >= 1.

    Sum over j >= 1 while n - (k+1)j >= 0 of
        (-1)^(j-1) * [ C(2n-3-(2k-1)j, n-(k+1)j) - C(2n-3-(2k-1)j, n-3-(k+1)j) ].
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 1:
        raise ValueError("explicit survival counts need k >= 1; level 0 is catalan(n-1)")
    total = 0
    j = 1
    while n - (k + 1) * j >= 0:
        a = 2 * n - 3 - (2 * k - 1) * j
        term = binomial(a, n - (k + 1) * j) - binomial(a, n - 3 - (k + 1) * j)
        total += term if j % 2 else -term
        j += 1
    return total


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
    O(order^2) big-integer additions.
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
    """s(n, k) by convolving the k-protected column with (1-4z)^(-1/2)."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k == 0:
        return n * catalan(n - 1)
    col = r_survival_column(k, n)
    beta = central_binomials(n)
    return _halve(col[n] + sum(col[m] * beta[n - m] for m in range(1, n + 1)), n, k)


def survival_X_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform n-vertex tree >= k), exact."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k == 0:
        return Fraction(1)
    if k >= n:
        return Fraction(0)
    return Fraction(r_explicit(n, k), catalan(n - 1))


def survival_Y_exact(n: int, k: int) -> Fraction:
    """P(protection of a uniform vertex of a uniform n-vertex tree >= k), exact."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    if k == 0:
        return Fraction(1)
    if k >= n:
        return Fraction(0)
    return Fraction(s_explicit(n, k), n * catalan(n - 1))


def mean_X_exact(n: int) -> Fraction:
    """Exact mean root protection number at size n."""
    if n < 1:
        raise ValueError("tree size must be positive")
    return Fraction(root_protection_totals(n)[n], catalan(n - 1))


def mean_Y_exact(n: int) -> Fraction:
    """Exact mean vertex protection number at size n."""
    if n < 1:
        raise ValueError("tree size must be positive")
    rho = root_protection_totals(n)
    beta = central_binomials(n)
    num = rho[n] + sum(rho[m] * beta[n - m] for m in range(1, n + 1))
    return Fraction(num, 2 * n * catalan(n - 1))


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of one protection statistic at a fixed size n.

    survival[k] = P(value >= k) for k = 0..n-1 (it is 0 from k = n on),
    pmf[k] = survival[k] - survival[k+1].  Moments are exact rationals;
    mean = sum over k >= 1 of survival[k] and the second moment uses the
    (2k-1) weights.
    """

    n: int
    survival: dict[int, Fraction]
    pmf: dict[int, Fraction]
    mean: Fraction
    second_moment: Fraction
    variance: Fraction

    def survival_at(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("protection level must be nonnegative")
        return self.survival.get(k, Fraction(0))

    def pmf_at(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("protection level must be nonnegative")
        return self.pmf.get(k, Fraction(0))


def _table_from_counts(n: int, ge_counts: list[int], denominator: int) -> DistributionTable:
    survival = {k: Fraction(c, denominator) for k, c in enumerate(ge_counts)}
    padded = ge_counts + [0]
    pmf = {
        k: Fraction(padded[k] - padded[k + 1], denominator)
        for k in range(n)
    }
    mean = Fraction(sum(ge_counts[1:]), denominator)
    second = Fraction(
        sum((2 * k - 1) * c for k, c in enumerate(ge_counts) if k >= 1), denominator
    )
    return DistributionTable(
        n=n,
        survival=survival,
        pmf=pmf,
        mean=mean,
        second_moment=second,
        variance=second - mean * mean,
    )


Method = Literal["oracle", "series", "explicit"]


def dist_X_exact(
    n: int, method: Method = "explicit", oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> DistributionTable:
    """Exact distribution of the root protection number at size n.

    All methods produce identical tables.  "explicit" (the default)
    evaluates the alternating binomial sum on plain integers; "series"
    walks the substitution recurrence and "oracle" enumerates every tree
    (subject to the size bound), both kept as independent cross-checks.
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if method == "oracle":
        counts = [oracle_r(n, k, oracle_bound=oracle_bound) for k in range(n)]
    elif method == "series":
        counts = [R[n] for R in islice(_R_levels(n), n)]
    elif method == "explicit":
        counts = [catalan(n - 1)] + [r_explicit(n, k) for k in range(1, n)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return _table_from_counts(n, counts, catalan(n - 1))


def dist_Y_exact(
    n: int, method: Method = "explicit", oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> DistributionTable:
    """Exact distribution of the protection number of a uniform vertex.

    "explicit" (the default) convolves each survival column with the
    central binomials on plain integers; "series" and "oracle" are the
    cross-checks of dist_X_exact.
    """
    if n < 1:
        raise ValueError("tree size must be positive")
    if method == "oracle":
        counts = [oracle_s(n, k, oracle_bound=oracle_bound) for k in range(n)]
    elif method == "series":
        factor = 1 + series_invsqrt(n)
        counts = [_halve((R * factor)[n], n, k) for k, R in enumerate(islice(_R_levels(n), n))]
    elif method == "explicit":
        counts = [s_explicit(n, k) for k in range(n)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return _table_from_counts(n, counts, n * catalan(n - 1))
