"""Limit laws, 1/n corrections, and certified constants.

The protection number of the root (X) and of a uniform vertex (Y) both
converge in distribution as the tree size n grows.  With x = 4^k the
survival functions satisfy

    P(X_n >= k) = 9x/(x+2)^2 + corr_X(k)/n + O(n^-2),
    P(Y_n >= k) = 3/(x+2)   + corr_Y(k)/n + O(n^-2),

and the moments converge to constants

    E(X_n) -> c0,  V(X_n) -> c2,  E(Y_n) -> d0,  V(Y_n) -> d2,

with 1/n coefficients c1, c3, d1, d3.  All eight constants are sums over
k of the survival terms above (the second moments use (2k-1) weights),
enclosed as integer partial sums in units of 10^-208: each term adds its
floor, with one unit of slack per term on the upper side, and a proven
geometric tail bound is rounded up, so every printed digit is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

__all__ = [
    "AsymptoticValue",
    "ConstantEnclosure",
    "CONSTANT_NAMES",
    "asym_P_X_ge",
    "asym_P_Y_ge",
    "limit_pmf_X",
    "limit_pmf_Y",
    "constant",
    "asym_moments_X",
    "asym_moments_Y",
    "truncated_decimal",
]

# The survival functions are r(n, k)/C_{n-1} (X) and s(n, k)/(n C_{n-1}) (Y),
# and the generating functions of all four sequences are analytic in
# sqrt(1-4z) at z = 1/4.  By singularity analysis (Flajolet & Sedgewick,
# Analytic Combinatorics, ch. VI) the ratio [z^n](1-4z)^(a+j) / [z^n](1-4z)^a,
# for half-integer a and integer j >= 0, is a rational function of n of order
# n^-j, so the expansions run in whole powers of 1/n and the two-term error is
# of order n^-2 for X as well as for Y.  Measured log2 error ratios for X at
# k = 2, 3 between n = 3200 and 6400 are 2.000 and 2.001.
ERROR_ORDER = "O(k^2 / (3^k n^2))"

CONSTANT_NAMES = ("c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3")


@dataclass(frozen=True)
class AsymptoticValue:
    """Leading term plus 1/n correction of a probability quantity."""

    leading: Fraction
    correction: Fraction
    error_order: str

    def __post_init__(self) -> None:
        if not 0 <= self.leading <= 1:
            raise ValueError("leading term of a probability must lie in [0, 1]")

    def at(self, n: int) -> Fraction:
        """The two-term approximation leading + correction/n."""
        if n < 1:
            raise ValueError("tree size must be positive")
        return self.leading + self.correction / n


# the four survival closed forms, each as (num, den) in plain ints with den > 0
_Ratio = tuple[int, int]
_ClosedForm = Callable[[int], _Ratio]


def _survival_lead_X(k: int) -> _Ratio:
    x = 4**k
    return 9 * x, (x + 2) ** 2


def _survival_corr_X(k: int) -> _Ratio:
    x = 4**k
    return 9 * x * ((3 * k - 8) * x * x + 28 * x - (12 * k + 20)), 2 * (x + 2) ** 4


def _survival_lead_Y(k: int) -> _Ratio:
    return 3, 4**k + 2


def _survival_corr_Y(k: int) -> _Ratio:
    x = 4**k
    return (3 * k - 10) * x * x + (6 * k + 26) * x - 16, 2 * (x + 2) ** 3


def _survival_value(lead: _ClosedForm, corr: _ClosedForm, k: int) -> AsymptoticValue:
    if k < 1:
        raise ValueError("survival asymptotics require k >= 1; level 0 is exactly 1")
    return AsymptoticValue(Fraction(*lead(k)), Fraction(*corr(k)), ERROR_ORDER)


def asym_P_X_ge(k: int) -> AsymptoticValue:
    """Asymptotic survival of the root protection number, k >= 1."""
    return _survival_value(_survival_lead_X, _survival_corr_X, k)


def asym_P_Y_ge(k: int) -> AsymptoticValue:
    """Asymptotic survival of a uniform vertex's protection number, k >= 1."""
    return _survival_value(_survival_lead_Y, _survival_corr_Y, k)


def limit_pmf_X(k: int) -> AsymptoticValue:
    """Limit law of the root protection number with its 1/n correction.

    Both terms agree, in exact arithmetic, with consecutive differences of
    asym_P_X_ge (level 0 survival being exactly 1).
    """
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    x = 4**k
    lead = Fraction(27 * x * (x * x - 1), (x + 2) ** 2 * (2 * x + 1) ** 2)
    num = (
        4 * (k - 3) * x**6
        + 36 * x**5
        - (45 * k - 72) * x**4
        - 80 * k * x**3
        - (45 * k + 72) * x**2
        - 36 * x
        + 4 * (k + 3)
    )
    corr = Fraction(81 * x * num, 2 * (x + 2) ** 4 * (2 * x + 1) ** 4)
    return AsymptoticValue(lead, corr, ERROR_ORDER)


def limit_pmf_Y(k: int) -> AsymptoticValue:
    """Limit law of a uniform vertex's protection number with 1/n correction.

    The correction is the difference corr_Y(k) - corr_Y(k+1) of the survival
    corrections of asym_P_Y_ge, for every k >= 0: the closed form gives
    corr_Y(0) = 0, as P(Y_n >= 0) = 1 exactly.  A closed displayed form exists
    but is twice this value for every k >= 1 and disagrees with finite-n data,
    so the difference form is authoritative here.
    """
    if k < 0:
        raise ValueError("protection level must be nonnegative")
    x = 4**k
    lead = Fraction(9 * x, (4 * x + 2) * (x + 2))
    corr = Fraction(*_survival_corr_Y(k)) - Fraction(*_survival_corr_Y(k + 1))
    return AsymptoticValue(lead, corr, ERROR_ORDER)


@dataclass(frozen=True)
class ConstantEnclosure:
    """A constant pinned between exact rational bounds.

    The bounds are integer partial sums in units of 10^-208, floored term
    by term, with one unit of slack per term on the upper side and the
    tail majorant rounded up.  `decimal` is the value truncated toward
    zero to `digits` fractional digits; both bounds share that
    truncation, so every printed digit is certified.
    """

    lower: Fraction
    upper: Fraction
    digits: int
    decimal: str

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


# Summand majorants, each proven for every k >= 1: |term(k)| <= A*(k+1)^p/4^k.
# Writing x = 4^k (so x >= 4, 28x <= 7x^2, constants <= x^2/16):
#   lead_X = 9x/(x+2)^2 <= 9/x
#   |corr_X| <= 9x*((3k+8) + 7 + (12k+20)/16)*x^2 / (2x^4) = (135k+585)/(8x)
#     and 135k+585 <= 360(k+1) for k >= 1, so A = 45, p = 1;
#   (2k-1)*lead_X <= 9(2k-1)/x <= 18(k+1)/x;
#   (2k-1)*|corr_X| <= (2k-1)(135k+585)/(8x) <= 40(k+1)^2/x, because
#     (2k-1)(135k+585) <= 320(k+1)^2 reduces to 50k^2 - 395k + 905 >= 0,
#     whose discriminant 395^2 - 4*50*905 = -24975 is negative;
#   lead_Y = 3/(x+2) <= 3/x
#   |corr_Y| <= ((3k+10) + (6k+26)/4 + 1)*x^2 / (2x^3) = (9k+35)/(4x)
#     and 9k+35 <= 24(k+1) for k >= 1, so A = 6, p = 1;
#   (2k-1)*lead_Y <= 3(2k-1)/x <= 6(k+1)/x;
#   (2k-1)*|corr_Y| <= (2k-1)(9k+35)/(4x) <= 24(k+1)^2/(4x) = 6(k+1)^2/x,
#     because (2k-1)(9k+35) <= 24(k+1)^2 reduces to 6k^2 - 13k + 59 >= 0
#     (discriminant 169 - 1416 < 0).
# Each entry: the closed form, whether its terms carry the (2k-1) weight, A, p.
_PRIMITIVE_SUMS: dict[str, tuple[_ClosedForm, bool, int, int]] = {
    "c0": (_survival_lead_X, False, 9, 1),
    "c1": (_survival_corr_X, False, 45, 1),
    "x_weighted_lead": (_survival_lead_X, True, 18, 1),
    "x_weighted_corr": (_survival_corr_X, True, 40, 2),
    "d0": (_survival_lead_Y, False, 3, 1),
    "d1": (_survival_corr_Y, False, 6, 1),
    "y_weighted_lead": (_survival_lead_Y, True, 6, 1),
    "y_weighted_corr": (_survival_corr_Y, True, 6, 2),
}

# enclosures are integers in units of 10^-_PLACES, a few places past the largest
# `digits`; every tail majorant at _CUTOFF is below 10^-211
_MAX_DIGITS = 200
_PLACES = _MAX_DIGITS + 8
_CUTOFF = 362

# c2, c3, d2, d3 as weighted sum - factor * left * right, with factor > 0
_MOMENT_COMBOS = {
    "c2": ("x_weighted_lead", 1, "c0", "c0"),
    "c3": ("x_weighted_corr", 2, "c0", "c1"),
    "d2": ("y_weighted_lead", 1, "d0", "d0"),
    "d3": ("y_weighted_corr", 2, "d0", "d1"),
}

_Interval = tuple[int, int]


def _tail_bound(a: int, p: int, cutoff: int) -> _Ratio:
    # consecutive majorant terms shrink by at least q = (3/2)^p/4 once k >= 1,
    # so the tail is a geometric series dominated by its first term: first / (1 - q)
    q_den = 8 if p == 1 else 16
    return a * (cutoff + 2) ** p * q_den, 4 ** (cutoff + 1) * (q_den - 3**p)


def _sum_interval(name: str, scale: int, cutoff: int) -> _Interval:
    """One primitive sum in units of 1/scale; each term's floor is under one unit low."""
    term, weighted, a, p = _PRIMITIVE_SUMS[name]
    floors = 0
    for k in range(1, cutoff + 1):
        num, den = term(k)
        floors += (2 * k - 1 if weighted else 1) * num * scale // den
    tail_num, tail_den = _tail_bound(a, p, cutoff)
    tail_units = -(-tail_num * scale // tail_den)
    return floors - tail_units, floors + cutoff + tail_units


def _ivl_mul(a: _Interval, b: _Interval, scale: int) -> _Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products) // scale, -(-max(products) // scale)


@lru_cache(maxsize=None)
def _constant_interval(name: str) -> _Interval:
    """The enclosure of one constant in units of 10^-_PLACES, summed once per process."""
    scale = 10**_PLACES
    if name not in _MOMENT_COMBOS:
        return _sum_interval(name, scale, _CUTOFF)
    weighted, factor, left, right = _MOMENT_COMBOS[name]
    low, high = _sum_interval(weighted, scale, _CUTOFF)
    factors = _constant_interval(left), _constant_interval(right)
    p_low, p_high = _ivl_mul(*factors, scale)
    return low - factor * p_high, high - factor * p_low


# a table renders every row at one width, so its power is built once, not per row
_power_of_ten = lru_cache(maxsize=8)((10).__pow__)


def truncated_decimal(num: int, den: int, digits: int) -> str:
    """`num / den` (den > 0, in any terms) truncated toward zero to `digits` fractional digits."""
    scale = _power_of_ten(digits)
    whole, frac = divmod(abs(num) * scale // den, scale)
    return f"{'-' if num < 0 else ''}{whole}.{frac:0{digits}d}"


@lru_cache(maxsize=32)
def constant(name: str, digits: int) -> ConstantEnclosure:
    """Certified enclosure of one of c0..c3, d0..d3 to `digits` digits."""
    if name not in CONSTANT_NAMES:
        raise ValueError(f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}")
    if not 1 <= digits <= _MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {_MAX_DIGITS}")
    low, high = _constant_interval(name)
    lower, upper = Fraction(low, 10**_PLACES), Fraction(high, 10**_PLACES)
    decimal = truncated_decimal(low, 10**_PLACES, digits)
    if decimal != truncated_decimal(high, 10**_PLACES, digits):
        raise ArithmeticError(f"bounds of {name} truncate apart at {digits} digits")
    return ConstantEnclosure(lower, upper, digits, decimal)


def _two_term_moments(names: tuple[str, ...], n: int) -> tuple[Fraction, Fraction]:
    if n < 1:
        raise ValueError("tree size must be positive")
    mean, mean_corr, var, var_corr = (constant(name, _MAX_DIGITS).midpoint for name in names)
    return mean + mean_corr / n, var + var_corr / n


def asym_moments_X(n: int) -> tuple[Fraction, Fraction]:
    """Two-term approximations (c0 + c1/n, c2 + c3/n) of mean and variance."""
    return _two_term_moments(CONSTANT_NAMES[:4], n)


def asym_moments_Y(n: int) -> tuple[Fraction, Fraction]:
    """Two-term approximations (d0 + d1/n, d2 + d3/n) of mean and variance."""
    return _two_term_moments(CONSTANT_NAMES[4:], n)
