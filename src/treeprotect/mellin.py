"""Harmonic sums tied to the protection constants, and their functional equations.

Two series over odd integers control the mean and second moment of the
vertex-protection limit law at the Catalan singularity:

    F(x) = sum_{k>=1} e^(-(2k-1)x) / (1 + e^(-(2k-1)x))^2
    G(x) = sum_{k>=1} (2k-1) e^(-(2k-1)x) / (1 + e^(-(2k-1)x))

At x = log 2 they reproduce module constants: (9/2) F(log 2) = c0 and
(3/2) G(log 2) = d2 + d0^2.  Both satisfy exact reflection formulas under
x -> pi^2/x,

    F(x) = 1/(4x) - (pi^2/x^2) F(pi^2/x),
    G(x) = pi^2/(24 x^2) + 1/24 - (pi^2/x^2) G(pi^2/x),

whose residuals this module evaluates numerically.  The reflected terms
(pi^2/x^2) F(pi^2/x) are tiny near x = log 2, which is why 1/(4 log 2) is
numerically so close to F(log 2) without being equal to it.

Double precision throughout: every verified quantity needs at most 13
significant digits, and the sums converge geometrically with ratio
e^(-2x), so certified float tail bounds are enough.  An abscissa so small
that a sum would need more than _MAX_TERMS terms (directly, or through the
reflection pi^2/x of a large one) is rejected with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MellinEval",
    "eval_F",
    "eval_G",
    "check_F_functional_eq",
    "check_G_functional_eq",
    "mean_constant_from_F",
    "second_moment_constant_from_G",
    "reflection_term_F",
    "reflection_term_G",
]

DEFAULT_TOL = 1e-14
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class MellinEval:
    """One evaluation: abscissa, partial-sum value, bound on the dropped tail."""

    x: float
    value: float
    truncation_bound: float


def _validate(x: float, tol: float) -> None:
    if not x > 0:
        raise ValueError("the series are defined for x > 0 only")
    if tol < 1e-14:
        raise ValueError("tolerance below 1e-14 is not honest in double precision")


def _tail_F(x: float, terms: int) -> float:
    # sum_{k>terms} e^(-(2k-1)x) = e^(-(2*terms+1)x) / (1 - e^(-2x))
    return math.exp(-(2 * terms + 1) * x) / (1.0 - math.exp(-2.0 * x))


def _tail_G(x: float, terms: int) -> float:
    # sum_{k>terms} (2k-1) q^(2k-1), q = e^(-x): first factor m = 2*terms+1,
    # geometric-derivative closed form in y = q^2
    y = math.exp(-2.0 * x)
    m = 2 * terms + 1
    return math.exp(-m * x) * (m / (1.0 - y) + 2.0 * y / (1.0 - y) ** 2)


def _partial_sum(
    name: str,
    x: float,
    tol: float,
    term: Callable[[int], float],
    tail: Callable[[float, int], float],
) -> MellinEval:
    """Add term(1), term(2), ... until a term and the certified tail are below tol."""
    _validate(x, tol)
    total = 0.0
    for k in range(1, _MAX_TERMS + 1):
        t = term(k)
        total += t
        if t < tol / 10.0:
            bound = tail(x, k)
            if bound < tol / 2.0:
                return MellinEval(x, total, bound)
    raise ValueError(f"{name}({x}) does not reach tolerance {tol} within {_MAX_TERMS} terms")


def eval_F(x: float, tol: float = DEFAULT_TOL) -> MellinEval:
    """Partial sum of F(x) with a certified geometric tail bound below tol."""

    def term(k: int) -> float:
        e = math.exp(-(2 * k - 1) * x)
        return e / (1.0 + e) ** 2

    return _partial_sum("F", x, tol, term, _tail_F)


def eval_G(x: float, tol: float = DEFAULT_TOL) -> MellinEval:
    """Partial sum of G(x) with a certified geometric tail bound below tol."""

    def term(k: int) -> float:
        e = math.exp(-(2 * k - 1) * x)
        return (2 * k - 1) * e / (1.0 + e)

    return _partial_sum("G", x, tol, term, _tail_G)


def check_F_functional_eq(x: float, tol: float = DEFAULT_TOL) -> float:
    """|F(x) - 1/(4x) + (pi^2/x^2) F(pi^2/x)|, both sides summed to tol."""
    left = eval_F(x, tol).value
    right = 1.0 / (4.0 * x) - reflection_term_F(x, tol)
    return abs(left - right)


def check_G_functional_eq(x: float, tol: float = DEFAULT_TOL) -> float:
    """|G(x) - pi^2/(24x^2) - 1/24 + (pi^2/x^2) G(pi^2/x)|."""
    left = eval_G(x, tol).value
    right = math.pi**2 / (24.0 * x * x) + 1.0 / 24.0 - reflection_term_G(x, tol)
    return abs(left - right)


def reflection_term_F(x: float, tol: float = DEFAULT_TOL) -> float:
    """(pi^2/x^2) F(pi^2/x), the small defect in the 1/(4x) near-identity."""
    _validate(x, tol)
    y = math.pi**2 / x
    return (math.pi**2 / x**2) * eval_F(y, tol).value


def reflection_term_G(x: float, tol: float = DEFAULT_TOL) -> float:
    """(pi^2/x^2) G(pi^2/x), the defect in G's near-identity."""
    _validate(x, tol)
    y = math.pi**2 / x
    return (math.pi**2 / x**2) * eval_G(y, tol).value


def mean_constant_from_F(tol: float = DEFAULT_TOL) -> float:
    """(9/2) F(log 2); equals the limit mean c0 of the root statistic."""
    return 4.5 * eval_F(math.log(2.0), tol).value


def second_moment_constant_from_G(tol: float = DEFAULT_TOL) -> float:
    """(3/2) G(log 2); equals d2 + d0^2, the vertex statistic's second moment."""
    return 1.5 * eval_G(math.log(2.0), tol).value
