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
e^(-2x), so certified float tail bounds are enough.  Every sum runs to the
one tolerance TOL = 1e-14, the finest that double precision supports
honestly.  An abscissa so small that a sum would need more than _MAX_TERMS
terms to reach it (directly, or through the reflection pi^2/x of a large
one) is rejected with ValueError.
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

TOL = 1e-14
_MAX_TERMS = 200_000


@dataclass(frozen=True)
class MellinEval:
    """One evaluation: abscissa, partial-sum value, bound on the dropped tail."""

    x: float
    value: float
    truncation_bound: float


def _validate(x: float) -> None:
    if not x > 0:
        raise ValueError("the series are defined for x > 0 only")


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
    name: str, x: float, term: Callable[[int], float], tail: Callable[[float, int], float]
) -> MellinEval:
    """Add term(1), term(2), ... until a term and the certified tail are below TOL.

    The tail bound falls as the term count grows, so when it is not below
    TOL/2 at _MAX_TERMS the sum cannot stop in time, and x is rejected
    before any term is computed (also when e^(-2x) rounds to 1.0, as at
    x = 1e-300, and the bound would divide by zero).  Otherwise term
    _MAX_TERMS is below TOL/10 too: a term that large needs x below about
    1.2e-4, where the tail bound exceeds it over 4000-fold.  So the loop
    always stops by _MAX_TERMS.
    """
    _validate(x)
    if not (math.exp(-2.0 * x) < 1.0 and tail(x, _MAX_TERMS) < TOL / 2.0):
        raise ValueError(f"{name}({x}) does not reach tolerance {TOL} within {_MAX_TERMS} terms")
    total = 0.0
    for k in range(1, _MAX_TERMS + 1):
        t = term(k)
        total += t
        if t < TOL / 10.0:
            bound = tail(x, k)
            if bound < TOL / 2.0:
                return MellinEval(x, total, bound)
    raise ArithmeticError(f"{name}({x}) missed the stop test it passes at {_MAX_TERMS} terms")


def eval_F(x: float) -> MellinEval:
    """Partial sum of F(x) with a certified geometric tail bound below TOL."""

    def term(k: int) -> float:
        e = math.exp(-(2 * k - 1) * x)
        return e / (1.0 + e) ** 2

    return _partial_sum("F", x, term, _tail_F)


def eval_G(x: float) -> MellinEval:
    """Partial sum of G(x) with a certified geometric tail bound below TOL."""

    def term(k: int) -> float:
        e = math.exp(-(2 * k - 1) * x)
        return (2 * k - 1) * e / (1.0 + e)

    return _partial_sum("G", x, term, _tail_G)


def check_F_functional_eq(x: float) -> float:
    """|F(x) - 1/(4x) + (pi^2/x^2) F(pi^2/x)|, both sides summed to TOL."""
    left = eval_F(x).value
    right = 1.0 / (4.0 * x) - reflection_term_F(x)
    return abs(left - right)


def check_G_functional_eq(x: float) -> float:
    """|G(x) - pi^2/(24x^2) - 1/24 + (pi^2/x^2) G(pi^2/x)|, both sides summed to TOL."""
    left = eval_G(x).value
    right = math.pi**2 / (24.0 * x * x) + 1.0 / 24.0 - reflection_term_G(x)
    return abs(left - right)


def _reflected(name: str, evaluate: Callable[[float], MellinEval], x: float) -> float:
    """(pi^2/x^2) * evaluate(pi^2/x); an unreachable sum is reported at x, the user's abscissa."""
    _validate(x)
    try:
        value = evaluate(math.pi**2 / x).value
    except ValueError:
        raise ValueError(
            f"{name}(pi^2/x) at x = {x} does not reach tolerance {TOL} within "
            f"{_MAX_TERMS} terms; x is too large"
        ) from None
    return (math.pi**2 / x**2) * value


def reflection_term_F(x: float) -> float:
    """(pi^2/x^2) F(pi^2/x), the small defect in the 1/(4x) near-identity."""
    return _reflected("F", eval_F, x)


def reflection_term_G(x: float) -> float:
    """(pi^2/x^2) G(pi^2/x), the defect in G's near-identity."""
    return _reflected("G", eval_G, x)


def mean_constant_from_F() -> float:
    """(9/2) F(log 2), summed to TOL; equals the limit mean c0 of the root statistic."""
    return 4.5 * eval_F(math.log(2.0)).value


def second_moment_constant_from_G() -> float:
    """(3/2) G(log 2), summed to TOL; equals d2 + d0^2, the vertex statistic's second moment."""
    return 1.5 * eval_G(math.log(2.0)).value
