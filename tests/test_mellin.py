"""Numerical checks of the two harmonic-sum functional equations."""

import math

import pytest

from treeprotect import mellin
from treeprotect.asymptotics import constant
from treeprotect.mellin import (
    TOL,
    check_F_functional_eq,
    check_G_functional_eq,
    eval_F,
    eval_G,
    mean_constant_from_F,
    reflection_term_F,
    reflection_term_G,
    second_moment_constant_from_G,
)

ABSCISSAS = (0.5, math.log(2.0), 1.0, 2.0, math.e, math.pi, 5.0)


def test_functional_equation_residuals_small():
    for x in ABSCISSAS:
        assert check_F_functional_eq(x) < 1e-12
        assert check_G_functional_eq(x) < 1e-12


def test_eval_reports_truncation_bound_below_tol():
    for x in (0.3, 1.0, 4.0):
        for ev in (eval_F(x), eval_G(x)):
            assert 0 <= ev.truncation_bound < TOL


def test_large_argument_values_vanish():
    assert eval_F(40.0).value < 1e-16
    assert eval_G(40.0).value < 1e-15


def test_fixed_points_at_pi():
    assert abs(eval_F(math.pi).value - 1.0 / (8.0 * math.pi)) < 1e-12
    assert abs(eval_G(math.pi).value - 1.0 / 24.0) < 1e-12


def test_reflection_terms_at_log2_match_known_prefixes():
    # the corrections to F(log 2) ~ 1/(4 log 2) and the matching G identity
    assert abs(reflection_term_F(math.log(2.0)) - 1.34525077e-5) < 1e-12
    assert abs(reflection_term_G(math.log(2.0)) - 1.34525165276e-5) < 1e-13


def test_cross_links_to_certified_constants():
    c0 = float(constant("c0", 30).midpoint)
    assert abs(mean_constant_from_F() - c0) < 1e-12
    d0 = constant("d0", 30).midpoint
    d2 = constant("d2", 30).midpoint
    assert abs(second_moment_constant_from_G() - float(d2 + d0 * d0)) < 1e-11


def test_domain_validation():
    with pytest.raises(ValueError):
        eval_F(0.0)
    with pytest.raises(ValueError):
        eval_G(-1.0)


def test_large_abscissa_error_names_the_abscissa():
    # the reflected sums run at pi^2/x ~ 9.87e-6, which no 200,000 terms reach
    for reflection in (reflection_term_F, reflection_term_G, check_F_functional_eq):
        with pytest.raises(ValueError) as exc:
            reflection(1e6)
        message = str(exc.value)
        assert "x = 1000000.0" in message
        assert "9.869" not in message


@pytest.mark.parametrize("evaluate", [eval_F, eval_G])
@pytest.mark.parametrize("x", [1e-4, 1e-300])
def test_unreachable_abscissa_is_rejected_before_summing(monkeypatch, evaluate, x):
    partial_sum = mellin._partial_sum
    terms = []

    def counting(name, at, term, tail):
        def counted(k):
            terms.append(k)
            return term(k)

        return partial_sum(name, at, counted, tail)

    monkeypatch.setattr(mellin, "_partial_sum", counting)
    with pytest.raises(ValueError, match="does not reach tolerance"):
        evaluate(x)
    assert terms == []
    evaluate(0.5)
    assert terms, "the counting wrapper sees the terms of a reachable sum"


def test_tiny_abscissa_does_not_divide_by_zero():
    # e^(-2x) rounds to 1.0, so the tail bound's 1 - e^(-2x) is 0.0
    assert math.exp(-2.0 * 1e-300) == 1.0
    for evaluate in (eval_F, eval_G):
        with pytest.raises(ValueError, match="does not reach tolerance 1e-14"):
            evaluate(1e-300)


def _reflected_constants(terms):
    """c0 and d2 + d0^2 at 230 digits from the reflected side of F and G at log 2."""
    import mpmath

    with mpmath.workdps(230):
        log2 = mpmath.log(2)
        y = mpmath.pi**2 / log2
        scale = mpmath.pi**2 / log2**2
        odd = [2 * k - 1 for k in range(1, terms + 1)]
        f = mpmath.fsum(mpmath.exp(-m * y) / (1 + mpmath.exp(-m * y)) ** 2 for m in odd)
        g = mpmath.fsum(m * mpmath.exp(-m * y) / (1 + mpmath.exp(-m * y)) for m in odd)
        c0 = mpmath.mpf(9) / 2 * (1 / (4 * log2) - scale * f)
        d2_d0sq = mpmath.mpf(3) / 2 * (scale / 24 + mpmath.mpf(1) / 24 - scale * g)
        return c0, d2_d0sq


def _inside(value, lower, upper):
    import mpmath

    with mpmath.workdps(230):
        return mpmath.mpf(lower.numerator) / lower.denominator <= value <= (
            mpmath.mpf(upper.numerator) / upper.denominator
        )


def test_reflection_reaches_the_200_digit_enclosures():
    # the reflected series is not the defining sum of c0 or d2 + d0^2, so this
    # is an independent route; its terms shrink by e^(-2 pi^2 / log 2) each
    c0 = constant("c0", 200)
    d0, d2 = constant("d0", 200), constant("d2", 200)
    # d0 > 0, so squaring keeps the interval order
    d_lower, d_upper = d2.lower + d0.lower**2, d2.upper + d0.upper**2
    value_c0, value_d = _reflected_constants(18)
    assert _inside(value_c0, c0.lower, c0.upper)
    assert _inside(value_d, d_lower, d_upper)
    value_c0, value_d = _reflected_constants(16)
    assert not _inside(value_c0, c0.lower, c0.upper)
    assert not _inside(value_d, d_lower, d_upper)
