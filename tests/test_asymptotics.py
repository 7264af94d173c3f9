"""Asymptotic expansions, limit laws, and certified constants."""

import re
from fractions import Fraction

import pytest

from treeprotect import asymptotics
from treeprotect.acceptance import REFERENCE_DIGITS
from treeprotect.asymptotics import (
    _CUTOFF,
    _PRIMITIVE_SUMS,
    CONSTANT_NAMES,
    ERROR_ORDER,
    AsymptoticValue,
    _ivl_mul,
    _sum_interval,
    _survival_corr_X,
    _survival_corr_Y,
    _survival_lead_X,
    _survival_lead_Y,
    _tail_bound,
    asym_P_X_ge,
    asym_P_Y_ge,
    asym_moments_X,
    asym_moments_Y,
    constant,
    limit_pmf_X,
    limit_pmf_Y,
    truncated_decimal,
)
from treeprotect.exact import dist_X_exact, dist_Y_exact

# certified by the interval arithmetic in `constant` and confirmed by
# exact finite-n variances; these two disagree with the published strings
CERTIFIED_C3 = "0.752064239409591264131776195623037076243863867774117959593385"
CERTIFIED_D3 = "-0.008069306849577412439260970341290668150739539610413792698447"


def test_survival_level_one_is_certain():
    v = asym_P_X_ge(1)
    assert v.leading == 1
    assert v.correction == 0
    w = asym_P_Y_ge(1)
    assert w.leading == Fraction(1, 2)
    assert w.correction == 0


def test_survival_rejects_k_below_one():
    with pytest.raises(ValueError):
        asym_P_X_ge(0)
    with pytest.raises(ValueError):
        asym_P_Y_ge(-2)


SIZE, LEVEL = "tree size must be positive", "protection level must be nonnegative"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: AsymptoticValue(Fraction(3, 2), Fraction(0), ERROR_ORDER),
            "leading term of a probability must lie in [0, 1]",
            id="AsymptoticValue(3/2, 0)",
        ),
        pytest.param(lambda: asym_P_X_ge(3).at(0), SIZE, id="asym_P_X_ge(3).at(0)"),
        pytest.param(lambda: limit_pmf_X(-1), LEVEL, id="limit_pmf_X(-1)"),
        pytest.param(lambda: limit_pmf_Y(-1), LEVEL, id="limit_pmf_Y(-1)"),
        pytest.param(lambda: asym_moments_X(0), SIZE, id="asym_moments_X(0)"),
    ],
)
def test_bad_input_raises_value_error_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_at_combines_leading_and_correction():
    v = asym_P_X_ge(2)
    assert v.at(100) == v.leading + v.correction / 100


def test_pmf_leading_terms_are_survival_differences():
    for k in range(1, 25):
        lead_gap = asym_P_X_ge(k).leading - asym_P_X_ge(k + 1).leading
        assert limit_pmf_X(k).leading == lead_gap
        corr_gap = asym_P_X_ge(k).correction - asym_P_X_ge(k + 1).correction
        assert limit_pmf_X(k).correction == corr_gap
        assert limit_pmf_Y(k).leading == (
            asym_P_Y_ge(k).leading - asym_P_Y_ge(k + 1).leading
        )
        assert limit_pmf_Y(k).correction == (
            asym_P_Y_ge(k).correction - asym_P_Y_ge(k + 1).correction
        )


def test_pmf_at_level_zero():
    assert limit_pmf_X(0).leading == 0
    assert limit_pmf_Y(0).leading == Fraction(1, 2)
    # level-0 survival is exactly 1, so the closed forms give 1 and no correction there
    closed_forms = (_survival_lead_X, _survival_corr_X, _survival_lead_Y, _survival_corr_Y)
    assert [Fraction(*form(0)) for form in closed_forms] == [1, 0, 1, 0]
    assert limit_pmf_X(0).correction == limit_pmf_Y(0).correction == 0


def test_pmf_leading_terms_normalize():
    # telescoping: partial sums approach 1 with geometric tails
    total_x = sum(limit_pmf_X(k).leading for k in range(0, 60))
    total_y = sum(limit_pmf_Y(k).leading for k in range(0, 60))
    assert 1 - total_x == asym_P_X_ge(60).leading
    assert 1 - total_y == asym_P_Y_ge(60).leading
    assert 1 - total_x < Fraction(1, 4**29)
    assert 1 - total_y < Fraction(1, 4**29)


def test_leading_terms_follow_the_galton_watson_recursions():
    # A uniform plane tree is a Galton-Watson tree with Geometric(1/2)
    # offspring conditioned on its size.  A uniform vertex's subtree tends to
    # the unconditioned tree (Aldous 1991), whose root is k-protected with
    # probability a_k; the root tends to the root of Kesten's tree (Kesten
    # 1986): size-biased offspring and one infinite spine child, so b_k.
    a, b = Fraction(1), Fraction(1)
    survival_x, survival_y = [b], [a]
    for _ in range(81):
        a, b = a / (4 - 2 * a), b / (2 - a) ** 2
        survival_x.append(b)
        survival_y.append(a)
    for k in range(81):
        assert survival_y[k] == Fraction(*_survival_lead_Y(k))
        assert survival_x[k] == Fraction(*_survival_lead_X(k))
        assert limit_pmf_X(k).leading == survival_x[k] - survival_x[k + 1]
        assert limit_pmf_Y(k).leading == survival_y[k] - survival_y[k + 1]


def test_leading_terms_are_probabilities():
    for k in range(1, 40):
        for v in (asym_P_X_ge(k), asym_P_Y_ge(k), limit_pmf_X(k), limit_pmf_Y(k)):
            assert 0 <= v.leading <= 1


def test_error_order_tags():
    for value in (asym_P_X_ge(2), limit_pmf_X(2), asym_P_Y_ge(2), limit_pmf_Y(2)):
        assert value.error_order == ERROR_ORDER
    # both expansions run in whole powers of 1/n, so the two-term error is n^-2
    assert "n^2" in ERROR_ORDER


def test_two_term_survival_errors_stay_within_the_stated_order():
    # ERROR_ORDER reads O(k^2 / (3^k n^2)), uniformly in k;
    # the largest scaled errors are 1.1152 (X, n = 20, k = 7) and 0.1183 (Y, n = 20, k = 2)
    bounds = {
        "X": (dist_X_exact, asym_P_X_ge, Fraction(12, 10)),
        "Y": (dist_Y_exact, asym_P_Y_ge, Fraction(12, 100)),
    }
    for n in (20, 50, 100, 200, 400, 800):
        for statistic, (dist, survival, bound) in bounds.items():
            table = dist(n)
            for k in range(1, n):
                error = abs(Fraction(table.counts[k], table.counts[0]) - survival(k).at(n))
                assert n**2 * 3**k * error <= bound * k**2, (statistic, n, k)


def _summand(name: str, k: int) -> Fraction:
    """Term k of one primitive sum, as an exact Fraction."""
    term, weighted, _, _ = _PRIMITIVE_SUMS[name]
    return (2 * k - 1 if weighted else 1) * Fraction(*term(k))


def test_summand_majorants_hold():
    for name in (
        "c0",
        "c1",
        "x_weighted_lead",
        "x_weighted_corr",
        "d0",
        "d1",
        "y_weighted_lead",
        "y_weighted_corr",
    ):
        _, _, a, p = _PRIMITIVE_SUMS[name]
        for k in range(1, 61):
            # the documented majorant A*(k+1)^p/4^k
            assert abs(_summand(name, k)) <= Fraction(a * (k + 1) ** p, 4**k), (name, k)


def test_fixed_point_sums_contain_the_exact_enclosure():
    # coarse scales make every floor and the one unit of slack per term count
    for name, (_, _, a, p) in _PRIMITIVE_SUMS.items():
        for scale in (10**3, 10**10):
            for cutoff in (5, 30):
                low, high = _sum_interval(name, scale, cutoff)
                partial = sum(_summand(name, k) for k in range(1, cutoff + 1))
                tail = Fraction(*_tail_bound(a, p, cutoff))
                assert Fraction(low, scale) <= partial - tail, (name, scale, cutoff)
                assert partial + tail <= Fraction(high, scale), (name, scale, cutoff)


def test_interval_product_rounds_outward_for_every_sign_pattern():
    scale = 10**3
    positive, negative = (1234, 5679), (-5679, -1234)
    for a in (positive, negative):
        for b in (positive, negative):
            exact = [Fraction(x * y, scale**2) for x in a for y in b]
            low, high = _ivl_mul(a, b, scale)
            assert Fraction(low, scale) <= min(exact) <= max(exact) <= Fraction(high, scale)
            # outward rounding costs less than one unit at each end
            assert Fraction(high - low, scale) < max(exact) - min(exact) + Fraction(2, scale)


def test_every_name_settles_at_every_digit_count():
    for _, _, a, p in _PRIMITIVE_SUMS.values():
        assert Fraction(*_tail_bound(a, p, _CUTOFF)) < Fraction(1, 10**211)
    # bounds that truncate alike at 200 digits also do at every smaller count,
    # but each count is checked anyway
    for name in CONSTANT_NAMES:
        enc = constant(name, 200)
        for digits in range(1, 201):
            lower, upper = (
                truncated_decimal(*b.as_integer_ratio(), digits) for b in (enc.lower, enc.upper)
            )
            assert lower == upper, (name, digits)


def test_straddling_enclosure_raises(monkeypatch):
    # at 10^-5 units the per-term slack alone makes the enclosure 362 units wide;
    # the cached intervals are in units of the real _PLACES, so they are cleared
    monkeypatch.setattr(asymptotics, "_PLACES", 5)
    asymptotics._constant_interval.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            constant.__wrapped__("c0", 5)
    finally:
        asymptotics._constant_interval.cache_clear()


def test_each_certified_sum_is_computed_once_per_process(monkeypatch):
    # the combos c2, c3, d2, d3 read their factors through the cached
    # intervals, so the eight names need exactly the eight primitive sums
    sum_interval = asymptotics._sum_interval
    summed = []

    def counted(name, scale, cutoff):
        summed.append(name)
        return sum_interval(name, scale, cutoff)

    asymptotics._constant_interval.cache_clear()
    constant.cache_clear()
    monkeypatch.setattr(asymptotics, "_sum_interval", counted)
    try:
        for digits in (50, 131):
            for name in CONSTANT_NAMES:
                constant(name, digits)
        asym_moments_X(1000)
        asym_moments_Y(1000)
        assert sorted(summed) == sorted(_PRIMITIVE_SUMS)
        assert asymptotics._constant_interval.cache_info().misses == 8
    finally:
        asymptotics._constant_interval.cache_clear()
        constant.cache_clear()


def test_constant_names_and_validation():
    assert CONSTANT_NAMES == ("c0", "c1", "c2", "c3", "d0", "d1", "d2", "d3")
    with pytest.raises(ValueError):
        constant("c9", 10)
    with pytest.raises(ValueError):
        constant("c0", 0)
    with pytest.raises(ValueError):
        constant("c0", 500)


def test_enclosure_certifies_its_digits():
    for name in CONSTANT_NAMES:
        enc = constant(name, 40)
        assert enc.lower <= enc.upper
        assert enc.upper - enc.lower < Fraction(1, 10**40)
        assert enc.lower <= enc.midpoint <= enc.upper
        # both bounds truncate to the printed decimal
        assert enc.decimal.startswith("-") == (enc.lower < 0)


def test_enclosures_nest_as_digits_grow():
    # one fixed-precision enclosure serves every digit count, so coarser
    # decimals are prefixes of the 200-digit one
    for name in CONSTANT_NAMES:
        finest = constant(name, 200)
        for digits in (1, 10, 50):
            enc = constant(name, digits)
            assert (enc.lower, enc.upper) == (finest.lower, finest.upper), (name, digits)
            assert finest.decimal.startswith(enc.decimal), (name, digits)


def test_constants_match_published_prefixes_where_consistent():
    for name in ("c0", "c1", "c2", "d0", "d1", "d2"):
        enc = constant(name, 50)
        assert enc.decimal == REFERENCE_DIGITS[name][: len(enc.decimal)], name


def test_c3_d3_match_certified_values():
    # the published strings for these two equal c1*(1-2*c0) and
    # d1*(1-2*d0): the (2k-1) second-moment weight was dropped there.
    # Exact finite-n variances (n = 200, 400) converge to the values
    # below, not to the published ones.
    assert constant("c3", 50).decimal == CERTIFIED_C3[:52]
    assert constant("d3", 50).decimal == CERTIFIED_D3[:53]


def _assert_published_equals_weightless_product(published_name, mean, correction):
    """The published string lies in the enclosure of correction*(1-2*mean)."""
    m = constant(mean, 60)
    c = constant(correction, 60)
    products = [a * (1 - 2 * b) for a in (c.lower, c.upper) for b in (m.lower, m.upper)]
    published = Fraction(REFERENCE_DIGITS[published_name])
    # the final published digit is rounded, so allow one ulp at digit 60
    slack = Fraction(1, 10**60)
    assert min(products) - slack <= published <= max(products) + slack


def test_published_c3_factors_as_weightless_sum():
    _assert_published_equals_weightless_product("c3", "c0", "c1")


def test_published_d3_factors_as_weightless_sum():
    _assert_published_equals_weightless_product("d3", "d0", "d1")


def test_moment_combos_track_exact_values():
    mean_x, var_x = asym_moments_X(400)
    table_x = dist_X_exact(400)
    assert abs(float(mean_x - table_x.mean)) < 1e-5
    assert abs(float(var_x - table_x.variance)) < 1e-4

    mean_y, var_y = asym_moments_Y(200)
    table_y = dist_Y_exact(200)
    assert abs(float(mean_y - table_y.mean)) < 1e-5
    assert abs(float(var_y - table_y.variance)) < 1e-4


def test_moment_residuals_hold_steady_at_the_true_order():
    # n^2 (E - c0 - c1/n), n^2 (V - c2 - c3/n) and the same with d0..d3 for Y:
    # a wrong 1/n coefficient makes them grow like n, a missing n^-2 term shrink
    laws = {"X": (dist_X_exact, asym_moments_X), "Y": (dist_Y_exact, asym_moments_Y)}
    scaled = {}
    for n in (400, 800, 1600, 3200):
        for statistic, (dist, moments) in laws.items():
            table, (mean, variance) = dist(n), moments(n)
            scaled.setdefault(f"E({statistic})", []).append(n**2 * (table.mean - mean))
            scaled.setdefault(f"V({statistic})", []).append(n**2 * (table.variance - variance))
    for name, values in scaled.items():
        assert len({v > 0 for v in values}) == 1, (name, [float(v) for v in values])
        sizes = [abs(v) for v in values]
        assert 0 < min(sizes) and max(sizes) < Fraction(102, 100) * min(sizes), name


def test_constant_digits_one():
    enc = constant("c0", 1)
    assert enc.decimal == "1.6"


def test_truncated_decimal_matches_the_reduced_fraction_form():
    def by_fraction(value, digits):
        sign = "-" if value < 0 else ""
        scaled = abs(value) * 10**digits
        whole, frac = divmod(scaled.numerator // scaled.denominator, 10**digits)
        return f"{sign}{whole}.{frac:0{digits}d}"

    values = [Fraction(-7, 3), Fraction(-1, 10**250), Fraction(0), Fraction(5), Fraction(-12)]
    for table in (dist_X_exact(60), dist_Y_exact(60)):
        counts = table.counts + (0,)
        values += [Fraction(c, counts[0]) for c in counts]
        values += [Fraction(c - below, counts[0]) for c, below in zip(counts, counts[1:] + (0,))]
    for digits in (1, 30, 200):
        for value in values:
            expected = by_fraction(value, digits)
            num, den = value.as_integer_ratio()
            assert truncated_decimal(num, den, digits) == expected
            # the same value in other terms
            assert truncated_decimal(6 * num, 6 * den, digits) == expected
    assert truncated_decimal(-7, 3, 1) == "-2.3"
    assert truncated_decimal(-14, 6, 1) == "-2.3"
    assert truncated_decimal(-1, 10**250, 30) == "-0." + "0" * 30
    assert truncated_decimal(0, 1, 1) == "0.0"
    assert truncated_decimal(0, 7, 1) == "0.0"
    assert truncated_decimal(-12, 1, 1) == "-12.0"
