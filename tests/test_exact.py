"""Generating-function routes against the brute-force oracle.

Every counting quantity here is computed at least two independent ways;
agreement is exact (Fraction/int), never approximate.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprotect import exact
from treeprotect.exact import (
    DistributionTable,
    binomial,
    catalan,
    catalan_power_coeffs,
    central_binomials,
    dist_X_exact,
    dist_Y_exact,
    mean_X_exact,
    mean_Y_exact,
    r_explicit,
    r_survival_column,
    root_protection_totals,
    s_explicit,
    series_R0,
    series_invsqrt,
    series_R_ge_k_closed,
    series_R_ge_k_recurrence,
    series_S_ge_k,
    survival_X_exact,
    survival_Y_exact,
)
from treeprotect.trees import (
    enumerate_trees,
    oracle_r,
    oracle_s,
)


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-3, 1)


def test_catalan_values():
    assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_central_binomials_sequence():
    assert central_binomials(5) == (1, 2, 6, 20, 70, 252)


def test_series_R0_coefficients_are_catalans():
    r0 = series_R0(10)
    assert r0[0] == 0
    for n in range(1, 11):
        assert r0[n] == catalan(n - 1)


def test_series_R0_satisfies_functional_equation():
    # root plus a sequence of subtrees: R(1 - R) = z
    order = 32
    r0 = series_R0(order)
    z = type(r0).z(order)
    one = type(r0).constant(1, order)
    assert r0 * (one - r0) == z


def test_series_invsqrt_squares_to_geometric():
    # (1-4z) * invsqrt^2 == 1
    order = 24
    s = series_invsqrt(order)
    one = type(s).constant(1, order)
    z = type(s).z(order)
    assert (one - 4 * z) * s * s == one


def test_recurrence_and_closed_series_agree():
    for k in range(1, 5):
        assert series_R_ge_k_recurrence(k, 24) == series_R_ge_k_closed(k, 24)


def test_r_series_coefficients_match_oracle():
    for k in range(0, 5):
        series = series_R_ge_k_recurrence(k, 10)
        for n in range(1, 11):
            assert series[n] == oracle_r(n, k)


def test_r_explicit_matches_oracle():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert r_explicit(n, k) == oracle_r(n, k)


def test_r_explicit_large_n_consistent_with_series():
    series = series_R_ge_k_closed(3, 40)
    for n in (20, 30, 40):
        assert r_explicit(n, 3) == series[n]


def test_r_survival_column_stacks_explicit_values():
    for k in range(1, 4):
        column = r_survival_column(k, 20)
        for n in range(1, 21):
            assert column[n] == r_explicit(n, k)


def test_s_series_coefficients_match_oracle():
    for k in range(0, 5):
        series = series_S_ge_k(k, 10)
        for n in range(1, 11):
            assert series[n] == oracle_s(n, k)


def test_s_explicit_matches_oracle():
    for n in range(1, 11):
        for k in range(0, n + 1):
            assert s_explicit(n, k) == oracle_s(n, k)


def test_catalan_power_coeffs_match_series_power():
    r0 = series_R0(12)
    one = type(r0).constant(1, 12)
    # C(z) = R0/z has constant term 1; build it by dropping the zero coefficient
    cat = type(r0)(r0.coeffs[1:])
    for t in (1, 2, 3, 5):
        power = one
        for _ in range(t):
            power = power * cat
        coeffs = catalan_power_coeffs(t, 12)
        for m in range(12):
            assert coeffs[m] == power[m]


def test_root_protection_totals_match_oracle_sums():
    totals = root_protection_totals(10)
    for n in range(1, 11):
        expected = sum(oracle_r(n, k) for k in range(1, n + 1))
        assert totals[n] == expected


def test_survival_and_means_against_oracle_tables():
    for n in (1, 2, 3, 4, 8):
        trees = list(enumerate_trees(n))
        total = len(trees)
        for k in range(0, n + 1):
            assert survival_X_exact(n, k) == Fraction(oracle_r(n, k), total)
            assert survival_Y_exact(n, k) == Fraction(oracle_s(n, k), n * total)
    assert mean_X_exact(4) == Fraction(sum(oracle_r(4, k) for k in range(1, 5)), 5)
    assert mean_Y_exact(3) == Fraction(oracle_s(3, 1) + oracle_s(3, 2), 3 * 2)


def test_dist_methods_agree():
    for n in (1, 3, 4, 8):
        oracle_x = dist_X_exact(n, method="oracle")
        series_x = dist_X_exact(n, method="series")
        explicit_x = dist_X_exact(n, method="explicit")
        assert oracle_x == series_x == explicit_x
        oracle_y = dist_Y_exact(n, method="oracle")
        assert oracle_y == dist_Y_exact(n, method="series") == dist_Y_exact(n, method="explicit")


def test_dist_X_exact_n4_table():
    table = dist_X_exact(4)
    assert table.survival == {
        0: Fraction(1),
        1: Fraction(1),
        2: Fraction(2, 5),
        3: Fraction(1, 5),
    }
    assert table.pmf == {
        0: Fraction(0),
        1: Fraction(3, 5),
        2: Fraction(1, 5),
        3: Fraction(1, 5),
    }
    assert table.mean == Fraction(8, 5)
    assert table.variance == table.second_moment - table.mean**2


def test_distribution_table_accessors():
    table = dist_X_exact(3)
    assert table.survival_at(0) == 1
    assert table.survival_at(99) == 0
    assert table.pmf_at(1) == table.survival_at(1) - table.survival_at(2)
    assert sum(table.pmf.values()) == 1


def test_dist_rejects_unknown_method():
    assert dist_Y_exact(5, method="explicit") == dist_Y_exact(5, method="oracle")
    for dist in (dist_X_exact, dist_Y_exact):
        with pytest.raises(ValueError):
            dist(4, method="guess")


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=12))
def test_default_X_table_equals_oracle(n):
    assert dist_X_exact(n) == dist_X_exact(n, method="oracle")


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=12))
def test_default_Y_table_equals_oracle(n):
    assert dist_Y_exact(n) == dist_Y_exact(n, method="oracle")


def test_default_tables_equal_series_route_at_n40():
    assert dist_X_exact(40) == dist_X_exact(40, method="series")
    assert dist_Y_exact(40) == dist_Y_exact(40, method="series")


def test_broken_invariants_raise_arithmetic_error(monkeypatch):
    # ArithmeticError, not ValueError: the CLI maps ValueError to a usage error.
    # Wrong central binomials make the pointed-vertex totals odd, and every
    # route that halves them (integer sum, pointed series, series table) notices.
    monkeypatch.setattr(exact, "central_binomials", lambda order: (1,) * (order + 1))
    with pytest.raises(ArithmeticError):
        s_explicit(3, 1)
    with pytest.raises(ArithmeticError):
        series_S_ge_k(1, 3)
    with pytest.raises(ArithmeticError):
        dist_Y_exact(3, method="series")


def test_series_route_counts_are_ints():
    assert all(type(c) is int for c in series_S_ge_k(2, 12).coeffs)
    assert series_R_ge_k_recurrence(0, 9) == series_R0(9)


def test_means_at_moderate_n_are_rational_and_bounded():
    m = mean_X_exact(100)
    assert isinstance(m, Fraction)
    assert 1 < m < 2
    my = mean_Y_exact(100)
    assert Fraction(1, 2) < my < 1
