"""Generating-function routes against the brute-force oracle.

Every counting quantity here is computed at least two independent ways;
agreement is exact (Fraction/int), never approximate.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprotect import exact, series
from treeprotect.exact import (
    DistributionTable,
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
    survival_X_exact,
    survival_Y_exact,
)
from treeprotect.series import TruncatedPowerSeries, _recurrence_counts
from treeprotect.trees import (
    enumerate_trees,
    oracle_r,
    oracle_s,
)


def test_catalan_values():
    assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_central_binomials_sequence():
    assert central_binomials(5) == (1, 2, 6, 20, 70, 252)


def test_series_R0_coefficients_are_catalans():
    r0 = _recurrence_counts(10)[0][0]
    assert r0 == (0,) + tuple(catalan(n - 1) for n in range(1, 11))


def test_series_R0_satisfies_functional_equation():
    # root plus a sequence of subtrees: R(1 - R) = z
    order = 32
    r0 = TruncatedPowerSeries(_recurrence_counts(order)[0][0])
    assert (r0 * (1 - r0)).coeffs == (0, 1) + (0,) * (order - 1)


def test_series_invsqrt_squares_to_geometric():
    # (1-4z) * invsqrt^2 == 1, invsqrt = (1-4z)^(-1/2) the pointing factor's series
    order = 24
    square = TruncatedPowerSeries(central_binomials(order)) ** 2
    assert (square - 4 * square.shifted(1)).coeffs == (1,) + (0,) * order


def test_recurrence_and_closed_series_agree():
    # the ballot columns expand the closed form (1-z) q / (1 + q), q = z^(k+1) C(z)^3
    r = _recurrence_counts(24)[0]
    for k in range(1, 5):
        assert r[k] == r_survival_column(k, 24)


def test_r_series_coefficients_match_oracle():
    r = _recurrence_counts(10)[0]
    for k in range(0, 5):
        for n in range(1, 11):
            assert r[k][n] == oracle_r(n, k)


def test_r_explicit_matches_oracle():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert r_explicit(n, k) == oracle_r(n, k)


def test_r_explicit_large_n_consistent_with_series():
    column = _recurrence_counts(40)[0][3]
    for n in (20, 30, 40):
        assert r_explicit(n, 3) == column[n]


def test_r_survival_column_stacks_explicit_values():
    for k in range(1, 4):
        column = r_survival_column(k, 20)
        for n in range(1, 21):
            assert column[n] == r_explicit(n, k)


def test_s_series_coefficients_match_oracle():
    s = _recurrence_counts(10)[1]
    for k in range(0, 5):
        for n in range(1, 11):
            assert s[k][n] == oracle_s(n, k)


def test_s_explicit_matches_oracle():
    for n in range(1, 11):
        for k in range(0, n + 1):
            assert s_explicit(n, k) == oracle_s(n, k)


def test_catalan_power_coeffs_match_series_power():
    # C(z) = R0/z has constant term 1; build it by dropping R0's zero coefficient
    cat = TruncatedPowerSeries(_recurrence_counts(13)[0][0][1:])
    for t in (1, 2, 3, 5):
        assert catalan_power_coeffs(t, 12) == (cat**t).coeffs


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


def _series_table(statistic, n):
    """The exact X or Y table read off the substitution recurrence, level by level."""
    r, s = _recurrence_counts(n)
    levels = r if statistic == "X" else s
    return DistributionTable(tuple(levels[k][n] for k in range(n)))


def _oracle_table(statistic, n):
    """The exact X or Y table counted by brute force, level by level."""
    oracle = oracle_r if statistic == "X" else oracle_s
    return DistributionTable(tuple(oracle(n, k) for k in range(n)))


def test_dist_methods_agree():
    for n in (1, 3, 4, 8):
        for statistic, dist in (("X", dist_X_exact), ("Y", dist_Y_exact)):
            assert _oracle_table(statistic, n) == _series_table(statistic, n) == dist(n)


def test_dist_X_exact_n4_table():
    table = dist_X_exact(4)
    assert table == DistributionTable((5, 5, 2, 1))
    assert len(table.counts) == 4
    assert [Fraction(c, table.counts[0]) for c in table.counts] == [
        Fraction(1),
        Fraction(1),
        Fraction(2, 5),
        Fraction(1, 5),
    ]
    assert table.mean == Fraction(8, 5)
    assert table.variance == table.second_moment - table.mean**2


def test_empty_distribution_table_raises():
    # counts[0] is the denominator, so a table needs at least that count
    with pytest.raises(ValueError):
        DistributionTable(())


SIZE, LEVEL = "tree size must be positive", "protection level must be nonnegative"
ORDER = "order must be nonnegative"
BAD_INPUTS = [
    (r_explicit, (0, 1), SIZE),
    (s_explicit, (0, 2), SIZE),
    (s_explicit, (4, -1), LEVEL),
    (survival_X_exact, (0, 1), SIZE),
    (survival_Y_exact, (3, -1), LEVEL),
    (dist_X_exact, (0,), SIZE),
    (dist_Y_exact, (-2,), SIZE),
    (mean_X_exact, (0,), SIZE),
    (catalan, (-1,), "catalan index must be nonnegative"),
    (central_binomials, (-1,), ORDER),
    (catalan_power_coeffs, (0, 3), "exponent must be positive"),
    (catalan_power_coeffs, (1, -1), "count must be nonnegative"),
    (r_survival_column, (0, 5), "survival columns need k >= 1"),
    (r_survival_column, (1, -1), ORDER),
    (root_protection_totals, (-1,), ORDER),
]


@pytest.mark.parametrize(
    "func, args, message", BAD_INPUTS, ids=[f"{f.__name__}{args}" for f, args, _ in BAD_INPUTS]
)
def test_bad_input_raises_value_error_with_its_message(func, args, message):
    # ValueError is what the CLI turns into a usage error (exit 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(*args)


def test_dist_rejects_unknown_method():
    # the engine has one route; brute force is the CLI's exact-dist oracle choice
    assert dist_Y_exact(5) == _oracle_table("Y", 5)
    for dist in (dist_X_exact, dist_Y_exact):
        for method in ("oracle", "guess", "series"):
            with pytest.raises(TypeError):
                dist(4, method=method)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=12))
def test_default_X_table_equals_oracle(n):
    assert dist_X_exact(n) == _oracle_table("X", n)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=12))
def test_default_Y_table_equals_oracle(n):
    assert dist_Y_exact(n) == _oracle_table("Y", n)


def test_default_tables_equal_series_route_at_n40():
    assert dist_X_exact(40) == _series_table("X", 40)
    assert dist_Y_exact(40) == _series_table("Y", 40)


def test_broken_invariants_raise_arithmetic_error(monkeypatch):
    # ArithmeticError, not ValueError: the CLI maps ValueError to a usage error.
    # An r term shifted by one makes the pointed-vertex total odd, and so do
    # wrong central binomials for the series route that reads them; every route
    # that halves the total (integer sum, pointed series) notices.
    lattice_terms = exact._lattice_terms

    def first_r_term_shifted(*args):
        for step, (i, r, u) in enumerate(lattice_terms(*args)):
            yield i, r + (1 if step == 0 else 0), u

    # the line sums are cached: clear them so the patched walk runs, and again
    # so that no later test reads the broken sum
    exact._point_counts.cache_clear()
    monkeypatch.setattr(exact, "_lattice_terms", first_r_term_shifted)
    try:
        with pytest.raises(ArithmeticError):
            s_explicit(5, 2)  # k = 1 sums in closed form, so a level that walks its line
    finally:
        exact._point_counts.cache_clear()
    monkeypatch.setattr(series, "central_binomials", lambda order: (1,) * (order + 1))
    with pytest.raises(ArithmeticError, match="odd pointed-vertex total"):
        _recurrence_counts(3)


def _k_line(n, k):
    """The _lattice_terms arguments of the k line at size n."""
    return 2 * n - 2 * k + 1, n - k - 1, 1 - 2 * k, -k - 1, n // (k + 1)


def test_inexact_ratio_step_raises_arithmetic_error(monkeypatch):
    # the k = 2 line at n = 15 has five points; a falling factorial one too
    # large leaves a remainder at the first ratio step, before any point past
    # the first is read
    assert len(list(exact._lattice_terms(*_k_line(15, 2)))) == 5
    perm = math.perm
    monkeypatch.setattr(exact.math, "perm", lambda a, b: perm(a, b) + 1)
    walked = exact._lattice_terms(*_k_line(15, 2))
    assert next(walked)[0] == 4
    with pytest.raises(ArithmeticError, match="ratio step"):
        next(walked)


def test_lattice_terms_walk_down_from_one_comb(monkeypatch):
    # each line starts at its last point i = count - 1 with one math.comb and
    # climbs to i = 0 by ratio steps alone
    calls = []
    comb = math.comb

    def counted(a, b):
        calls.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(exact.math, "comb", counted)
    for n, k in ((14, 2), (30, 2), (61, 4)):
        calls.clear()
        walked = [i for i, _, _ in exact._lattice_terms(*_k_line(n, k))]
        assert walked == list(range(n // (k + 1) - 1, -1, -1))
        # the start point (j, k) = (count, k) has A = 2n - (2k-1)j and q = n - (k+1)j
        j = n // (k + 1)
        assert calls == [(2 * n - (2 * k - 1) * j, n - (k + 1) * j)]
    calls.clear()
    assert list(exact._lattice_terms(*_k_line(3, 3))) == []
    assert calls == []


def _binomial(top, low):
    return math.comb(top, low) if 0 <= low <= top else 0


def _direct_terms(n, j, k):
    """(r term, u term) of the lattice point (j, k), four binomials by math.comb."""
    a, q = 2 * n - (2 * k - 1) * j, n - (k + 1) * j
    r = _binomial(a - 3, q) - _binomial(a - 3, q - 3)
    u = _binomial(a, q) - _binomial(a - 2, q - 1)
    return r, u


def test_k1_closed_forms_equal_the_direct_binomial_sums():
    # R_1 = R0 - z: the k = 1 line, which the walk never takes, sums to
    # catalan(n-1) and C(2n, n)/2 - C(2n-2, n-1)
    for n in range(2, 201):
        sums = [0, 0]
        for j in range(1, n // 2 + 1):
            sign = 1 if j % 2 else -1
            r, u = _direct_terms(n, j, 1)
            sums[0] += sign * r
            sums[1] += sign * u
        assert exact._point_counts(n, 1) == tuple(sums)
        assert sums == [catalan(n - 1), math.comb(2 * n, n) // 2 - math.comb(2 * n - 2, n - 1)]
        assert r_explicit(n, 1) == catalan(n - 1)


def test_lattice_terms_equal_direct_binomials():
    # every lattice point with n <= 60 reached along its k line, k >= 2, and
    # along its j line, which also reaches every point of the k = 1 line
    for n in range(2, 61):
        for k in range(2, n):
            a, b = 2 * n - (2 * k - 1), n - (k + 1)
            walked = list(exact._lattice_terms(a, b, 1 - 2 * k, -k - 1, n // (k + 1)))
            assert sorted(i for i, _, _ in walked) == list(range(n // (k + 1)))
            for i, r, u in walked:
                assert (r, u) == _direct_terms(n, i + 1, k)
        for j in range(1, n // 2 + 1):
            walked = list(exact._lattice_terms(2 * n - j, n - 2 * j, -2 * j, -j, n // j - 1))
            assert sorted(i for i, _, _ in walked) == list(range(n // j - 1))
            for i, r, u in walked:
                assert (r, u) == _direct_terms(n, j, i + 1)


def test_every_walked_line_climbs_in_p(monkeypatch):
    # p = A - q steps by db - da, which every line that the pass and the point
    # kernels walk keeps >= 0; the k = 1 line, whose p would fall, sums in closed form
    lattice_terms = exact._lattice_terms
    steps = []

    def recorded(a, b, da, db, count):
        if count > 1:
            steps.append(db - da)
        return lattice_terms(a, b, da, db, count)

    exact._protection_counts.cache_clear()
    exact._point_counts.cache_clear()
    monkeypatch.setattr(exact, "_lattice_terms", recorded)
    for n in range(1, 301):
        exact._protection_counts(n)
        for k in range(n + 1):
            s_explicit(n, k)
    assert steps
    assert min(steps) >= 0


def test_unscaled_walk_raises_where_the_factorial_ratio_is_fractional(monkeypatch):
    # with D = gcd(rho, mu) forced to 1 the walk carries (A-3)!/(q! p!) itself; on
    # the k = 5 line at n = 23 that is C(19, 5)/(19*18*17) = 2 at its start j = 3,
    # but 2185/2 at j = 2, where (A, q) = (28, 11), so the first ratio step raises
    monkeypatch.setattr(exact.math, "gcd", lambda *args: 1)
    walked = exact._lattice_terms(*_k_line(23, 5))
    assert next(walked)[0] == 2
    with pytest.raises(ArithmeticError, match=r"ratio step to C\(28, 11\)"):
        next(walked)


def test_wrong_base_binomial_raises_at_the_lattice_ratio(monkeypatch):
    # the point (j, k) = (1, 1) at n = 10 has A = 19, q = 8 and B = C(19, 8);
    # one walked term, so only the start division B D / (A(A-1)(A-2)) sees the
    # wrong base: it leaves the remainder D, as q > 0 makes 0 < D <= mu < A(A-1)(A-2)
    assert list(exact._lattice_terms(19, 8, -1, -2, 1)) == [(0, *_direct_terms(10, 1, 1))]
    comb = math.comb
    monkeypatch.setattr(exact.math, "comb", lambda a, b: comb(a, b) + 1)
    with pytest.raises(ArithmeticError, match="lattice ratio"):
        list(exact._lattice_terms(19, 8, -1, -2, 1))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=150))
def test_line_sums_equal_ballot_table_routes(n):
    beta = central_binomials(n)
    for k in range(1, n + 2):
        column = r_survival_column(k, n)
        assert r_explicit(n, k) == column[n]
        pointed = column[n] + sum(column[m] * beta[n - m] for m in range(1, n + 1))
        assert 2 * s_explicit(n, k) == pointed


@pytest.mark.parametrize("n", [48, 49, 50, 255, 256, 257, 1024, 1025, 1056])
def test_means_equal_totals_table_at_split_boundaries(n):
    rho = root_protection_totals(n)
    beta = central_binomials(n)
    assert mean_X_exact(n) == Fraction(rho[n], catalan(n - 1))
    pointed = rho[n] + sum(rho[m] * beta[n - m] for m in range(1, n + 1))
    assert mean_Y_exact(n) == Fraction(pointed, 2 * n * catalan(n - 1))


def test_default_Y_table_equals_series_route_at_n200():
    assert dist_Y_exact(200) == _series_table("Y", 200)


def test_series_route_counts_are_ints():
    r, s = _recurrence_counts(12)
    assert len(r) == len(s) == 13
    assert all(type(c) is int for row in (*r, *s) for c in row)
    with pytest.raises(ValueError):
        _recurrence_counts(-1)


def test_means_at_moderate_n_are_rational_and_bounded():
    m = mean_X_exact(100)
    assert isinstance(m, Fraction)
    assert 1 < m < 2
    my = mean_Y_exact(100)
    assert Fraction(1, 2) < my < 1


def _pass_agrees_with_point_kernels(n):
    r, s = exact._protection_counts(n)
    assert len(r) == len(s) == n
    assert (r[0], s[0]) == (catalan(n - 1), n * catalan(n - 1))
    for k in range(1, n):
        assert r[k] == r_explicit(n, k)
        assert s[k] == s_explicit(n, k)


def test_pass_equals_point_kernels_for_every_n_up_to_150():
    for n in range(1, 151):
        _pass_agrees_with_point_kernels(n)


@pytest.mark.parametrize("n", [255, 256, 257, 1055, 1056, 1057])
def test_pass_equals_point_kernels_around_a_perfect_square(n):
    # the pass walks the j line of j = m from k = m + 1 and the k line of k = m
    # from j = m, for m <= isqrt(n): the j line of 15 gains its first point at
    # 255 = 15 * 17, isqrt moves at 256, and the k line of 32 gains its first
    # point at 1056 = 32 * 33, so the split moves between these sizes
    _pass_agrees_with_point_kernels(n)


def test_tables_and_means_read_the_one_pass():
    n = 300
    exact._protection_counts.cache_clear()
    dist_X_exact(n)
    dist_Y_exact(n)
    mean_X_exact(n)
    mean_Y_exact(n)
    info = exact._protection_counts.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, 2)


def test_survival_values_and_the_pass_share_their_line_and_catalan():
    n, k = 800, 2
    exact._point_counts.cache_clear()
    exact.catalan.cache_clear()
    survival_X_exact(n, k)
    survival_Y_exact(n, k)
    line, total = exact._point_counts.cache_info(), exact.catalan.cache_info()
    assert (line.misses, line.hits) == (1, 1)
    assert (total.misses, total.hits) == (1, 1)
    # the pass reads catalan(n - 1) at k = 1 and at level 0, and builds it once
    exact._protection_counts.cache_clear()
    exact._point_counts.cache_clear()
    exact.catalan.cache_clear()
    dist_X_exact(n)
    total = exact.catalan.cache_info()
    assert (total.misses, total.hits) == (1, 1)


def test_only_the_vertex_values_halve_the_pointed_total(monkeypatch):
    # r(n, k) needs no s(n, k), so survival_X_exact never halves r + u
    def no_halving(total, n, k):
        raise ArithmeticError("halved")

    monkeypatch.setattr(exact, "_halve", no_halving)
    assert survival_X_exact(40, 3) == Fraction(r_explicit(40, 3), catalan(39))
    with pytest.raises(ArithmeticError, match="halved"):
        survival_Y_exact(40, 3)


def test_broken_pass_raises_arithmetic_error(monkeypatch):
    # every walked line that starts one too large at q > 0 leaves a remainder at
    # its start division, before any r + u is halved
    comb = math.comb
    exact._protection_counts.cache_clear()
    monkeypatch.setattr(exact.math, "comb", lambda a, b: comb(a, b) + 1)
    try:
        with pytest.raises(ArithmeticError, match="inexact (lattice ratio|ratio step)"):
            dist_Y_exact(30)
    finally:
        exact._protection_counts.cache_clear()
