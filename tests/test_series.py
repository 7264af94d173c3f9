"""Exact-rational truncated power series: algebra and edge cases."""

from fractions import Fraction

import pytest

from treeprotect.series import TruncatedPowerSeries


def test_constructor_and_getitem():
    s = TruncatedPowerSeries([1, Fraction(1, 2), 3])
    assert s.order == 2
    assert s[0] == 1
    assert s[2] == 3
    assert isinstance(s[1], Fraction)
    with pytest.raises(IndexError):
        s[3]


def test_arithmetic_ring_identities():
    z = TruncatedPowerSeries.z(8)
    one = TruncatedPowerSeries.constant(1, 8)
    s = one + z + z * z
    assert (s - s) == TruncatedPowerSeries.zero(8)
    assert s * one == s
    assert (s + s) == 2 * s
    assert -s + s == TruncatedPowerSeries.zero(8)


def test_multiplication_truncates():
    z = TruncatedPowerSeries.z(3)
    p = (z + z * z) ** 2
    # z^4 term falls off the end
    assert p.coeffs == (Fraction(0), Fraction(0), Fraction(1), Fraction(2))


def test_division_roundtrip():
    one = TruncatedPowerSeries.constant(1, 10)
    z = TruncatedPowerSeries.z(10)
    denom = one - 2 * z + 3 * z * z
    num = one + z
    q = num / denom
    assert q * denom == num


def test_division_requires_unit_constant_term():
    z = TruncatedPowerSeries.z(5)
    with pytest.raises(ValueError):
        z / z


def test_geometric_series_by_division():
    one = TruncatedPowerSeries.constant(1, 6)
    z = TruncatedPowerSeries.z(6)
    geom = one / (one - z)
    assert geom.coeffs == tuple(Fraction(1) for _ in range(7))


def test_shifted_moves_and_clamps():
    s = TruncatedPowerSeries([5, 7, 11])
    assert s.shifted(1).coeffs == (Fraction(0), Fraction(5), Fraction(7))
    assert s.shifted(3) == TruncatedPowerSeries.zero(2)
    # shifts past the order must clamp to zero, not wrap
    assert s.shifted(9) == TruncatedPowerSeries.zero(2)


def test_truncated_shortens():
    s = TruncatedPowerSeries([1, 2, 3, 4])
    assert s.truncated(1).coeffs == (Fraction(1), Fraction(2))


def test_pow_matches_repeated_product():
    z = TruncatedPowerSeries.z(7)
    base = TruncatedPowerSeries.constant(1, 7) + z
    assert base**4 == base * base * base * base
    assert base**0 == TruncatedPowerSeries.constant(1, 7)

