"""Integer truncated power series: algebra and edge cases."""

from fractions import Fraction

import pytest

from treeprotect.series import TruncatedPowerSeries


def _z(order):
    return TruncatedPowerSeries((0, 1) + (0,) * (order - 1))


def _one(order):
    return TruncatedPowerSeries((1,) + (0,) * order)


def test_constructor_keeps_int_coefficients():
    s = TruncatedPowerSeries([1, -2, 3])
    assert s.order == 2
    assert s.coeffs == (1, -2, 3)
    assert all(type(c) is int for c in s.coeffs)
    with pytest.raises(ValueError):
        TruncatedPowerSeries([])
    # coefficients are plain ints; even an integral Fraction is refused
    for bad in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(TypeError):
            TruncatedPowerSeries([1, bad])


def test_scalars_must_be_ints():
    s = TruncatedPowerSeries([1, 2, 3])
    assert (3 * s).coeffs == (3, 6, 9)
    assert (s - 1).coeffs == (0, 2, 3)
    assert (1 - s).coeffs == (0, -2, -3)
    with pytest.raises(TypeError):
        s * Fraction(1, 2)
    with pytest.raises(TypeError):
        s + 0.5


def test_arithmetic_ring_identities():
    z, one = _z(8), _one(8)
    s = one + z + z * z
    assert (s - s).coeffs == (0,) * 9
    assert (s * one).coeffs == s.coeffs
    assert (s + s).coeffs == (2 * s).coeffs
    assert (-s + s).coeffs == (0,) * 9


def test_multiplication_truncates():
    z = _z(3)
    p = (z + z * z) ** 2
    # z^4 term falls off the end
    assert p.coeffs == (0, 0, 1, 2)


def test_division_roundtrip():
    one, z = _one(10), _z(10)
    denom = one - 2 * z + 3 * z * z
    num = one + z
    q = num / denom
    assert (q * denom).coeffs == num.coeffs
    # a unit divisor keeps the quotient integral
    assert all(type(c) is int for c in q.coeffs)


def test_division_requires_unit_constant_term():
    z = _z(5)
    with pytest.raises(ValueError):
        z / z


def test_geometric_series_by_division():
    one = _one(6)
    geom = one / (one - _z(6))
    assert geom.coeffs == (1,) * 7


def test_shifted_moves_and_clamps():
    s = TruncatedPowerSeries([5, 7, 11])
    assert s.shifted(1).coeffs == (0, 5, 7)
    assert s.shifted(3).coeffs == (0, 0, 0)
    # shifts past the order must clamp to zero, not wrap
    assert s.shifted(9).coeffs == (0, 0, 0)


def test_truncated_shortens():
    s = TruncatedPowerSeries([1, 2, 3, 4])
    assert s.truncated(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncated(4)


def test_pow_matches_repeated_product():
    base = _one(7) + _z(7)
    assert (base**4).coeffs == (base * base * base * base).coeffs
    assert (base**0).coeffs == _one(7).coeffs
