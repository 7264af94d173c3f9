"""Truncated power series with integer coefficients, and criterion 1's series route.

A TruncatedPowerSeries holds coefficients for z^0 .. z^N and stands for an
element of Z[[z]] known modulo z^(N+1).  Binary operations truncate to the
smaller operand's order, so results never pretend to more precision than
both inputs carry.  Division uses the standard coefficient recursion and
insists on a divisor with constant term 1, which keeps every quotient
integral; every divisor in this module has that shape by construction,
and anything else is a logic error worth surfacing.

The route runs the substitution recurrence R_k = z R_(k-1) / (1 - R_(k-1)),
its closed form (1-z) q / (1 + q) with q = z^(k+1) C(z)^3, and the pointing
identity S_k = R_k (1 + (1-4z)^(-1/2)) / 2 on these series.  It reads only
catalan and central_binomials from exact, so it stays independent of the
alternating binomial sums it checks.  Criterion 1 and the tests are its
only users, so the module exports nothing.
"""

from __future__ import annotations

from typing import Iterable

from .exact import catalan, central_binomials

__all__: list[str] = []


class TruncatedPowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant term")
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"expected int coefficients, got {type(c).__name__}")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "TruncatedPowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedPowerSeries(self.coeffs[: order + 1])

    def shifted(self, j: int) -> "TruncatedPowerSeries":
        """Multiply by z^j, keeping the same truncation order."""
        if j < 0:
            raise ValueError("shift must be nonnegative")
        if j == 0:
            return self
        n = self.order
        j = min(j, n + 1)
        return TruncatedPowerSeries((0,) * j + self.coeffs[: n + 1 - j])

    def _coerce(self, other: object) -> "TruncatedPowerSeries | None":
        if isinstance(other, TruncatedPowerSeries):
            return other
        if isinstance(other, int):
            return TruncatedPowerSeries((other,) + (0,) * self.order)
        return None

    def __add__(self, other: object) -> "TruncatedPowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = min(self.order, rhs.order)
        return TruncatedPowerSeries(
            tuple(self.coeffs[i] + rhs.coeffs[i] for i in range(n + 1))
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "TruncatedPowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "TruncatedPowerSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "TruncatedPowerSeries":
        if isinstance(other, int):
            return TruncatedPowerSeries(tuple(other * a for a in self.coeffs))
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(n + 1):
            acc = 0
            for i in range(m + 1):
                ai = a[i]
                if ai:
                    acc += ai * b[m - i]
            out.append(acc)
        return TruncatedPowerSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "TruncatedPowerSeries":
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        if other.coeffs[0] != 1:
            raise ValueError("series division requires a divisor with constant term 1")
        n = min(self.order, other.order)
        f, g = self.coeffs, other.coeffs
        q: list[int] = []
        for m in range(n + 1):
            acc = f[m]
            for i in range(1, m + 1):
                gi = g[i]
                if gi:
                    acc -= gi * q[m - i]
            q.append(acc)
        return TruncatedPowerSeries(tuple(q))

    def __pow__(self, exponent: int) -> "TruncatedPowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = self._coerce(1)
        for _ in range(exponent):
            result = result * self
        return result


def _recurrence_counts(order: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(r, s) with r[k][n] = r(n, k) and s[k][n] = s(n, k) for k, n = 0..order.

    One pass of the substitution recurrence from R_0, whose [z^n] is
    catalan(n-1); each level R_k is pointed by (1 + (1-4z)^(-1/2)) and
    halved into S_k.  An odd pointed total means a broken invariant and
    raises ArithmeticError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    R = TruncatedPowerSeries([0] + [catalan(m) for m in range(order)])
    pointing = 1 + TruncatedPowerSeries(central_binomials(order))
    r, s = [], []
    for k in range(order + 1):
        pointed = (R * pointing).coeffs
        for n, total in enumerate(pointed):
            if total % 2:
                raise ArithmeticError(f"odd pointed-vertex total at n={n}, k={k}")
        r.append(R.coeffs)
        s.append(tuple(total // 2 for total in pointed))
        R = R.shifted(1) / (1 - R)
    return tuple(r), tuple(s)


def _closed_column(k: int, order: int) -> tuple[int, ...]:
    """r(n, k) for n = 0..order from the closed form of R_k, k >= 1.

    R_k = (1-z) q / (1 + q) with q = z^(k+1) C(z)^3, the shifted cube of the
    Catalan generating function (q(0) = 0, so the denominator is a unit).
    """
    if k < 1:
        raise ValueError("the closed form applies to protection level k >= 1")
    q = (TruncatedPowerSeries(catalan(m) for m in range(order + 1)) ** 3).shifted(k + 1)
    return ((q - q.shifted(1)) / (1 + q)).coeffs
