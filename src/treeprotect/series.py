"""Truncated formal power series with exact integer coefficients.

A TruncatedPowerSeries holds coefficients for z^0 .. z^N and stands for an
element of Z[[z]] known modulo z^(N+1).  Binary operations truncate to the
smaller operand's order, so results never pretend to more precision than
both inputs carry.  Division uses the standard coefficient recursion and
insists on a divisor with constant term 1, which keeps every quotient
integral; every divisor in this package has that shape by construction,
and anything else is a logic error worth surfacing.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["TruncatedPowerSeries"]


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

    @classmethod
    def zero(cls, order: int) -> "TruncatedPowerSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def constant(cls, value: int, order: int) -> "TruncatedPowerSeries":
        return cls((value,) + (0,) * order)

    @classmethod
    def z(cls, order: int) -> "TruncatedPowerSeries":
        if order < 1:
            raise ValueError("order must be at least 1 to represent z")
        return cls((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient z^{n} outside truncation order {self.order}")
        return self.coeffs[n]

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
        if j > n:
            return TruncatedPowerSeries.zero(n)
        return TruncatedPowerSeries((0,) * j + self.coeffs[: n + 1 - j])

    def _coerce(self, other: object) -> "TruncatedPowerSeries | None":
        if isinstance(other, TruncatedPowerSeries):
            return other
        if isinstance(other, int):
            return TruncatedPowerSeries.constant(other, self.order)
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
        result = TruncatedPowerSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedPowerSeries([{head}{tail}], order={self.order})"

