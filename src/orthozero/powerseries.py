"""Truncated power series as a number type: a formula written for numbers
runs on a Series and gives its Taylor coefficients."""

from __future__ import annotations

import numpy as np

from .errors import SeriesDivergenceError


class Series:
    """A power series in t: coef[k] is the coefficient of t**k, truncated at
    order len(coef) - 1, which the series it combines with share. A number
    combines with it as a constant series, on either side of + - * /; numpy
    ufuncs do not take series, so a numpy scalar on the left defers to the
    reflected operator."""

    __slots__ = ("coef",)
    __array_ufunc__ = None

    def __init__(self, coef, order: int | None = None):
        """The series coef, zero-padded or truncated to order when given."""
        coef = np.array(coef, dtype=float, ndmin=1)
        if order is not None:
            coef = np.concatenate([coef[: order + 1], np.zeros(max(order + 1 - len(coef), 0))])
        self.coef = coef

    @classmethod
    def variable(cls, order: int) -> Series:
        """The series t, truncated at order."""
        return cls([0.0, 1.0], order)

    def _coef(self, other) -> np.ndarray:
        return other.coef if isinstance(other, Series) else Series(other, len(self.coef) - 1).coef

    def __add__(self, other):
        return Series(self.coef + self._coef(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Series(self.coef - self._coef(other))

    def __rsub__(self, other):
        return Series(self._coef(other) - self.coef)

    def __mul__(self, other):
        if isinstance(other, Series):
            return Series(np.convolve(self.coef, other.coef)[: len(self.coef)])
        return Series(self.coef * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other ** -1
        return Series(self.coef / other)

    def __rtruediv__(self, other):
        return self ** -1 * other

    def __pow__(self, exponent):
        """self ** c for a real number c by the Miller recurrence, which needs
        a nonzero constant term, positive unless c is an integer:
        g[0] = a[0]**c and n*a[0]*g[n] = sum_{k=1..n} ((c+1)k - n) a[k] g[n-k]."""
        a, c = self.coef, float(exponent)
        if not (a[0] > 0 or (a[0] != 0 and c.is_integer())):
            raise SeriesDivergenceError(f"power {c:g} of a series with constant term {a[0]:g}")
        g = np.zeros_like(a)
        g[0] = a[0] ** c
        for n in range(1, len(a)):
            k = np.arange(1, n + 1)
            g[n] = np.dot(((c + 1) * k - n) * a[1 : n + 1], g[n - 1 :: -1]) / (n * a[0])
        return Series(g)

    def sqrt(self) -> Series:
        return self ** 0.5
