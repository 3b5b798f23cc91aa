"""Truncated power series arithmetic on coefficient arrays.

A series is a 1-d float array ``a`` with ``a[k]`` the coefficient of t**k;
all operations truncate at a fixed order N (arrays of length N+1). These are
the building blocks for the generating-function Taylor oracles: product,
reciprocal, and real powers (square roots included) via the J.C.P. Miller
recurrence.
"""

from __future__ import annotations

import numpy as np

from .errors import SeriesDivergenceError


def pad(a, order: int) -> np.ndarray:
    """Zero-pad (or truncate) a coefficient array to length order+1."""
    a = np.asarray(a, dtype=float)
    if len(a) >= order + 1:
        return a[: order + 1].copy()
    return np.concatenate([a, np.zeros(order + 1 - len(a))])


def mul(a, b, order: int) -> np.ndarray:
    """Product of two series, truncated at the given order."""
    return np.convolve(np.asarray(a, float), np.asarray(b, float))[: order + 1]


def reciprocal(a, order: int) -> np.ndarray:
    """Series 1/a; requires a nonzero constant term.

    Uses the direct recurrence b[n] = -(sum_{k>=1} a[k] b[n-k]) / a[0].
    """
    a = pad(a, order)
    if a[0] == 0.0:
        raise SeriesDivergenceError("reciprocal of series with zero constant term")
    b = np.zeros(order + 1)
    b[0] = 1.0 / a[0]
    for n in range(1, order + 1):
        b[n] = -np.dot(a[1 : n + 1], b[n - 1 :: -1]) / a[0]
    return b


def power(a, exponent: float, order: int) -> np.ndarray:
    """Series a**c for real c via the Miller recurrence.

    Requires a positive constant term. g[0] = a[0]**c and
    n*a[0]*g[n] = sum_{k=1..n} ((c+1)k - n) a[k] g[n-k].
    """
    a = pad(a, order)
    if a[0] <= 0.0:
        raise SeriesDivergenceError("power of series with nonpositive constant term")
    g = np.zeros(order + 1)
    g[0] = a[0] ** exponent
    for n in range(1, order + 1):
        k = np.arange(1, n + 1)
        g[n] = np.dot(((exponent + 1) * k - n) * a[1 : n + 1], g[n - 1 :: -1]) / (n * a[0])
    return g
