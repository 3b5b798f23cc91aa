"""Truncated series arithmetic against closed-form expansions."""

import operator

import numpy as np
import pytest

from orthozero.errors import SeriesDivergenceError
from orthozero.powerseries import Series


def test_mul_matches_polynomial_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        full = np.polynomial.polynomial.polymul(a, b)
        assert np.allclose((Series(a, 9) * Series(b, 9)).coef, full[:10], atol=1e-14)


def test_reciprocal_of_one_minus_t_is_geometric():
    out = 1.0 / Series([1.0, -1.0], 6)
    assert np.allclose(out.coef, np.ones(7), atol=1e-15)


def test_reciprocal_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=8)
        a[0] = rng.uniform(0.5, 2.0) * np.sign(rng.normal() or 1.0)
        prod = Series(a, 7) * Series(a, 7) ** -1
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(prod.coef, want, atol=1e-12)


def test_reciprocal_needs_nonzero_constant():
    with pytest.raises(SeriesDivergenceError):
        Series([0.0, 1.0], 3) ** -1


def test_division_by_a_series_needs_nonzero_constant():
    t = Series.variable(3)
    for numerator in (1.0, np.float64(2.0), Series([1.0, 1.0], 3)):
        with pytest.raises(SeriesDivergenceError):
            numerator / t


def test_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=9)
        a[0] = rng.uniform(0.3, 3.0)
        root = Series(a, 8).sqrt()
        assert np.allclose((root * root).coef, a, atol=1e-11)


def test_sqrt_of_one_minus_t_squared():
    # (1 - t)^(1/2) = 1 - t/2 - t^2/8 - t^3/16 - ...
    out = Series([1.0, -1.0], 3) ** 0.5
    assert np.allclose(out.coef, [1.0, -0.5, -0.125, -0.0625], atol=1e-14)


def test_power_binomial_series():
    # (1 + t)^c with c = -1/2: coefficients binom(-1/2, k)
    out = Series([1.0, 1.0], 4) ** -0.5
    want = [1.0, -0.5, 0.375, -0.3125, 0.2734375]
    assert np.allclose(out.coef, want, atol=1e-14)


def test_power_integer_exponent_matches_repeated_mul():
    rng = np.random.default_rng(3)
    a = rng.normal(size=5)
    a[0] = 1.3
    s = Series(a, 8)
    assert np.allclose((s ** 3.0).coef, (s * s * s).coef, atol=1e-11)


def test_power_composes_exponents():
    rng = np.random.default_rng(4)
    a = rng.normal(size=6)
    a[0] = 0.8
    s = Series(a, 10)
    assert np.allclose((s.sqrt() ** 3.0).coef, (s ** 1.5).coef, atol=1e-11)


def test_power_rejects_nonpositive_constant():
    with pytest.raises(SeriesDivergenceError):
        Series([-1.0, 1.0], 3) ** 0.5
    with pytest.raises(SeriesDivergenceError):
        Series([0.0, 1.0], 3).sqrt()


def test_pad_truncates_and_extends():
    assert list(Series([1.0, 2.0, 3.0], 1).coef) == [1.0, 2.0]
    assert list(Series([1.0], 3).coef) == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("number", [2.0, np.float64(2.0)], ids=["float", "float64"])
@pytest.mark.parametrize("op,want", [
    (operator.add, [3.0, 1.0, 0.0]),
    (operator.sub, [1.0, -1.0, 0.0]),
    (operator.mul, [2.0, 2.0, 0.0]),
    (operator.truediv, [2.0, -2.0, 2.0]),  # 2 / (1 + t)
])
def test_number_on_the_left_gives_a_series(number, op, want):
    # a numpy scalar must not turn the series into an array and map over it
    out = op(number, Series([1.0, 1.0], 2))
    assert isinstance(out, Series)
    assert list(out.coef) == want


@pytest.mark.parametrize("number", [2.0, np.float64(2.0)], ids=["float", "float64"])
def test_number_on_the_right_gives_a_series(number):
    s = Series([1.0, 1.0], 2)
    assert list((s + number).coef) == [3.0, 1.0, 0.0]
    assert list((s - number).coef) == [-1.0, 1.0, 0.0]
    assert list((s * number).coef) == [2.0, 2.0, 0.0]
    assert list((s / number).coef) == [0.5, 0.5, 0.0]
