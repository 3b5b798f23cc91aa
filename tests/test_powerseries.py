"""Truncated series arithmetic against closed-form expansions."""

import numpy as np
import pytest

from orthozero import powerseries as ps
from orthozero.errors import SeriesDivergenceError


def test_mul_matches_polynomial_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        full = np.polynomial.polynomial.polymul(a, b)
        assert np.allclose(ps.mul(a, b, 9), full[:10], atol=1e-14)


def test_reciprocal_of_one_minus_t_is_geometric():
    out = ps.reciprocal([1.0, -1.0], 6)
    assert np.allclose(out, np.ones(7), atol=1e-15)


def test_reciprocal_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=8)
        a[0] = rng.uniform(0.5, 2.0) * np.sign(rng.normal() or 1.0)
        prod = ps.mul(a, ps.reciprocal(a, 7), 7)
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(prod, want, atol=1e-12)


def test_reciprocal_needs_nonzero_constant():
    with pytest.raises(SeriesDivergenceError):
        ps.reciprocal([0.0, 1.0], 3)


def test_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=9)
        a[0] = rng.uniform(0.3, 3.0)
        root = ps.power(a, 0.5, 8)
        assert np.allclose(ps.mul(root, root, 8), a, atol=1e-11)


def test_sqrt_of_one_minus_t_squared():
    # (1 - t)^(1/2) = 1 - t/2 - t^2/8 - t^3/16 - ...
    out = ps.power([1.0, -1.0], 0.5, 3)
    assert np.allclose(out, [1.0, -0.5, -0.125, -0.0625], atol=1e-14)


def test_power_binomial_series():
    # (1 + t)^c with c = -1/2: coefficients binom(-1/2, k)
    out = ps.power([1.0, 1.0], -0.5, 4)
    want = [1.0, -0.5, 0.375, -0.3125, 0.2734375]
    assert np.allclose(out, want, atol=1e-14)


def test_power_integer_exponent_matches_repeated_mul():
    rng = np.random.default_rng(3)
    a = rng.normal(size=5)
    a[0] = 1.3
    cubed = ps.mul(ps.mul(a, a, 8), a, 8)
    assert np.allclose(ps.power(a, 3.0, 8), cubed, atol=1e-11)


def test_power_composes_exponents():
    rng = np.random.default_rng(4)
    a = rng.normal(size=6)
    a[0] = 0.8
    via_half = ps.power(ps.power(a, 0.5, 10), 3.0, 10)
    direct = ps.power(a, 1.5, 10)
    assert np.allclose(via_half, direct, atol=1e-11)


def test_power_rejects_nonpositive_constant():
    with pytest.raises(SeriesDivergenceError):
        ps.power([-1.0, 1.0], 0.5, 3)
    with pytest.raises(SeriesDivergenceError):
        ps.power([0.0, 1.0], 0.5, 3)


def test_pad_truncates_and_extends():
    assert list(ps.pad([1.0, 2.0, 3.0], 1)) == [1.0, 2.0]
    assert list(ps.pad([1.0], 3)) == [1.0, 0.0, 0.0, 0.0]
