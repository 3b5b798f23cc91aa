"""Polynomial family construction against the generating-function oracles,
orthogonality constants against quadrature, and the two printed-form
resolutions."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import eval_jacobi, roots_jacobi

from orthozero import (
    GenFunFamily,
    GenFunSpec,
    gauss_jacobi_rule,
    genfun_taylor,
    jacobi_poly,
    ortho_constant,
    pochhammer,
    poly_eval,
    quad_inner_product,
    resolve_diag_constant,
    resolve_ultra_derived_factor,
    scale_ratio_sequence,
    ultra_derived_taylor,
)
from orthozero.errors import BadParameterError

PARAM_GRID = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (0.5, 1.5), (-0.3, 0.7)]
# the generating kernels the ssr campaign scans at its CLI defaults:
# jacobi_gen(alpha, beta), and ultra_gen(beta) = ULTRA_G at alpha = beta - 1/2
SSR_DEFAULT_SPECS = (
    [GenFunSpec(GenFunFamily.JACOBI_F, a, b) for a in (0.0, 1.0) for b in (-0.5, 0.5, 1.5, 3.0)]
    + [GenFunSpec(GenFunFamily.ULTRA_G, b - 0.5) for b in (0.5, 1.5, 3.0)])


# ---------------------------------------------------------------------------
# construction basics
# ---------------------------------------------------------------------------

def test_degree_zero_is_one():
    for a, b in PARAM_GRID:
        assert jacobi_poly(0, a, b).coeffs == (1.0,)


def test_degree_one_legendre_is_x():
    # oracle: order-1 Taylor coefficient of (1-2xt+t^2)^(-1/2) equals x
    p = jacobi_poly(1, 0.0, 0.0)
    assert np.allclose(p.coeffs, (0.0, 1.0), atol=1e-15)
    for x in (-0.4, 0.9):
        assert math.isclose(genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_G, 0.0), x, 1)[1], x,
                            rel_tol=1e-13)


def test_degree_two_legendre():
    # oracle: order-2 coefficient of the series is (3x^2-1)/2 and the
    # prefactor (1+2a)_2/(1+a)_2 is 1 at a=0
    p = jacobi_poly(2, 0.0, 0.0)
    assert np.allclose(p.coeffs, (-0.5, 0.0, 1.5), atol=1e-14)


def test_bad_parameters_rejected():
    with pytest.raises(BadParameterError):
        jacobi_poly(3, -1.0, 0.0)
    with pytest.raises(BadParameterError):
        jacobi_poly(3, 0.0, -2.0)
    with pytest.raises(BadParameterError):
        jacobi_poly(100, 0.0, 0.0)


def test_exact_degree_and_positive_leading():
    for a, b in PARAM_GRID:
        for n in range(13):
            p = jacobi_poly(n, a, b)
            assert p.degree == n
            assert p.coeffs[-1] > 0


def test_matches_scipy_reference():
    rng = np.random.default_rng(0)
    for a, b in PARAM_GRID:
        for n in range(13):
            p = jacobi_poly(n, a, b)
            for x in rng.uniform(-1, 1, 5):
                want = eval_jacobi(n, a, b, x)
                assert abs(poly_eval(p, x) - want) <= 1e-10 * (1 + abs(want))


# ---------------------------------------------------------------------------
# generating-function oracles
# ---------------------------------------------------------------------------

def test_symmetric_series_at_origin():
    # binomial expansion of (1+t^2)^(-1/2)
    out = genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_G, 0.0), 0.0, 2)
    assert np.allclose(out, [1.0, 0.0, -0.5], atol=1e-15)


def test_two_parameter_series_constant_term():
    for a, b in PARAM_GRID:
        out = genfun_taylor(GenFunSpec(GenFunFamily.JACOBI_F, a, b), 0.37, 0)
        assert math.isclose(out[0], 1.0, rel_tol=1e-13)


def test_symmetric_series_at_one_is_geometric():
    out = genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_G, 0.0), 1.0, 3)
    assert np.allclose(out, [1.0, 1.0, 1.0, 1.0], atol=1e-13)


def test_recurrence_agrees_with_series_oracle():
    # the oracle runs the formulas the ssr scans evaluate, so this also ties
    # the scanned kernels to the Jacobi polynomials
    rng = np.random.default_rng(1)
    specs = [GenFunSpec(GenFunFamily.ULTRA_G, a) if a == b
             else GenFunSpec(GenFunFamily.JACOBI_F, a, b) for a, b in PARAM_GRID]
    for spec in specs + SSR_DEFAULT_SPECS:
        symmetric = spec.family is GenFunFamily.ULTRA_G
        a, b = spec.alpha, spec.alpha if symmetric else spec.beta
        for x in rng.uniform(-1, 1, 20):
            coeffs = genfun_taylor(spec, x, 12)
            for n in range(13):
                val = poly_eval(jacobi_poly(n, a, b), x)
                if symmetric:
                    val *= pochhammer(1 + 2 * a, n) / pochhammer(1 + a, n)
                assert abs(coeffs[n] - val) <= 1e-9 * (1 + abs(val))


def test_parity():
    rng = np.random.default_rng(2)
    for a in (0.0, 0.5, 2.0):
        for n in range(13):
            p = jacobi_poly(n, a, a)
            for x in rng.uniform(-1, 1, 5):
                assert abs(poly_eval(p, -x) - (-1) ** n * poly_eval(p, x)) <= 1e-12


def test_series_order_cap():
    with pytest.raises(BadParameterError):
        genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_G, 0.0), 0.0, 65)


# ---------------------------------------------------------------------------
# derived (degree-weighted) generating function
# ---------------------------------------------------------------------------

def test_derived_constant_term():
    assert math.isclose(ultra_derived_taylor(0.0, 0.0, 0)[0], 1.0, rel_tol=1e-14)


def test_derived_linear_term():
    # differentiating the series in t at 0 gives 3x at a = 0
    for x in (-0.8, 0.1, 0.6):
        out = ultra_derived_taylor(x, 0.0, 1)
        assert math.isclose(out[1], 3.0 * x, rel_tol=1e-12, abs_tol=1e-14)


def test_derived_at_one_gives_odd_numbers():
    # (1-t^2)(1-t)^(-3) expands with coefficients 2k+1
    out = ultra_derived_taylor(1.0, 0.0, 2)
    assert np.allclose(out, [1.0, 3.0, 5.0], atol=1e-12)


def test_derived_factor_resolution():
    for a in (0.5, 1.0, 2.5):
        res = resolve_ultra_derived_factor(a)
        assert res["resolved"] == "2k+2a+1"
        assert res["dev_2k_2a_1"] < 1e-9
        assert res["dev_2k_a_1"] > 1e-2


# ---------------------------------------------------------------------------
# orthogonality constants and quadrature
# ---------------------------------------------------------------------------

def test_constant_legendre_form():
    for n in range(8):
        h = ortho_constant(n, 0.0, 0.0).h
        assert math.isclose(h, 2.0 / (2 * n + 1), rel_tol=1e-13)


def test_constant_half_parameters():
    assert math.isclose(ortho_constant(0, 0.5, 0.5).h, math.pi / 2, rel_tol=1e-13)


def test_constant_at_zero():
    assert math.isclose(ortho_constant(0, 0.0, 0.0).h, 2.0, rel_tol=1e-14)


def test_constant_at_vanishing_one_plus_a_plus_b():
    # 1 + a + b = 0: h_0 is the weight's mass, 2^0 Gamma(1/2)^2 / Gamma(1) = pi
    assert abs(ortho_constant(0, -0.5, -0.5).h - math.pi) <= 1e-14 * math.pi
    assert all(math.isfinite(r) for r in scale_ratio_sequence(-0.5, 3))


def test_constant_positive_for_small_parameters():
    # 1 + a + b < 0 here, while h_0 is still the weight's positive mass
    h = ortho_constant(0, -0.9, -0.9).h
    x, w = gauss_jacobi_rule(6, -0.9, -0.9)
    assert h > 0
    assert math.isclose(h, float(np.sum(w)), rel_tol=1e-10)


def test_quadrature_rule_matches_scipy():
    # through 2 * MAX_QUAD_DEGREE + 4 = 34 nodes, the most quad_inner_product uses
    for nodes, (a, b) in itertools.product((1, 2, 9, 20, 34), PARAM_GRID):
        x1, w1 = gauss_jacobi_rule(nodes, a, b)
        x2, w2 = roots_jacobi(nodes, a, b)
        order = np.argsort(x2)
        assert np.allclose(x1, x2[order], atol=1e-13)
        assert np.allclose(w1, w2[order], rtol=1e-12)


def test_inner_product_examples():
    assert math.isclose(quad_inner_product(0, 0, 0.0, 0.0), 2.0, rel_tol=1e-13)
    assert abs(quad_inner_product(1, 0, 0.0, 0.0)) <= 1e-14
    assert math.isclose(quad_inner_product(1, 1, 0.0, 0.0), 2.0 / 3.0, rel_tol=1e-13)


def test_orthogonality_grid():
    for a in (0.0, 0.5, 1.0, 2.0):
        hs = [ortho_constant(n, a, a).h for n in range(11)]
        for n in range(11):
            for m in range(n, 11):
                val = quad_inner_product(n, m, a, a)
                if n == m:
                    assert abs(val - hs[n]) <= 1e-8 * abs(hs[n])
                else:
                    assert abs(val) <= 1e-8 * max(hs[n], hs[m])


def test_diag_constant_resolution():
    for a in (0.5, 1.0, 2.0):
        res = resolve_diag_constant(3, a)
        assert res["resolved"] == "2^(1+2a)"
        assert res["dev_2pow_1_2a"] < 1e-8
        assert res["dev_2pow_1_a"] > 1e-2


def test_quad_degree_cap():
    with pytest.raises(BadParameterError):
        quad_inner_product(16, 0, 0.0, 0.0)
