"""Transform contracts: worked examples, linearity, degree and parity
preservation, zero preservation, and the exact integer route."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orthozero import (
    MONOMIAL,
    JacobiExpansion,
    JacobiFactorial,
    OrthogonalSeriesMap,
    Poly,
    RootLocation,
    UltraScaled,
    Ultraspherical,
    apply_transform,
    classify_roots,
    jacobi_factorial_transform,
    jacobi_transform,
    legendre_transform,
    orthogonal_series_transform,
    poly_roots,
    scale_ratio_sequence,
    ultra_series_spec,
    ultra_transform,
)
from orthozero.errors import BadParameterError, IncompleteSpecError
from orthozero.harness import boundary_pairs
from orthozero.polycore import deflate_root, jacobi_coefficient_rows, monic_from_roots
from orthozero.transforms import (
    exact_image,
    factorial_row_scale,
    jacobi_rows_int,
    ultra_row_scale,
    unit_row_scale,
)

X_SQUARED = Poly((0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_ultra_on_x_squared_at_alpha_zero():
    out = ultra_transform(X_SQUARED, 0.0)
    assert np.allclose(out.coeffs, (-0.5, 0.0, 1.5), atol=1e-14)
    roots = sorted(r.real for r in poly_roots(out))
    want = math.sqrt(1.0 / 3.0)
    assert np.allclose(roots, [-want, want], atol=1e-12)


def test_ultra_on_constant():
    for alpha in (-0.5, 0.0, 1.5):
        out = ultra_transform(Poly((3.0,)), alpha)
        assert math.isclose(out.coeffs[0], 3.0 / math.gamma(1.0 + alpha), rel_tol=1e-13)


def test_ultra_no_location_guarantee_case():
    # x(x - 1) has a zero outside (-1,1); the map still applies linearly
    f = Poly((0.0, -1.0, 1.0))
    out = ultra_transform(f, 0.0)
    direct = (np.array([-0.5, 0.0, 1.5]) - np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out.array, direct, atol=1e-14)


def test_legendre_examples():
    assert np.allclose(legendre_transform(Poly((0.0, 1.0))).coeffs, (0.0, 1.0), atol=1e-15)
    assert legendre_transform(Poly((1.0,))).coeffs == (1.0,)
    out = legendre_transform(Poly((-0.25, 0.0, 1.0)))
    assert np.allclose(out.coeffs, (-0.75, 0.0, 1.5), atol=1e-14)
    roots = sorted(r.real for r in poly_roots(out))
    want = math.sqrt(0.5)
    assert np.allclose(roots, [-want, want], atol=1e-12)


def test_jacobi_examples():
    assert jacobi_transform(Poly((1.0,)), 2.0, 3.0).coeffs == (1.0,)
    assert np.allclose(jacobi_transform(Poly((0.0, 1.0)), 0.0, 0.0).coeffs,
                       (0.0, 1.0), atol=1e-15)
    assert np.allclose(jacobi_transform(X_SQUARED, 0.0, 0.0).coeffs,
                       (-0.5, 0.0, 1.5), atol=1e-14)


def test_factorial_examples():
    assert jacobi_factorial_transform(Poly((1.0,)), 1.0, 1.0).coeffs == (1.0,)
    assert np.allclose(jacobi_factorial_transform(X_SQUARED, 0.0, 0.0).coeffs,
                       (-0.25, 0.0, 0.75), atol=1e-14)
    out = jacobi_factorial_transform(Poly((0.0, 1.0, 1.0)), 0.0, 0.0)
    assert np.allclose(out.coeffs, (-0.25, 1.0, 0.75), atol=1e-14)


def test_generic_map_examples():
    legendre = Ultraspherical(0.0)
    spec = OrthogonalSeriesMap(delta=(1.0,), h=(2.0,), family=legendre)
    assert np.allclose(orthogonal_series_transform([1.0], spec).coeffs, (0.5,))
    spec = OrthogonalSeriesMap(delta=(1.0, 3.0), h=(2.0, 2.0 / 3.0), family=legendre)
    assert np.allclose(orthogonal_series_transform([0.0, 1.0], spec).coeffs,
                       (0.0, 0.5), atol=1e-15)


def test_generic_map_homogeneity_of_zeros():
    spec = ultra_series_spec(0.5, 4)
    q = [0.3, -1.2, 0.4, 1.1]
    base = sorted((r.real, r.imag) for r in poly_roots(orthogonal_series_transform(q, spec)))
    scaled = sorted((r.real, r.imag) for r in poly_roots(
        orthogonal_series_transform([7.5 * v for v in q], spec)))
    assert np.allclose(np.array(base), np.array(scaled), atol=1e-10)


def test_generic_map_missing_constants():
    spec = OrthogonalSeriesMap(delta=(1.0, 3.0), h=(2.0, 2.0 / 3.0),
                               family=Ultraspherical(0.0))
    with pytest.raises(IncompleteSpecError):
        orthogonal_series_transform([1.0, 1.0, 1.0], spec)


def test_spec_validation():
    with pytest.raises(BadParameterError):
        UltraScaled(-1.5)
    with pytest.raises(BadParameterError):
        OrthogonalSeriesMap(delta=(0.0,), h=(1.0,), family=Ultraspherical(0.0))
    with pytest.raises(BadParameterError):
        OrthogonalSeriesMap(delta=(1.0,), h=(-1.0,), family=Ultraspherical(0.0))
    with pytest.raises(BadParameterError):
        OrthogonalSeriesMap(delta=(1.0,), h=(1.0,), family=MONOMIAL)


def test_apply_transform_dispatch():
    f = X_SQUARED
    assert apply_transform(UltraScaled(0.0), f).coeffs == ultra_transform(f, 0.0).coeffs
    assert apply_transform(UltraScaled(0.0), f).coeffs == legendre_transform(f).coeffs
    assert apply_transform(JacobiExpansion(1.0, 2.0), f).coeffs == \
        jacobi_transform(f, 1.0, 2.0).coeffs
    assert apply_transform(JacobiFactorial(1.0, 2.0), f).coeffs == \
        jacobi_factorial_transform(f, 1.0, 2.0).coeffs


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_linearity():
    rng = np.random.default_rng(3)
    for alpha in (-0.5, 0.0, 1.0, 2.5):
        for _ in range(5):
            fc = rng.normal(size=9)
            gc = rng.normal(size=9)
            a, b = rng.normal(size=2)
            combo = ultra_transform(Poly(tuple(a * fc + b * gc), tau_trim=0.0), alpha)
            parts = (a * ultra_transform(Poly(tuple(fc), tau_trim=0.0), alpha).array
                     + b * ultra_transform(Poly(tuple(gc), tau_trim=0.0), alpha).array)
            assert np.allclose(combo.array, parts[: combo.degree + 1], atol=1e-12)


def test_degree_preserved():
    rng = np.random.default_rng(4)
    for _ in range(20):
        deg = int(rng.integers(0, 13))
        coeffs = rng.normal(size=deg + 1)
        coeffs[-1] = rng.uniform(0.5, 2.0)
        f = Poly(tuple(coeffs), tau_trim=0.0)
        assert ultra_transform(f, 1.3).degree == deg
        assert jacobi_transform(f, 0.5, 2.0).degree == deg
        assert jacobi_factorial_transform(f, 0.5, 2.0).degree == deg


def test_parity_equivariance():
    rng = np.random.default_rng(5)
    for alpha in (0.0, 0.5, 2.0):
        even = np.zeros(9)
        even[0::2] = rng.normal(size=5)
        out = ultra_transform(Poly(tuple(even), tau_trim=0.0), alpha)
        assert np.all(np.abs(out.array[1::2]) <= 1e-12 * np.max(np.abs(out.array)))
        odd = np.zeros(8)
        odd[1::2] = rng.normal(size=4)
        out = ultra_transform(Poly(tuple(odd), tau_trim=0.0), alpha)
        assert np.all(np.abs(out.array[0::2]) <= 1e-12 * np.max(np.abs(out.array)))


def test_legendre_is_alpha_zero_path():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = Poly(tuple(rng.normal(size=10)), tau_trim=0.0)
        a = legendre_transform(f).array
        b = ultra_transform(f, 0.0).array
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b)))


def test_coefficients_only_no_root_order_dependence():
    roots = np.array([-0.7, -0.1, 0.3, 0.8])
    perm = roots[[2, 0, 3, 1]]
    f1 = Poly(tuple(np.poly(roots)[::-1]), tau_trim=0.0)
    f2 = Poly(tuple(np.poly(perm)[::-1]), tau_trim=0.0)
    assert np.allclose(ultra_transform(f1, 0.7).array,
                       ultra_transform(f2, 0.7).array, atol=1e-14)


def test_zero_preservation_sweep():
    rng = np.random.default_rng(7)
    for alpha in (-0.5, 0.0, 0.5, 1.0, 2.5):
        for _ in range(150):
            deg = int(rng.integers(1, 13))
            f = Poly(tuple(np.poly(rng.uniform(-0.99, 0.99, deg))[::-1]), tau_trim=0.0)
            out = ultra_transform(f, alpha)
            rep = classify_roots(poly_roots(out), (-1.0, 1.0), 1e-8)
            assert rep.classification is RootLocation.ALL_STRICTLY_INSIDE


def test_scale_ratio_constant_at_alpha_zero():
    seq = scale_ratio_sequence(0.0, 10)
    assert np.allclose(seq, 2.0, rtol=1e-12)


def test_per_degree_proportionality_of_conventions():
    # each degree's generic-map image is a positive multiple of the
    # factorial-scaled image of the same monomial
    for alpha in (0.0, 0.5, 2.0):
        spec = ultra_series_spec(alpha, 6)
        ratios = scale_ratio_sequence(alpha, 6)
        for k in range(7):
            unit = [0.0] * k + [1.0]
            generic = orthogonal_series_transform(unit, spec).array
            scaled = ultra_transform(Poly(tuple(unit), tau_trim=0.0), alpha).array
            assert ratios[k] > 0
            assert np.allclose(ratios[k] * generic, scaled, rtol=1e-10)


# ---------------------------------------------------------------------------
# exact integer route
# ---------------------------------------------------------------------------

def test_boundary_input_coeffs():
    # (x-1)^2 (x+1) = x^3 - x^2 - x + 1: the doubles +-1 need no power-of-two
    # shift, so identity rows give the input's own coefficients
    identity = [[int(j == k) for j in range(k + 1)] for k in range(4)]
    assert exact_image([1.0, 1.0, -1.0], identity) == [1, -1, -1, 1]


def test_exact_rows_match_float_rows():
    # Fraction parameters select the exact route of the same recurrence
    for alpha, beta in [(2, 3), (Fraction(-1, 2), Fraction(0.3))]:
        exact = jacobi_coefficient_rows(8, Fraction(alpha), Fraction(beta))
        approx = jacobi_coefficient_rows(8, float(alpha), float(beta))
        assert exact.dtype == object and approx.dtype == float
        assert all(isinstance(v, Fraction) for k in range(9) for v in exact[k, : k + 1])
        for k in range(9):
            assert np.allclose([float(v) for v in exact[k]], approx[k], rtol=1e-13)


def test_exact_transform_matches_float_transform():
    f = Poly(tuple(monic_from_roots([1.0, 1.0, -1.0, -1.0])), tau_trim=0.0)
    approx = jacobi_transform(f, 1.0, 2.0).array
    exact = exact_image([1.0, 1.0, -1.0, -1.0], jacobi_rows_int(4, 1, 2, unit_row_scale))
    scale = Fraction(exact[-1]) / Fraction(approx[-1])
    assert scale > 0
    assert np.allclose([float(v / scale) for v in exact], approx, atol=1e-13)


def test_boundary_example_alpha_beta_zero():
    # x^2 - 1 maps to 3/2 (x^2 - 1), here times D = 2: both boundary roots
    # survive exactly
    out = exact_image([1.0, -1.0], jacobi_rows_int(2, 0, 0, unit_row_scale))
    assert out == [-3, 0, 3]
    rest, mult_p = deflate_root(out, 1)
    rest, mult_m = deflate_root(rest, -1)
    assert (mult_p, mult_m) == (1, 1)
    assert rest == [3]


def test_deflation_counts_multiplicity():
    coeffs = monic_from_roots([1, 1, 1, -1, -1])
    rest, mult = deflate_root(coeffs, 1)
    assert mult == 3
    rest, mult = deflate_root(rest, -1)
    assert mult == 2
    assert rest == [1]


def _fraction_deflate(coeffs, at):
    """Synthetic division by (x - at) over Fractions while at is a root."""
    mult = 0
    while len(coeffs) > 1 and sum(c * at ** j for j, c in enumerate(coeffs)) == 0:
        q = [coeffs[-1]]
        for c in reversed(coeffs[1:-1]):
            q.append(c + at * q[-1])
        coeffs, mult = q[::-1], mult + 1
    return coeffs, mult


# (alpha, beta) of the boundary images checked alongside the interior ones
BOUNDARY_BETA = {0.0: 0.0, 3.0: 4.0, 0.1: 0.3, -0.5: 0.3}


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3, 1.0, 2.5, 0.1, 3.0])
def test_integer_image_is_a_positive_multiple_of_the_exact_image(alpha):
    # the exact image sum_k a_k k!/Gamma(k+1+alpha) P_k^(alpha,alpha) over
    # Fractions, which leaves out the positive factor 1/Gamma(1+alpha); the
    # double route agrees to rounding once the leading coefficients match
    rng = np.random.default_rng(31)
    a = Fraction(alpha)
    rows = jacobi_rows_int(12, alpha, alpha, ultra_row_scale)
    for degree in (1, 2, 7, 12):
        roots = rng.uniform(-0.99, 0.99, degree)
        roots[0] = 2.0 ** -70  # a tiny root needs a large power-of-two shift
        image = exact_image(roots, rows)
        coeffs = monic_from_roots([Fraction(r) for r in roots])
        scale = [math.factorial(k) / math.prod((i + 1 + a for i in range(k)), start=Fraction(1))
                 for k in range(degree + 1)]
        exact = [sum(coeffs[k] * scale[k] * jacobi_coefficient_rows(degree, a, a)[k, j]
                     for k in range(j, degree + 1)) for j in range(degree + 1)]
        ratio = Fraction(image[-1]) / exact[-1]
        assert ratio > 0
        assert [Fraction(c) for c in image] == [ratio * c for c in exact]
        double = ultra_transform(Poly(tuple(monic_from_roots(roots)), tau_trim=0.0), alpha).array
        normed = np.array([float(Fraction(c, image[-1])) for c in image]) * double[-1]
        assert np.max(np.abs(normed - double)) <= 1e-13 * np.max(np.abs(double))
    if alpha not in BOUNDARY_BETA:
        return
    # the boundary images (x-1)^n (x+1)^m through the Jacobi rows, without
    # and with the 1/k! scale: a positive multiple of the Fraction image,
    # with the same multiplicities at +-1 and the residual the same multiple
    b = Fraction(BOUNDARY_BETA[alpha])
    jacobi = jacobi_coefficient_rows(8, a, b)
    for row_scale, factor in ((unit_row_scale, lambda k: 1),
                              (factorial_row_scale, lambda k: Fraction(1, math.factorial(k)))):
        rows = jacobi_rows_int(8, alpha, float(b), row_scale)
        for n, m in boundary_pairs(8):
            coeffs = monic_from_roots([1] * n + [-1] * m)
            exact = [sum(coeffs[k] * factor(k) * jacobi[k, j] for k in range(j, n + m + 1))
                     for j in range(n + m + 1)]
            image = exact_image([1.0] * n + [-1.0] * m, rows)
            ratio = Fraction(image[-1]) / exact[-1]
            assert ratio > 0
            assert [Fraction(c) for c in image] == [ratio * c for c in exact], (n, m)
            residual, plus = deflate_root(image, 1)
            residual, minus = deflate_root(residual, -1)
            exact, exact_plus = _fraction_deflate(exact, 1)
            exact, exact_minus = _fraction_deflate(exact, -1)
            assert (plus, minus) == (exact_plus, exact_minus), (n, m)
            assert [Fraction(c) for c in residual] == [ratio * c for c in exact], (n, m)


def test_integer_rows_clear_one_common_denominator():
    # alpha = 0: k!/(1)_k = 1, so the rows are D times the Legendre rows
    rows = jacobi_rows_int(3, 0.0, 0.0, ultra_row_scale)
    assert rows == [[2], [0, 2], [-1, 0, 3], [0, -3, 0, 5]]
