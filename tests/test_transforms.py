"""Transform contracts: worked examples, linearity, degree and parity
preservation, zero preservation, and the exact integer route."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthozero import (
    MONOMIAL,
    Jacobi,
    JacobiExpansion,
    JacobiFactorial,
    OrthogonalSeriesMap,
    Poly,
    RootLocation,
    UltraScaled,
    Ultraspherical,
    apply_transform,
    basis_to_monomial,
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
from orthozero.errors import BadParameterError, IncompleteSpecError, NonFiniteError
from orthozero.harness import boundary_pairs
from orthozero.polycore import (
    deflate_root,
    jacobi_coefficient_rows,
    jacobi_recurrence,
    jacobi_rows_int,
    monic_from_roots,
    primitive_part,
    sturm_verdict,
    verdicts,
)
from orthozero.transforms import (
    exact_image,
    factorial_row_scale,
    image_enclosure,
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


def test_scaled_transforms_keep_the_degree():
    # at alpha = 20 every coefficient of the ultraspherical image lies below
    # Poly's default trim threshold, which once cut it to a constant; from
    # about 171 the scales underflow, and the error names the exact route.
    # 1/k! trimmed two degrees off a degree-20 image the same way.
    roots = [-0.3, 0.1, 0.5]
    f = Poly(tuple(monic_from_roots(roots)), tau_trim=0.0)
    out = ultra_transform(f, 20.0)
    assert out.degree == 3 and 0 < out.coeffs[-1] < 1e-18
    exact = exact_image(roots, jacobi_rows_int(3, 20.0, 20.0, ultra_row_scale))
    monic = [float(Fraction(c, exact[-1])) for c in exact]
    assert np.allclose(out.array / out.coeffs[-1], monic, rtol=1e-13)
    with pytest.raises(NonFiniteError, match="exact_image"):
        ultra_transform(f, 200.0)
    f = Poly(tuple(monic_from_roots(np.linspace(-0.9, 0.9, 20))), tau_trim=0.0)
    assert jacobi_factorial_transform(f, 0.5, 2.0).degree == 20


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


def test_non_finite_parameters_and_weights_are_rejected():
    # the maps are exact on binary rationals, which inf and nan are not
    with pytest.raises(BadParameterError, match="finite"):
        jacobi_transform(X_SQUARED, math.inf, 0.0)
    with pytest.raises(NonFiniteError, match="finite"):
        jacobi_transform(Poly((1.0, math.nan)), 0.5, 0.5)


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
# an oracle that reads no recurrence coefficient
# ---------------------------------------------------------------------------

def _binomials(z: Fraction, top: int) -> list[Fraction]:
    """The generalized binomial coefficients C(z, m) for m = 0..top."""
    out = [Fraction(1)]
    for m in range(top):
        out.append(out[-1] * (z - m) / (m + 1))
    return out


@functools.lru_cache(maxsize=None)
def _szego_rows(n: int, alpha, beta) -> tuple[tuple[Fraction, ...], ...]:
    """The monomial coefficients of P_k^(alpha,beta), k <= n, in exact
    rationals, from Szego's explicit sum (Orthogonal Polynomials, (4.3.2)),
    which reads no recurrence coefficient:
    P_k = sum_s C(k+alpha, k-s) C(k+beta, s) ((x-1)/2)^s ((x+1)/2)^(k-s)."""
    a, b = Fraction(alpha), Fraction(beta)
    rows = []
    for k in range(n + 1):
        ca, cb = _binomials(k + a, k), _binomials(k + b, k)
        weights = [ca[k - s] * cb[s] / 2 ** k for s in range(k + 1)]
        den = math.lcm(*(w.denominator for w in weights))
        row = [0] * (k + 1)
        for s, w in enumerate(weights):
            w = w.numerator * (den // w.denominator)
            for i in range(s + 1):  # (x - 1)^s (x + 1)^(k - s)
                wc = w * math.comb(s, i) * (-1) ** (s - i)
                for j in range(k - s + 1):
                    row[i + j] += wc * math.comb(k - s, j)
        rows.append(tuple(Fraction(c, den) for c in row))
    return tuple(rows)


def _oracle(n: int, alpha, beta) -> list[list[Fraction]]:
    """Rows 0..n of _szego_rows, built once through degree 30 (or n)."""
    return [list(row) for row in _szego_rows(max(n, 30), alpha, beta)[:n + 1]]


@functools.lru_cache(maxsize=None)
def _oracle_integers(top: int, alpha, beta) -> tuple[list[list[int]], int]:
    """_szego_rows through top as integer rows over their least common denominator."""
    rows = _szego_rows(top, alpha, beta)
    den = math.lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows], den


def _oracle_image(weights, alpha, beta, factor=lambda k: 1) -> list[Fraction]:
    """sum_k w_k factor(k) P_k^(alpha,beta) in exact rationals, for double
    weights w, through the oracle's rows."""
    n = len(weights) - 1
    rows, den = _oracle_integers(max(n, 30), alpha, beta)
    terms = [Fraction(w) * factor(k) for k, w in enumerate(weights)]
    tden = math.lcm(*(t.denominator for t in terms))
    nums = [t.numerator * (tden // t.denominator) for t in terms]
    return [Fraction(sum(nums[k] * rows[k][j] for k in range(j, n + 1)), den * tden)
            for j in range(n + 1)]


def _ultra_factor(alpha):
    """k!/(1+alpha)_k in exact rationals: k!/Gamma(k+1+alpha) over 1/Gamma(1+alpha)."""
    a = Fraction(alpha)
    return lambda k: math.factorial(k) / math.prod((i + 1 + a for i in range(k)), start=Fraction(1))


def test_oracle_matches_the_first_jacobi_polynomials():
    # P_1 = ((a + b + 2) x + a - b) / 2 and P_2^(1,1) = (15 x^2 - 3) / 4
    a, b = Fraction(0.1), Fraction(0.3)
    assert _oracle(1, 0.1, 0.3)[1] == [(a - b) / 2, (a + b + 2) / 2]
    assert _oracle(2, 1, 1)[2] == [Fraction(-3, 4), 0, Fraction(15, 4)]
    assert _oracle(3, 0, 0)[3] == [0, Fraction(-3, 2), 0, Fraction(5, 2)]


def test_recurrence_ratios_hold_on_the_oracle():
    # (A x + B) P_k - C P_(k-1) is P_(k+1) in exact rationals, and the
    # double ratios are those Fractions rounded once
    for alpha, beta in [(0.1, 0.3), (-0.99, 7.0), (2.5, 1.0), (-0.5, -0.5)]:
        a, b = Fraction(alpha), Fraction(beta)
        rows = _oracle(12, a, b)
        for k in range(12):
            big_a, big_b, c = jacobi_recurrence(k, a, b)
            nxt = [big_b * v for v in rows[k]] + [0]
            for j, v in enumerate(rows[k]):
                nxt[j + 1] += big_a * v
            for j, v in enumerate(rows[k - 1] if k else []):
                nxt[j] -= c * v
            assert nxt == rows[k + 1], (alpha, beta, k)
            assert jacobi_recurrence(k, alpha, beta) == (float(big_a), float(big_b), float(c))


# (alpha, beta) of the correct-rounding checks: non-dyadic, the ultraspherical
# alpha = 0.3, and integer parameters
ROUNDING_PARAMS = [(0.1, 0.3), (0.3, 0.3), (2.0, 3.0), (0.0, 0.0), (2.0, 2.0)]


@pytest.mark.parametrize("alpha,beta", ROUNDING_PARAMS)
def test_library_transforms_round_the_exact_image_once(alpha, beta):
    # every coefficient of every library transform, and of basis_to_monomial,
    # is float(E_j) of the exact image E of its double weights, for degrees
    # 0 to 30; ultra_transform's is float(E_j g), g = 1/Gamma(1+alpha) the
    # double it multiplies by
    rng = np.random.default_rng(17)
    for degree in range(31):
        f = Poly(tuple(rng.normal(size=degree).tolist() + [rng.uniform(0.5, 2.0)]), tau_trim=0.0)
        a = f.coeffs
        rounded = tuple(float(e) for e in _oracle_image(a, alpha, beta))
        assert jacobi_transform(f, alpha, beta).coeffs == rounded, degree
        assert basis_to_monomial(Poly(a, Jacobi(alpha, beta)), tau_trim=0.0).coeffs == rounded
        assert jacobi_factorial_transform(f, alpha, beta).coeffs == tuple(
            float(e) for e in _oracle_image(a, alpha, beta, lambda k: Fraction(1, math.factorial(k))))
        if alpha != beta:
            continue
        assert basis_to_monomial(Poly(a, Ultraspherical(alpha)), tau_trim=0.0).coeffs == rounded
        g = Fraction(1 / math.gamma(1 + alpha))
        assert ultra_transform(Poly((1.0,)), alpha).coeffs == (float(g),)
        assert ultra_transform(f, alpha).coeffs == tuple(
            float(e * g) for e in _oracle_image(a, alpha, alpha, _ultra_factor(alpha))), degree
        spec = ultra_series_spec(alpha, 30)
        weights = [ak / (spec.delta[k] * spec.h[k]) for k, ak in enumerate(a)]
        assert orthogonal_series_transform(a, spec).coeffs == tuple(
            float(e) for e in _oracle_image(weights, alpha, alpha))
    if alpha == beta == 0.0:
        assert legendre_transform(f).coeffs == ultra_transform(f, 0.0).coeffs


# ---------------------------------------------------------------------------
# exact integer route
# ---------------------------------------------------------------------------

def test_boundary_input_coeffs():
    # (x-1)^2 (x+1) = x^3 - x^2 - x + 1: the doubles +-1 need no power-of-two
    # shift, so identity rows give the input's own coefficients
    identity = [[int(j == k) for j in range(k + 1)] for k in range(4)]
    assert exact_image([1.0, 1.0, -1.0], identity) == [1, -1, -1, 1]


def test_exact_rows_match_float_rows():
    # Fraction parameters give the oracle's Fractions, and doubles give each
    # of them rounded once
    for alpha, beta in [(2, 3), (Fraction(-1, 2), Fraction(0.3)), (0.1, 0.3), (-0.99, 7.0)]:
        exact = jacobi_coefficient_rows(12, Fraction(alpha), Fraction(beta))
        approx = jacobi_coefficient_rows(12, float(alpha), float(beta))
        want = _oracle(12, Fraction(alpha), Fraction(beta))
        assert exact.dtype == object and approx.dtype == float
        assert all(isinstance(v, Fraction) for k in range(13) for v in exact[k, : k + 1])
        for k in range(13):
            assert list(exact[k, : k + 1]) == want[k]
            assert approx[k, : k + 1].tolist() == [float(v) for v in want[k]]


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
        scale, oracle = _ultra_factor(alpha), _oracle(degree, a, a)
        exact = [sum(coeffs[k] * scale(k) * oracle[k][j] for k in range(j, degree + 1))
                 for j in range(degree + 1)]
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
    jacobi = _oracle(8, a, b)
    for row_scale, factor in ((unit_row_scale, lambda k: 1),
                              (factorial_row_scale, lambda k: Fraction(1, math.factorial(k)))):
        rows = jacobi_rows_int(8, alpha, float(b), row_scale)
        for n, m in boundary_pairs(8):
            coeffs = monic_from_roots([1] * n + [-1] * m)
            exact = [sum(coeffs[k] * factor(k) * jacobi[k][j] for k in range(j, n + m + 1))
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


ROW_PARAMS = [-0.5, 0.0, 0.1, 0.3, 1.0, 2.5]


def _fraction_rows(deg_cap, alpha, beta, scale):
    """The integer rows from the oracle's Fractions: D scale(k) times the
    exact Jacobi rows, D the least common denominator."""
    a = Fraction(alpha)
    rows = _oracle(deg_cap, a, Fraction(beta))
    scaled = [[Fraction(scale(k, a)) * c for c in rows[k]] for k in range(deg_cap + 1)]
    den = math.lcm(*(c.denominator for row in scaled for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in scaled]


@pytest.mark.parametrize("scale", [ultra_row_scale, factorial_row_scale, unit_row_scale])
def test_integer_rows_equal_the_fraction_rows(scale):
    # the integer recurrence over one common denominator gives the very
    # integers of the Fraction route, at every degree cap
    for alpha in ROW_PARAMS:
        for beta in ROW_PARAMS:
            for cap in (0, 1, 2, 9, 30):
                assert jacobi_rows_int(cap, alpha, beta, scale) == _fraction_rows(
                    cap, alpha, beta, scale), (alpha, beta, cap)
    for alpha in (-0.99, 1e300):
        assert jacobi_rows_int(6, alpha, alpha, scale) == _fraction_rows(6, alpha, alpha, scale)


def _scaled_image(roots, rows) -> list[Fraction]:
    """The polynomial image_enclosure encloses: prod_r (x - r) through rows
    over the power of two that brings their largest entry into [1, 2)."""
    s = max(max(abs(c) for row in rows for c in row).bit_length() - 1, 0)
    coeffs = monic_from_roots([Fraction(r) for r in roots])
    return [Fraction(sum(coeffs[k] * rows[k][j] for k in range(j, len(coeffs))), 2 ** s)
            for j in range(len(coeffs))]


@pytest.mark.parametrize("alpha,beta,scale", [
    (-0.5, -0.5, ultra_row_scale), (2.5, 2.5, ultra_row_scale), (30.0, 30.0, ultra_row_scale),
    (0.1, 0.3, unit_row_scale), (0.0, 1.0, unit_row_scale), (-0.5, 0.3, factorial_row_scale)])
def test_image_enclosure_holds_the_exact_image(alpha, beta, scale):
    # every coefficient of every image lies within its radius of hi + lo,
    # in one padded batch of mixed degrees; the monic products are the hi
    # parts, and exact builds exact_image
    rng = np.random.default_rng(5)
    rows = jacobi_rows_int(30, alpha, beta, scale)
    roots = [rng.uniform(-0.99, 0.99, d) for d in (30, 1, 17, 2, 30, 9)]
    roots.append(np.array([0.5, 0.5 + 2.0 ** -40, 1 - 2.0 ** -30, -(1 - 2.0 ** -45), 2.0 ** -1000]))
    monic, enc = image_enclosure(roots, rows)
    for c, r in enumerate(roots):
        want = _scaled_image(r, rows)
        n = len(r)
        assert enc.degrees[c] == n
        assert np.all(enc.hi[c, n + 1:] == 0) and np.all(enc.radius[c, n + 1:] == 0)
        for j, w in enumerate(want):
            assert abs(w - Fraction(enc.hi[c, j]) - Fraction(enc.lo[c, j])) <= Fraction(
                enc.radius[c, j]), (c, j)
        assert np.allclose(monic[c, :n + 1], [float(v) for v in monic_from_roots(
            [Fraction(x) for x in r])], rtol=1e-13, atol=1e-13)
        assert enc.exact(c) == exact_image(r, rows)


def _dd_and_exact(roots, alpha, beta, scale, tol=1e-8):
    """verdicts on the enclosure of each image, with the roots of each
    image's hi coefficients as estimates, against sturm_verdict on its
    exact image, with the extremes read."""
    rows = jacobi_rows_int(max(len(r) for r in roots), alpha, beta, scale)
    _, enc = image_enclosure(roots, rows)
    got = verdicts(enc, tol)
    want = [sturm_verdict(primitive_part(exact_image(r, rows)), (-1.0, 1.0), tol, True)
            for r in roots]
    return got, want


ROOT_LISTS = st.lists(st.one_of(
    st.floats(-0.999, 0.999),
    st.integers(1, 52).map(lambda k: 1 - 2.0 ** -k),
    st.integers(1, 52).map(lambda k: -1 + 2.0 ** -k),
    st.floats(2.0 ** -1020, 2.0 ** -980)), min_size=1, max_size=12)


# derandomized: the same draws, and so the same time, on every run
@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases=st.lists(ROOT_LISTS, min_size=1, max_size=3),
       params=st.sampled_from([(0.0, 0.0, ultra_row_scale), (2.0, 2.0, ultra_row_scale),
                               (-0.5, -0.5, ultra_row_scale), (0.1, 0.3, unit_row_scale),
                               (1.0, 2.0, unit_row_scale), (0.3, 0.3, ultra_row_scale)]))
@example(cases=[[0.25, 0.25 + 2.0 ** -40, -0.5]], params=(0.0, 0.0, ultra_row_scale))
@example(cases=[[0.5], [1 - 2.0 ** -20, -(1 - 2.0 ** -30), 0.0]], params=(0.1, 0.3, unit_row_scale))
def test_dd_route_equals_the_exact_route(cases, params):
    # flag and extremes, however the dd filter and reader fare: clustered
    # roots, roots at +-(1 - 2^-k), roots near 2^-1000 and degree 1, mixed
    # in one padded batch, at integer and non-dyadic parameters
    got, want = _dd_and_exact([np.array(r) for r in cases], *params)
    assert got == want


def test_dd_route_on_edge_inputs():
    # roots within 2^-40 of each other, at +-(1 - 2^-k), near 2^-1000
    # (where the product's lo parts underflow), degree 1, in one batch
    roots = [np.array(r) for r in (
        [0.3, 0.3 + 2.0 ** -40, -0.7],
        [1 - 2.0 ** -k for k in (10, 26, 40)] + [-(1 - 2.0 ** -k) for k in (12, 33)],
        [2.0 ** -1000, -(2.0 ** -1001), 0.5],
        [0.125],
        np.linspace(-0.98, 0.98, 20))]
    for params in ((0.0, 0.0, ultra_row_scale), (0.1, 0.3, unit_row_scale)):
        got, want = _dd_and_exact(roots, *params)
        assert got == want
