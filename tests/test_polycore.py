"""Polynomial core: arithmetic, evaluation, roots, classification."""

import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import roots_jacobi

from orthozero import (
    LEGENDRE,
    GenFunFamily,
    GenFunSpec,
    Jacobi,
    Poly,
    RootLocation,
    Ultraspherical,
    basis_to_monomial,
    classify_roots,
    genfun_taylor,
    min_boundary_distance,
    pochhammer,
    poly_eval,
    poly_roots,
)
from orthozero.errors import (
    BadIntervalError,
    BadParameterError,
    DegreeZeroError,
    NonFiniteError,
)
from orthozero import polycore
from orthozero.enclosure import integer_det
from orthozero.polycore import (
    Enclosure,
    _bisect_to_double,
    _nearest_roots,
    _sign_at_double,
    comrade_roots,
    count_roots,
    dyadic_numerators,
    filtered_signs,
    integer_poly,
    locate,
    monic_from_roots,
    nearest_double_roots,
    primitive_part,
    root_bound,
    root_report,
    sturm_sequence,
    sturm_verdict,
    verdicts,
)


# ---------------------------------------------------------------------------
# pochhammer
# ---------------------------------------------------------------------------

def test_pochhammer_empty_product():
    assert pochhammer(7.3, 0) == 1.0


def test_pochhammer_factorial():
    assert pochhammer(1.0, 4) == 24.0


def test_pochhammer_basic():
    assert pochhammer(3.0, 2) == 12.0


def test_pochhammer_recurrence():
    for x in [-2.5, -0.3, 0.7, 1.0, 4.2]:
        for n in range(30):
            left = pochhammer(x, n + 1)
            right = pochhammer(x, n) * (x + n)
            assert math.isclose(left, right, rel_tol=1e-13, abs_tol=1e-13)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(BadParameterError):
        pochhammer(1.0, -1)


# ---------------------------------------------------------------------------
# Poly construction
# ---------------------------------------------------------------------------

def test_poly_trims_trailing_noise():
    p = Poly((1.0, 2.0, 1e-15))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_poly_keeps_zero_polynomial():
    assert Poly((0.0,)).coeffs == (0.0,)


def test_poly_rejects_empty():
    with pytest.raises(BadParameterError):
        Poly(())


def test_basis_validation():
    with pytest.raises(BadParameterError):
        Ultraspherical(-1.0)
    with pytest.raises(BadParameterError):
        Jacobi(0.0, -1.5)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_monomial():
    p = Poly((-1.0, 0.0, 1.0))
    assert poly_eval(p, 2.0) == 3.0


def test_eval_zero_poly():
    assert poly_eval(Poly((0.0,)), 3.7) == 0.0


def test_eval_legendre_basis_at_one():
    # oracle: the symmetric generating function at x = 1 collapses to the
    # geometric series, so every family member takes the value 1 there
    coeffs = genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_G, 0.0), 1.0, 2)
    assert math.isclose(coeffs[2], 1.0, rel_tol=1e-12)
    p = Poly((0.0, 0.0, 1.0), LEGENDRE)
    assert math.isclose(poly_eval(p, 1.0), 1.0, rel_tol=1e-12)


def test_eval_clenshaw_matches_converted_monomial():
    rng = np.random.default_rng(5)
    for basis in [LEGENDRE, Ultraspherical(0.5), Jacobi(1.0, 2.0), Jacobi(-0.3, 0.4)]:
        coeffs = tuple(rng.normal(size=9))
        p = Poly(coeffs, basis)
        q = basis_to_monomial(p)
        for x in rng.uniform(-1, 1, 10):
            a = poly_eval(p, x)
            b = poly_eval(q, x)
            assert abs(a - b) <= 1e-11 * (1.0 + abs(a))


# ---------------------------------------------------------------------------
# basis conversion
# ---------------------------------------------------------------------------

def test_legendre_p1_converts_to_x():
    # oracle: degree-1 Taylor coefficient of (1-2xt+t^2)^(-1/2) is x
    p = basis_to_monomial(Poly((0.0, 1.0), LEGENDRE))
    assert np.allclose(p.coeffs, (0.0, 1.0), atol=1e-15)


def test_legendre_p2_conversion():
    # oracle: expanding (1-2xt+t^2)^(-1/2) = 1 + xt + ((3x^2-1)/2) t^2 + ...
    # by the binomial series gives the degree-2 member (3x^2 - 1)/2
    p = basis_to_monomial(Poly((0.0, 0.0, 1.0), LEGENDRE))
    assert np.allclose(p.coeffs, (-0.5, 0.0, 1.5), atol=1e-14)


def test_monomial_conversion_is_identity():
    p = Poly((1.0, -2.0, 0.5))
    assert basis_to_monomial(p) is p


def test_conversion_linearity():
    rng = np.random.default_rng(6)
    basis = Ultraspherical(0.7)
    for _ in range(10):
        pc = rng.normal(size=7)
        qc = rng.normal(size=7)
        a, b = rng.normal(size=2)
        combo = basis_to_monomial(Poly(tuple(a * pc + b * qc), basis, tau_trim=0.0))
        parts = (a * np.array(basis_to_monomial(Poly(tuple(pc), basis, tau_trim=0.0)).array)
                 + b * np.array(basis_to_monomial(Poly(tuple(qc), basis, tau_trim=0.0)).array))
        assert np.allclose(combo.array, parts[: combo.degree + 1], atol=1e-12)


def test_conversion_roundtrip_eval_contract():
    rng = np.random.default_rng(7)
    for basis in [LEGENDRE, Ultraspherical(1.5), Jacobi(0.5, 2.0)]:
        p = Poly(tuple(rng.normal(size=13)), basis)
        q = basis_to_monomial(p)
        for x in np.linspace(-1, 1, 50):
            ref = poly_eval(p, x)
            assert abs(ref - poly_eval(q, x)) <= 1e-10 * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_of_quadratic():
    roots = sorted(r.real for r in poly_roots(Poly((-1.0, 0.0, 1.0))))
    assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)


def test_roots_quadratic_formula_oracle():
    # (3x^2 - 1)/2 has roots +- 1/sqrt(3) by the quadratic formula
    roots = sorted(r.real for r in poly_roots(Poly((-0.5, 0.0, 1.5))))
    want = math.sqrt(1.0 / 3.0)
    assert np.allclose(roots, [-want, want], atol=1e-12)


def test_triple_root_multiset():
    roots = poly_roots(Poly((0.0, 0.0, 0.0, 1.0)))
    assert len(roots) == 3
    assert all(abs(r) < 1e-5 for r in roots)


def test_degree_zero_rejected():
    with pytest.raises(DegreeZeroError):
        poly_roots(Poly((4.0,)))


def test_roots_count_matches_degree():
    rng = np.random.default_rng(8)
    for deg in [1, 4, 9, 17]:
        coeffs = tuple(rng.normal(size=deg + 1))
        p = Poly(coeffs, tau_trim=0.0)
        assert len(poly_roots(p)) == p.degree


def _exact_real_roots(p: Poly) -> tuple[complex, ...]:
    """The nearest doubles of the distinct roots of p's double coefficients,
    all real, from exact Sturm counts (root_report)."""
    report = root_report(integer_poly(p), (-1.0, 1.0), 1e-9)
    assert report.classification is not RootLocation.SOME_NON_REAL
    assert len(report.roots) == p.degree  # simple roots
    return report.roots


def test_roots_backward_error_contract():
    rng = np.random.default_rng(9)
    for deg in [5, 12, 20, 30]:
        for _ in range(5):
            true = rng.uniform(-2, 2, deg)
            monic = np.poly(true)
            roots = _exact_real_roots(Poly(tuple(monic[::-1]), tau_trim=0.0))
            rebuilt = np.real(np.poly(np.array(roots)))
            err = np.max(np.abs(rebuilt - monic)) / np.max(np.abs(monic))
            assert err <= 1e-10, f"deg {deg}: backward error {err:.2e}"


def _hausdorff(a, b):
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    d1 = max(np.min(np.abs(b - x)) for x in a)
    d2 = max(np.min(np.abs(a - x)) for x in b)
    return max(d1, d2)


def _exact_product_coeffs(roots):
    # build prod (x - r_i) in rational arithmetic so the only rounding is the
    # final cast; accumulating the product in doubles already shifts clustered
    # roots past the 1e-8 bound being tested
    from fractions import Fraction

    c = [Fraction(1)]
    for r in roots:
        fr = Fraction(float(r))
        nxt = [Fraction(0)] * (len(c) + 1)
        for j, cj in enumerate(c):
            nxt[j + 1] += cj
            nxt[j] -= fr * cj
        c = nxt
    return tuple(float(x) for x in c)


def test_roots_hausdorff_property():
    rng = np.random.default_rng(10)
    for deg in [3, 8, 14, 20]:
        done = 0
        while done < 8:
            true = np.sort(rng.uniform(-2, 2, deg))
            if deg > 1 and np.min(np.diff(true)) < 1e-2:
                continue
            done += 1
            roots = _exact_real_roots(Poly(_exact_product_coeffs(true), tau_trim=0.0))
            assert _hausdorff(true, roots) <= 1e-8


def test_interior_random_roots_classify_inside():
    rng = np.random.default_rng(11)
    for _ in range(30):
        deg = int(rng.integers(1, 11))
        true = rng.uniform(-0.99, 0.99, deg)
        p = Poly(tuple(np.poly(true)[::-1]), tau_trim=0.0)
        report = classify_roots(poly_roots(p), (-1.0, 1.0), 1e-9)
        assert report.classification is RootLocation.ALL_STRICTLY_INSIDE


def test_roots_extended_policy():
    # 24 clustered roots once needed 192-bit root finding; the exact roots
    # of the double coefficients, read under any policy, meet the same bound
    true = np.linspace(-0.9, 0.9, 24)
    p = Poly(tuple(np.poly(true)[::-1]), tau_trim=0.0)
    assert _hausdorff(true, _exact_real_roots(p)) <= 1e-9


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_inside():
    rep = classify_roots([-0.5, 0.5], (-1.0, 1.0), 1e-9)
    assert rep.classification is RootLocation.ALL_STRICTLY_INSIDE


def test_classify_boundary():
    rep = classify_roots([1.0], (-1.0, 1.0), 1e-9)
    assert rep.classification is RootLocation.SOME_ON_BOUNDARY


def test_classify_nonreal():
    rep = classify_roots([0.3 + 0.01j], (-1.0, 1.0), 1e-9)
    assert rep.classification is RootLocation.SOME_NON_REAL


def test_classify_outside():
    rep = classify_roots([2.0, 0.1], (-1.0, 1.0), 1e-9)
    assert rep.classification is RootLocation.SOME_OUTSIDE


def test_classify_empty_roots_trivially_inside():
    rep = classify_roots([], (-1.0, 1.0), 1e-9)
    assert rep.classification is RootLocation.ALL_STRICTLY_INSIDE


def test_classify_invariant_boundary_band():
    # every root within tol of an endpoint blocks the strict verdict
    tol = 1e-6
    rep = classify_roots([1.0 - 0.5 * tol], (-1.0, 1.0), tol)
    assert rep.classification is RootLocation.SOME_ON_BOUNDARY
    rep = classify_roots([1.0 - 2.0 * tol], (-1.0, 1.0), tol)
    assert rep.classification is RootLocation.ALL_STRICTLY_INSIDE


def test_classify_bad_interval():
    with pytest.raises(BadIntervalError):
        classify_roots([0.0], (1.0, -1.0), 1e-9)
    with pytest.raises(BadParameterError):
        classify_roots([0.0], (-1.0, 1.0), 0.0)


def test_every_classifier_checks_the_band_alike():
    # a band that leaves the doubles, a negative tol and a NaN tol are
    # refused by every entry point, whatever the polynomial
    for p in ([3], [1, 1]):
        with pytest.raises(BadIntervalError):
            root_report(p, (-1.7e308, 1.7e308), 1e307)
        with pytest.raises(BadIntervalError):
            locate(p, (-1.7e308, 1.7e308), 1e307)
        with pytest.raises(BadIntervalError):
            verdicts([p], 1e307, interval=(-1.7e308, 1.7e308))
    with pytest.raises(BadIntervalError):
        classify_roots([0.0], (-1.7e308, 1.7e308), 1e307)
    for tol in (-1.0, math.nan):
        with pytest.raises(BadParameterError):
            verdicts([[1, 0, -4]], tol)
        with pytest.raises(BadParameterError):
            root_report([1, 0, -4], (-1.0, 1.0), tol)


def test_integer_poly_is_exact():
    # P_2 = (3x^2 - 1)/2 and P_1^(1/2,1/4) = (11x + 1)/8, from their basis
    # coefficients; 0.1 is the binary rational 3602879701896397 / 2^55
    assert integer_poly(Poly((0.0, 0.0, 1.0), LEGENDRE)) == [-1, 0, 3]
    assert integer_poly(Poly((0.0, 1.0), Jacobi(0.5, 0.25))) == [1, 11]
    assert integer_poly(Poly((0.1, 1.0))) == [3602879701896397, 2 ** 55]
    with pytest.raises(NonFiniteError):
        integer_poly(Poly((0.5, math.nan, 1.0)))


def test_min_boundary_distance():
    assert math.isclose(min_boundary_distance([0.25], (-1.0, 1.0)), 0.75)
    assert math.isinf(min_boundary_distance([], (-1.0, 1.0)))


def test_monic_from_roots_reproduces_np_poly():
    # np.poly is the reference: same convolutions, so equal to the last bit
    rng = np.random.default_rng(17)
    for _ in range(300):
        roots = rng.uniform(-0.99, 0.99, int(rng.integers(1, 31)))
        assert tuple(monic_from_roots(roots)) == tuple(np.poly(roots)[::-1])
    exact = monic_from_roots([Fraction(1, 2), Fraction(-1, 3)])
    assert exact == [Fraction(-1, 6), Fraction(-1, 6), 1]


# ---------------------------------------------------------------------------
# exact real-root counting
# ---------------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _real_count(p, seq):
    bound = root_bound(p)
    return count_roots(seq, -bound, bound)


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(st.tuples(RATIONALS, st.integers(1, 3)), min_size=1, max_size=6),
       lead=RATIONALS.filter(lambda c: c != 0))
def test_sturm_certifies_rational_products(roots, lead):
    # repeated factors leave the squarefree part: one root per distinct value
    expanded = [r for r, mult in roots for _ in range(mult)]
    p = primitive_part([lead * c for c in monic_from_roots(expanded)])
    distinct = sorted(set(expanded))
    seq = sturm_sequence(p)
    assert len(seq[0]) - 1 == len(distinct)
    assert _real_count(p, seq) == len(distinct)
    bound = root_bound(p)
    assert nearest_double_roots(seq, -bound, bound) == [float(r) for r in distinct]
    for i, r in enumerate(distinct):
        assert nearest_double_roots(seq, -bound, bound, {i}) == [float(r)]


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(RATIONALS, min_size=0, max_size=5),
       c=RATIONALS.filter(lambda c: c > 0))
def test_sturm_does_not_certify_a_complex_pair(roots, c):
    # x^2 + c has no real root, so the count stays below the squarefree degree
    coeffs = monic_from_roots(roots)
    coeffs = [(coeffs[k - 2] if k >= 2 else 0) + c * (coeffs[k] if k < len(coeffs) else 0)
              for k in range(len(coeffs) + 2)]
    p = primitive_part(coeffs)
    seq = sturm_sequence(p)
    assert len(seq[0]) - 1 == len(set(roots)) + 2
    assert _real_count(p, seq) == len(set(roots))


def _textbook_count(coeffs, lo, hi):
    """Distinct real roots in (lo, hi) by the Sturm sequence p, p', -rem, ...
    over Fractions with exact remainders; lo and hi must not be roots."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, c in enumerate(b):
                a[len(a) - len(b) + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        return a

    seq = [[Fraction(c) for c in coeffs]]
    seq.append([k * c for k, c in enumerate(seq[0])][1:])
    while r := rem(seq[-2], seq[-1]):
        seq.append([-c for c in r])

    def variations(x):
        signs = [v > 0 for v in (sum(c * x**k for k, c in enumerate(q)) for q in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(Fraction(lo)) - variations(Fraction(hi))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=2, max_size=8).filter(
    lambda c: c[-1] != 0 and any(c[:-1])))
def test_sturm_count_matches_textbook_sturm(coeffs):
    # sparse integer polynomials give degree gaps and negative leading
    # coefficients along the sequence, where the pseudo-remainder's sign matters
    p = primitive_part(coeffs)
    bound = root_bound(p)
    for lo, hi in ((-1, 1), (-bound, bound)):
        if sum(c * lo**k for k, c in enumerate(p)) and sum(c * hi**k for k, c in enumerate(p)):
            assert count_roots(sturm_sequence(p), lo, hi) == _textbook_count(coeffs, lo, hi)


def test_sturm_counts_in_the_unit_interval():
    F = Fraction
    cases = [
        ([F(1, 2), F(-1, 3), F(2), F(-5, 4)], 2),
        ([F(1, 2), F(1, 2), F(-1, 2), F(-1, 2), F(3)], 2),  # (x^2 - 1/4)^2 (x - 3)
        ([F(-1, 2), F(1)], 2),  # the count is over (-1, 1], so 1 counts
        ([F(-1), F(3, 2)], 0),  # and -1 does not
        ([F(99, 100), F(-99, 100), F(0)], 3),
    ]
    for roots, inside in cases:
        p = primitive_part(monic_from_roots(roots))
        assert count_roots(sturm_sequence(p), -1, 1) == inside
    assert count_roots(sturm_sequence([1, 0, 1]), -1, 1) == 0  # x^2 + 1


def test_nearest_double_root():
    seq = sturm_sequence([-2, 0, 1])  # x^2 - 2; sqrt is correctly rounded
    assert nearest_double_roots(seq, -2, 2) == [-math.sqrt(2.0), math.sqrt(2.0)]
    assert nearest_double_roots(seq, -2, 2, {1}) == [math.sqrt(2.0)]
    dyadic = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    seq = sturm_sequence(primitive_part(monic_from_roots(dyadic)))
    assert nearest_double_roots(seq, -1, 1) == [-0.75, 0.0, 0.5]
    assert nearest_double_roots(seq, -1, 1, {0, 2}) == [-0.75, 0.5]
    close = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)]
    seq = sturm_sequence(primitive_part(monic_from_roots(close)))
    assert nearest_double_roots(seq, -1, 1) == [1 / 3, float(close[1])]


def _blind_enclosures():
    """A patch of Enclosure.of_integers whose infinite radii settle no sign,
    so every root it is asked for falls to the exact route."""
    of_integers = Enclosure.of_integers

    def blind(cls, polys):
        enc = of_integers(polys)
        return cls(enc.hi, enc.lo, np.full_like(enc.radius, np.inf), enc.degrees, enc.exact)

    return mock.patch.object(Enclosure, "of_integers", classmethod(blind))


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(st.tuples(RATIONALS, st.integers(1, 3)), min_size=1, max_size=6),
       lead=RATIONALS.filter(lambda c: c != 0))
def test_library_reader_falls_back_to_exact_bisection(roots, lead):
    # with an enclosure that settles nothing, the library's roots are still
    # the correctly rounded doubles: the exact fallback behind the dd reader
    # reads every one, and a root past the doubles still reads inf
    expanded = [r for r, mult in roots for _ in range(mult)]
    p = primitive_part([lead * c for c in monic_from_roots(expanded)])
    distinct = sorted(set(expanded))
    close = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)]
    with _blind_enclosures():
        seq = sturm_sequence(p)
        bound = root_bound(p)
        assert nearest_double_roots(seq, -bound, bound) == [float(r) for r in distinct]
        seq = sturm_sequence([-2, 0, 1])
        assert nearest_double_roots(seq, -2, 2) == [-math.sqrt(2.0), math.sqrt(2.0)]
        assert nearest_double_roots(seq, -2, 2, {1}) == [math.sqrt(2.0)]
        seq = sturm_sequence(primitive_part(monic_from_roots([Fraction(1, 2), Fraction(-3, 4), 0])))
        assert nearest_double_roots(seq, -1, 1) == [-0.75, 0.0, 0.5]
        seq = sturm_sequence(primitive_part(monic_from_roots(close)))
        assert nearest_double_roots(seq, -1, 1) == [1 / 3, float(close[1])]
        assert root_report([-(1 << 1100), 1], (-1.0, 1.0), 1e-9).roots == (math.inf,)


def test_root_report_reads_through_the_one_reader():
    # the Sturm route hands its isolating intervals to _nearest_roots as
    # one batch, so the dd reader runs once for all six roots
    roots = [Fraction(-9, 10), Fraction(-1, 3), Fraction(1, 7), Fraction(2, 5), Fraction(5, 3),
             Fraction(10, 3)]
    p = primitive_part(monic_from_roots(roots))
    with mock.patch.object(polycore, "_nearest_roots", wraps=polycore._nearest_roots) as nearest, \
            mock.patch.object(polycore, "_read_roots", wraps=polycore._read_roots) as read:
        report = root_report(p, (-1.0, 1.0), 1e-9)
    assert report.roots == tuple(complex(float(r)) for r in roots)
    assert (nearest.call_count, read.call_count) == (1, 1)


def test_bisection_agrees_with_nearest_double_root():
    # (x^2 - 2)(x^2 - 1/3)(x - 1/7)(x + 9/10): each root bisected from an
    # isolating interval between neighbouring doubles lands on the double
    # that Sturm isolation finds
    coeffs = monic_from_roots([Fraction(1, 7), Fraction(-9, 10)])
    for q in (Fraction(2), Fraction(1, 3)):
        coeffs = [(coeffs[k - 2] if k >= 2 else 0) - q * (coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 2)]
    p = primitive_part(coeffs)
    seq = sturm_sequence(p)
    bound = root_bound(p)
    found = nearest_double_roots(seq, -bound, bound)
    expected = [-math.sqrt(2), -0.9, -math.sqrt(1 / 3), 1 / 7, math.sqrt(1 / 3), math.sqrt(2)]
    assert np.allclose(found, expected, rtol=1e-15, atol=0)
    cuts = [-bound, *((a + b) / 2 for a, b in zip(found, found[1:])), bound]
    for i, root in enumerate(found):
        (lo, hi), k = dyadic_numerators(cuts[i: i + 2])
        assert _bisect_to_double(p, lo, hi, k) == root


# ---------------------------------------------------------------------------
# comrade matrix and the sign-change certificate
# ---------------------------------------------------------------------------

def _series_roots(weights, alpha, beta):
    """comrade_roots of one series."""
    return comrade_roots(np.asarray(weights, dtype=float)[None], alpha, beta)[0]


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3, 1.0, 2.5])
def test_comrade_roots_of_one_member_are_gauss_nodes(alpha):
    for n in (1, 2, 5, 12, 30):
        eig = _series_roots([0.0] * n + [1.0], alpha, alpha)
        assert np.max(np.abs(eig.imag)) == 0.0
        nodes = roots_jacobi(n, alpha, alpha)[0]
        assert np.max(np.abs(np.sort(eig.real) - nodes)) <= 1e-13
        if alpha == 0.0:
            legendre = np.polynomial.legendre.legroots([0.0] * n + [1.0])
            assert np.max(np.abs(np.sort(eig.real) - legendre)) <= 1e-13


def test_comrade_roots_of_a_series():
    # P_2^(1,1) = (15 x^2 - 3) / 4 and P_0 = 1: 2 P_0 + P_2 has roots +-sqrt(-1/3)
    eig = _series_roots([2.0, 0.0, 1.0], 1.0, 1.0)
    assert np.allclose(np.sort_complex(eig), [-1j / math.sqrt(3), 1j / math.sqrt(3)])


def test_comrade_roots_of_a_non_finite_matrix_are_nan():
    # weights that underflowed to zero give 0 / 0 in the last row; no
    # estimates come back, and no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_series_roots([0.0] * 5, 2000.0, 2000.0)).all()
        assert np.isnan(_series_roots([1.0, math.inf, 1.0], 0.0, 0.0)).all()


INTERIOR = st.builds(Fraction, st.integers(-95, 95), st.integers(1, 100).map(lambda d: 96 + d))


def test_root_report_reads_the_per_index_roots():
    # one bisection pass isolates all the roots, and each comes back as the
    # double that isolating it alone finds
    rng = np.random.default_rng(12)
    for _ in range(2):
        p = integer_poly(Poly(tuple(np.poly(rng.uniform(-2, 2, 30))[::-1]), tau_trim=0.0))
        seq = sturm_sequence(p)
        bound = root_bound(p)
        roots = [r.real for r in root_report(p, (-1.0, 1.0), 1e-9).roots]
        assert len(roots) == 30
        assert roots == [nearest_double_roots(seq, -bound, bound, {i})[0] for i in range(30)]


def test_root_report_past_the_double_range():
    # the Cauchy bound lies past the doubles, where dividing its numerator
    # once overflowed; roots past them round to the infinity
    p = integer_poly(Poly((-1.7e308, 0.0, 1.0), tau_trim=0.0))
    root = math.sqrt(1.7e308)  # correctly rounded
    assert root_report(p, (-1.0, 1.0), 1e-9).roots == (-root, root)
    assert root_report([-(2 ** 1100), 0, 1], (-1.0, 1.0), 1e-9).roots == (-2.0 ** 550, 2.0 ** 550)
    assert root_report([-(2 ** 1100), 1], (-1.0, 1.0), 1e-9).roots == (math.inf,)
    threshold = 2 ** 1024 - 2 ** 970  # halfway from the largest double to 2^1024
    for root, want in ((threshold - 1, sys.float_info.max), (threshold, math.inf)):
        assert root_report([-3 * root, 3], (-1.0, 1.0), 1e-9).roots == (want,)
        assert root_report([3 * root, 3], (-1.0, 1.0), 1e-9).roots == (-want,)
    # two roots near the top: the midpoint of the lower one's isolating
    # interval overflows, so the reader reaches no double and bisects
    top = Fraction(sys.float_info.max)
    p = primitive_part(monic_from_roots([top * Fraction(99, 100), top]))
    roots = root_report(p, (-1.0, 1.0), 1e-9).roots
    assert roots == (float(top * Fraction(99, 100)), sys.float_info.max)
    # roots at the largest doubles, with finite estimates: the certificate
    # holds, the reader stops short of the infinity and bisection reads them
    for roots in ([top], [-top], [Fraction(1, 2), top], [-top, top]):
        p = primitive_part(monic_from_roots(roots))
        assert root_report(p, (-1.0, 1.0), 1e-9).roots == tuple(complex(float(r)) for r in roots)
    # every coefficient but the constant underflows in diagnostic_roots, so
    # the reader starts from the middle of each bracket
    roots = [Fraction(v * 2**799) for v in (-5, -3, 3, 5)]
    p = primitive_part(monic_from_roots(roots))
    assert root_report(p, (-1.0, 1.0), 1e-9).roots == tuple(complex(float(r)) for r in roots)


def test_roots_past_the_double_range_read_inf():
    # x - 2^1100 overflows its companion matrix; its diagnostic root reads
    # inf, as root_report reads it, in sturm_verdict and verdicts alike
    p = [-(1 << 1100), 1]
    want = (RootLocation.SOME_OUTSIDE, [complex(math.inf)])
    assert sturm_verdict(p, (-1.0, 1.0), 1e-7, True) == want
    assert verdicts([p], 1e-7) == [want]
    assert root_report(p, (-1.0, 1.0), 1e-7).roots == (math.inf,)


def _sturm_builds():
    """A patch of polycore.sturm_sequence that counts its calls."""
    return mock.patch.object(polycore, "sturm_sequence", wraps=sturm_sequence)


def test_root_report_reads_through_the_certificate():
    # 40 polynomials with simple real roots: the sign certificate decides
    # and reads them all, building no Sturm sequence, as the Sturm route
    # would; a double root still leaves one polynomial to it
    rng = np.random.default_rng(9)
    roots = [rng.uniform(-1.2, 1.2, int(rng.integers(1, 31))) for _ in range(40)]
    polys = [integer_poly(Poly(tuple(np.poly(r)[::-1]), tau_trim=0.0)) for r in roots]
    with _sturm_builds() as built:
        reports = [root_report(p, (-1.0, 1.0), 1e-9) for p in polys]
    assert built.call_count == 0
    assert [(r.classification, list(r.roots)) for r in reports] == [
        sturm_verdict(p, (-1.0, 1.0), 1e-9, "all") for p in polys]
    double = primitive_part(monic_from_roots([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3)]))
    with _sturm_builds() as built:
        assert root_report(double, (-1.0, 1.0), 1e-9).roots == (-1 / 3, 0.5)
    assert built.call_count == 1


@settings(max_examples=80, deadline=None)
@given(roots=st.lists(INTERIOR, min_size=1, max_size=12, unique=True),
       lead=RATIONALS.filter(lambda c: c != 0),
       noise=st.floats(-1e-9, 1e-9))
def test_certificate_accepts_simple_interior_roots(roots, lead, noise):
    # rough estimates still pick valid points, so no Sturm sequence is
    # built; the extremes come back as the nearest doubles, as Sturm
    # isolation finds them (a single root once)
    p = primitive_part([lead * c for c in monic_from_roots(roots)])
    approx = [float(r) + noise for r in roots]
    with _sturm_builds() as built:
        (flag, found), = verdicts([p], 1e-8, [approx])
    assert built.call_count == 0
    assert flag is RootLocation.ALL_STRICTLY_INSIDE
    ends = sorted({0, len(roots) - 1})
    assert found == [float(sorted(roots)[i]) for i in ends]
    seq = sturm_sequence(p)
    assert found == [nearest_double_roots(seq, -1, 1, {i})[0] for i in ends]


def test_certificate_rejects_what_it_cannot_prove():
    # a complex pair, a double root and estimates that do not pick one
    # root per gap are left to Sturm; a root outside, or within tol of
    # +-1, is certified as such
    tol = 1e-8
    inside = [Fraction(1, 2), Fraction(-1, 3)]
    cases = {
        "complex pair": (primitive_part([Fraction(1, 4), 0, 1]),  # x^2 + 1/4
                         RootLocation.SOME_NON_REAL, 1),
        "outside": (primitive_part(monic_from_roots([*inside, Fraction(3, 2)])),
                    RootLocation.SOME_OUTSIDE, 0),
        "within tol of 1": (primitive_part(monic_from_roots([*inside, 1 - Fraction(tol) / 2])),
                            RootLocation.SOME_ON_BOUNDARY, 0),
        "within tol of -1": (primitive_part(monic_from_roots([*inside, -1 + Fraction(tol) / 4])),
                             RootLocation.SOME_ON_BOUNDARY, 0),
        "double root": (primitive_part(monic_from_roots([*inside, Fraction(1, 2)])),
                        RootLocation.ALL_STRICTLY_INSIDE, 1),
    }
    for name, (p, flag, builds) in cases.items():
        approx = np.roots(np.array(p[::-1], dtype=float))
        with _sturm_builds() as built:
            found = verdicts([p], tol, [approx])
        assert found == [sturm_verdict(p, (-1.0, 1.0), tol, True)] and found[0][0] is flag, name
        assert built.call_count == builds, name
    p = primitive_part(monic_from_roots(inside))
    for approx in ([0.5],  # too few estimates
                   [0.5, 0.5],  # no point between
                   [0.4, 0.8]):  # both roots in one gap
        with _sturm_builds() as built:
            found = verdicts([p], tol, [approx])
        assert found == [sturm_verdict(p, (-1.0, 1.0), tol, True)]
        assert built.call_count == 1, approx


def _tie_above(x: float) -> Fraction:
    """The point halfway between the double x and the next double up."""
    return (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2


_POWER_OF_TWO = st.builds(
    lambda j, sign, kind: sign * [Fraction(1, 2**j), _tie_above(2.0**-j),
                                  _tie_above(math.nextafter(2.0**-j, 0.0))][kind],
    st.integers(1, 60), st.sampled_from([1, -1]), st.integers(0, 2))
POLISH_TARGETS = st.one_of(
    st.floats(-0.9, 0.9).map(Fraction),  # a root at a double
    st.floats(-0.9, 0.9).map(_tie_above),  # a root halfway between two doubles: a tie
    _POWER_OF_TWO,  # at a power of two, or a tie beside one, where the ulps differ
)
POLISH_ULPS = st.one_of(st.integers(-20, 20), st.sampled_from([2**30, -2**40, 2**52]))


@settings(max_examples=150, deadline=None)
@given(target=POLISH_TARGETS, others=st.lists(INTERIOR, max_size=5),
       lead=st.integers(1, 9), ulps=POLISH_ULPS)
@example(target=Fraction(0.3), others=[Fraction(-1, 2)], lead=1, ulps=0)
@example(target=_tie_above(0.3), others=[Fraction(1, 2)], lead=3, ulps=2)
@example(target=Fraction(1, 4), others=[Fraction(-1, 3)], lead=1, ulps=-5)
@example(target=_tie_above(math.nextafter(0.25, 0.0)), others=[], lead=1, ulps=7)
@example(target=Fraction(1, 3), others=[Fraction(1, 2), Fraction(-1, 2)], lead=2, ulps=2**52)
def test_polishing_returns_the_bisected_double(target, others, lead, ulps):
    # the dd reader's Newton steps and midpoint signs, and the exact
    # fallback on an enclosure whose infinite radii settle no sign, each
    # return exactly the double that bisection finds, the root's correctly
    # rounded value (ties to even)
    roots = sorted({target, *(r for r in others if abs(r - target) > Fraction(1, 1000))})
    p = primitive_part([lead * c for c in monic_from_roots(roots)])
    i = roots.index(target)
    lo = float((roots[i - 1] + target) / 2) if i else -1.0
    hi = float((target + roots[i + 1]) / 2) if i + 1 < len(roots) else 1.0
    guess = float(target) + ulps * math.ulp(float(target))
    assume(lo < guess < hi)
    (num_lo, num_hi), k = dyadic_numerators([lo, hi])
    want = _bisect_to_double(p, num_lo, num_hi, k)
    assert want == float(target)
    s_lo = _sign_at_double(p, lo)
    enc = Enclosure.of_integers([p])
    assert _nearest_roots(enc, [0], [lo], [hi], [s_lo], [guess]) == [want]
    blind = Enclosure(enc.hi, enc.lo, np.full_like(enc.radius, np.inf), enc.degrees, enc.exact)
    assert _nearest_roots(blind, [0], [lo], [hi], [s_lo], [guess]) == [want]


def test_polishing_bisects_only_when_newton_misses(monkeypatch):
    # 2^21 x^21 - 1 has its root at 1/2; from 0.95 each Newton step moves
    # only about x/21, so the reader's passes miss and bisection runs, while
    # from a few ulps off no bisection is needed
    calls = []
    bisect = polycore._bisect_to_double
    monkeypatch.setattr(polycore, "_bisect_to_double",
                        lambda *args: calls.append(args) or bisect(*args))
    p = [-1] + [0] * 20 + [2**21]
    enc = Enclosure.of_integers([p])
    assert _nearest_roots(enc, [0], [0.0], [1.0], [-1], [0.95]) == [0.5]
    assert len(calls) == 1
    for guess in (0.5, 0.5 + 4 * math.ulp(0.5), 0.5 - 9 * math.ulp(0.5)):
        assert _nearest_roots(enc, [0], [0.0], [1.0], [-1], [guess]) == [0.5]
    assert len(calls) == 1


# Integers up to about 2^3000 whose bit lengths spread far enough that, once
# a polynomial is scaled to max |a_i| in [1, 2), its small coefficients fall
# into the subnormals or round to zero.
WIDE_INTS = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda sign, mantissa, shift: sign * (mantissa << shift),
              st.sampled_from([1, -1]), st.integers(1, 2**60), st.integers(0, 2930)))
# Points where a dyadic root's factor (2^k x - num) is exact: the root itself
# (sign 0), the doubles next to it, and others, some far enough out that
# Horner overflows.
FAR_POINTS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 3.0, -7.5, 1e10, -1e60, 1e200, -1e300]))


def _signs(polys, points):
    """filtered_signs of integer polynomials, each at its row of points."""
    return filtered_signs(Enclosure.of_integers(polys), np.arange(len(polys)), np.array(points))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), rows=st.integers(1, 3))
def test_filtered_signs_equal_exact_signs(data, n, rows):
    # every sign the dd filter settles must be the exact one, however the
    # coefficients spread and wherever Horner loses its digits or overflows
    polys, points = [], []
    for _ in range(rows):
        root = data.draw(st.floats(-4.0, 4.0))
        q = data.draw(st.lists(WIDE_INTS, min_size=n, max_size=n).filter(lambda c: c[-1]))
        (num,), k = dyadic_numerators([root])
        # (2^k x - num) q(x): root is an exact root
        polys.append([-num * q[0]] + [(c << k) - num * d for c, d in zip(q, q[1:] + [0])])
        near = [root, math.nextafter(root, -math.inf), math.nextafter(root, math.inf)]
        points.append(near + data.draw(st.lists(FAR_POINTS, min_size=3, max_size=3)))
    signs = _signs(polys, points)
    for p, row, got in zip(polys, points, signs):
        assert got[0] == 0
        assert list(got) == [_sign_at_double(p, x) for x in row]


def test_filtered_signs_cover_gradual_underflow():
    # scaled, p is x^2 + (1.5 2^-537 + 2^-589) x - (2.5 + 2^-53) 2^-1074: at
    # x = 2^-537 double Horner rounds two ties to even and the constant
    # away, and reads -2^-1074 where p is +2^-1127, which no dd number holds
    # either; only the underflow term keeps a wrong sign from being taken
    p = [-(5 * 2**53 + 2), 3 * 2**590 + 2**539, 2**1128]
    x = 2.0**-537
    a0, a1, a2 = (c / 2**1128 for c in p)
    assert (a2 * x + a1) * x + a0 == -5e-324
    assert _sign_at_double(p, x) == 1
    assert _signs([p], [[x]]).tolist() == [[1]]


@settings(max_examples=200, deadline=None)
@given(polys=st.lists(st.lists(WIDE_INTS, min_size=1, max_size=8), min_size=1, max_size=3))
def test_integer_enclosure_holds_its_coefficients(polys):
    # each coefficient over the row's power of two lies within its radius
    # of hi + lo, the radius is 0 exactly where hi + lo is exact, and the
    # exact polynomial is the one given
    enc = Enclosure.of_integers(polys)
    for c, p in enumerate(polys):
        s = max(max(abs(v) for v in p).bit_length() - 1, 0)
        assert enc.degrees[c] == len(p) - 1 and enc.exact(c) is p
        for j, v in enumerate(p):
            rest = abs(Fraction(v, 2 ** s) - Fraction(enc.hi[c, j]) - Fraction(enc.lo[c, j]))
            assert rest <= Fraction(enc.radius[c, j]) and (rest == 0) == (enc.radius[c, j] == 0)
            assert abs(enc.lo[c, j]) <= abs(enc.hi[c, j]) * 2.0 ** -53


def test_dd_filter_waits_for_rounding_and_radius():
    # p's coefficients fit dd numbers exactly, and at its double root 1/3
    # dd Horner reads rounding noise; moved within a radius, a coefficient
    # makes the value at the root that move's. The filter settles neither,
    # so the exact sign 0 is taken, and it still settles the far points
    rng = np.random.default_rng(1)
    root = 1 / 3
    (num,), k = dyadic_numerators([root])
    q = [int(c) for c in rng.integers(1, 2**40, 12)]
    p = [-num * q[0]] + [(c << k) - num * d for c, d in zip(q, q[1:] + [0])]
    exact = Enclosure.of_integers([p])
    assert not exact.radius.any()
    moved = Enclosure(exact.hi, exact.lo.copy(), exact.radius.copy(), exact.degrees,
                      [p].__getitem__)
    moved.lo[0, 3] += 2.0 ** -70
    moved.radius[0, 3] = 2.0 ** -70
    points = np.array([[root, 0.5, -2.0]])
    for enc in (exact, moved):
        signs, settled, values = polycore._dd_signs(enc, np.array([0]), points)
        assert values[0, 0] != 0 and settled.tolist() == [[False, True, True]]
        assert filtered_signs(enc, [0], points).tolist() == [
            [_sign_at_double(p, x) for x in points[0]]] == [[0, 1, 1]]


def test_filtered_signs_settle_certificate_points(monkeypatch):
    # at points between well-separated roots the dd values clear their
    # bound, so no exact sign is computed; an empty batch needs none
    roots = [Fraction(k, 37) for k in range(-30, 31, 3)]
    p = primitive_part(monic_from_roots(roots))
    points = np.array([[float(r) + 1 / 74 for r in roots]])
    calls = []
    exact = polycore._sign_at_double
    monkeypatch.setattr(polycore, "_sign_at_double",
                        lambda *args: calls.append(args) or exact(*args))
    signs = _signs([p], points)
    assert list(signs[0]) == [(-1) ** (len(roots) - 1 - i) for i in range(len(roots))]
    assert len(calls) == 0
    assert _signs([], np.empty((0, 4))).shape == (0, 4)


def test_certificate_batch_equals_one_at_a_time():
    # a batch decides each polynomial as a batch of one does, including a
    # row without estimates, the one that builds a Sturm sequence
    tol = 1e-8
    polys = [primitive_part(monic_from_roots(r)) for r in (
        [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7)],
        [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)],
        [Fraction(9, 10), Fraction(-9, 10), Fraction(0)],
        [Fraction(1, 5), Fraction(1, 4), Fraction(-1, 5)],
    )]
    approx = np.array([np.roots(np.array(p[::-1], dtype=float)) for p in polys], dtype=complex)
    approx[3] = np.nan
    with _sturm_builds() as built:
        found = verdicts(polys, tol, approx)
    assert built.call_count == 1
    assert found == [verdicts([p], tol, [a])[0] for p, a in zip(polys, approx)]
    assert found[0] == (RootLocation.ALL_STRICTLY_INSIDE, [-1 / 3, 0.5])
    assert found[1][0] is RootLocation.SOME_OUTSIDE
    assert found[3] == sturm_verdict(polys[3], (-1.0, 1.0), tol, True)


def test_boundary_verdicts_place_roots_at_the_band_ends():
    # the certificate's marks classify as Sturm counts do, with a root on
    # each side of every band end; a root on a mark and a complex pair are
    # left to Sturm, and a constant needs neither
    tol = 1e-7
    t, inside = Fraction(tol), [Fraction(1, 2), Fraction(-1, 3)]
    certified = {
        RootLocation.ALL_STRICTLY_INSIDE: [[], [1 - 2 * t], [-1 + 2 * t]],
        RootLocation.SOME_ON_BOUNDARY: [[1 - t / 2], [1 + t / 2], [-1 - t / 2], [-1 + t / 2]],
        RootLocation.SOME_OUTSIDE: [[1 + 2 * t], [-1 - 2 * t], [Fraction(-3)], [Fraction(5, 4)]],
    }
    polys, flags = [], []
    for flag, extra in certified.items():
        for roots in extra:
            polys.append(primitive_part(monic_from_roots([*inside, *roots])))
            flags.append(flag)
    left = [primitive_part(monic_from_roots([*inside, Fraction(1.0 - tol)])),
            primitive_part(monic_from_roots([*inside, Fraction(1)])),
            primitive_part([Fraction(1, 4), 0, 1])]
    everything = polys + left + [[3]]
    for read in (True, False, "all"):
        with _sturm_builds() as built:
            found = verdicts(everything, tol, read_roots=[read] * len(everything))
        assert built.call_count == len(left)
        for p, (flag, roots) in zip(everything, found):
            assert (flag, roots) == sturm_verdict(p, (-1.0, 1.0), tol, read)
            assert flag is locate(p, (-1.0, 1.0), tol)
        assert [flag for flag, _ in found[:len(polys)]] == flags
    # a root past the double range has no companion estimate: Sturm decides
    with _sturm_builds() as built:
        assert verdicts([[-(1 << 1100), 1]], tol, read_roots=[False]) == [
            (RootLocation.SOME_OUTSIDE, [])]
    assert built.call_count == 1


_TOL = 1e-7
_HUGE = Fraction(2 ** 1100)
# (-1, 1), as the campaigns use it, and intervals with any double ends
_INTERVALS = st.one_of(st.just((-1.0, 1.0)), st.lists(
    st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True).map(lambda ends: tuple(sorted(ends))))
# what verdicts reads of each case: no roots, the extremes or every root
_READS = st.lists(st.sampled_from([False, True, "all"]), min_size=5, max_size=5)


def _times(a: list, b: list) -> list:
    """The product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _images(draw, interval):
    """An integer polynomial, not always primitive, with real roots inside,
    on the marks of interval, outside, past the doubles or repeated, and
    complex pairs; and estimates of its roots, noisy, infinite past the
    doubles."""
    lo, hi = interval
    marks = [Fraction(x) for x in (lo - _TOL, lo + _TOL, hi - _TOL, hi + _TOL, lo, hi)]
    reals = draw(st.lists(st.one_of(INTERIOR, RATIONALS, st.sampled_from([*marks, _HUGE])),
                          max_size=5))
    if reals:
        reals += draw(st.lists(st.sampled_from(reals), max_size=2))
    pairs = draw(st.lists(st.tuples(RATIONALS, RATIONALS.filter(bool)), max_size=2))  # a +- b i
    coeffs = monic_from_roots(reals)
    for a, b in pairs:
        coeffs = _times(coeffs, [a * a + b * b, -2 * a, 1])
    p = [draw(st.sampled_from([1, -1, 3, -6])) * c for c in primitive_part(coeffs)]
    noise = draw(st.floats(-1e-9, 1e-9))
    estimates = [(float(r) if r < 2 ** 1000 else math.inf) + noise for r in reals]
    estimates += [complex(float(a), s * float(b)) for a, b in pairs for s in (1, -1)]
    return p, estimates


@settings(max_examples=100, deadline=None)
@given(drawn=_INTERVALS.flatmap(lambda interval: st.tuples(
    st.just(interval), st.lists(_images(interval), min_size=1, max_size=5))),
       estimated=st.booleans(), read=_READS)
@example(drawn=((-1.0, 1.0), [([-(2 ** 1100), 1], [math.inf])]), estimated=True, read=[True] * 5)
@example(drawn=((-1.0, 1.0), [([-1, 1], [1.0]), ([5], []), ([-1, 0, 1], [-1.0, 1.0])]),
         estimated=False, read=[True] * 5)
@example(drawn=((0.0, 1.0), [([-(2 ** 1100), 1], [math.inf]), ([-1, 0, 1], [-1.0, 1.0]),
                             ([-1, 3], [1 / 3])]), estimated=True, read=["all"] * 5)
def test_verdicts_equal_the_sturm_verdicts(drawn, estimated, read):
    # on any interval with double ends, certified or not, every verdict is
    # sturm_verdict's on the primitive part, in flag and in the roots read:
    # none, the extremes or every root
    interval, cases = drawn
    polys = [p for p, _ in cases]
    read = read[:len(polys)]
    approx = [estimates for _, estimates in cases] if estimated else None
    want = [sturm_verdict(primitive_part(p), interval, _TOL, r) for p, r in zip(polys, read)]
    assert verdicts(polys, _TOL, approx, read, interval) == want


def test_comrade_roots_stack_equals_one_at_a_time():
    # one eigvals call on the stack gives each series' roots, and a series
    # whose matrix is not finite gets a row of NaN
    weights = np.array([[2.0, 0.0, 1.0, 0.5], [1.0, -3.0, 0.25, 2.0], [0.0, 0.0, 0.0, 0.0]])
    stacked = comrade_roots(weights, 1.5, 0.5)
    for row, w in zip(stacked[:2], weights):
        assert list(row) == list(_series_roots(w, 1.5, 0.5))
    assert np.isnan(stacked[2]).all()


# ---------------------------------------------------------------------------
# exact integer determinant
# ---------------------------------------------------------------------------

def _fraction_det(rows):
    """Gaussian elimination over Fractions, swapping in the first nonzero pivot."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_integer_det_matches_fraction_elimination(data, n):
    # small entries make zero pivots and singular matrices common; wide ones
    # exercise the exact divisions on large integers
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assert integer_det(rows) == _fraction_det(rows)


def test_integer_det_cases():
    assert integer_det([[-7]]) == -7
    assert integer_det([[0]]) == 0
    # zero leading entry: the elimination must swap rows
    assert integer_det([[0, 2, 1], [3, 1, 0], [1, 0, 2]]) == -13
    assert integer_det([[0, 1], [1, 0]]) == -1
    # permutation matrices give the permutation's sign
    even = [1, 0, 3, 2, 4]  # two transpositions
    odd = [2, 0, 1, 4, 3]  # a 3-cycle and a transposition
    assert integer_det([[int(j == p) for j in range(5)] for p in even]) == 1
    assert integer_det([[int(j == p) for j in range(5)] for p in odd]) == -1
    # equal rows give exactly zero, even with large entries
    row = [2**130 + 1, -3, 5**40]
    assert integer_det([row, [1, 2, 3], row]) == 0
    # the input is left untouched
    rows = [[0, 1], [1, 0]]
    integer_det(rows)
    assert rows == [[0, 1], [1, 0]]
