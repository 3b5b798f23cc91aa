"""Polynomial core: arithmetic, evaluation, roots, classification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    extended,
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
)
from orthozero.polycore import (
    count_roots,
    monic_from_roots,
    nearest_double_root,
    primitive_part,
    root_bound,
    sturm_sequence,
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


def test_roots_backward_error_contract():
    rng = np.random.default_rng(9)
    for deg in [5, 12, 20, 30]:
        for _ in range(5):
            true = rng.uniform(-2, 2, deg)
            monic = np.poly(true)
            roots = poly_roots(Poly(tuple(monic[::-1]), tau_trim=0.0))
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
            roots = poly_roots(Poly(_exact_product_coeffs(true), tau_trim=0.0))
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
    true = np.linspace(-0.9, 0.9, 24)
    p = Poly(tuple(np.poly(true)[::-1]), tau_trim=0.0)
    roots = poly_roots(p, extended(192))
    assert _hausdorff(true, roots) <= 1e-9


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
    for i, r in enumerate(distinct):
        assert nearest_double_root(seq, -bound, bound, i) == float(r)


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
    assert nearest_double_root(seq, -2, 2, 0) == -math.sqrt(2.0)
    assert nearest_double_root(seq, -2, 2, 1) == math.sqrt(2.0)
    dyadic = [Fraction(1, 2), Fraction(-3, 4), Fraction(0)]
    seq = sturm_sequence(primitive_part(monic_from_roots(dyadic)))
    assert [nearest_double_root(seq, -1, 1, i) for i in range(3)] == [-0.75, 0.0, 0.5]
    close = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)]
    seq = sturm_sequence(primitive_part(monic_from_roots(close)))
    assert nearest_double_root(seq, -1, 1, 0) == 1 / 3
    assert nearest_double_root(seq, -1, 1, 1) == float(close[1])
