"""Biorthogonal construction: moments against closed forms, regularity,
the monic annihilated polynomial, its zero locations, and equivalence with
the factorial-scaled transform."""

import math

import numpy as np
import pytest

from orthozero import (
    Domain,
    ExpKernel,
    Poly,
    RootLocation,
    UltraDerivedKernel,
    biorthogonal_poly,
    moment,
    moment_matrix,
    orthogonality_residuals,
    regularity_det,
    ssr_minor,
    transform_equivalence_check,
    zeros_in_interval_check,
)
from orthozero.errors import BadNodesError, BadParameterError, SingularSystemError

EXP_ON_UNIT = ExpKernel(domain=Domain((0.0, 1.0), (-2.0, 2.0)))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_constant_kernel():
    assert math.isclose(moment(lambda x, t: 1.0, 0, 0.3, (-1, 1)), 2.0, rel_tol=1e-12)


def test_moment_odd_power_vanishes():
    assert abs(moment(lambda x, t: 1.0, 1, 0.0, (-1, 1))) <= 1e-12


def test_moment_exp_closed_form():
    # integral of e^x over (0,1)
    assert math.isclose(moment(EXP_ON_UNIT, 0, 1.0, (0, 1)), math.e - 1.0, rel_tol=1e-12)
    # integral of x e^x over (0,1) = 1
    assert math.isclose(moment(EXP_ON_UNIT, 1, 1.0, (0, 1)), 1.0, rel_tol=1e-12)


def test_moment_power_cap():
    with pytest.raises(BadParameterError):
        moment(lambda x, t: 1.0, 31, 0.0, (-1, 1))


# ---------------------------------------------------------------------------
# regularity determinant
# ---------------------------------------------------------------------------

def test_regularity_order_one_constant():
    for t in (-0.7, 0.0, 0.4):
        assert math.isclose(regularity_det(lambda x, s: 1.0, (t,), (-1, 1)),
                            2.0, rel_tol=1e-12)


def test_regularity_exp_closed_form():
    # I0(0)=1, I1(0)=1/2, I0(1)=e-1, I1(1)=1
    want = 1.0 - (math.e - 1.0) / 2.0
    got = regularity_det(EXP_ON_UNIT, (0.0, 1.0), (0, 1))
    assert math.isclose(got, want, rel_tol=1e-10)


def test_regularity_rejects_duplicate_nodes():
    with pytest.raises(BadNodesError):
        regularity_det(EXP_ON_UNIT, (0.5, 0.5), (0, 1))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_empty_system_is_unit_poly():
    system = biorthogonal_poly(lambda x, t: 1.0, (), (-1, 1))
    assert system.poly.coeffs == (1.0,)


def test_single_node_constant_kernel():
    system = biorthogonal_poly(lambda x, t: 1.0, (0.3,), (-1, 1))
    assert np.allclose(system.poly.coeffs, (0.0, 1.0), atol=1e-12)


def test_single_node_exp_kernel():
    # monic x - c with integral of (x - c) dx on (0,1) zero gives c = 1/2
    system = biorthogonal_poly(EXP_ON_UNIT, (0.0,), (0, 1))
    assert np.allclose(system.poly.coeffs, (-0.5, 1.0), atol=1e-12)


def test_two_node_exp_system_closed_form():
    # exact moments: I0(0)=1, I1(0)=1/2, I2(0)=1/3; I0(1)=e-1, I1(1)=1, I2(1)=e-2
    e = math.e
    M = np.array([[1.0, 0.5], [e - 1.0, 1.0]])
    rhs = -np.array([1.0 / 3.0, e - 2.0])
    want = np.linalg.solve(M, rhs)
    system = biorthogonal_poly(EXP_ON_UNIT, (0.0, 1.0), (0, 1))
    assert np.allclose(system.poly.coeffs, (*want, 1.0), atol=1e-10)
    report = zeros_in_interval_check(system)
    assert report.classification is RootLocation.ALL_STRICTLY_INSIDE
    roots = sorted(r.real for r in report.roots)
    assert 0.0 < roots[0] < roots[1] < 1.0


def test_singular_system_detected():
    # columns of the moment matrix coincide for a kernel independent of x
    with pytest.raises(SingularSystemError):
        biorthogonal_poly(lambda x, t: 1.0 + 0.5 * t, (0.2, 0.6), (-1, 1))


def test_orthogonality_residuals_small():
    rng = np.random.default_rng(0)
    kernel = UltraDerivedKernel(0.0)
    for m in (1, 2, 3, 4):
        nodes = np.sort(rng.uniform(-0.9, 0.9, m))
        if m > 1 and np.min(np.diff(nodes)) < 0.05:
            continue
        system = biorthogonal_poly(kernel, nodes, (-1, 1))
        scale = max(1.0, float(np.max(np.abs(system.moment_matrix))))
        assert np.max(np.abs(orthogonality_residuals(system))) <= 1e-8 * scale


def test_uniqueness_up_to_scale():
    # re-solving with a rescaled leading coefficient reproduces the same
    # polynomial after monic normalization
    kernel = EXP_ON_UNIT
    nodes = (-0.5, 0.25, 0.75)
    system = biorthogonal_poly(kernel, nodes, (0, 1))
    mom = moment_matrix(kernel, nodes, (0, 1), 4)
    scale = 4.2
    lower = np.linalg.solve(mom[:, :3], -scale * mom[:, 3])
    rescaled = np.append(lower, scale)
    assert np.allclose(rescaled / scale, system.poly.array, atol=1e-10)


def test_interpolation_property_witness():
    # sign-regular kernels have nonvanishing collocation determinants;
    # tuples too clustered for double precision escalate to extended
    from orthozero import extended

    rng = np.random.default_rng(1)
    kernel = UltraDerivedKernel(0.0)
    policy = extended(256)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        xs = np.sort(rng.uniform(-0.95, 0.95, m))
        ts = np.sort(rng.uniform(-0.95, 0.95, m))
        if m > 1 and (np.min(np.diff(xs)) < 2e-3 or np.min(np.diff(ts)) < 2e-3):
            continue
        matrix = kernel.evaluate(xs[:, None], ts[None, :])
        scale = float(np.prod(np.max(np.abs(matrix), axis=1)))
        det = ssr_minor(kernel, xs, ts)
        if abs(det) <= 1e-11 * scale:
            det = ssr_minor(kernel, xs, ts, policy)
            assert abs(det) > 1e-40 * scale
        else:
            assert abs(det) > 1e-11 * scale
        checked += 1
    assert checked >= 150


def test_zero_theorem_suite():
    # every constructed polynomial for the degree-weighted kernel has m
    # distinct real zeros strictly inside the interval
    rng = np.random.default_rng(2)
    kernel = UltraDerivedKernel(0.0)
    built = 0
    while built < 100:
        m = int(rng.integers(1, 6))
        nodes = np.sort(rng.uniform(-0.99, 0.99, m))
        if m > 1 and np.min(np.diff(nodes)) < 0.02:
            continue
        system = biorthogonal_poly(kernel, nodes, (-1, 1))
        report = zeros_in_interval_check(system)
        assert report.classification is RootLocation.ALL_STRICTLY_INSIDE
        reals = sorted(r.real for r in report.roots)
        assert all(b - a > 1e-9 for a, b in zip(reals, reals[1:]))
        built += 1


# ---------------------------------------------------------------------------
# equivalence with the factorial-scaled transform
# ---------------------------------------------------------------------------

def test_equivalence_degree_one():
    assert transform_equivalence_check(Poly((0.0, 1.0)), 0.0) <= 1e-6


def test_equivalence_quadratic_closed_form():
    # the transform sends x^2 - 1/4 to 3/2 x^2 - 3/4, i.e. monic x^2 - 1/2
    f = Poly((-0.25, 0.0, 1.0))
    out = transform_equivalence_check(f, 0.0)
    assert out <= 1e-6
    from orthozero import legendre_transform

    monic = legendre_transform(f).array / legendre_transform(f).coeffs[-1]
    assert np.allclose(monic, (-0.5, 0.0, 1.0), atol=1e-14)


def test_equivalence_constant_is_trivial():
    assert transform_equivalence_check(Poly((5.0,)), 1.0) == 0.0


def test_equivalence_random_sweep():
    rng = np.random.default_rng(3)
    for alpha in (0.0, 1.0):
        done = 0
        while done < 15:
            n = int(rng.integers(1, 7))
            roots = np.sort(rng.uniform(-0.95, 0.95, n))
            if n > 1 and np.min(np.diff(roots)) < 0.05:
                continue
            f = Poly(tuple(np.poly(roots)[::-1]), tau_trim=0.0)
            assert transform_equivalence_check(f, alpha) <= 1e-6
            done += 1


def test_equivalence_rejects_complex_roots():
    with pytest.raises(BadNodesError):
        transform_equivalence_check(Poly((1.0, 0.0, 1.0)), 0.0)


def test_equivalence_rejects_outside_roots():
    with pytest.raises(BadNodesError):
        transform_equivalence_check(Poly((-4.0, 0.0, 1.0)), 0.0)


def test_equivalence_rejects_alpha_minus_half():
    # the prefactor 2a+1 zeroes every moment, so the system has no solution
    f = Poly(tuple(np.poly([-0.5, 0.1, 0.3])[::-1]), tau_trim=0.0)
    with pytest.raises(BadParameterError, match="prefactor 2a\\+1 vanish"):
        transform_equivalence_check(f, -0.5)
