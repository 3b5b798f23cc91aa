"""Jacobi / ultraspherical / Legendre polynomial construction, the
generating-function Taylor oracles that pin them down, orthogonality
constants, and Gauss quadrature on the Jacobi weight.

Two independent routes exist on purpose: the three-term recurrence builds
the polynomials, while truncated-series expansion of the generating
functions provides the correctness witness the tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from . import powerseries as ps
from .errors import BadParameterError
from .polycore import (
    MONOMIAL,
    Poly,
    check_params,
    jacobi_coefficient_rows,
    poly_eval,
    pochhammer,
)

MAX_DEGREE = 64
MAX_SERIES_ORDER = 64
MAX_QUAD_DEGREE = 15


class GenFunFamily(str, Enum):
    JACOBI_F = "jacobi_f"        # 2^(a+b) / (rho (1+t+rho)^b (1-t+rho)^a)
    ULTRA_G = "ultra_g"          # (1 - 2xt + t^2)^(-a-1/2)
    ULTRA_DERIVED = "ultra_derived"  # (2a+1)(1-t^2) (1 - 2xt + t^2)^(-a-3/2)


@dataclass(frozen=True)
class GenFunSpec:
    """Which generating function to expand; beta is used by JACOBI_F only."""

    family: GenFunFamily
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        check_params(alpha=self.alpha)
        if self.family is GenFunFamily.JACOBI_F:
            check_params(beta=self.beta)


@dataclass(frozen=True)
class OrthoConstant:
    """Diagonal value h of the weighted Jacobi orthogonality relation."""

    n: int
    alpha: float
    beta: float
    h: float


# ---------------------------------------------------------------------------
# polynomial construction
# ---------------------------------------------------------------------------

def jacobi_poly(n: int, alpha: float, beta: float) -> Poly:
    """Degree-n Jacobi polynomial as a monomial-basis Poly."""
    check_params(alpha=alpha, beta=beta)
    if not 0 <= n <= MAX_DEGREE:
        raise BadParameterError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    rows = jacobi_coefficient_rows(n, alpha, beta)
    return Poly(tuple(rows[n, : n + 1]), MONOMIAL, tau_trim=0.0)


# ---------------------------------------------------------------------------
# generating-function Taylor oracles
# ---------------------------------------------------------------------------

def _quadratic_series(x: float) -> np.ndarray:
    return np.array([1.0, -2.0 * x, 1.0])


def genfun_taylor(spec: GenFunSpec, x: float, order: int) -> np.ndarray:
    """Taylor coefficients in t (at t=0) of the chosen generating function.

    Coefficients are formal; as functions the series converge for
    |x| < 1, |t| < 1. Coefficient k of ULTRA_G equals
    (1+2a)_k / (1+a)_k times the degree-k ultraspherical polynomial at x.
    """
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise BadParameterError(f"order must be in [0, {MAX_SERIES_ORDER}], got {order}")
    q = _quadratic_series(x)
    if spec.family is GenFunFamily.ULTRA_G:
        return ps.power(q, -spec.alpha - 0.5, order)
    if spec.family is GenFunFamily.ULTRA_DERIVED:
        return ultra_derived_taylor(x, spec.alpha, order)
    rho = ps.power(q, 0.5, order)
    plus = rho + ps.pad([1.0, 1.0], order)  # 1 + t + rho
    minus = rho + ps.pad([1.0, -1.0], order)  # 1 - t + rho
    denom = ps.mul(rho, ps.mul(ps.power(plus, spec.beta, order),
                               ps.power(minus, spec.alpha, order), order), order)
    return 2.0 ** (spec.alpha + spec.beta) * ps.reciprocal(denom, order)


def ultra_derived_taylor(x: float, alpha: float, order: int) -> np.ndarray:
    """Taylor coefficients of (2a+1)(1-t^2)(1-2xt+t^2)^(-a-3/2)."""
    check_params(alpha=alpha)
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise BadParameterError(f"order must be in [0, {MAX_SERIES_ORDER}], got {order}")
    core = ps.power(_quadratic_series(x), -alpha - 1.5, order)
    onemt2 = ps.pad([1.0, 0.0, -1.0], order)
    return (2.0 * alpha + 1.0) * ps.mul(onemt2, core, order)


# ---------------------------------------------------------------------------
# orthogonality constants and quadrature
# ---------------------------------------------------------------------------

def ortho_constant(n: int, alpha: float, beta: float) -> OrthoConstant:
    """Diagonal constant of the weighted orthogonality relation.

    h = 2^(1+a+b) Gamma(1+a+n) Gamma(1+b+n)
        / ((2n+1+a+b) n! Gamma(1+a+b+n)),
    evaluated in the log domain. At n = 0 the factor (1+a+b) Gamma(1+a+b)
    is Gamma(2+a+b), which stays finite where 1+a+b vanishes (a + b = -1,
    e.g. a = b = -1/2) and positive where it is negative; for n >= 1 every
    argument is positive.
    """
    check_params(alpha=alpha, beta=beta)
    if n < 0:
        raise BadParameterError("degree must be nonnegative")
    log_h = ((1.0 + alpha + beta) * math.log(2.0) + gammaln(1.0 + alpha + n)
             + gammaln(1.0 + beta + n))
    if n == 0:
        log_h -= gammaln(2.0 + alpha + beta)
    else:
        log_h = (log_h - math.log(2.0 * n + 1.0 + alpha + beta) - gammaln(n + 1.0)
                 - gammaln(1.0 + alpha + beta + n))
    h = math.exp(log_h)
    if not h > 0:
        raise BadParameterError(f"orthogonality constant came out nonpositive: {h}")
    return OrthoConstant(n=n, alpha=alpha, beta=beta, h=h)


def jacobi_weight_recurrence(count: int, alpha: float, beta: float):
    """Monic recurrence coefficients (a_k, b_k) for the weight (1-x)^a (1+x)^b.

    Returns arrays of length count; b[0] holds the weight's total mass.
    """
    check_params(alpha=alpha, beta=beta)
    a = np.zeros(count)
    b = np.zeros(count)
    s = alpha + beta
    a[0] = (beta - alpha) / (s + 2.0)
    b[0] = math.exp((s + 1.0) * math.log(2.0) + gammaln(alpha + 1.0)
                    + gammaln(beta + 1.0) - gammaln(s + 2.0))
    for k in range(1, count):
        den = 2.0 * k + s
        a[k] = (beta * beta - alpha * alpha) / (den * (den + 2.0))
        if k == 1:
            b[k] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
        else:
            b[k] = (4.0 * k * (k + alpha) * (k + beta) * (k + s)
                    / (den ** 2 * (den + 1.0) * (den - 1.0)))
    return a, b


def gauss_jacobi_rule(nodes: int, alpha: float, beta: float):
    """Gauss nodes and weights for (1-x)^a (1+x)^b on (-1, 1).

    Golub-Welsch: eigen-decomposition of the symmetric tridiagonal matrix
    built from the weight's recurrence coefficients. Exact for polynomials
    of degree 2*nodes - 1.
    """
    if nodes < 1:
        raise BadParameterError("need at least one quadrature node")
    a, b = jacobi_weight_recurrence(nodes, alpha, beta)
    if nodes == 1:
        return a[:1].copy(), b[:1].copy()
    vals, vecs = eigh_tridiagonal(a, np.sqrt(b[1:]))
    weights = b[0] * vecs[0, :] ** 2
    return vals, weights


def quad_inner_product(n: int, m: int, alpha: float, beta: float) -> float:
    """Weighted inner product of the degree-n and degree-m Jacobi polynomials.

    Uses a Gauss rule with n+m+4 nodes, which integrates the degree n+m
    integrand exactly up to roundoff.
    """
    check_params(alpha=alpha, beta=beta)
    if not (0 <= n <= MAX_QUAD_DEGREE and 0 <= m <= MAX_QUAD_DEGREE):
        raise BadParameterError(f"quad degrees capped at {MAX_QUAD_DEGREE}")
    x, w = gauss_jacobi_rule(n + m + 4, alpha, beta)
    pn = jacobi_poly(n, alpha, beta)
    pm = pn if m == n else jacobi_poly(m, alpha, beta)
    vn = np.array([poly_eval(pn, xi) for xi in x])
    vm = vn if m == n else np.array([poly_eval(pm, xi) for xi in x])
    return float(np.dot(w, vn * vm))


# ---------------------------------------------------------------------------
# resolutions of the two ambiguous printed forms
# ---------------------------------------------------------------------------

def resolve_ultra_derived_factor(alpha: float, xs=None, degree: int = 10) -> dict:
    """Decide the per-degree factor in the expansion of the derived
    generating function: candidates are 2k+2a+1 and 2k+a+1.

    Compares ultra_derived_taylor against factor * (1+2a)_k/(1+a)_k * P_k(x) built from
    the recurrence. Returns max absolute deviations and the resolved form
    (the candidates coincide at a = 0, so resolve with a != 0).
    """
    if xs is None:
        xs = (-0.73, -0.21, 0.37, 0.82)
    dev_2a = 0.0
    dev_a = 0.0
    for x in xs:
        co = ultra_derived_taylor(x, alpha, degree)
        for k in range(degree + 1):
            pref = pochhammer(1.0 + 2.0 * alpha, k) / pochhammer(1.0 + alpha, k)
            pk = poly_eval(jacobi_poly(k, alpha, alpha), x)
            dev_2a = max(dev_2a, abs(co[k] - (2 * k + 2 * alpha + 1) * pref * pk))
            dev_a = max(dev_a, abs(co[k] - (2 * k + alpha + 1) * pref * pk))
    resolved = "2k+2a+1" if dev_2a < dev_a else "2k+a+1"
    return {"dev_2k_2a_1": dev_2a, "dev_2k_a_1": dev_a, "resolved": resolved}


def resolve_diag_constant(n: int, alpha: float) -> dict:
    """Decide the diagonal constant at beta = alpha by quadrature.

    Candidates: the 2^(1+2a) form (the general relation specialized) and a
    variant printed with 2^(1+a) and Gamma(1+2a+2n). Returns relative
    deviations of each from the quadrature value and the resolved form.
    """
    val = quad_inner_product(n, n, alpha, alpha)
    h_2a = ortho_constant(n, alpha, alpha).h
    h_a = math.exp((1.0 + alpha) * math.log(2.0) + 2.0 * gammaln(1.0 + alpha + n)
                   - gammaln(n + 1.0) - math.log(2.0 * n + 2.0 * alpha + 1.0)
                   - gammaln(1.0 + 2.0 * alpha + 2.0 * n))
    dev_2a = abs(val - h_2a) / abs(val)
    dev_a = abs(val - h_a) / abs(val)
    resolved = "2^(1+2a)" if dev_2a < dev_a else "2^(1+a)"
    return {"quad": val, "dev_2pow_1_2a": dev_2a, "dev_2pow_1_a": dev_a,
            "resolved": resolved}
