"""Jacobi / ultraspherical / Legendre polynomial construction, the
generating-function Taylor oracles that pin them down, orthogonality
constants, and Gauss quadrature on the Jacobi weight.

Two independent routes exist on purpose: polycore's one integer statement
of the three-term recurrence builds the polynomials (jacobi_poly is its
exact row n, each coefficient rounded once) and the Gauss rules (through
jacobi_matrix), while the generating functions' Taylor series, which read
no recurrence coefficient, provide the correctness witness the tests check
against. The series come from signreg's kernel formulas, the ones the ssr
scans evaluate, run on truncated power series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParameterError
from .polycore import (
    Poly,
    check_params,
    jacobi_matrix,
    pochhammer,
    poly_eval,
    series_poly,
)
from .powerseries import Series
from .signreg import _SERIES, JacobiGenKernel, UltraDerivedKernel, UltraGenKernel

MAX_DEGREE = 64
MAX_SERIES_ORDER = 64
MAX_QUAD_DEGREE = 15


class GenFunFamily(str, Enum):
    JACOBI_F = "jacobi_f"        # JacobiGenKernel(a, b)
    ULTRA_G = "ultra_g"          # UltraGenKernel(a + 1/2)
    ULTRA_DERIVED = "ultra_derived"  # UltraDerivedKernel(a)


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
    """Degree-n Jacobi polynomial as a monomial-basis Poly: the series with
    the one weight 1 at degree n, each coefficient rounded once."""
    check_params(alpha=alpha, beta=beta)
    if not 0 <= n <= MAX_DEGREE:
        raise BadParameterError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    return series_poly([0.0] * n + [1.0], (alpha, beta))


# ---------------------------------------------------------------------------
# generating-function Taylor oracles
# ---------------------------------------------------------------------------

def genfun_taylor(spec: GenFunSpec, x: float, order: int) -> np.ndarray:
    """Taylor coefficients in t (at t=0) of the chosen generating function:
    its signreg kernel's formula K(x, t), run on truncated series in t.

    Coefficients are formal; as functions the series converge for
    |x| < 1, |t| < 1. Coefficient k of ULTRA_G equals
    (1+2a)_k / (1+a)_k times the degree-k ultraspherical polynomial at x.
    """
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise BadParameterError(f"order must be in [0, {MAX_SERIES_ORDER}], got {order}")
    if spec.family is GenFunFamily.ULTRA_G:
        kernel = UltraGenKernel(beta=spec.alpha + 0.5)
    elif spec.family is GenFunFamily.ULTRA_DERIVED:
        kernel = UltraDerivedKernel(spec.alpha)
    else:
        kernel = JacobiGenKernel(spec.alpha, spec.beta)
    return kernel.formula(float(x), Series.variable(order), _SERIES).coef


def ultra_derived_taylor(x: float, alpha: float, order: int) -> np.ndarray:
    """Taylor coefficients of (2a+1)(1-t^2)(1-2xt+t^2)^(-a-3/2)."""
    return genfun_taylor(GenFunSpec(GenFunFamily.ULTRA_DERIVED, alpha), x, order)


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
    log_h = ((1.0 + alpha + beta) * math.log(2.0) + math.lgamma(1.0 + alpha + n)
             + math.lgamma(1.0 + beta + n))
    if n == 0:
        log_h -= math.lgamma(2.0 + alpha + beta)
    else:
        log_h = (log_h - math.log(2.0 * n + 1.0 + alpha + beta) - math.lgamma(n + 1.0)
                 - math.lgamma(1.0 + alpha + beta + n))
    h = math.exp(log_h)
    if not h > 0:
        raise BadParameterError(f"orthogonality constant came out nonpositive: {h}")
    return OrthoConstant(n=n, alpha=alpha, beta=beta, h=h)


def gauss_jacobi_rule(nodes: int, alpha: float, beta: float):
    """Gauss nodes and weights for (1-x)^a (1+x)^b on (-1, 1).

    Golub-Welsch on polycore.jacobi_matrix made symmetric (off-diagonal
    sqrt(M[k, k-1] M[k-1, k])): the weights are the weight's mass h_0 times
    the squared first eigenvector components. Exact for polynomials of degree
    2*nodes - 1. The matrix is solved dense, at O(nodes^3) cost: meant for
    small rules such as quad_inner_product's, which needs at most
    2*MAX_QUAD_DEGREE + 4 nodes.
    """
    if nodes < 1:
        raise BadParameterError("need at least one quadrature node")
    mass = ortho_constant(0, alpha, beta).h
    m, _ = jacobi_matrix(nodes, alpha, beta)
    off = np.sqrt(np.diag(m, -1) * np.diag(m, 1))
    vals, vecs = np.linalg.eigh(np.diag(np.diag(m)) + np.diag(off, 1) + np.diag(off, -1))
    return vals, mass * vecs[0, :] ** 2


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
    h_a = math.exp((1.0 + alpha) * math.log(2.0) + 2.0 * math.lgamma(1.0 + alpha + n)
                   - math.lgamma(n + 1.0) - math.log(2.0 * n + 2.0 * alpha + 1.0)
                   - math.lgamma(1.0 + 2.0 * alpha + 2.0 * n))
    dev_2a = abs(val - h_2a) / abs(val)
    dev_a = abs(val - h_a) / abs(val)
    resolved = "2^(1+2a)" if dev_2a < dev_a else "2^(1+a)"
    return {"quad": val, "dev_2pow_1_2a": dev_2a, "dev_2pow_1_a": dev_a,
            "resolved": resolved}
