"""Biorthogonal polynomial machinery: parameterized moments, the regularity
determinant, construction of the monic annihilated polynomial, zero-location
checks, and the equivalence between that construction and the scaled
ultraspherical transform.

The biorthogonality measure here is omega(x, t) dx on a bounded interval.
For the equivalence check the measure must carry the family's weight
(1-x^2)^alpha alongside the degree-weighted generating kernel; without it
the moment identity that makes the construction reproduce the transform
only holds at alpha = 0. With the weight, every moment is a polynomial in
the node t whose coefficients are exact rationals from the Jacobi
coefficient rows and the orthogonality constants (_moment_table). The check
asks, in integers, whether the exact image of prod (x - t_l) is annihilated
by every node's measure; it solves no system and runs no quadrature. The
general routes (moment, biorthogonal_poly, orthogonality_residuals) work in
double and integrate adaptively with scipy, which they import when called.
biorthogonal_poly decides regularity by an enclosure of the moment
determinant (orthozero.enclosure) with quad's error estimates as radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .enclosure import _scaled_lu_enclose
from .errors import (
    BadNodesError,
    BadParameterError,
    QuadratureError,
    SingularSystemError,
)
from .polycore import (Poly, RootReport, check_params, dyadic_numerators, integer_poly,
                       jacobi_coefficient_rows, jacobi_rows_int, poly_eval, root_report)
from .precision import DEFAULT_TAU_ROOT
from .transforms import exact_image, ultra_row_scale

MAX_MOMENT_POWER = 30
MAX_SYSTEM_SIZE = 8


def _as_kernel_fn(kernel):
    if hasattr(kernel, "evaluate"):
        return lambda x, t: float(kernel.evaluate(x, t))
    if callable(kernel):
        return kernel
    raise BadParameterError(f"kernel must be a kernel spec or callable, got {kernel!r}")


# ---------------------------------------------------------------------------
# moments and regularity
# ---------------------------------------------------------------------------

def moment(kernel, k: int, t: float, interval) -> float:
    """Integral of x^k omega(x, t) over the interval, by adaptive quadrature.

    The absolute error estimate must meet 1e-10 * (1 + |value|); otherwise
    QuadratureError is raised.
    """
    return _moment_estimate(kernel, k, t, interval)[0]


def _moment_estimate(kernel, k: int, t: float, interval) -> tuple[float, float]:
    """moment, and quad's abserr: an estimate of its absolute error from the
    difference of a Gauss and a Kronrod rule, not a bound."""
    if not 0 <= k <= MAX_MOMENT_POWER:
        raise BadParameterError(f"moment power capped at {MAX_MOMENT_POWER}")
    from scipy.integrate import quad  # library-only route; scipy stays off the CLI's imports

    fn = _as_kernel_fn(kernel)
    a, b = float(interval[0]), float(interval[1])
    result = quad(lambda x: x ** k * fn(x, t), a, b,
                  epsabs=1e-12, epsrel=1e-12, limit=300, full_output=1)
    val, err = result[0], result[1]
    if err > 1e-10 * (1.0 + abs(val)):
        raise QuadratureError(
            f"moment k={k}, t={t}: error estimate {err:g} misses target"
        )
    return float(val), float(err)


def _check_nodes(nodes) -> tuple[float, ...]:
    nodes = tuple(float(t) for t in nodes)
    if len(nodes) > MAX_SYSTEM_SIZE:
        raise BadParameterError(f"system size capped at {MAX_SYSTEM_SIZE}")
    if len(set(nodes)) != len(nodes):
        raise BadNodesError(f"nodes must be pairwise distinct, got {nodes}")
    return nodes


def moment_matrix(kernel, nodes, interval, powers: int) -> np.ndarray:
    """Matrix [I_k(t_l)] with rows over nodes and columns k = 0..powers-1."""
    return _moment_estimates(kernel, nodes, interval, powers)[0]


def _moment_estimates(kernel, nodes, interval, powers: int) -> tuple[np.ndarray, np.ndarray]:
    """moment_matrix, and the matrix of quad's abserr estimates of its
    entries' errors (_moment_estimate)."""
    nodes = _check_nodes(nodes)
    out = np.zeros((2, len(nodes), powers))
    for l, t in enumerate(nodes):
        for k in range(powers):
            out[:, l, k] = _moment_estimate(kernel, k, t, interval)
    return out[0], out[1]


def regularity_det(kernel, nodes, interval) -> float:
    """Determinant of [I_k(t_l)], k = 0..m-1, in double: np.linalg.det of the
    moment matrix, which may underflow to 0 or overflow to inf for a
    regular system (2^-700 e^(xt) and 2^700 e^(xt) at nodes (0, 1) on
    (0, 1) give 0.0 and inf), so it decides nothing. biorthogonal_poly
    decides regularity by an enclosure of this determinant."""
    nodes = _check_nodes(nodes)
    m = len(nodes)
    if m == 0:
        return 1.0
    return float(np.linalg.det(moment_matrix(kernel, nodes, interval, m)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Nodes, kernel weight, interval, the moment matrix used, and the
    constructed monic polynomial annihilated by every node's measure."""

    nodes: tuple[float, ...]
    kernel: object
    interval: tuple[float, float]
    moment_matrix: np.ndarray
    poly: Poly


def biorthogonal_poly(kernel, nodes, interval) -> BiorthogonalSystem:
    """Monic degree-m polynomial with zero integral against omega(., t_l)
    for every node t_l, from the moment matrix [I_k(t_l)] by adaptive
    quadrature.

    The system is regular when det [I_k(t_l)], k < m, is not 0, as decided
    by the stage-1 enclosure of orthozero.enclosure with the moments as
    midpoints and quad's abserr estimates, which are not bounds, as radii.
    SingularSystemError is raised where the enclosure contains 0 or a moment
    is not finite.
    """
    nodes = _check_nodes(nodes)
    m = len(nodes)
    interval = (float(interval[0]), float(interval[1]))
    if m == 0:
        return BiorthogonalSystem(
            nodes=nodes, kernel=kernel, interval=interval,
            moment_matrix=np.zeros((0, 0)), poly=Poly((1.0,)),
        )
    moments, errors = _moment_estimates(kernel, nodes, interval, m + 1)
    if not np.isfinite(moments).all():
        raise SingularSystemError(f"the moments overflowed the double range at nodes {nodes}")
    square = moments[:, :m]
    with np.errstate(all="ignore"):
        (sign,), *_ = _scaled_lu_enclose(square[None], errors[None, :, :m])
    if not sign:
        raise SingularSystemError(f"the regularity determinant's enclosure holds 0 at nodes {nodes}")
    lower = np.linalg.solve(square, -moments[:, m])
    poly = Poly(tuple(lower) + (1.0,))
    return BiorthogonalSystem(
        nodes=nodes, kernel=kernel, interval=interval,
        moment_matrix=square, poly=poly,
    )


def orthogonality_residuals(system: BiorthogonalSystem) -> np.ndarray:
    """Fresh quadrature of p(x) omega(x, t_l) for each node (independent of
    the moment matrix the construction consumed)."""
    from scipy.integrate import quad

    fn = _as_kernel_fn(system.kernel)
    a, b = system.interval
    out = np.zeros(len(system.nodes))
    for l, t in enumerate(system.nodes):
        val = quad(lambda x: poly_eval(system.poly, x) * fn(x, t), a, b,
                   epsabs=1e-12, epsrel=1e-12, limit=300, full_output=1)[0]
        out[l] = val
    return out


def zeros_in_interval_check(
    system: BiorthogonalSystem,
    tol: float | None = None,
) -> RootReport:
    """Classify the constructed polynomial's roots against the interval,
    exactly: root_report on its double coefficients taken as the binary
    rationals they are (integer_poly), which is polycore.verdicts on
    system.interval with every root read (the sign certificate, and Sturm
    counts where it fails). tol defaults to DEFAULT_TAU_ROOT.

    For a sign-regular kernel weight (callers record scan evidence, the
    check does not re-prove it) the expected outcome is strictly-inside
    with pairwise distinct real roots.
    """
    tol = tol if tol is not None else DEFAULT_TAU_ROOT
    return root_report(integer_poly(system.poly), system.interval, tol)


# ---------------------------------------------------------------------------
# equivalence with the scaled ultraspherical transform
# ---------------------------------------------------------------------------

def _kernel_coefficient(k: int, a: Fraction) -> Fraction:
    """(2k+2a+1) (1+2a)_k / (1+a)_k: the coefficient of P_k^(a,a)(x) t^k in
    the degree-weighted kernel (orthopoly.resolve_ultra_derived_factor)."""
    out = 2 * k + 2 * a + 1
    for i in range(k):
        out *= (1 + 2 * a + i) / (1 + a + i)
    return out


def _norm_ratio(k: int, a: Fraction) -> Fraction:
    """h_k / h_0 = (1+a)_k^2 (2a+1) / ((2k+2a+1) k! (1+2a)_k), the ratio of
    the squared weighted norms of P_k^(a,a) and P_0 (orthopoly.ortho_constant)."""
    out = (2 * a + 1) / (2 * k + 2 * a + 1)
    for i in range(k):
        out *= (1 + a + i) ** 2 / ((i + 1) * (1 + 2 * a + i))
    return out


@lru_cache(maxsize=64)
def _moment_table(alpha: float) -> tuple[tuple[Fraction, ...], ...]:
    """Entry (j, k) is the coefficient of t^k in mu_j(t) / h_0, where
    mu_j(t) is the integral of x^j (1-x^2)^alpha K(x, t) over (-1, 1), K is
    the degree-weighted kernel and h_0 the weight's mass; j, k run through
    0..MAX_SYSTEM_SIZE.

    K(x, t) = sum_k d_k P_k(x) t^k with P_k = P_k^(alpha,alpha) and d_k from
    _kernel_coefficient. Write x^j = sum_{k<=j} c_{j,k} P_k(x); P_k is
    orthogonal to every power below k, so only k <= j survive and
    mu_j(t) = sum_{k<=j} d_k c_{j,k} h_k t^k. The c_{j,k} invert the
    triangular jacobi_coefficient_rows. A double alpha is a binary rational,
    so every entry is an exact rational. The positive factor h_0 is left
    out: it moves no moment's sign or zero, and taking h_k from the
    log-gamma form loses its digits to cancellation at large alpha.
    """
    a = Fraction(alpha)
    size = MAX_SYSTEM_SIZE + 1
    rows = jacobi_coefficient_rows(MAX_SYSTEM_SIZE, a, a)  # row k: x^i in P_k
    c = np.zeros((size, size), dtype=object)  # row j: P_k in x^j
    for j in range(size):
        c[j, j] = Fraction(1)
        for i in range(j):
            c[j] -= rows[j, i] * c[i]
        c[j] /= rows[j, j]
    weights = [_kernel_coefficient(k, a) * _norm_ratio(k, a) for k in range(size)]
    return tuple(tuple(weights[k] * c[j, k] if k <= j else Fraction(0) for k in range(size))
                 for j in range(size))


@lru_cache(maxsize=64)
def _equivalence_rows(alpha: float) -> tuple[list[list[int]], list[list[int]]]:
    """The integer rows of the scaled ultraspherical map at alpha
    (jacobi_rows_int with ultra_row_scale), and _moment_table times one
    positive integer that clears its denominators."""
    table = _moment_table(alpha)
    den = math.lcm(*(v.denominator for row in table for v in row))
    return (jacobi_rows_int(MAX_SYSTEM_SIZE, alpha, alpha, ultra_row_scale),
            [[v.numerator * (den // v.denominator) for v in row] for row in table])


EQUIV_ALPHA_HALF = ("alpha = -1/2 makes the degree-weighted kernel's prefactor "
                    "2a+1 vanish, so the equivalence check is undefined there")


def transform_equivalence_check(nodes, alpha: float) -> float:
    """Exact residual of the identity between the scaled ultraspherical
    transform of f = prod (x - t_l) and the monic biorthogonal polynomial
    built from the degree-weighted generating kernel (with the family
    weight) at the nodes t_l: 0.0 exactly when the identity holds.

    The image g of f is taken in integers (exact_image), a positive
    multiple of the true one. Its moment against node t's measure is h_0
    q(t), with q_k = sum_j g_j T[j][k] and T = _moment_table(alpha). For
    alpha > -1, alpha != -1/2, and distinct nodes, the square moment matrix
    [mu_j(t_l) / h_0], j < n, is V T_n^T: the Vandermonde matrix of the
    nodes times the lower-triangular table, whose diagonal d_k c_kk h_k/h_0
    has no vanishing factor there. So the monic biorthogonal polynomial
    exists and is unique, and g, which has degree n, is a multiple of it
    exactly when q(t_l) = 0 at every node. No determinant is computed and
    no case is indeterminate.

    The residual returned is max_l |q(t_l)| / sum_k |q_k| |t_l|^k, computed
    in integers at the dyadic nodes and rounded once to a double.

    Requires at most MAX_SYSTEM_SIZE nodes, pairwise more than
    DEFAULT_TAU_ROOT apart and strictly inside (-1, 1), and alpha != -1/2:
    there the kernel's prefactor 2a+1 vanishes, so every moment is zero and
    the system has no solution.
    """
    check_params(alpha=alpha)
    if alpha == -0.5:
        raise BadParameterError(EQUIV_ALPHA_HALF)
    nodes = tuple(sorted(_check_nodes(nodes)))
    n = len(nodes)
    if n == 0:
        return 0.0
    if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise BadNodesError("nodes must lie inside (-1, 1)")
    if any(b - a <= DEFAULT_TAU_ROOT for a, b in zip(nodes, nodes[1:])):
        raise BadNodesError("nodes must be pairwise distinct")

    image_rows, table = _equivalence_rows(alpha)
    g = exact_image(nodes, image_rows)
    q = [sum(g[j] * table[j][k] for j in range(k, n + 1)) for k in range(n + 1)]
    nums, shift = dyadic_numerators(nodes)
    worst = Fraction(0)
    for t in nums:  # 2^(shift n) q(t_l), term by term
        terms = [(qk * t ** k) << (shift * (n - k)) for k, qk in enumerate(q)]
        residual = abs(sum(terms))
        if residual:
            worst = max(worst, Fraction(residual, sum(map(abs, terms))))
    return float(worst)
