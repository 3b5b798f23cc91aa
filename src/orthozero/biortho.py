"""Biorthogonal polynomial machinery: parameterized moments, the regularity
determinant, construction of the monic annihilated polynomial, zero-location
checks, and the equivalence between that construction and the scaled
ultraspherical transform.

The biorthogonality measure here is omega(x, t) dx on a bounded interval.
For the equivalence check the measure must carry the family's weight
(1-x^2)^alpha alongside the degree-weighted generating kernel; without it
the moment identity that makes the construction reproduce the transform
only holds at alpha = 0. With the weight, every moment is a polynomial in
the node t whose coefficients come from the Jacobi coefficient rows and the
orthogonality constants (_moment_table), so the check runs no quadrature.
The general moment routes (moment, orthogonality_residuals) integrate
adaptively with scipy, which they import when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    BadNodesError,
    BadParameterError,
    QuadratureError,
    SingularSystemError,
)
from .polycore import (Poly, RootReport, check_params, classify_roots,
                       jacobi_coefficient_rows, monic_from_roots, poly_eval, poly_roots)
from .precision import DOUBLE, PrecisionPolicy
from .signreg import CustomKernel, Domain, UltraDerivedKernel, minor_scale
from .transforms import monic_ultra_image

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
    return float(val)


def _check_nodes(nodes) -> tuple[float, ...]:
    nodes = tuple(float(t) for t in nodes)
    if len(nodes) > MAX_SYSTEM_SIZE:
        raise BadParameterError(f"system size capped at {MAX_SYSTEM_SIZE}")
    if len(set(nodes)) != len(nodes):
        raise BadNodesError(f"nodes must be pairwise distinct, got {nodes}")
    return nodes


def moment_matrix(kernel, nodes, interval, powers: int) -> np.ndarray:
    """Matrix [I_k(t_l)] with rows over nodes and columns k = 0..powers-1."""
    nodes = _check_nodes(nodes)
    out = np.zeros((len(nodes), powers))
    for l, t in enumerate(nodes):
        for k in range(powers):
            out[l, k] = moment(kernel, k, t, interval)
    return out


def regularity_det(kernel, nodes, interval) -> float:
    """Determinant of [I_k(t_l)], k = 0..m-1: nonzero means the weight is
    regular and the biorthogonal polynomial at these nodes is unique."""
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


def biorthogonal_poly(
    kernel,
    nodes,
    interval,
    policy: PrecisionPolicy = DOUBLE,
    moments: np.ndarray | None = None,
) -> BiorthogonalSystem:
    """Monic degree-m polynomial with zero integral against omega(., t_l)
    for every node t_l.

    moments may supply a precomputed m x (m+1) matrix [I_k(t_l)]; otherwise
    the adaptive quadrature route fills it in.
    """
    nodes = _check_nodes(nodes)
    m = len(nodes)
    interval = (float(interval[0]), float(interval[1]))
    if m == 0:
        return BiorthogonalSystem(
            nodes=nodes, kernel=kernel, interval=interval,
            moment_matrix=np.zeros((0, 0)), poly=Poly((1.0,)),
        )
    if moments is None:
        moments = moment_matrix(kernel, nodes, interval, m + 1)
    moments = np.asarray(moments, float)
    if moments.shape != (m, m + 1):
        raise BadParameterError(f"moment matrix must be {m}x{m + 1}")
    square = moments[:, :m]
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(square) if m > 1 else square[0, 0]
        scale = minor_scale(square)
    if not (np.isfinite(moments).all() and np.isfinite(det) and np.isfinite(scale)):
        raise SingularSystemError(
            f"the moments overflowed the double range at nodes {nodes}: the moment "
            f"matrix or its regularity determinant is not finite")
    if abs(det) <= policy.tau_det * max(scale, 1e-300):
        raise SingularSystemError(
            f"regularity determinant {det:g} below threshold at nodes {nodes}"
        )
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
    policy: PrecisionPolicy = DOUBLE,
) -> RootReport:
    """Classify the constructed polynomial's roots against the interval.

    For a sign-regular kernel weight (callers record scan evidence, the
    check does not re-prove it) the expected outcome is strictly-inside
    with pairwise distinct real roots.
    """
    if system.poly.degree == 0:
        return classify_roots((), system.interval, tol or policy.tau_root)
    roots = poly_roots(system.poly, policy)
    return classify_roots(roots, system.interval, tol or policy.tau_root)


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
def _moment_table(alpha: float) -> np.ndarray:
    """Entry (j, k) is the coefficient of t^k in mu_j(t) / h_0, where
    mu_j(t) is the integral of x^j (1-x^2)^alpha K(x, t) over (-1, 1), K is
    the degree-weighted kernel and h_0 the weight's mass; j, k run through
    0..MAX_SYSTEM_SIZE.

    K(x, t) = sum_k d_k P_k(x) t^k with P_k = P_k^(alpha,alpha) and d_k from
    _kernel_coefficient. Write x^j = sum_{k<=j} c_{j,k} P_k(x); P_k is
    orthogonal to every power below k, so only k <= j survive and
    mu_j(t) = sum_{k<=j} d_k c_{j,k} h_k t^k. The c_{j,k} invert the
    triangular jacobi_coefficient_rows. A double alpha is a binary rational,
    so every entry is an exact rational rounded once. The positive factor
    h_0 is left out: it moves neither the solution of the monic system nor
    its scale-free regularity test, and taking h_k from the log-gamma form
    loses its digits to cancellation at large alpha.
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
    table = np.zeros((size, size))
    for k in range(size):
        weight = _kernel_coefficient(k, a) * _norm_ratio(k, a)
        for j in range(k, size):
            value = weight * c[j, k]
            try:
                table[j, k] = float(value)
            except OverflowError:  # biorthogonal_poly reports the non-finite moments
                table[j, k] = math.inf if value > 0 else -math.inf
    table.flags.writeable = False  # the cache hands this one array to every caller
    return table


EQUIV_ALPHA_HALF = ("alpha = -1/2 makes the degree-weighted kernel's prefactor "
                    "2a+1 vanish, so the equivalence check is undefined there")


def transform_equivalence_check(
    nodes,
    alpha: float,
    policy: PrecisionPolicy = DOUBLE,
) -> float:
    """Max coefficient deviation between the monic-normalized scaled
    ultraspherical transform of f = prod (x - t_l) and the monic
    biorthogonal polynomial built from the degree-weighted generating kernel
    (with the family weight) at the nodes t_l.

    Requires at most MAX_SYSTEM_SIZE nodes, pairwise more than
    policy.tau_root apart and strictly inside (-1, 1), and alpha != -1/2:
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
    if any(b - a <= policy.tau_root for a, b in zip(nodes, nodes[1:])):
        raise BadNodesError("nodes must be pairwise distinct")
    f = Poly(tuple(monic_from_roots(nodes)), tau_trim=0.0)

    powers = np.asarray(nodes)[:, None] ** np.arange(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        moments = powers @ _moment_table(alpha)[: n + 1, : n + 1].T
    derived = UltraDerivedKernel(alpha)
    kernel = CustomKernel(
        fn=lambda x, t: (1.0 - np.asarray(x, float) ** 2) ** alpha * derived.evaluate(x, t),
        domain=Domain((-1.0, 1.0), (-1.0, 1.0)),
        label=f"weighted_ultra_derived(alpha={alpha:g})",
    )
    system = biorthogonal_poly(kernel, nodes, (-1.0, 1.0), policy, moments=moments)

    monic = monic_ultra_image(f, alpha)
    built = system.poly.array
    return float(np.max(np.abs(monic - built)) / max(1.0, np.max(np.abs(built))))
