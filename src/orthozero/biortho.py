"""Biorthogonal polynomial machinery: parameterized moments, the regularity
determinant, construction of the monic annihilated polynomial, zero-location
checks, and the equivalence between that construction and the scaled
ultraspherical transform.

The biorthogonality measure here is omega(x, t) dx on a bounded interval.
For the equivalence check the measure must carry the family's weight
(1-x^2)^alpha alongside the degree-weighted generating kernel; without it
the moment identity that makes the construction reproduce the transform
only holds at alpha = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import (
    BadNodesError,
    BadParameterError,
    QuadratureError,
    SingularSystemError,
)
from .orthopoly import gauss_jacobi_rule
from .polycore import (Poly, RootReport, basis_to_monomial, check_params, classify_roots,
                       poly_eval, poly_roots)
from .precision import DOUBLE, PrecisionPolicy
from .signreg import CustomKernel, Domain, UltraDerivedKernel, minor_scale
from .transforms import ultra_transform

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
    det = np.linalg.det(square) if m > 1 else square[0, 0]
    if abs(det) <= policy.tau_det * max(minor_scale(square), 1e-300):
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

@lru_cache(maxsize=64)
def _cached_gauss_rule(alpha: float, count: int):
    return gauss_jacobi_rule(count, alpha, alpha)


def _weighted_moment_block(nodes, alpha: float, powers: int, count: int) -> np.ndarray:
    """[integral of x^k (1-x^2)^alpha K(x, t_l) dx] via the weighted Gauss rule."""
    x, w = _cached_gauss_rule(alpha, count)
    kernel = UltraDerivedKernel(alpha)
    xpow = x[None, :] ** np.arange(powers)[:, None]
    out = np.zeros((len(nodes), powers))
    for l, t in enumerate(nodes):
        kv = kernel.evaluate(x, t) * w
        out[l, :] = xpow @ kv
    return out


def _weighted_moments(nodes, alpha: float, powers: int) -> np.ndarray:
    """Node-doubled weighted quadrature with convergence control.

    Nodes close to the ends of (-1, 1) pull the kernel's branch point toward
    the interval, so the rule size escalates until successive refinements
    agree to 1e-9 relative.
    """
    count = 400
    prev = _weighted_moment_block(nodes, alpha, powers, count)
    while count <= 3200:
        count *= 2
        cur = _weighted_moment_block(nodes, alpha, powers, count)
        if np.max(np.abs(cur - prev) / (1.0 + np.abs(cur))) <= 1e-9:
            return cur
        prev = cur
    raise QuadratureError("weighted moment quadrature failed to converge")


EQUIV_ALPHA_HALF = ("alpha = -1/2 makes the degree-weighted kernel's prefactor "
                    "2a+1 vanish, so the equivalence check is undefined there")


def transform_equivalence_check(
    f: Poly,
    alpha: float,
    policy: PrecisionPolicy = DOUBLE,
) -> float:
    """Max coefficient deviation between the monic-normalized scaled
    ultraspherical transform of f and the monic biorthogonal polynomial
    built from the degree-weighted generating kernel (with the family
    weight) at nodes equal to f's roots.

    Requires f to have distinct real roots strictly inside (-1, 1), and
    alpha != -1/2: there the kernel's prefactor 2a+1 vanishes, so every
    moment is zero and the system has no solution.
    """
    check_params(alpha=alpha)
    if alpha == -0.5:
        raise BadParameterError(EQUIV_ALPHA_HALF)
    f = basis_to_monomial(f)
    n = f.degree
    if n == 0:
        return 0.0
    if n > MAX_SYSTEM_SIZE:
        raise BadParameterError(f"degree capped at {MAX_SYSTEM_SIZE}")
    roots = poly_roots(f, policy)
    if any(abs(r.imag) > policy.tau_root for r in roots):
        raise BadNodesError("input must have only real roots")
    nodes = tuple(sorted(r.real for r in roots))
    if nodes[0] <= -1.0 or nodes[-1] >= 1.0:
        raise BadNodesError("input roots must lie inside (-1, 1)")
    if any(b - a <= policy.tau_root for a, b in zip(nodes, nodes[1:])):
        raise BadNodesError("input roots must be pairwise distinct")

    moments = _weighted_moments(nodes, alpha, n + 1)
    derived = UltraDerivedKernel(alpha)
    kernel = CustomKernel(
        fn=lambda x, t: (1.0 - np.asarray(x, float) ** 2) ** alpha * derived.evaluate(x, t),
        domain=Domain((-1.0, 1.0), (-1.0, 1.0)),
        label=f"weighted_ultra_derived(alpha={alpha:g})",
    )
    system = biorthogonal_poly(kernel, nodes, (-1.0, 1.0), policy, moments=moments)

    transformed = ultra_transform(f, alpha)
    monic = transformed.array / transformed.coeffs[-1]
    built = system.poly.array
    width = max(len(monic), len(built))
    monic = np.pad(monic, (0, width - len(monic)))
    built = np.pad(built, (0, width - len(built)))
    return float(np.max(np.abs(monic - built)) / max(1.0, np.max(np.abs(built))))
