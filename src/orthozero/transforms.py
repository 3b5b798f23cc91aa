"""Zero-preserving linear maps from monomial coefficients into orthogonal
polynomial expansions.

All transforms return monomial-basis Poly values so downstream root finding
is uniform. An exact integer route serves inputs given by double roots, such
as theorem12's random interior-rooted inputs and the boundary-rooted family
(x-1)^n (x+1)^m, whose images carry roots at exactly +-1 with high
multiplicity that double-precision coefficients cannot represent faithfully
(root scatter grows like eps^(1/multiplicity)). Every double is a binary
rational, so jacobi_rows_int builds integer rows of any (alpha, beta) and
per-degree scale, and exact_image maps a root list through them in Python
ints. Fraction arithmetic stays inside the row construction; non-dyadic
parameters such as 0.3 just bring larger integers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadParameterError, IncompleteSpecError, NonFiniteError
from .orthopoly import ortho_constant
from .polycore import (
    MONOMIAL,
    Basis,
    Monomial,
    Poly,
    Ultraspherical,
    basis_to_monomial,
    check_params,
    dyadic_numerators,
    jacobi_coefficient_rows,
    jacobi_params,
    monic_from_roots,
)


# ---------------------------------------------------------------------------
# transform specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UltraScaled:
    """x^k -> (k! / Gamma(k+1+alpha)) * degree-k ultraspherical polynomial."""

    alpha: float

    def __post_init__(self):
        check_params(alpha=self.alpha)


@dataclass(frozen=True)
class JacobiExpansion:
    """x^k -> degree-k Jacobi polynomial with parameters (alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_params(alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class JacobiFactorial(JacobiExpansion):
    """x^k -> degree-k Jacobi polynomial divided by k!."""


@dataclass(frozen=True)
class OrthogonalSeriesMap:
    """q_k -> q_k / (delta_k h_k) times the degree-k family member.

    delta and h list the per-degree constants through the largest degree the
    map supports; family is an orthogonal basis tag.
    """

    delta: tuple[float, ...]
    h: tuple[float, ...]
    family: Basis

    def __post_init__(self):
        if isinstance(self.family, Monomial):
            raise BadParameterError("family must be an orthogonal basis tag")
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        if any(d == 0.0 for d in self.delta):
            raise BadParameterError("delta entries must be nonzero")
        if any(v <= 0.0 for v in self.h):
            raise BadParameterError("h entries must be positive")

    @property
    def max_degree(self) -> int:
        return min(len(self.delta), len(self.h)) - 1


TransformSpec = UltraScaled | JacobiExpansion | JacobiFactorial | OrthogonalSeriesMap


# ---------------------------------------------------------------------------
# the transforms
# ---------------------------------------------------------------------------

def _expand(weighted, alpha: float, beta: float) -> np.ndarray:
    """Ascending monomial coefficients of sum_k w_k P_k^(alpha,beta).

    The weights w_k arrive with their per-degree scale already applied, so
    each caller keeps its own rounding. The degree-by-degree accumulation
    fixes the float rounding; a matrix product would not.
    """
    n = len(weighted) - 1
    rows = jacobi_coefficient_rows(n, alpha, beta)
    out = np.zeros(n + 1)
    for k, wk in enumerate(weighted):
        if wk != 0:
            out[: k + 1] += wk * rows[k, : k + 1]
    return out


def _scaled_expansion(f: Poly, alpha: float, beta: float, scale) -> Poly:
    """sum_k a_k * scale(k) * P_k^(alpha,beta) as a monomial Poly.

    Nothing is trimmed: P_k has a nonzero leading coefficient, so the image
    keeps the degree of f unless its leading coefficient underflows.
    """
    weighted = [ak * scale(k) for k, ak in enumerate(basis_to_monomial(f).coeffs)]
    return Poly(tuple(_expand(weighted, alpha, beta)), MONOMIAL, tau_trim=0.0)


def factorial_scale(k: int, alpha: float) -> float:
    """k! / Gamma(k+1+alpha), the per-degree factor of the scaled ultraspherical map."""
    return math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + alpha))


def ultra_transform(f: Poly, alpha: float) -> Poly:
    """Map sum a_k x^k to sum a_k (k!/Gamma(k+1+alpha)) P_k^(alpha,alpha).

    The scales fall below the normal doubles from alpha about 171 (somewhat
    earlier at high degree), and there NonFiniteError is raised; the exact
    route (exact_image through jacobi_rows_int with ultra_row_scale) gives a
    positive multiple of the image at any alpha.
    """
    check_params(alpha=alpha)

    def scale(k: int) -> float:
        s = factorial_scale(k, alpha)
        if not sys.float_info.min <= s < math.inf:
            raise NonFiniteError(
                f"k!/Gamma(k+1+alpha) at k = {k}, alpha = {alpha:g} leaves the normal "
                f"double range; exact_image through jacobi_rows_int(..., ultra_row_scale) "
                f"gives the exact image")
        return s

    return _scaled_expansion(f, alpha, alpha, scale)


def legendre_transform(f: Poly) -> Poly:
    """Map sum a_k x^k to sum a_k P_k (the alpha = 0 ultraspherical case)."""
    return ultra_transform(f, 0.0)


def jacobi_transform(f: Poly, alpha: float, beta: float) -> Poly:
    """Map sum a_k x^k to sum a_k P_k^(alpha,beta)."""
    check_params(alpha=alpha, beta=beta)
    return _scaled_expansion(f, alpha, beta, lambda k: 1.0)


def jacobi_factorial_transform(f: Poly, alpha: float, beta: float) -> Poly:
    """Map sum a_k x^k to sum a_k P_k^(alpha,beta) / k!."""
    check_params(alpha=alpha, beta=beta)
    return _scaled_expansion(f, alpha, beta, lambda k: 1.0 / math.factorial(k))


def orthogonal_series_transform(q, spec: OrthogonalSeriesMap) -> Poly:
    """Map monomial coefficients q_k to sum_k (q_k / (delta_k h_k)) Q_k."""
    q = [float(v) for v in q]
    n = len(q) - 1
    if n > spec.max_degree:
        raise IncompleteSpecError(
            f"spec provides constants through degree {spec.max_degree}, input has degree {n}"
        )
    weighted = [qk / (spec.delta[k] * spec.h[k]) for k, qk in enumerate(q)]
    return Poly(tuple(_expand(weighted, *jacobi_params(spec.family))), MONOMIAL)


def apply_transform(spec: TransformSpec, f: Poly) -> Poly:
    """Dispatch a transform spec onto a polynomial."""
    if isinstance(spec, UltraScaled):
        return ultra_transform(f, spec.alpha)
    if isinstance(spec, JacobiFactorial):
        return jacobi_factorial_transform(f, spec.alpha, spec.beta)
    if isinstance(spec, JacobiExpansion):
        return jacobi_transform(f, spec.alpha, spec.beta)
    if isinstance(spec, OrthogonalSeriesMap):
        return orthogonal_series_transform(basis_to_monomial(f).coeffs, spec)
    raise BadParameterError(f"unknown transform spec {spec!r}")


# ---------------------------------------------------------------------------
# cross-consistency between the two scaling conventions
# ---------------------------------------------------------------------------

def _ultra_series_constants(alpha: float, max_degree: int):
    """delta_k = 2k+2a+1 and h_k from the weighted orthogonality relation at
    beta = alpha, for k through max_degree."""
    delta = tuple(2.0 * k + 2.0 * alpha + 1.0 for k in range(max_degree + 1))
    h = tuple(ortho_constant(k, alpha, alpha).h for k in range(max_degree + 1))
    return delta, h


def ultra_series_spec(alpha: float, max_degree: int) -> OrthogonalSeriesMap:
    """Generic-map spec for the symmetric family with delta_k = 2k+2a+1 and
    h_k taken from the weighted orthogonality relation at beta = alpha.

    At alpha = -1/2, delta_0 vanishes and the spec is rejected.
    """
    delta, h = _ultra_series_constants(alpha, max_degree)
    return OrthogonalSeriesMap(delta=delta, h=h, family=Ultraspherical(alpha))


def scale_ratio_sequence(alpha: float, max_degree: int) -> list[float]:
    """Per-degree ratio of the factorial-scaled map's factor to the generic
    map's 1/(delta_k h_k).

    Constant exactly when the two conventions produce proportional outputs
    (alpha = 0 gives the constant 2); otherwise the sequence itself is the
    interesting record. At alpha = -1/2 the degree-0 ratio is 0, because
    delta_0 vanishes there.
    """
    delta, h = _ultra_series_constants(alpha, max_degree)
    return [factorial_scale(k, alpha) * delta[k] * h[k] for k in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# exact integer route: images of inputs with double roots
# ---------------------------------------------------------------------------

def ultra_row_scale(k: int, alpha: Fraction) -> Fraction:
    """k!/(1+alpha)_k: k!/Gamma(k+1+alpha) times Gamma(1+alpha) > 0."""
    return math.factorial(k) / math.prod((alpha + i for i in range(1, k + 1)), start=Fraction(1))


def factorial_row_scale(k: int, alpha: Fraction) -> Fraction:
    """1/k!, the per-degree factor of jacobi_factorial_transform."""
    return Fraction(1, math.factorial(k))


def unit_row_scale(k: int, alpha: Fraction) -> int:
    """1, the per-degree factor of jacobi_transform."""
    return 1


def jacobi_rows_int(deg_cap: int, alpha: float, beta: float, scale) -> list[list[int]]:
    """Integer rows of x^k -> scale(k, alpha) P_k^(alpha,beta) through deg_cap.

    The parameters are taken as exact binary rationals, and scale is one of
    the positive *_row_scale functions. Row k is D scale(k, alpha) times the
    exact Jacobi row k, with one positive integer D clearing every
    denominator, so an image through the rows is a positive multiple of the
    exact one and has its roots.
    """
    a = Fraction(alpha)
    rows = jacobi_coefficient_rows(deg_cap, a, Fraction(beta))
    scales = [scale(k, a) for k in range(deg_cap + 1)]
    scaled = [[s * c for c in rows[k, : k + 1]] for k, s in enumerate(scales)]
    den = math.lcm(*(c.denominator for row in scaled for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in scaled]


def exact_image(roots, rows) -> list[int]:
    """Integer coefficients of a positive multiple of the image of
    prod_r (x - r), for double roots r, under the map of rows.

    Each double is an exact binary rational, so 2^K r is an integer for one
    K and 2^(K n) prod_r (x - r) has the integer coefficients c_k 2^(K k),
    where c holds those of prod_r (x - 2^K r); the boundary roots +-1.0 have
    K = 0. rows come from jacobi_rows_int at any degree >= len(roots).
    """
    scaled, shift = dyadic_numerators(roots)
    c = monic_from_roots(scaled)
    out = [0] * len(c)
    for k, ck in enumerate(c):
        ck <<= shift * k
        for j, entry in enumerate(rows[k]):
            out[j] += ck * entry
    return out
