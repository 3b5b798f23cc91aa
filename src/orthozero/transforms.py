"""Zero-preserving linear maps from monomial coefficients into orthogonal
polynomial expansions.

All transforms return monomial-basis Poly values so downstream root finding
is uniform. Every double is a binary rational, so each map is exact on the
integer rows of polycore.jacobi_rows_int, for any (alpha, beta) and
per-degree scale. The double transforms are the exact image of their
double weights through those rows (times the double 1/Gamma(1+alpha) for
ultra_transform), each coefficient rounded once (polycore.series_poly).
exact_image maps a list of double roots through the rows in Python ints:
the images of theorem12's random interior-rooted inputs and of the
boundary-rooted family (x-1)^n (x+1)^m, whose roots at exactly +-1 of
high multiplicity double-precision coefficients cannot represent
faithfully (root scatter grows like eps^(1/multiplicity)). Non-dyadic
parameters such as 0.3 just bring larger integers.

The campaigns decide random interior-rooted inputs on a double-double
(dd) enclosure of their images first (image_enclosure, polycore's dd
arithmetic and units), and exact_image builds an integer image only where
that enclosure cannot settle a sign or a root. The radius of each
enclosed coefficient is derived here, once:
- The monic product c^ of prod_r (x - r) is taken factor by factor,
  c_j <- c_(j-1) - r c_j, and carries Wilkinson's running bound e_j on
  |c^_j - c_j|: each step adds the bound of c_(j-1), |r| times that of
  c_j, _DD_MUL_FP |r c^_j| for the product and _DD_ADD |c^_j| for the new
  sum.
- The rows over one power of two 2^s are dd numbers R^ within rho of the
  exact R / 2^s (polycore._dd_coefficients), and the image b^_j = sum_k
  c^_k R^_kj is summed in dd with a running bound of _DD_MUL |c^_k R^_kj|
  per product and _DD_ADD |b^_j| per partial sum.
- So |b^_j - b_j| <= running_j + sum_k e_k |R^_kj| + sum_k (|c^_k| + e_k)
  rho_kj, plus 2 _DD_ETA per step where a product underflows. The
  radius, summed in double, is widened by 1 + (8n + 40) 2^-52 for its own
  roundings, which number at most 6n + 10 on any path.
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
    _DD_ADD,
    _DD_ETA,
    _DD_MUL,
    _DD_MUL_FP,
    Basis,
    Enclosure,
    Monomial,
    Poly,
    Ultraspherical,
    _dd_add,
    _dd_coefficients,
    _dd_mul,
    basis_to_monomial,
    check_params,
    dyadic_numerators,
    jacobi_params,
    monic_from_roots,
    series_poly,
    through_rows,
)
from .precision import DEFAULT_TAU_TRIM


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

def ultra_transform(f: Poly, alpha: float) -> Poly:
    """Map sum a_k x^k to sum a_k (k!/Gamma(k+1+alpha)) P_k^(alpha,alpha).

    k!/Gamma(k+1+alpha) is g k!/(1+alpha)_k with g = 1/Gamma(1+alpha): the
    image through the rows of ultra_row_scale, times the double g, rounded
    once. From alpha about 170, g falls below the normal doubles and
    NonFiniteError is raised; the exact route (exact_image through
    jacobi_rows_int with ultra_row_scale) gives a positive multiple of the
    image at any alpha.
    """
    check_params(alpha=alpha)
    g = 1.0 / math.gamma(1.0 + alpha) if alpha < 170.5 else 0.0
    if not g >= sys.float_info.min:
        raise NonFiniteError(
            f"1/Gamma(1+alpha) at alpha = {alpha:g} leaves the normal double range; "
            f"exact_image through jacobi_rows_int(..., ultra_row_scale) gives the exact image")
    return series_poly(basis_to_monomial(f).coeffs, (alpha, alpha), ultra_row_scale, g)


def legendre_transform(f: Poly) -> Poly:
    """Map sum a_k x^k to sum a_k P_k (the alpha = 0 ultraspherical case)."""
    return ultra_transform(f, 0.0)


def jacobi_transform(f: Poly, alpha: float, beta: float) -> Poly:
    """Map sum a_k x^k to sum a_k P_k^(alpha,beta)."""
    check_params(alpha=alpha, beta=beta)
    return series_poly(basis_to_monomial(f).coeffs, (alpha, beta))


def jacobi_factorial_transform(f: Poly, alpha: float, beta: float) -> Poly:
    """Map sum a_k x^k to sum a_k P_k^(alpha,beta) / k!."""
    check_params(alpha=alpha, beta=beta)
    return series_poly(basis_to_monomial(f).coeffs, (alpha, beta), factorial_row_scale)


def orthogonal_series_transform(q, spec: OrthogonalSeriesMap) -> Poly:
    """Map monomial coefficients q_k to sum_k (q_k / (delta_k h_k)) Q_k: the
    exact image of the double weights q_k / (delta_k h_k), rounded once."""
    q = [float(v) for v in q]
    n = len(q) - 1
    if n > spec.max_degree:
        raise IncompleteSpecError(
            f"spec provides constants through degree {spec.max_degree}, input has degree {n}"
        )
    weighted = [qk / (spec.delta[k] * spec.h[k]) for k, qk in enumerate(q)]
    return series_poly(weighted, jacobi_params(spec.family), tau_trim=DEFAULT_TAU_TRIM)


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
    map's 1/(delta_k h_k), the former k!/Gamma(k+1+alpha) in log-gamma form.

    Constant exactly when the two conventions produce proportional outputs
    (alpha = 0 gives the constant 2); otherwise the sequence itself is the
    interesting record. At alpha = -1/2 the degree-0 ratio is 0, because
    delta_0 vanishes there.
    """
    delta, h = _ultra_series_constants(alpha, max_degree)
    return [math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + alpha)) * delta[k] * h[k]
            for k in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# exact integer route: images of inputs with double roots
# ---------------------------------------------------------------------------

def ultra_row_scale(k: int, alpha: Fraction) -> Fraction:
    """k!/(1+alpha)_k: k!/Gamma(k+1+alpha) times Gamma(1+alpha) > 0; with
    alpha = a/d, (1+alpha)_k = prod_i (a + i d) / d^k."""
    a, d = alpha.numerator, alpha.denominator
    return Fraction(math.factorial(k) * d ** k, math.prod(a + i * d for i in range(1, k + 1)))


def factorial_row_scale(k: int, alpha: Fraction) -> Fraction:
    """1/k!, the per-degree factor of jacobi_factorial_transform."""
    return Fraction(1, math.factorial(k))


def unit_row_scale(k: int, alpha: Fraction) -> int:
    """1, the per-degree factor of jacobi_transform."""
    return 1


def image_enclosure(roots, rows) -> tuple[np.ndarray, Enclosure]:
    """The monic products prod_r (x - r) for the double root lists of
    roots, in double (the hi parts of their dd coefficients), and the
    Enclosure of their images through rows, whose exact(c) is
    exact_image(roots[c], rows).

    One numpy pass over all the cases, padded to the largest degree, takes
    the products and the images in dd arithmetic (see the module's error
    bound); images are computed row by row, so no (cases, n + 1, n + 1)
    array is built.
    """
    degrees = np.array([len(r) for r in roots])
    order = np.argsort(-degrees, kind="stable")  # each step runs on the rows it changes
    top, cases = int(degrees.max()), len(roots)
    r = np.zeros((cases, top))
    for i, c in enumerate(order):
        r[i, :degrees[c]] = roots[c]
    ch, cl = np.zeros((cases, top + 1)), np.zeros((cases, top + 1))
    ch[:, 0] = 1.0
    error = np.zeros((cases, top + 1))  # the running bound e on |c^ - c|
    sizes = np.abs(r)
    with np.errstate(all="ignore"):  # overflow is read as unsettled downstream
        for i in range(top):  # times (x - r_i): c_j <- c_(j-1) - r_i c_j, for j <= i + 1
            m, w = int(np.count_nonzero(degrees > i)), i + 2
            ph, pl = _dd_mul(ch[:m, :w], cl[:m, :w], -r[:m, i:i + 1])
            sh, sl = _dd_add(ph, pl, _shifted(ch[:m, :w]), _shifted(cl[:m, :w]))
            error[:m, :w] = (_shifted(error[:m, :w]) + sizes[:m, i:i + 1] * error[:m, :w]
                             + _DD_MUL_FP * np.abs(ph) + _DD_ADD * np.abs(sh) + 2 * _DD_ETA)
            ch[:m, :w], cl[:m, :w] = sh, sl
        hi_rows, lo_rows, radius_rows = _dd_coefficients(rows, common=True)[:, :top + 1, :top + 1]
        bh, bl = np.zeros((cases, top + 1)), np.zeros((cases, top + 1))
        radius = np.zeros((cases, top + 1))
        for k in range(top + 1):  # the image: b_j += c_k R_kj, for j <= k
            m, w = int(np.count_nonzero(degrees >= k)), k + 1
            ph, pl = _dd_mul(ch[:m, k:w], cl[:m, k:w], hi_rows[k, :w], lo_rows[k, :w])
            bh[:m, :w], bl[:m, :w] = _dd_add(bh[:m, :w], bl[:m, :w], ph, pl)
            radius[:m, :w] += _DD_MUL * np.abs(ph) + _DD_ADD * np.abs(bh[:m, :w]) + 2 * _DD_ETA
        radius += error @ np.abs(hi_rows) + (np.abs(ch) + error) @ radius_rows
        radius *= 1 + (8 * top + 40) * 2.0 ** -52
    back = np.argsort(order)
    sorted_degrees = degrees[order]
    radius[np.arange(top + 1) > sorted_degrees[:, None]] = 0.0
    return ch[back], Enclosure(bh[back], bl[back], radius[back], degrees,
                               lambda c: exact_image(roots[c], rows))


def _shifted(c: np.ndarray) -> np.ndarray:
    """The coefficients c_(j-1) of x times each row's polynomial, within the
    same width (the top one is zero here)."""
    return np.concatenate([np.zeros((len(c), 1)), c[:, :-1]], axis=1)


def exact_image(roots, rows) -> list[int]:
    """Integer coefficients of a positive multiple of the image of
    prod_r (x - r), for double roots r, under the map of rows.

    Each double is an exact binary rational, so 2^K r is an integer for one
    K and 2^(K n) prod_r (x - r) has the integer coefficients c_k 2^(K k),
    where c holds those of prod_r (x - 2^K r); the boundary roots +-1.0 have
    K = 0. rows come from jacobi_rows_int at any degree >= len(roots).
    """
    scaled, shift = dyadic_numerators(roots)
    return through_rows([c << shift * k for k, c in enumerate(monic_from_roots(scaled))], rows)
