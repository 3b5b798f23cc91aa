"""Polynomial values: tagged-basis coefficient vectors, evaluation, roots,
and root-location classification against an interval.

A Poly is immutable and carries its basis tag (monomial, ultraspherical, or
Jacobi). Evaluation uses Horner in the monomial basis and Clenshaw's
recurrence otherwise; root finding goes through the monomial basis.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum
from fractions import Fraction

import mpmath
import numpy as np

from .errors import (
    BadIntervalError,
    BadParameterError,
    DegreeZeroError,
)
from .precision import DEFAULT_TAU_TRIM, DOUBLE, PrecisionPolicy


def check_params(**params) -> None:
    """Raise BadParameterError unless every named family parameter exceeds -1."""
    for name, value in params.items():
        if not value > -1:
            raise BadParameterError(f"{name} must exceed -1, got {value}")


# ---------------------------------------------------------------------------
# basis tags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """Plain power basis 1, x, x^2, ..."""


@dataclass(frozen=True)
class Ultraspherical:
    """Symmetric Jacobi family with parameter alpha > -1 (alpha = 0 is Legendre)."""

    alpha: float

    def __post_init__(self):
        check_params(alpha=self.alpha)


@dataclass(frozen=True)
class Jacobi:
    """Jacobi family with parameters alpha, beta > -1."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_params(alpha=self.alpha, beta=self.beta)


Basis = Monomial | Ultraspherical | Jacobi

MONOMIAL = Monomial()
LEGENDRE = Ultraspherical(0.0)


def jacobi_params(basis: Basis) -> tuple[float, float] | None:
    """(alpha, beta) for an orthogonal-family tag, None for monomial."""
    if isinstance(basis, Monomial):
        return None
    if isinstance(basis, Ultraspherical):
        return (basis.alpha, basis.alpha)
    return (basis.alpha, basis.beta)


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Coefficient vector over a tagged basis; coeffs[k] multiplies degree k.

    Trailing coefficients at or below tau_trim relative to the largest
    magnitude (floored at 1) are trimmed on construction, so the stored
    leading coefficient of a nonzero Poly is nonzero.
    """

    coeffs: tuple[float, ...]
    basis: Basis = MONOMIAL
    tau_trim: InitVar[float] = DEFAULT_TAU_TRIM

    def __post_init__(self, tau_trim):
        c = [float(v) for v in self.coeffs]
        if not c:
            raise BadParameterError("coeffs must be non-empty")
        scale = max(1.0, max(abs(v) for v in c))
        while len(c) > 1 and abs(c[-1]) <= tau_trim * scale:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise BadParameterError("pochhammer order must be nonnegative")
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# Jacobi three-term recurrence (shared with orthopoly and transforms)
# ---------------------------------------------------------------------------
#
# Written once over the parameters' number type: float parameters give float
# coefficients, Fraction parameters give exact ones. The constants are plain
# integers so that neither route forces the other's arithmetic.

def jacobi_recurrence(k: int, alpha, beta):
    """(A, B, C) with P_{k+1} = (A x + B) P_k - C P_{k-1}, valid for k >= 1."""
    s = alpha + beta
    den = 2 * (k + 1) * (k + 1 + s) * (2 * k + s)
    a = (2 * k + s + 1) * (2 * k + s + 2) * (2 * k + s) / den
    b = (2 * k + s + 1) * (alpha * alpha - beta * beta) / den
    c = 2 * (k + alpha) * (k + beta) * (2 * k + s + 2) / den
    return a, b, c


def jacobi_first_degree(alpha, beta):
    """(slope, intercept) of the degree-1 Jacobi polynomial."""
    return (alpha + beta + 2) / 2, (alpha - beta) / 2


def jacobi_coefficient_rows(n: int, alpha, beta) -> np.ndarray:
    """Monomial coefficients of the Jacobi family through degree n.

    Row k holds the ascending monomial coefficients of the degree-k member
    (entries beyond column k are zero). Fraction parameters give an object
    array of exact Fractions; any other parameters give a float array.
    """
    check_params(alpha=alpha, beta=beta)
    exact = isinstance(alpha + beta, Fraction)
    rows = np.zeros((n + 1, n + 1), dtype=object if exact else float)
    rows[0, 0] = Fraction(1) if exact else 1.0
    if n >= 1:
        slope, intercept = jacobi_first_degree(alpha, beta)
        rows[1, 0] = intercept
        rows[1, 1] = slope
    for k in range(1, n):
        a, b, c = jacobi_recurrence(k, alpha, beta)
        rows[k + 1, 1 : k + 2] += a * rows[k, : k + 1]
        rows[k + 1, : k + 1] += b * rows[k, : k + 1]
        rows[k + 1, : k] -= c * rows[k - 1, : k]
    return rows


def monic_from_roots(roots) -> list:
    """Ascending coefficients of prod_r (x - r) in the roots' number type.

    Each factor is the two-term convolution np.poly performs, in the same
    order, so float roots reproduce np.poly's coefficients bit for bit.
    """
    c = [1]
    for r in roots:
        c = [-r * c[0], *(c[j - 1] - r * c[j] for j in range(1, len(c))), c[-1]]
    return c


# ---------------------------------------------------------------------------
# exact real-root counting: Sturm sequences over the integers
# ---------------------------------------------------------------------------
#
# Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2 and 8.
# Polynomials are ascending lists of Python ints and points are dyadic
# rationals num / 2^k, so counting and bisection never leave the integers.

def primitive_part(coeffs) -> list[int]:
    """The primitive integer polynomial with the roots of rational coeffs:
    denominators cleared, content divided out, trailing zeros trimmed."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _primitive(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _signed_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, primitive ([] if zero).

    Pseudo-division scaled by |lc(b)| at every step keeps the remainder's
    sign, which is what a Sturm sequence needs.
    """
    r, lc, db = list(a), b[-1], len(b) - 1
    negated = False
    while len(r) > db:
        g = math.gcd(lc, r[-1])
        s, t, shift = lc // g, r[-1] // g, len(r) - 1 - db
        if s != 1:
            r = [s * c for c in r]
            negated ^= s < 0
        for i, c in enumerate(b):
            r[shift + i] -= t * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    if not r:
        return r
    return _primitive([-c for c in r] if negated else r)


def _remainder_sequence(p: list[int]) -> list[list[int]]:
    seq = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while r := _signed_remainder(seq[-2], seq[-1]):
        seq.append([-c for c in r])
    return seq


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials known to divide exactly."""
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return q


def sturm_sequence(p: list[int]) -> list[list[int]]:
    """Sturm sequence of the squarefree part of an integer polynomial.

    The first entry is the primitive squarefree part p / gcd(p, p'), the
    second its derivative, and each further entry a positive multiple of
    minus the remainder of the two before it, made primitive.
    """
    seq = _remainder_sequence(p)
    if len(seq[-1]) > 1:  # gcd(p, p') is not constant: p has a multiple root
        seq = _remainder_sequence(_primitive(_divide_exact(p, seq[-1])))
    return seq


def _sign_at(p: list[int], num: int, k: int) -> int:
    """Sign of p(num / 2^k), from 2^(k deg p) p(num / 2^k) by Horner."""
    acc = p[-1]
    for j, c in enumerate(reversed(p[:-1]), 1):
        acc = acc * num + (c << (k * j))
    return (acc > 0) - (acc < 0)


def _variations(seq: list[list[int]], num: int, k: int) -> int:
    """Sign changes along seq at num / 2^k, zeros skipped."""
    count, last = 0, 0
    for p in seq:
        s = _sign_at(p, num, k)
        if s:
            count += last == -s
            last = s
    return count


def root_bound(p: list[int]) -> int:
    """A power of two that every root of p is smaller than in modulus (Cauchy)."""
    spread = max(abs(c) for c in p).bit_length() - abs(p[-1]).bit_length()
    return 1 << max(spread + 2, 1)


def count_roots(seq: list[list[int]], lo: int, hi: int) -> int:
    """Distinct real roots in (lo, hi] of the Sturm sequence's first entry."""
    return _variations(seq, lo, 0) - _variations(seq, hi, 0)


def nearest_double_root(seq: list[list[int]], lo: int, hi: int, index: int) -> float:
    """The double nearest the index-th smallest (from 0) distinct root in
    (lo, hi] of the Sturm sequence's first entry.

    Sturm counts isolate the root; bisection on the sign of the first entry
    then runs until both ends of its interval round to the same double.
    """
    k, v_lo, v_hi = 0, _variations(seq, lo, 0), _variations(seq, hi, 0)
    while v_lo - v_hi > 1:  # invariant: the root is the index-th in (lo, hi]
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = _variations(seq, mid, k)
        if index < v_lo - v_mid:
            hi, v_hi = mid, v_mid
        else:
            index -= v_lo - v_mid
            lo, v_lo = mid, v_mid
    p = seq[0]
    s_hi = _sign_at(p, hi, k)
    if s_hi == 0:
        return hi / (1 << k)
    while lo / (1 << k) != hi / (1 << k):  # p changes sign once, in (lo, hi)
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = _sign_at(p, mid, k)
        if s == 0:
            return mid / (1 << k)
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    return hi / (1 << k)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def poly_eval(p: Poly, x: float) -> float:
    """Value of p at x: Horner for monomial, Clenshaw for orthogonal bases."""
    params = jacobi_params(p.basis)
    if params is None:
        return _horner(p.coeffs, x)
    alpha, beta = params
    return _clenshaw(p.coeffs, alpha, beta, x)


def _clenshaw(coeffs, alpha: float, beta: float, x: float) -> float:
    y1 = 0.0  # y_{k+1}
    y2 = 0.0  # y_{k+2}
    c_next = jacobi_recurrence(len(coeffs), alpha, beta)[2]  # C_{k+1}
    for k in range(len(coeffs) - 1, 0, -1):
        a, b, c = jacobi_recurrence(k, alpha, beta)
        y1, y2 = coeffs[k] + (a * x + b) * y1 - c_next * y2, y1
        c_next = c
    slope, intercept = jacobi_first_degree(alpha, beta)
    return coeffs[0] + (slope * x + intercept) * y1 - c_next * y2


def basis_to_monomial(p: Poly, tau_trim: float = DEFAULT_TAU_TRIM) -> Poly:
    """Equal polynomial re-expressed in the monomial basis."""
    params = jacobi_params(p.basis)
    if params is None:
        return p
    alpha, beta = params
    rows = jacobi_coefficient_rows(p.degree, alpha, beta)
    return Poly(tuple(p.array @ rows), MONOMIAL, tau_trim=tau_trim)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def poly_roots(p: Poly, policy: PrecisionPolicy = DOUBLE) -> list[complex]:
    """All degree-many roots (with multiplicity) of p.

    Double policy: companion-matrix eigenvalues followed by Newton polish,
    escalating ill-conditioned roots to mpmath. Extended policy: mpmath
    polyroots at the configured bit count.
    """
    mono = basis_to_monomial(p)
    if mono.degree < 1:
        raise DegreeZeroError("root finding needs degree >= 1")
    asc = mono.array
    if policy.extended:
        return _roots_extended(asc, policy.bits)
    roots = np.roots(asc[::-1])
    return _polish_roots(asc, roots)


def _roots_extended(asc: np.ndarray, bits: int) -> list[complex]:
    with mpmath.workprec(bits):
        rts = mpmath.polyroots(
            [mpmath.mpf(c) for c in asc[::-1]], maxsteps=200, extraprec=bits
        )
        return [complex(r) for r in rts]


def _polish_roots(asc: np.ndarray, roots: np.ndarray) -> list[complex]:
    """Newton-polish companion-matrix roots; escalate stubborn ones to mpmath.

    Escalated roots are kept only if they stay near the original estimate and
    reduce |p|, so genuinely multiple roots keep their clustered multiset.
    """
    der = asc[1:] * np.arange(1, len(asc))
    out = []
    hard = []
    for z in roots.astype(complex):
        for _ in range(2):
            pv = _horner(asc, z)
            dv = _horner(der, z)
            if dv == 0:
                break
            step = pv / dv
            if abs(step) > 0.5 * (1.0 + abs(z)):
                break
            z = z - step
        pv = _horner(asc, z)
        dv = _horner(der, z)
        resid = abs(pv / dv) if dv != 0 else np.inf
        if resid > 5e-12 * (1.0 + abs(z)):
            hard.append(len(out))
        out.append(z)
    for idx in hard:
        out[idx] = _newton_mp(asc, der, out[idx])
    return [complex(z) for z in out]


def _horner(asc, z):
    acc = 0.0
    for c in asc[::-1]:
        acc = acc * z + c
    return acc


def _newton_mp(asc, der, z0: complex, bits: int = 160) -> complex:
    with mpmath.workprec(bits):
        cs = [mpmath.mpf(c) for c in asc[::-1]]
        ds = [mpmath.mpf(c) for c in der[::-1]]
        z = mpmath.mpc(z0)
        p0 = abs(mpmath.polyval(cs, z))
        for _ in range(60):
            dv = mpmath.polyval(ds, z)
            if dv == 0:
                break
            step = mpmath.polyval(cs, z) / dv
            z = z - step
            if abs(step) < 1e-30 * (1 + abs(z)):
                break
        moved = abs(z - mpmath.mpc(z0))
        if moved > 1e-2 * (1 + abs(z0)) or abs(mpmath.polyval(cs, z)) > p0:
            return z0
        return complex(z)


# ---------------------------------------------------------------------------
# root classification
# ---------------------------------------------------------------------------

class RootLocation(str, Enum):
    ALL_STRICTLY_INSIDE = "all_strictly_inside"
    SOME_ON_BOUNDARY = "some_on_boundary"
    SOME_OUTSIDE = "some_outside"
    SOME_NON_REAL = "some_non_real"


@dataclass(frozen=True)
class RootReport:
    """Roots of a polynomial classified against a target interval.

    Classification is all_strictly_inside iff every root r satisfies
    |Im r| <= tol and lo + tol < Re r < hi - tol. Non-real beats outside
    beats on-boundary when several roots misbehave.
    """

    roots: tuple[complex, ...]
    interval: tuple[float, float]
    tol: float
    classification: RootLocation


def classify_roots(roots, interval, tol: float) -> RootReport:
    """Classify a root multiset against an open interval with tolerance tol."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise BadIntervalError(f"need lo < hi, got ({lo}, {hi})")
    if not tol > 0:
        raise BadParameterError("tol must be strictly positive")
    roots = tuple(complex(r) for r in roots)
    any_nonreal = any_outside = any_boundary = False
    for r in roots:
        if abs(r.imag) > tol:
            any_nonreal = True
        elif r.real < lo - tol or r.real > hi + tol:
            any_outside = True
        elif not (lo + tol < r.real < hi - tol):
            any_boundary = True
    if any_nonreal:
        cls = RootLocation.SOME_NON_REAL
    elif any_outside:
        cls = RootLocation.SOME_OUTSIDE
    elif any_boundary:
        cls = RootLocation.SOME_ON_BOUNDARY
    else:
        cls = RootLocation.ALL_STRICTLY_INSIDE
    return RootReport(roots=roots, interval=(lo, hi), tol=tol, classification=cls)


def min_boundary_distance(roots, interval) -> float:
    """Smallest complex distance from any root to an interval endpoint."""
    lo, hi = interval
    dists = [min(abs(complex(r) - lo), abs(complex(r) - hi)) for r in roots]
    return min(dists) if dists else math.inf
