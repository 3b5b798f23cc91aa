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
            raise BadParameterError(f"{name} must exceed -1, got {float(value)}")


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


def jacobi_series_roots(weights, alpha: float, beta: float) -> np.ndarray:
    """Roots of sum_k w_k P_k^(alpha,beta) (w_n != 0), unordered, in double:
    the eigenvalues of its comrade matrix (Barnett 1975).

    Row k of the matrix writes x P_k in P_(k-1), P_k, P_(k+1) by the
    three-term recurrence; P_n is eliminated through the series itself.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w) - 1
    m = np.zeros((n, n))
    a, b = jacobi_first_degree(alpha, beta)
    m[0, 0] = -b / a
    for k in range(1, n):
        m[k - 1, k] = 1 / a
        a, b, c = jacobi_recurrence(k, alpha, beta)
        m[k, k - 1], m[k, k] = c / a, -b / a
    m[n - 1] -= w[:n] / (w[n] * a)
    return np.linalg.eigvals(m)


def monic_from_roots(roots) -> list:
    """Ascending coefficients of prod_r (x - r) in the roots' number type.

    Each factor is the two-term convolution np.poly performs, in the same
    order, so float roots reproduce np.poly's coefficients bit for bit.
    """
    c = [1]
    for r in roots:
        c = [-r * c[0], *(c[j - 1] - r * c[j] for j in range(1, len(c))), c[-1]]
    return c


def integer_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square matrix of Python ints.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): by
    Sylvester's identity every division by the previous pivot is exact, so
    entries stay integers whose size grows only linearly with the step.
    """
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


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


def deflate_root(p: list[int], root: int) -> tuple[list[int], int]:
    """Divide the integer polynomial p by (x - root) while root is a root of
    the quotient; returns that quotient and the multiplicity removed."""
    mult = 0
    while len(p) > 1 and _sign_at(p, root, 0) == 0:
        p, mult = _divide_exact(p, [-root, 1]), mult + 1
    return p, mult


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
    return _bisect_to_double(seq[0], lo, hi, k)


def _bisect_to_double(p: list[int], lo: int, hi: int, k: int) -> float:
    """The double nearest the root of p in (lo / 2^k, hi / 2^k], where p has
    one root, at which it changes sign (or which is hi itself).

    Bisection on the exact sign of p runs until both ends round to the same
    double; rounding is monotone, so the root rounds to it as well.
    """
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
# sign-change certificate: approximate roots pick points, exact signs decide
# ---------------------------------------------------------------------------
#
# Rump, "Verification methods", Acta Numerica 2010: the estimates may come
# from any floating-point method, since a wrong estimate can only make the
# certificate fail, never make it pass.

# Half-widths of the brackets tried around an estimate before its whole gap.
# Most estimates are within the first, and each halving it saves is one
# exact sign evaluation; the second catches most of the rest.
_BRACKETS = (2.0 ** -46, 2.0 ** -32)


def dyadic_numerators(points) -> tuple[list[int], int]:
    """Integers num and one k >= 0 with x = num / 2^k for each double x
    (every double is a binary rational)."""
    ratios = [float(x).as_integer_ratio() for x in points]
    k = max((den.bit_length() for _, den in ratios), default=1) - 1
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def _sign_at_double(p: list[int], x: float) -> int:
    (num,), k = dyadic_numerators([x])
    return _sign_at(p, num, k)


def certify_interior_roots(p: list[int], approx, tol: float) -> list[float] | None:
    """Nearest doubles of the smallest and largest roots of the integer
    polynomial p when exact signs certify that all deg p of its roots are
    real, simple and inside (-1 + tol, 1 - tol); None when they do not.

    approx, estimates of the roots, only picks the points: -(1 - tol), the
    midpoints of consecutive sorted real parts, and 1 - tol. If these
    increase strictly and the signs of p there are nonzero and alternate,
    each of the deg p gaps holds a root. The two extreme roots are then
    bisected to their nearest doubles inside the end gaps.
    """
    xs = sorted(complex(z).real for z in approx)
    if len(xs) != len(p) - 1:
        return None
    edge = 1.0 - tol
    points = [-edge, *((a + b) / 2 for a, b in zip(xs, xs[1:])), edge]
    if any(not a < b for a, b in zip(points, points[1:])):
        return None
    signs = [_sign_at_double(p, t) for t in points]
    if signs[0] == 0 or any(b != -a for a, b in zip(signs, signs[1:])):
        return None
    return [_root_between(p, points[0], points[1], signs[0], xs[0]),
            _root_between(p, points[-2], points[-1], signs[-2], xs[-1])]


def _root_between(p: list[int], lo: float, hi: float, s_lo: int, guess: float) -> float:
    """The double nearest the one root of p in (lo, hi), where p has the
    nonzero sign s_lo at lo and the opposite one at hi; bisection starts
    from the first of the narrow brackets around guess that holds the root."""
    for half in _BRACKETS:
        a, b = max(lo, guess - half), min(hi, guess + half)
        if _sign_at_double(p, a) == s_lo and _sign_at_double(p, b) != s_lo:
            lo, hi = a, b
            break
    (num_lo, num_hi), k = dyadic_numerators([lo, hi])
    return _bisect_to_double(p, num_lo, num_hi, k)


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
