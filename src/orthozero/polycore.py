"""Polynomial values: tagged-basis coefficient vectors, evaluation, roots,
and root-location classification against an interval.

A Poly is immutable and carries its basis tag (monomial, ultraspherical, or
Jacobi). Evaluation uses Horner in the monomial basis and Clenshaw's
recurrence otherwise. Where roots lie is decided once, here, for the
campaigns and the library alike, in exact integer arithmetic: by Sturm
counts (locate, exact_verdict, root_report), and for the campaigns' exact
images by one function, verdicts, that tries a sign-change certificate
over the whole line first and falls back to those counts. Double
eigenvalues (poly_roots, diagnostic_roots) are diagnostics only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import InitVar, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .enclosure import _SMALLEST_SUBNORMAL, _gamma, _to_double
from .errors import (
    BadIntervalError,
    BadParameterError,
    DegreeZeroError,
    NonFiniteError,
)
from .precision import DEFAULT_TAU_TRIM


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


def jacobi_matrix(n: int, alpha: float, beta: float) -> tuple[np.ndarray, float]:
    """The n x n matrix M with x P_k = M[k, k-1] P_(k-1) + M[k, k] P_k +
    M[k, k+1] P_(k+1) by the three-term recurrence, k < n, whose last row
    leaves out P_n / A, and A. The eigenvalues of M are the roots of P_n."""
    m = np.zeros((n, n))
    a, b = jacobi_first_degree(alpha, beta)
    m[0, 0] = -b / a
    for k in range(1, n):
        m[k - 1, k] = 1 / a
        a, b, c = jacobi_recurrence(k, alpha, beta)
        m[k, k - 1], m[k, k] = c / a, -b / a
    return m, a


def comrade_roots(weights, alpha: float, beta: float) -> np.ndarray:
    """Roots of the series sum_k w[c, k] P_k^(alpha,beta) (w[c, n] != 0)
    for each row c of weights, unordered, in double, as a (rows, n) array:
    the eigenvalues of their comrade matrices (Barnett 1975), jacobi_matrix
    with P_n eliminated from its last row through the series, stacked for
    one eigvals call.

    A series whose matrix is not finite (weights that underflowed to zero,
    or an overflowing recurrence) has no estimates: its row is NaN.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[1] - 1
    m, a = jacobi_matrix(n, alpha, beta)
    stack = np.repeat(m[None], len(w), axis=0)
    with np.errstate(all="ignore"):
        stack[:, n - 1] -= w[:, :n] / (w[:, n:] * a)
    return _eigvals(stack)


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """The eigenvalues of each matrix of the stack, by one eigvals call; a
    row of NaN for a matrix that is not finite."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    roots = np.full(stack.shape[:2], np.nan, dtype=complex)
    if finite.any():
        roots[finite] = np.linalg.eigvals(stack[finite])
    return roots


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


def _value_at(p: list[int], num: int, k: int) -> int:
    """2^(k deg p) p(num / 2^k), an integer, by Horner."""
    acc = p[-1]
    for j, c in enumerate(reversed(p[:-1]), 1):
        acc = acc * num + (c << (k * j))
    return acc


def _sign_at(p: list[int], num: int, k: int) -> int:
    """Sign of p(num / 2^k)."""
    value = _value_at(p, num, k)
    return (value > 0) - (value < 0)


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


def count_roots(seq: list[list[int]], lo: int, hi: int, k: int = 0) -> int:
    """Distinct real roots in (lo / 2^k, hi / 2^k] of the Sturm sequence's
    first entry."""
    return _variations(seq, lo, k) - _variations(seq, hi, k)


def all_roots_real(seq: list[list[int]]) -> bool:
    """Whether every root of the Sturm sequence's first entry is real: its
    distinct real roots, all below root_bound, number its degree."""
    bound = root_bound(seq[0])
    return count_roots(seq, -bound, bound) == len(seq[0]) - 1


def _locate(seq: list[list[int]], lo: float, hi: float, tol: float) -> RootLocation:
    """classify_roots' verdict on (lo, hi) with tolerance tol for the roots
    of the Sturm sequence's first entry, from exact counts.

    Fewer real roots than distinct ones means a non-real root; fewer in the
    closed band [lo - tol, hi + tol], one outside; fewer in the open interior
    (lo + tol, hi - tol), one on the boundary. The four ends are the doubles
    classify_roots compares against, so dyadic. A count covers (a, b], so
    a root at lo - tol is added to the band's count and one at hi - tol
    taken from the interior's, each found by its exact sign.
    """
    p = seq[0]
    distinct = len(p) - 1
    ends = [lo - tol, lo + tol, hi - tol, hi + tol]
    if not all(map(math.isfinite, ends)):
        raise BadIntervalError(f"the band around ({lo}, {hi}) leaves the doubles")
    if not all_roots_real(seq):
        return RootLocation.SOME_NON_REAL
    (lo_out, lo_in, hi_in, hi_out), k = dyadic_numerators(ends)
    if count_roots(seq, lo_out, hi_out, k) + (_sign_at(p, lo_out, k) == 0) < distinct:
        return RootLocation.SOME_OUTSIDE
    if count_roots(seq, lo_in, hi_in, k) - (_sign_at(p, hi_in, k) == 0) < distinct:
        return RootLocation.SOME_ON_BOUNDARY
    return RootLocation.ALL_STRICTLY_INSIDE


def nearest_double_roots(seq: list[list[int]], lo: int, hi: int, indices=None) -> list[float]:
    """The doubles nearest the distinct roots in (lo, hi] of the Sturm
    sequence's first entry, ascending: of the index-th smallest (from 0) for
    each index in indices, or of all of them.

    One pass of Sturm bisection isolates them: an interval is halved while
    it holds a wanted root and another root, and its ends round to different
    doubles (once they round to the same one, every root inside does too).
    Bisection on the sign of the first entry then runs on each isolated root.
    """
    found = []
    stack = [(lo, hi, 0, _variations(seq, lo, 0), _variations(seq, hi, 0), 0)]
    while stack:  # depth first, the lower half first; first indexes the lowest root inside
        lo, hi, k, v_lo, v_hi, first = stack.pop()
        wanted = [i for i in range(first, first + v_lo - v_hi) if indices is None or i in indices]
        if not wanted:
            continue
        if v_lo - v_hi == 1 or _to_double(lo, k) == _to_double(hi, k):
            found += [_bisect_to_double(seq[0], lo, hi, k)] * len(wanted)
            continue
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = _variations(seq, mid, k)
        stack += [(mid, hi, k, v_mid, v_hi, first + v_lo - v_mid), (lo, mid, k, v_lo, v_mid, first)]
    return found


def _bisect_to_double(p: list[int], lo: int, hi: int, k: int) -> float:
    """The double nearest the root of p in (lo / 2^k, hi / 2^k], where p has
    one root, at which it changes sign (or which is hi itself), or where
    both ends already round to the same double.

    Bisection on the exact sign of p runs until both ends round to the same
    double, or to adjacent doubles; rounding is monotone, so the root rounds
    to that double as well, or to whichever of the two the sign of p at
    their midpoint picks. That midpoint decides a root exactly halfway
    between them, which no bisection point need ever hit.
    """
    s_hi = _sign_at(p, hi, k)
    if s_hi == 0:
        return _to_double(hi, k)
    while (a := _to_double(lo, k)) != (b := _to_double(hi, k)):  # one sign change, in (lo, hi)
        if math.nextafter(a, b) == b:
            s, tie = _sign_between(p, a, b)
            return tie if s == 0 else a if s == s_hi else b
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = _sign_at(p, mid, k)
        if s == 0:
            return _to_double(mid, k)
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    return b


def _sign_between(p: list[int], a: float, b: float) -> tuple[int, float]:
    """The sign of p at the midpoint of the adjacent doubles a < b, and that
    midpoint rounded half to even; an infinite end stands for +-2^1024,
    where the next double would be."""
    (num_a, num_b), k = dyadic_numerators([x if math.isfinite(x) else 0.0 for x in (a, b)])
    if a == -math.inf:
        num_a = -1 << (1024 + k)
    if b == math.inf:
        num_b = 1 << (1024 + k)
    return _sign_at(p, num_a + num_b, k + 1), _to_double(num_a + num_b, k + 1)


# ---------------------------------------------------------------------------
# sign-change certificate: approximate roots pick points, certified signs decide
# ---------------------------------------------------------------------------
#
# Rump, "Verification methods", Acta Numerica 2010: the estimates may come
# from any floating-point method, since a wrong estimate can only make the
# certificate fail, never make it pass. Each sign at a certificate point is
# the double Horner value's where an a-priori bound on its error clears it
# (Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
# geometric predicates", 1997; Higham, Accuracy and Stability of Numerical
# Algorithms, 5.1 for Horner's bound), and the exact integer sign otherwise.
# The filter only pays off over many polynomials at once, so the certificate
# takes a batch of one degree; a single polynomial is a batch of one.

# Half-widths of the brackets tried around an estimate before its whole gap.
# Most estimates are within the first, and each halving it saves is one
# exact sign evaluation; the second catches most of the rest.
_BRACKETS = (2.0 ** -46, 2.0 ** -32)
# Newton steps from an estimate before its nearest double is checked; from
# the comrade estimates' few ulps, one step usually lands and one confirms.
_NEWTON_STEPS = 3


def dyadic_numerators(points) -> tuple[list[int], int]:
    """Integers num and one k >= 0 with x = num / 2^k for each double x
    (every double is a binary rational)."""
    ratios = [float(x).as_integer_ratio() for x in points]
    k = max((den.bit_length() for _, den in ratios), default=1) - 1
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def _sign_at_double(p: list[int], x: float) -> int:
    (num,), k = dyadic_numerators([x])
    return _sign_at(p, num, k)


def _unit_scaled(p: list[int]) -> list[float]:
    """p / 2^s with max |p_i| / 2^s in [1, 2), each coefficient rounded once
    (int / int true division is correctly rounded)."""
    scale = 1 << max(max(abs(c) for c in p).bit_length() - 1, 0)
    return [c / scale for c in p]


def filtered_signs(polys: list[list[int]], points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Signs of the integer polynomials polys[c], all of one length n + 1,
    at the finite doubles points[c, :], as a (len(polys), m) int array;
    coeffs[c] holds the _unit_scaled coefficients of polys[c].

    One Horner pass over all rows gives the values p^(x) of the scaled
    polynomials, and a second one the sums S^(x) of |a^_i| |x|^i.
    A value's sign is taken where |p^(x)| > gamma_{2n+2} S^(x) (1 +
    gamma_{2n+1}) + eta, with eta = (4n+4) 2^-1074 max(1, |x|)^n. That
    bounds the error of the rounded coefficients and of Horner's 2n
    operations in both passes (Higham, 5.1), with one gamma to spare for
    the rounding of the bound itself, and eta the absolute error of gradual
    underflow. Every other sign, and any whose value or bound is not
    finite, is _sign_at's exact one.
    """
    points = np.asarray(points, dtype=float)
    signs = np.zeros(points.shape, dtype=int)
    if not polys:
        return signs
    n = len(polys[0]) - 1
    size = np.abs(points)
    with np.errstate(all="ignore"):  # overflow is caught by the finiteness test
        value = np.repeat(coeffs[:, n:], points.shape[1], axis=1)
        total = np.abs(value)
        for i in range(n - 1, -1, -1):
            value = value * points + coeffs[:, i:i + 1]
            total = total * size + np.abs(coeffs[:, i:i + 1])
        bound = (_gamma(2 * n + 2) * total * (1 + _gamma(2 * n + 1))
                 + (4 * n + 4) * _SMALLEST_SUBNORMAL * np.maximum(size, 1.0) ** n)
        settled = np.isfinite(value) & np.isfinite(bound) & (np.abs(value) > bound)
    signs[settled] = np.sign(value[settled])
    for c, j in zip(*np.nonzero(~settled)):
        signs[c, j] = _sign_at_double(polys[c], points[c, j])
    return signs


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots of each row of ascending coefficients coeffs, one degree
    n >= 1, as a (rows, n) array: the eigenvalues of their companion
    matrices, by one eigvals call (_eigvals)."""
    n = coeffs.shape[1] - 1
    stack = np.zeros((len(coeffs), n, n))
    stack[:, 1:, :-1] = np.eye(n - 1)
    with np.errstate(all="ignore"):
        stack[:, 0] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    return _eigvals(stack)


def _sign_certificates(polys: list[list[int]], coeffs: np.ndarray, approx, marks: np.ndarray):
    """What certified signs prove of each integer polynomial p = polys[c] of
    one degree n >= 1, whose _unit_scaled coefficients are coeffs[c] and
    whose roots approx[c, :] estimates: None, or its cuts, the sign of p at
    the first one, how many of its roots lie below each mark, and the
    estimates of its smallest and largest roots.

    The cuts are -inf, the midpoints of consecutive sorted real parts of the
    estimates, and +inf. p's signs at +-inf are exact without evaluation:
    its leading coefficient's at +inf, times (-1)^n at -inf. If the
    estimates are finite, the midpoints increase strictly, p's signs at the
    cuts alternate and p is nonzero at every mark, each of the n gaps holds
    one root, real and simple, and a mark's sign places its gap's root. One
    filtered_signs call takes the signs at the midpoints and marks. Rows of
    other than n estimates fail.
    """
    n = len(polys[0]) - 1
    xs = np.sort(np.asarray(approx, dtype=complex).real, axis=1)
    if xs.shape[1] != n:
        return [None] * len(polys)
    mids = (xs[:, :-1] + xs[:, 1:]) / 2
    ordered = np.flatnonzero(np.isfinite(xs).all(axis=1) & np.isfinite(mids).all(axis=1)
                             & np.all(mids[:, :-1] < mids[:, 1:], axis=1))
    mids = mids[ordered]
    points = np.concatenate([mids, np.broadcast_to(marks, (len(ordered), len(marks)))], axis=1)
    signs = filtered_signs([polys[c] for c in ordered], points, coeffs[ordered])
    top = np.array([(polys[c][-1] > 0) - (polys[c][-1] < 0) for c in ordered], dtype=int)
    at_cuts = np.concatenate([(top * (-1) ** n)[:, None], signs[:, :n - 1], top[:, None]], axis=1)
    at_marks = signs[:, n - 1:]
    holds = (np.all(at_cuts != 0, axis=1) & np.all(at_cuts[:, 1:] == -at_cuts[:, :-1], axis=1)
             & np.all(at_marks != 0, axis=1))
    cuts = np.concatenate([np.full((len(ordered), 1), -np.inf), mids,
                           np.full((len(ordered), 1), np.inf)], axis=1)
    # g cuts lie at or below a mark (-inf always, +inf never); the root
    # after the last of them is below the mark too when the signs there and
    # at the mark differ
    g = np.sum(cuts[:, :, None] <= marks, axis=1)
    below = g - 1 + (at_marks != np.take_along_axis(at_cuts, g - 1, axis=1))
    found = [None] * len(polys)
    for c, t, s, b in zip(ordered[holds], cuts[holds].tolist(), at_cuts[holds, 0].tolist(),
                          below[holds].tolist()):
        found[c] = (t, s, b, (float(xs[c, 0]), float(xs[c, -1])))
    return found


def _extremes(p: list[int], marks: list[float], cuts: list[float], lead: int,
              below: list[int], guesses) -> list[float]:
    """The nearest doubles of the smallest and largest roots of p (one for
    degree 1), from its sign certificate (_sign_certificates) over the
    ascending marks, when some mark lies below every root and some above:
    each is found inside its gap narrowed by the two marks that bracket it
    (_root_between), from its estimate."""
    n = len(p) - 1
    found = []
    for i, guess in {0: guesses[0], n - 1: guesses[1]}.items():
        j = bisect.bisect_right(below, i)  # marks[j - 1] < root i < marks[j]
        lo, hi = max(cuts[i], marks[j - 1]), min(cuts[i + 1], marks[j])
        found.append(_root_between(p, lo, hi, lead * (-1) ** i, guess))
    return found


def _root_between(p: list[int], lo: float, hi: float, s_lo: int, guess: float) -> float:
    """The double nearest the one root of p in (lo, hi), where p has the
    nonzero sign s_lo at lo and the opposite one at hi.

    Newton steps from guess, each with the exact values of p and p' at the
    current double, usually land on the answer; it is certified when the
    exact signs of p at the midpoints to the neighbouring doubles bracket
    the root inside (lo, hi), since every point between those midpoints
    rounds to it. Otherwise bisection starts from the first of the narrow
    brackets around guess that holds the root.
    """
    x = _newton_double(p, lo, hi, guess)
    if lo < x < hi:  # lo and hi are doubles, so both midpoints lie in (lo, hi)
        below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
        for (a, b), want in (((below, x), s_lo), ((x, above), -s_lo)):
            s, tie = _sign_between(p, a, b)
            if s == 0:  # the root itself
                return tie
            if s != want:
                break
        else:
            return x
    for half in _BRACKETS:
        a, b = max(lo, guess - half), min(hi, guess + half)
        if _sign_at_double(p, a) == s_lo and _sign_at_double(p, b) != s_lo:
            lo, hi = a, b
            break
    (num_lo, num_hi), k = dyadic_numerators([lo, hi])
    return _bisect_to_double(p, num_lo, num_hi, k)


def _newton_double(p: list[int], lo: float, hi: float, x: float) -> float:
    """Up to _NEWTON_STEPS Newton steps for a root of p from the double x,
    each step p(x) / p'(x) from exact integer values, correctly rounded;
    stops early when a step leaves x unchanged or would leave (lo, hi)."""
    dp = [j * c for j, c in enumerate(p)][1:]
    for _ in range(_NEWTON_STEPS):
        (num,), k = dyadic_numerators([x])
        slope = _value_at(dp, num, k) << k  # 2^(k deg p) p'(x): the scale of p's value
        if slope == 0:
            break
        try:
            moved = x - _value_at(p, num, k) / slope
        except OverflowError:  # a step past the double range
            break
        if moved == x or not lo < moved < hi:
            break
        x = moved
    return x


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


def _horner(asc, z):
    acc = 0.0
    for c in asc[::-1]:
        acc = acc * z + c
    return acc


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


def integer_poly(p: Poly) -> list[int]:
    """The primitive integer polynomial with the roots of p, exactly: its
    double coefficients, and the parameters of its basis, are binary
    rationals, so its monomial coefficients are rationals."""
    if not all(map(math.isfinite, p.coeffs)):
        raise NonFiniteError(f"coefficients must be finite, got {p.coeffs}")
    coeffs = np.array([Fraction(c) for c in p.coeffs], dtype=object)
    params = jacobi_params(p.basis)
    if params is not None:
        coeffs = coeffs @ jacobi_coefficient_rows(p.degree, *map(Fraction, params))
    return primitive_part(coeffs)


# ---------------------------------------------------------------------------
# diagnostic roots: double eigenvalues, read by no verdict
# ---------------------------------------------------------------------------

def poly_roots(p: Poly) -> list[complex]:
    """All degree-many roots (with multiplicity) of p, as the double
    eigenvalues of its monomial companion matrix: a diagnostic, read by no
    verdict (root_report and locate decide where the roots lie)."""
    mono = basis_to_monomial(p)
    if mono.degree < 1:
        raise DegreeZeroError("root finding needs degree >= 1")
    return [complex(z) for z in np.roots(mono.array[::-1])]


def diagnostic_roots(p: list[int]) -> list[complex]:
    """Double eigenvalues of the integer polynomial p, whose coefficients are
    first scaled into double range by one power of two: a diagnostic."""
    shift = max(abs(c) for c in p).bit_length() - 512
    scaled = [c / (1 << shift) if shift > 0 else float(c << -shift) for c in p]
    return [complex(z) for z in np.roots(scaled[::-1])]


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

    classify_roots reads the classification from the roots it is given:
    all_strictly_inside iff every root r satisfies |Im r| <= tol and
    lo + tol < Re r < hi - tol. root_report takes it from exact counts
    instead, where non-real means Im r != 0 and a multiple root counts once;
    its roots are read by no verdict. Non-real beats outside beats
    on-boundary when several roots misbehave.
    """

    roots: tuple[complex, ...]
    interval: tuple[float, float]
    tol: float
    classification: RootLocation


def _band(interval, tol: float) -> tuple[float, float]:
    """The interval's ends as doubles, once lo < hi and tol > 0 are checked."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise BadIntervalError(f"need lo < hi, got ({lo}, {hi})")
    if not tol > 0:
        raise BadParameterError("tol must be strictly positive")
    return lo, hi


def classify_roots(roots, interval, tol: float) -> RootReport:
    """Classify a root multiset against an open interval with tolerance tol."""
    lo, hi = _band(interval, tol)
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


# ---------------------------------------------------------------------------
# exact root location: every verdict on where roots lie
# ---------------------------------------------------------------------------
#
# Integer polynomials come from exact images (transforms.exact_image) or
# from double Polys (integer_poly). Sturm counts decide, with the
# sign-change certificate first for the campaigns' batches (verdicts); a
# root read from a double eigenvalue is a diagnostic only.

def locate(p: list[int], interval, tol: float) -> RootLocation:
    """classify_roots' verdict on interval with tolerance tol for the roots
    of the integer polynomial p, from exact Sturm counts: non-real means
    Im r != 0, and a multiple root counts once. The interval's ends are
    doubles."""
    lo, hi = _band(interval, tol)
    if len(p) == 1:
        return RootLocation.ALL_STRICTLY_INSIDE
    return _locate(sturm_sequence(p), lo, hi, tol)


def root_report(p: list[int], interval, tol: float) -> RootReport:
    """locate's verdict for the integer polynomial p, with its roots: the
    nearest doubles of its distinct roots, ascending, when all are real, and
    otherwise its diagnostic_roots."""
    lo, hi = _band(interval, tol)
    if len(p) == 1:
        return RootReport((), (lo, hi), tol, RootLocation.ALL_STRICTLY_INSIDE)
    seq = sturm_sequence(p)
    location = _locate(seq, lo, hi, tol)
    if location is RootLocation.SOME_NON_REAL:
        roots = diagnostic_roots(p)
    else:
        bound = root_bound(seq[0])
        roots = nearest_double_roots(seq, -bound, bound)
    return RootReport(tuple(map(complex, roots)), (lo, hi), tol, location)


def exact_verdict(p: list[int], tol: float) -> tuple[RootLocation, list[complex]]:
    """locate's verdict on (-1, 1) for the integer polynomial p, plus the
    roots read for the reported distances.

    When every distinct root lies in (-1, 1], those are the nearest doubles
    of the smallest and largest. Otherwise they are diagnostic_roots.
    """
    if len(p) == 1:
        return RootLocation.ALL_STRICTLY_INSIDE, []
    seq = sturm_sequence(p)
    distinct = len(seq[0]) - 1
    location = _locate(seq, -1.0, 1.0, tol)
    if count_roots(seq, -1, 1) == distinct:
        return location, list(map(complex, nearest_double_roots(seq, -1, 1, {0, distinct - 1})))
    return location, diagnostic_roots(p)


def verdicts(polys: list[list[int]], tol: float, approx=None, read_roots=None) -> list:
    """For each integer polynomial polys[c], exact_verdict on its primitive
    part when read_roots[c] (every c by default), and otherwise locate's
    verdict on (-1, 1) with no roots: the one route by which the campaigns
    decide where an exact image's roots lie.

    The sign-change certificate (_sign_certificates) decides first, over the
    whole line. approx[c] estimates the deg polys[c] roots of polys[c]; by
    default one eigvals call per degree on the companion matrices of the
    _unit_scaled coefficients, which filtered_signs reads too. The certificate is marked
    at the band ends -1 - tol, -1 + tol, 1 - tol and 1 + tol and at +-1: its
    counts below them are _locate's, since no root sits on a mark, and
    every root lies in (-1, 1) when none is below -1 and all are below 1.
    Only then are roots read, the extremes inside gaps that those marks
    bracket (_extremes); otherwise they are diagnostic_roots. Sturm counts
    decide where the certificate fails, so no verdict rests on a root finder.
    """
    read_roots = [True] * len(polys) if read_roots is None else read_roots
    ends = (-1.0 - tol, -1.0 + tol, 1.0 - tol, 1.0 + tol, -1.0, 1.0)
    marks = sorted(set(ends))
    lo_out, lo_in, hi_in, hi_out, minus, plus = map(marks.index, ends)
    found = [(RootLocation.ALL_STRICTLY_INSIDE, []) for _ in polys]  # a constant's
    for n in sorted({len(p) - 1 for p in polys} - {0}):
        group = [c for c, p in enumerate(polys) if len(p) - 1 == n]
        group_polys = [polys[c] for c in group]
        coeffs = np.array([_unit_scaled(p) for p in group_polys])
        estimates = (_companion_roots(coeffs) if approx is None
                     else np.array([approx[c] for c in group], dtype=complex))
        certificates = _sign_certificates(group_polys, coeffs, estimates, np.array(marks))
        for c, p, certificate in zip(group, group_polys, certificates):
            if certificate is None:
                p = primitive_part(p)
                found[c] = (exact_verdict(p, tol) if read_roots[c]
                            else (locate(p, (-1.0, 1.0), tol), []))
                continue
            below = certificate[2]
            flag = (RootLocation.SOME_OUTSIDE if below[hi_out] - below[lo_out] < n
                    else RootLocation.SOME_ON_BOUNDARY if below[hi_in] - below[lo_in] < n
                    else RootLocation.ALL_STRICTLY_INSIDE)
            found[c] = (flag, [] if not read_roots[c]
                        else _extremes(p, marks, *certificate)
                        if below[minus] == 0 and below[plus] == n
                        else diagnostic_roots(primitive_part(p)))
    return found
