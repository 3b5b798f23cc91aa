"""Polynomial values: tagged-basis coefficient vectors, evaluation, roots,
and root-location classification against an interval.

A Poly is immutable and carries its basis tag (monomial, ultraspherical, or
Jacobi). Evaluation uses Horner in the monomial basis and Clenshaw's
recurrence otherwise. Where roots lie is decided once, here, for the
campaigns and the library alike, from exact integer polynomials: by Sturm
counts (locate, exact_verdict, root_report), and for the campaigns'
images by one function, verdicts, that tries a sign-change certificate
over the whole line first and falls back to those counts. The
certificate's signs, and the nearest doubles of roots, are read on a
double-double enclosure of each polynomial (Enclosure, filtered_signs,
_read_roots), with an a-priori error bound that certifies each sign it
settles; the exact integer polynomial is built, and its signs taken in
integers, only where that bound does not settle one. One function,
_nearest_roots, reads every root reported as a double, for verdicts and
the Sturm route (nearest_double_roots) alike: the enclosure's reader
first, exact bisection where it certifies none. Double eigenvalues
(poly_roots, diagnostic_roots) are diagnostics only.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import InitVar, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .enclosure import _SMALLEST_SUBNORMAL, _UNIT_ROUNDOFF, _to_double
from .errors import (
    BadIntervalError,
    BadParameterError,
    DegreeZeroError,
    NonFiniteError,
)
from .precision import DEFAULT_TAU_TRIM


def check_params(**params) -> None:
    """Raise BadParameterError unless every named family parameter is finite
    and exceeds -1."""
    for name, value in params.items():
        if not value > -1:
            raise BadParameterError(f"{name} must exceed -1, got {float(value)}")
        if value == math.inf:
            raise BadParameterError(f"{name} must be finite, got {float(value)}")


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
# Jacobi three-term recurrence: one integer statement
# ---------------------------------------------------------------------------
#
# P_(k+1) = (A_k x + B_k) P_k - C_k P_(k-1) is written once, in integers
# (_recurrence_integers): Szego (4.5.1) with alpha = A/d and beta = B/d
# over their least common denominator d (a power of two for doubles, which
# are binary rationals) and d^3 cleared. Everything else reads it:
# jacobi_recurrence as exact Fractions or correctly rounded doubles,
# jacobi_rows_int as integer rows, and jacobi_coefficient_rows and
# series_image as those rows over their denominator.

@functools.lru_cache(maxsize=64)
def _common_denominator(alpha, beta) -> tuple[int, int, int]:
    """A, B and the least d > 0 with alpha = A/d and beta = B/d."""
    a, b = Fraction(alpha), Fraction(beta)
    d = math.lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def _recurrence_integers(k: int, big_a: int, big_b: int, d: int) -> tuple[int, int, int, int]:
    """(NA, NB, NC, E) with E P_(k+1) = (NA x + NB) P_k - NC P_(k-1); with
    t = 2dk + A + B, E = 2(k + 1)(d(k + 1) + A + B) t d for k >= 1, and at
    k = 0, NC = 0 and P_1 = ((A + B + 2d) x + A - B) / (2d)."""
    s = big_a + big_b
    if k == 0:
        return s + 2 * d, big_a - big_b, 0, 2 * d
    t = 2 * d * k + s
    return ((t + d) * (t + 2 * d) * t, (t + d) * (big_a * big_a - big_b * big_b),
            2 * (d * k + big_a) * (d * k + big_b) * (t + 2 * d),
            2 * (k + 1) * (d * (k + 1) + s) * t * d)


@functools.lru_cache(maxsize=4096, typed=True)
def jacobi_recurrence(k: int, alpha, beta):
    """(A, B, C) with P_(k+1) = (A x + B) P_k - C P_(k-1), so C = 0 and
    P_1 = A x + B at k = 0: Fractions for Fraction parameters, and
    otherwise the exact ratios rounded once to doubles (cached)."""
    *nums, e = _recurrence_integers(k, *_common_denominator(alpha, beta))
    if isinstance(alpha + beta, Fraction):
        return tuple(Fraction(n, e) for n in nums)
    return tuple(_to_double(n, 0, e) for n in nums)


def jacobi_rows_int(deg_cap: int, alpha, beta, scale) -> list[list[int]]:
    """Integer rows of x^k -> scale(k, alpha) P_k^(alpha,beta) through deg_cap.

    scale is a positive per-degree factor of Fraction(alpha), 1 at k = 0
    (None is 1 throughout). Row k is D scale(k, alpha) times the exact
    Jacobi row k, with D = rows[0][0] the least positive integer clearing
    every denominator, so an image through the rows is a positive multiple
    of the exact one. P_k = Q_k / D_k with D_0 = 1, D_(k+1) = D_k E_k and
    Q_(k+1) = (NA x + NB) Q_k - NC E_(k-1) Q_(k-1), all integers.
    """
    a, b = Fraction(alpha), Fraction(beta)
    check_params(alpha=a, beta=b)
    big_a, big_b, d = _common_denominator(a, b)
    q, dens, e_prev = [[1]], [1], 0
    for k in range(deg_cap):
        na, nb, nc, e = _recurrence_integers(k, big_a, big_b, d)
        nxt = [nb * c for c in q[k]] + [0]
        for j, c in enumerate(q[k]):
            nxt[j + 1] += na * c
        nc *= e_prev  # 0 at k = 0, where q[k - 1] is q[0]
        for j, c in enumerate(q[k - 1]):
            nxt[j] -= nc * c
        q.append(nxt)
        dens.append(dens[-1] * e)
        e_prev = e
    scales = [Fraction(1 if scale is None else scale(k, a)) for k in range(deg_cap + 1)]
    dens = [f.denominator * den for f, den in zip(scales, dens)]
    common = math.lcm(*dens)
    rows = [[f.numerator * (common // den) * c for c in row] for f, den, row in zip(scales, dens, q)]
    g = math.gcd(common, *(c for row in rows for c in row))
    return [[c // g for c in row] for row in rows]


# The library's rows (jacobi_coefficient_rows, series_image), cached and
# shared, so read only.
_cached_rows = functools.lru_cache(maxsize=32)(jacobi_rows_int)


def jacobi_coefficient_rows(n: int, alpha, beta) -> np.ndarray:
    """Monomial coefficients of the Jacobi family through degree n: row k
    holds the degree-k member's, ascending (zero beyond column k), as the
    integer rows over their denominator, in exact Fractions for Fraction
    parameters and otherwise each rounded once to a double."""
    rows = _cached_rows(n, alpha, beta, None)
    exact, den = isinstance(alpha + beta, Fraction), rows[0][0]
    out = np.zeros((n + 1, n + 1), dtype=object if exact else float)
    for k, row in enumerate(rows):
        out[k, : k + 1] = [Fraction(c, den) if exact else _to_double(c, 0, den) for c in row]
    return out


def jacobi_matrix(n: int, alpha: float, beta: float) -> tuple[np.ndarray, float]:
    """The n x n matrix M with x P_k = M[k, k-1] P_(k-1) + M[k, k] P_k +
    M[k, k+1] P_(k+1) by the three-term recurrence, k < n, whose last row
    leaves out P_n / A, and A. The eigenvalues of M are the roots of P_n."""
    m = np.zeros((n, n))
    a, b, _ = jacobi_recurrence(0, alpha, beta)
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
    one eigvals call. Each matrix goes in transposed, which is upper
    Hessenberg (the series fills the last row), so LAPACK's reduction to
    Hessenberg form has nothing to do.

    A series whose matrix is not finite (weights that underflowed to zero,
    or an overflowing recurrence) has no estimates: its row is NaN.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[1] - 1
    m, a = jacobi_matrix(n, alpha, beta)
    stack = np.repeat(m.T[None], len(w), axis=0)
    with np.errstate(all="ignore"):
        stack[:, :, n - 1] -= w[:, :n] / (w[:, n:] * a)
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
    sequence's first entry p, ascending: of the index-th smallest (from 0)
    for each index in indices, or of all of them.

    One pass of Sturm bisection isolates them: an interval is halved while
    it holds a wanted root and another root, and its ends round to different
    doubles (once they round to the same one, every root inside does too).
    _nearest_roots then reads the isolated roots on p's enclosure, each
    from the nearest of p's diagnostic_roots inside its interval, whose ends
    are doubles unless it is narrower than an ulp or leaves the doubles;
    exact bisection (_bisect_to_double) reads the root of such an interval.
    """
    p = seq[0]
    isolated = []  # (lo, hi, k, copies of its double), ascending
    stack = [(lo, hi, 0, _variations(seq, lo, 0), _variations(seq, hi, 0), 0)]
    while stack:  # depth first, the lower half first; first indexes the lowest root inside
        lo, hi, k, v_lo, v_hi, first = stack.pop()
        wanted = [i for i in range(first, first + v_lo - v_hi) if indices is None or i in indices]
        if not wanted:
            continue
        if v_lo - v_hi == 1 or _to_double(lo, k) == _to_double(hi, k):
            isolated.append((lo, hi, k, len(wanted)))
            continue
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = _variations(seq, mid, k)
        stack += [(mid, hi, k, v_mid, v_hi, first + v_lo - v_mid), (lo, mid, k, v_lo, v_mid, first)]
    found, reads = [], []  # reads: (index in found, double bracket, sign left of the root)
    for lo, hi, k, copies in isolated:
        a, b = _to_double(lo, k), _to_double(hi, k)
        if copies > 1 or a == b or not (s := _sign_at(p, hi, k)):
            found.append(b)  # every root inside rounds to b, or the root is hi
        elif Fraction(lo, 1 << k) == a and Fraction(hi, 1 << k) == b:  # finite doubles
            reads.append((len(found), a, b, -s))
            found.append(None)
        else:
            found.append(_bisect_to_double(p, lo, hi, k))
    if reads:
        estimates = np.sort([z.real for z in diagnostic_roots(p)])
        at, a, b, s_lo = zip(*reads)
        centre = (np.array(a) + np.array(b)) / 2
        guess = (estimates[np.abs(estimates[None, :] - centre[:, None]).argmin(axis=1)]
                 if estimates.size else centre)
        for i, root in zip(at, _nearest_roots(Enclosure.of_integers([p]), [0] * len(reads),
                                              a, b, s_lo, guess)):
            found[i] = root
    return [root for root, (*_, copies) in zip(found, isolated) for _ in range(copies)]


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
# double-double enclosures: certified signs without big integers
# ---------------------------------------------------------------------------
#
# A double-double (dd) number is an unevaluated sum hi + lo of doubles with
# |lo| <= u |hi| (u = 2^-53). The operations act elementwise on numpy
# arrays: TwoSum (Knuth), TwoProduct by Veltkamp's split (Dekker), and from
# them AccurateDWPlusDW, DWPlusFP and DWTimesDW1 of Joldes, Muller and
# Popescu ("Tight and rigorous error bounds for basic building blocks of
# double-word arithmetic", ACM TOMS 44(2), 2017). A direct count of their
# roundings bounds their relative errors by 3u^2 + O(u^3) for a dd number
# plus a dd number (they prove 3u^2 + 13u^3) or a double, by 8u^2 + O(u^3)
# for a product of dd numbers, and by 3u^2 + O(u^3) for a dd number times a
# double, where two of the product's roundings vanish; _DD_ADD, _DD_MUL and
# _DD_MUL_FP bound them with u^2 / 2 to spare. That holds while nothing
# overflows or underflows. An overflow leaves an inf or a nan, which every
# test below reads as unsettled; a sum of doubles does not round in the
# subnormals, and a product that underflows adds at most _DD_ETA
# absolutely.
#
# An Enclosure holds integer polynomials up to a positive factor, each as dd
# coefficients b^_j and radii rho_j that bound |b^_j - b_j|, and _dd_signs
# evaluates them at dd points: where |v^| clears a bound on its error
# (derived there), the sign of the value v^ is the exact polynomial's,
# since dividing by a positive factor keeps it. Where the filter cannot
# settle a sign, the exact integer polynomial is built (Enclosure.exact)
# and its sign taken exactly.

_DD_ADD = 3.5 * 2.0 ** -106
_DD_MUL = 8.5 * 2.0 ** -106
_DD_MUL_FP = 3.5 * 2.0 ** -106
_DD_ETA = 16 * _SMALLEST_SUBNORMAL
_SPLITTER = 2.0 ** 27 + 1
# Below this size the neighbouring midpoints of a double are not dd points.
_TINY = 2.0 ** -1000


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _dd_add(xh, xl, yh, yl):
    """(xh + xl) + (yh + yl), AccurateDWPlusDW."""
    sh, sl = _two_sum(xh, yh)
    th, tl = _two_sum(xl, yl)
    vh, vl = _fast_two_sum(sh, sl + th)
    return _fast_two_sum(vh, tl + vl)


def _dd_add_fp(xh, xl, y):
    """(xh + xl) + y for a double y, DWPlusFP."""
    sh, sl = _two_sum(xh, y)
    return _fast_two_sum(sh, xl + sl)


def _dd_mul(xh, xl, yh, yl=None, y_split=None):
    """(xh + xl)(yh + yl), DWTimesDW1 with Dekker's TwoProduct, or with yl
    None, (xh + xl) yh for a double yh; y_split is _split(yh), when the
    caller has it already."""
    p = xh * yh
    ah, al = _split(xh)
    bh, bl = _split(yh) if y_split is None else y_split
    error = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return _fast_two_sum(p, error + (xl * yh if yl is None else xh * yl + xl * yh))


def _dd_split(c: int, s: int) -> tuple[float, float, float]:
    """c / 2^s (s >= 0) as hi + lo, each the double nearest what is left,
    and an upper bound on |c / 2^s - hi - lo|, 0 when that is exact."""
    parts, num, k = [], c, s  # what is left is num / 2^k
    for _ in range(2):
        part = _to_double(num, k)
        top, den = part.as_integer_ratio()
        shift = den.bit_length() - 1
        num, k = (num << shift) - (top << k), k + shift
        parts.append(part)
    return parts[0], parts[1], math.nextafter(abs(_to_double(num, k)), math.inf) if num else 0.0


def _dd_coefficients(polys: list[list[int]], common: bool = False) -> np.ndarray:
    """The integer polynomials polys as a (3, len(polys), width) array of
    hi, lo and radius, zero past each one's end: coefficient j of p over
    the power of two that brings max |p_i| into [1, 2), for each p on its
    own or for all of them together when common, split into hi + lo
    (_dd_split), exactly where it fits 106 bits and with the radius of the
    rest otherwise."""
    shifts = [max(max(abs(v) for v in p).bit_length() - 1, 0) for p in polys]
    if common:
        shifts = [max(shifts, default=0)] * len(polys)
    out = np.zeros((3, len(polys), max((len(p) for p in polys), default=1)))
    for c, (p, s) in enumerate(zip(polys, shifts)):
        for j, v in enumerate(p):
            out[:, c, j] = _dd_split(v, s)
    return out


class Enclosure:
    """Integer polynomials, row c known up to a positive factor: its
    coefficient j lies within radius[c, j] of the dd number hi[c, j] +
    lo[c, j], and is zero past degrees[c]. exact(c) builds the integer
    polynomial itself (build(c), once), whose roots and signs it shares;
    its last coefficient is its leading one."""

    def __init__(self, hi, lo, radius, degrees, build):
        self.hi, self.lo, self.radius = hi, lo, radius
        self.degrees = np.asarray(degrees, dtype=int)
        self._build, self._built = build, {}

    @classmethod
    def of_integers(cls, polys: list[list[int]]) -> Enclosure:
        """The integer polynomials themselves, each over its own power of
        two (_dd_coefficients)."""
        return cls(*_dd_coefficients(polys), [len(p) - 1 for p in polys], polys.__getitem__)

    def __len__(self) -> int:
        return len(self.degrees)

    def exact(self, c: int) -> list[int]:
        if c not in self._built:
            self._built[c] = self._build(c)
        return self._built[c]

    def estimates(self) -> list[np.ndarray]:
        """Roots of each row's hi coefficients, by one eigvals call per
        degree on their companion matrices (_companion_roots)."""
        found = [np.empty(0, dtype=complex)] * len(self)
        for n in sorted(set(self.degrees.tolist()) - {0}):
            group = np.flatnonzero(self.degrees == n)
            for c, row in zip(group.tolist(), _companion_roots(self.hi[group, :n + 1])):
                found[c] = row
        return found


def _dd_signs(enc: Enclosure, rows, xh, xl=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signs of the polynomials enc.exact(c), c in rows, at the dd
    points (xh[i], xl[i]) of each row i (doubles where xl is None), where
    the filter settles them: (signs, settled, the dd values' hi parts). An
    unsettled sign reads 0.

    The value is v^ = h^ + l^ (DWPlusFP): h^ is the dd Horner value of the
    hi parts at x = xh + xl, each step a product and a DWPlusFP, and l^ the
    double Horner value of the lo parts at xh. With X = |xh| + |xl|:
    - a term hi_j x^j meets at most n products and n sums, so h^ is within
      gamma(n (mul + _DD_ADD)) sum_j |hi_j| X^j of sum_j hi_j x^j, where
      gamma(e) = e / (1 - e) bounds |prod (1 + d_i) - 1| for relative
      errors |d_i| summing to e, and mul is _DD_MUL_FP at double points and
      _DD_MUL otherwise (Higham, Accuracy and Stability of Numerical
      Algorithms, 5.1, in dd units; Graillat, Langlois and Louvet, JJIAM
      26, 2009, for Horner in extended precision);
    - l^ is within (3n + 1) u sum_j |lo_j| X^j of sum_j lo_j x^j: gamma_2n
      for its roundings, and n u for |x^j - xh^j| <= j |xl| X^(j-1) with
      |xl| <= u |xh|;
    - the coefficients' radii add sum_j radius_j X^j, a product that
      underflows at most _DD_ETA at each of the 2n + 2 operations on a
      term, times max(1, X)^n, and the last sum keeps the sign of h^ + l^.
    So the bound is (T + (2n + 2) _DD_ETA max(1, X)^n)(1 + (3n + 10)
    2^-52), with T = sum_j w_j X^j by double Horner on w_j = gamma(...)
    (1 + 2u) |hi_j| + (3n + 1) u |lo_j| + radius_j: T's 2n roundings, the n
    of X^j, those of w and of this sum and product, and |vh| >= |v^|(1 -
    2u) are each one u that the factor covers twice over.

    Every Horner pass runs on the rows sorted by degree, each step on the
    rows whose degree exceeds it, so the padding costs nothing.
    """
    n = enc.degrees[rows]
    order = np.argsort(-n, kind="stable")
    rows, n = np.asarray(rows)[order], n[order]
    xh = xh[order]
    hi, lo, radius = enc.hi[rows], enc.lo[rows], enc.radius[rows]
    unit = (_DD_MUL_FP if xl is None else _DD_MUL) + _DD_ADD
    steps = [(j, int(np.count_nonzero(n > j))) for j in range(int(n.max(initial=0)) - 1, -1, -1)]
    at_top = (np.arange(len(rows)), n)
    with np.errstate(all="ignore"):  # overflow and nan are read as unsettled
        size = np.abs(xh)
        if xl is not None:
            xl = xl[order]
            size = size + np.abs(xl)
        x_split = _split(xh)
        vh = np.repeat(hi[at_top][:, None], xh.shape[1], axis=1)
        vl = np.zeros_like(vh)
        low = np.repeat(lo[at_top][:, None], xh.shape[1], axis=1)
        for j, m in steps:
            ph, pl = _dd_mul(vh[:m], vl[:m], xh[:m], None if xl is None else xl[:m],
                             (x_split[0][:m], x_split[1][:m]))
            vh[:m], vl[:m] = _dd_add_fp(ph, pl, hi[:m, j:j + 1])
            low[:m] = low[:m] * xh[:m] + lo[:m, j:j + 1]
        vh, _ = _dd_add_fp(vh, vl, low)
        n = n[:, None]
        w = (n * unit / (1 - n * unit) * (1 + 2 * _UNIT_ROUNDOFF) * np.abs(hi)
             + (3 * n + 1) * _UNIT_ROUNDOFF * np.abs(lo) + radius)
        total = np.repeat(w[at_top][:, None], xh.shape[1], axis=1)
        for j, m in steps:
            total[:m] = total[:m] * size[:m] + w[:m, j:j + 1]
        bound = ((total + (2 * n + 2) * _DD_ETA * np.maximum(size, 1.0) ** n)
                 * (1 + (3 * n + 10) * 2.0 ** -52))
        settled = np.abs(vh) > bound
    back = np.argsort(order)
    return (np.where(settled, np.sign(vh), 0).astype(int)[back], settled[back], vh[back])


def filtered_signs(enc: Enclosure, rows, points, need=None) -> np.ndarray:
    """The exact signs of the polynomials enc.exact(c), c in rows, at the
    finite doubles points[i, :] for row i, where need (all by default)
    asks for them, and 0 elsewhere: _dd_signs' where it settles them, and
    otherwise _sign_at's on the exact polynomial, built then."""
    points = np.asarray(points, dtype=float)
    signs, settled, _ = _dd_signs(enc, rows, points)
    missing = ~settled if need is None else need & ~settled
    for i, j in zip(*np.nonzero(missing)):
        signs[i, j] = _sign_at_double(enc.exact(rows[i]), points[i, j])
    return signs


def _midpoints(a, b):
    """The midpoints of the adjacent finite doubles a < b as dd points (hi,
    lo): exact where |a| and |b| are at least _TINY."""
    hi = (a + b) * 0.5
    return hi, ((a - hi) + (b - hi)) * 0.5


def _read_roots(enc: Enclosure, rows, lo, hi, s_lo, guess):
    """The doubles nearest the one root of enc.exact(rows[i]) in (lo[i],
    hi[i]), doubles, left of which it has the sign s_lo[i], where the
    filter certifies them: (x, certified, lo, hi), the last two the
    brackets narrowed by settled signs, with the sign s_lo at lo and the
    opposite one at hi where the original ends have them.

    Safeguarded Newton steps from guess on the enclosure's dd values land on
    a double x: the first from the value at guess, the later ones from the
    mean of the values at the midpoints to x's neighbouring doubles, and
    each settled sign narrows the bracket. x is certified when _dd_signs
    settles the signs at those midpoints as s_lo and -s_lo inside (lo, hi),
    since every point between them rounds to x, and it moves one double
    when both signs agree. Where the filter cannot settle those signs
    within _READ_PASSES passes (a root at a midpoint, say), x is the last
    double reached.
    """
    rows = np.asarray(rows, dtype=int)
    lo0, hi0, s_lo = (np.array(v, dtype=float) for v in (lo, hi, s_lo))
    lo, hi = lo0.copy(), hi0.copy()
    x = np.array(guess, dtype=float)
    x = np.where((lo < x) & (x < hi), x, (lo + hi) / 2)
    certified = np.zeros(len(rows), dtype=bool)
    live = np.flatnonzero(np.isfinite(x) & (np.abs(x) >= _TINY))
    for first in [True] + [False] * (_READ_PASSES - 1):
        if not live.size:
            break
        xa, want = x[live], s_lo[live][:, None]
        below, above = np.nextafter(xa, -np.inf), np.nextafter(xa, np.inf)
        if first:  # the estimate is rarely the answer: a Newton step from it
            signs, settled, values = _dd_signs(enc, rows[live], xa[:, None])
            value = values[:, 0]
            past = short = xa[:, None]
        else:  # the midpoints to the neighbours, whose values average p(x)
            (h_lo, l_lo), (h_hi, l_hi) = _midpoints(below, xa), _midpoints(xa, above)
            signs, settled, values = _dd_signs(enc, rows[live], np.stack([h_lo, h_hi], axis=1),
                                               np.stack([l_lo, l_hi], axis=1))
            value = values.mean(axis=1)
            past, short = np.stack([below, xa], axis=1), np.stack([xa, above], axis=1)
        # a settled sign puts the root beyond its point, or before it, and
        # the double next to the point on that side bounds the bracket
        beyond, before = settled & (signs == want), settled & (signs == -want)
        lo[live] = np.maximum(lo[live], np.where(beyond, past, -np.inf).max(axis=1))
        hi[live] = np.minimum(hi[live], np.where(before, short, np.inf).min(axis=1))
        landed = (beyond[:, 0] & before[:, -1] & (lo0[live] < xa) & (xa < hi0[live])
                  & (not first))
        certified[live[landed]] = True
        with np.errstate(all="ignore"):
            step = xa - value / _derivative_at(enc.hi[rows[live]], xa)
        inside = ((lo[live] < step) & (step < hi[live])) | (step == xa)
        step = np.where(inside, step, (lo[live] + hi[live]) / 2)
        step = np.where(beyond.all(axis=1) & (step <= xa), above,
                        np.where(before.all(axis=1) & (step >= xa), below, step))
        x[live] = np.where(landed, xa, step)
        stuck = ~settled.any(axis=1) & (not first)  # the filter is at its limit here
        live = live[~landed & ~stuck & np.isfinite(step) & (np.abs(step) >= _TINY)]
    return x, certified, lo, hi


def _nearest_roots(enc: Enclosure, rows, lo, hi, s_lo, guess) -> list[float]:
    """_read_roots' doubles, and wherever the filter did not certify one,
    _bisect_to_double's on the exact polynomial: inside the narrowest of
    _BRACKETS around the last double reached whose ends' exact signs hold
    the root, or else (and where that double overflowed) inside the
    narrowed bracket."""
    x, certified, lo, hi = _read_roots(enc, rows, lo, hi, s_lo, guess)
    found = []
    for c, root, ok, a, b, s in zip(rows, x.tolist(), certified.tolist(), lo.tolist(),
                                    hi.tolist(), s_lo):
        if not ok:
            p = enc.exact(c)
            for half in _BRACKETS if math.isfinite(root) else ():
                near = max(a, root - half), min(b, root + half)
                if _sign_at_double(p, near[0]) == s and _sign_at_double(p, near[1]) != s:
                    a, b = near
                    break
            (num_a, num_b), k = dyadic_numerators([a, b])
            root = _bisect_to_double(p, num_a, num_b, k)
        found.append(root)
    return found


def _derivative_at(hi, x):
    """The double Horner value of the derivative of each row of hi at x[i]."""
    n = hi.shape[1] - 1
    with np.errstate(all="ignore"):
        acc = n * hi[:, n]
        for j in range(n - 1, 0, -1):
            acc = acc * x + j * hi[:, j]
    return acc


# ---------------------------------------------------------------------------
# sign-change certificate: approximate roots pick points, certified signs decide
# ---------------------------------------------------------------------------
#
# Rump, "Verification methods", Acta Numerica 2010: the estimates may come
# from any floating-point method, since a wrong estimate can only make the
# certificate fail, never make it pass. Every sign is certified
# (filtered_signs), and the certificate takes a whole batch, padded to its
# largest degree, in one pass; a single polynomial is a batch of one.

# Half-widths of the brackets that _nearest_roots tries around the last
# double the dd reader reached before its whole bracket: that double is
# rarely more than a few ulps from the root, each halving a bracket saves is
# one exact sign evaluation, and the second catches most of the rest.
_BRACKETS = (2.0 ** -46, 2.0 ** -32)
# Passes of _read_roots before the exact route takes over; from the comrade
# estimates the first pass's Newton step usually lands and the second
# confirms.
_READ_PASSES = 6


def dyadic_numerators(points) -> tuple[list[int], int]:
    """Integers num and one k >= 0 with x = num / 2^k for each double x
    (every double is a binary rational)."""
    ratios = [float(x).as_integer_ratio() for x in points]
    k = max((den.bit_length() for _, den in ratios), default=1) - 1
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def _sign_at_double(p: list[int], x: float) -> int:
    (num,), k = dyadic_numerators([x])
    return _sign_at(p, num, k)


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


def _sign_certificates(enc: Enclosure, rows, approx, marks: np.ndarray) -> dict:
    """What certified signs prove of the polynomials p = enc.exact(c), c in
    rows, of degrees n >= 1, whose roots approx[c] estimates: for each c
    whose certificate holds, its cuts, the sign of p at the first one, how
    many of its roots lie below each mark, and the estimates of its
    smallest and largest roots.

    The cuts are -inf, the midpoints of consecutive sorted real parts of the
    estimates, and +inf. p's signs at +-inf are exact without evaluation:
    its leading coefficient's at +inf, times (-1)^n at -inf. If the n
    estimates are finite, the midpoints increase strictly, p's signs at the
    cuts alternate and p is nonzero at every mark, each of the n gaps holds
    one root, real and simple, and a mark's sign places its gap's root. One
    filtered_signs call over the batch, padded to its largest degree, takes
    the signs at the midpoints and marks; the leading coefficient's sign is
    the enclosure's where its radius clears it.
    """
    rows = np.asarray(rows, dtype=int)
    deg = enc.degrees[rows]
    top = int(deg.max())
    xs = np.full((len(rows), top), np.nan)
    for i, c in enumerate(rows):
        estimate = np.asarray(approx[c], dtype=complex).real
        if len(estimate) == deg[i]:
            xs[i, :deg[i]] = estimate
    xs.sort(axis=1)  # NaN last
    slots = np.arange(top + 1)
    used, mid_used = slots[:-1] < deg[:, None], slots[:-2] < deg[:, None] - 1
    mids = (xs[:, :-1] + xs[:, 1:]) / 2
    ordered = ((np.isfinite(xs) | ~used).all(axis=1) & (np.isfinite(mids) | ~mid_used).all(axis=1)
               & ((mids[:, :-1] < mids[:, 1:]) | ~mid_used[:, 1:]).all(axis=1))
    keep = np.flatnonzero(ordered)
    rows, deg, xs, mids, mid_used = rows[keep], deg[keep], xs[keep], mids[keep], mid_used[keep]
    points = np.concatenate([np.where(mid_used, mids, 0.0),
                             np.broadcast_to(marks, (len(rows), len(marks)))], axis=1)
    need = np.concatenate([mid_used, np.ones((len(rows), len(marks)), dtype=bool)], axis=1)
    signs = filtered_signs(enc, rows, points, need)
    lead_hi, lead_radius = enc.hi[rows, deg], enc.radius[rows, deg]
    lead = np.where(np.abs(lead_hi) > lead_radius * (1 + 2.0 ** -50), np.sign(lead_hi), 0).astype(int)
    for i in np.flatnonzero(lead == 0):
        last = enc.exact(rows[i])[-1]
        lead[i] = (last > 0) - (last < 0)
    at_cuts = np.zeros((len(rows), top + 1), dtype=int)
    at_cuts[:, 0] = lead * (-1) ** deg
    at_cuts[:, 1:top] = signs[:, :top - 1]
    at_cuts[np.arange(len(rows)), deg] = lead
    at_marks = signs[:, top - 1:]
    cut_used = slots <= deg[:, None]
    holds = (((at_cuts != 0) | ~cut_used).all(axis=1)
             & ((at_cuts[:, 1:] == -at_cuts[:, :-1]) | ~cut_used[:, 1:]).all(axis=1)
             & np.all(at_marks != 0, axis=1))
    cuts = np.concatenate([np.full((len(rows), 1), -np.inf), np.where(mid_used, mids, np.inf),
                           np.full((len(rows), 1), np.inf)], axis=1)
    # g cuts lie at or below a mark (-inf always, +inf never); the root
    # after the last of them is below the mark too when the signs there and
    # at the mark differ
    g = np.sum(cuts[:, :, None] <= marks, axis=1)
    below = g - 1 + (at_marks != np.take_along_axis(at_cuts, g - 1, axis=1))
    return {c: (t[:n + 1], s, b, (x[0], x[n - 1]))
            for c, n, t, s, b, x in zip(rows[holds].tolist(), deg[holds].tolist(),
                                        cuts[holds].tolist(), at_cuts[holds, 0].tolist(),
                                        below[holds].tolist(), xs[holds].tolist())}


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
    slope, intercept, _ = jacobi_recurrence(0, alpha, beta)
    return coeffs[0] + (slope * x + intercept) * y1 - c_next * y2


def through_rows(coeffs, rows) -> list[int]:
    """sum_k coeffs[k] rows[k]: the image of integer coefficients under
    integer rows (jacobi_rows_int)."""
    out = [0] * len(coeffs)
    for ck, row in zip(coeffs, rows):
        for j, c in enumerate(row):
            out[j] += ck * c
    return out


def series_image(weights, params, scale=None, factor=1) -> tuple[list[int], int]:
    """Integers N and D > 0 with factor sum_k w_k scale(k, alpha)
    P_k^(alpha,beta) = sum_j (N_j / D) x^j exactly, for finite double
    weights w and factor (binary rationals), through the integer rows;
    params is (alpha, beta), or None for the monomial basis."""
    if not all(map(math.isfinite, weights)):
        raise NonFiniteError(f"coefficients must be finite, got {tuple(weights)}")
    nums, shift = dyadic_numerators(weights)
    den, factor = 1, Fraction(factor)
    if params is not None:
        rows = _cached_rows(len(nums) - 1, *params, scale)
        nums, den = through_rows(nums, rows), rows[0][0]
    return [c * factor.numerator for c in nums], (den * factor.denominator) << shift


def series_poly(weights, params, scale=None, factor=1, tau_trim=0.0) -> Poly:
    """series_image as a monomial Poly, each coefficient rounded once."""
    nums, den = series_image(weights, params, scale, factor)
    return Poly(tuple(_to_double(c, 0, den) for c in nums), MONOMIAL, tau_trim=tau_trim)


def basis_to_monomial(p: Poly, tau_trim: float = DEFAULT_TAU_TRIM) -> Poly:
    """Equal polynomial re-expressed in the monomial basis, each coefficient
    the exact one rounded once."""
    params = jacobi_params(p.basis)
    return p if params is None else series_poly(p.coeffs, params, tau_trim=tau_trim)


def integer_poly(p: Poly) -> list[int]:
    """The primitive integer polynomial with the roots of p, exactly: its
    double coefficients, and the parameters of its basis, are binary
    rationals, so its monomial coefficients are rationals."""
    return _primitive(series_image(p.coeffs, jacobi_params(p.basis))[0])


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
    first scaled into double range by one power of two: a diagnostic. A
    root past the double range overflows the companion matrix; then every
    root reads inf, as root_report reads such a root."""
    shift = max(abs(c) for c in p).bit_length() - 512
    scaled = np.array([c / (1 << shift) if shift > 0 else float(c << -shift) for c in p])
    top = np.trim_zeros(scaled, "b")
    with np.errstate(all="ignore"):
        if not np.isfinite(top[:-1] / top[-1]).all():
            return [complex(math.inf)] * (len(top) - 1)
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


def verdicts(polys, tol: float, approx=None, read_roots=None) -> list:
    """For each integer polynomial, exact_verdict on its primitive part when
    read_roots[c] (every c by default), and otherwise locate's verdict on
    (-1, 1) with no roots: the one route by which the campaigns decide where
    an exact image's roots lie. polys is an Enclosure, or a list of integer
    polynomials (Enclosure.of_integers).

    The sign-change certificate (_sign_certificates) decides first, over the
    whole line, on the enclosure's dd values. approx[c] estimates the roots
    of row c; by default they are Enclosure.estimates. The certificate is
    marked at the band ends -1 - tol, -1 + tol, 1 - tol and 1 + tol and at
    +-1: its counts below them are _locate's, since no root sits on a mark,
    and every root lies in (-1, 1) when none is below -1 and all are below
    1. Only then are roots read, the extremes inside gaps that those marks
    bracket (_nearest_roots: the dd reader, and exact bisection where it
    fails); otherwise they are diagnostic_roots. Where the certificate
    fails, Sturm counts decide on the exact polynomial, so no verdict rests
    on a root finder, and the exact polynomial is built only where a sign
    or a root needs it.
    """
    enc = polys if isinstance(polys, Enclosure) else Enclosure.of_integers(polys)
    read_roots = [True] * len(enc) if read_roots is None else read_roots
    ends = (-1.0 - tol, -1.0 + tol, 1.0 - tol, 1.0 + tol, -1.0, 1.0)
    marks = sorted(set(ends))
    lo_out, lo_in, hi_in, hi_out, minus, plus = map(marks.index, ends)
    found = [(RootLocation.ALL_STRICTLY_INSIDE, []) for _ in range(len(enc))]  # a constant's
    live = np.flatnonzero(enc.degrees > 0)
    if not live.size:
        return found
    certificates = _sign_certificates(enc, live, enc.estimates() if approx is None else approx,
                                      np.array(marks))
    reads = []  # (case, bracket, sign left of the root, estimate)
    for c in live.tolist():
        n = int(enc.degrees[c])
        if c not in certificates:
            p = primitive_part(enc.exact(c))
            found[c] = (exact_verdict(p, tol) if read_roots[c]
                        else (locate(p, (-1.0, 1.0), tol), []))
            continue
        cuts, first, below, guesses = certificates[c]
        flag = (RootLocation.SOME_OUTSIDE if below[hi_out] - below[lo_out] < n
                else RootLocation.SOME_ON_BOUNDARY if below[hi_in] - below[lo_in] < n
                else RootLocation.ALL_STRICTLY_INSIDE)
        if read_roots[c] and not (below[minus] == 0 and below[plus] == n):
            found[c] = (flag, diagnostic_roots(primitive_part(enc.exact(c))))
            continue
        found[c] = (flag, [])
        if read_roots[c]:  # the smallest and largest roots (one for degree 1)
            for i, guess in {0: guesses[0], n - 1: guesses[1]}.items():
                j = bisect.bisect_right(below, i)  # marks[j - 1] < root i < marks[j]
                reads.append((c, max(cuts[i], marks[j - 1]), min(cuts[i + 1], marks[j]),
                              first * (-1) ** i, guess))
    if reads:
        cases, *read = zip(*reads)
        for c, root in zip(cases, _nearest_roots(enc, cases, *read)):
            found[c][1].append(root)
    return found
