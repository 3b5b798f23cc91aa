"""The rounding model and certified determinant signs.

Every determinant sign the package certifies comes from here: the minors of
signreg's scans and the regularity of biortho's moment systems. A sign is
certified where an enclosure of the exact determinant excludes 0, and is
undecided otherwise. Stage 1 (_scaled_lu_enclose) encloses determinants
from double midpoints and radii, such as _Interval's; stage 2 (_enclose)
from entries rebuilt at a working precision. Their docstrings hold the
derivations. This module imports no other orthozero module, so any of them
may import its constants.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_UNIT_ROUNDOFF = 2.0 ** -53
_SMALLEST_SUBNORMAL = 2.0 ** -1074


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), Higham's bound on k compounded roundings."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _to_double(num: int, k: int, den: int = 1) -> float:
    """num / (den 2^k), for den > 0 and any integer k, rounded once to the
    nearest double, or the infinity it rounds to beyond the doubles."""
    try:
        return num / (den << k) if k >= 0 else (num << -k) / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


# The successor rule of Rump, Zimmermann, Boldo and Melquiond ("Computing
# predecessor and successor in rounding to nearest", BIT 49, 2009): for
# finite v, v + (|v| phi + eta), rounded to nearest, is at or above the next
# double after v and at most two doubles above it, and v - (|v| phi + eta)
# likewise below. An infinite v gives itself on its own side and nan on the
# other, which _Interval reads as unbounded. |v| phi underflows for tiny v,
# so callers run it under np.errstate(all="ignore").
_PHI = _UNIT_ROUNDOFF * (1 + 2 * _UNIT_ROUNDOFF)


def _down(v):
    return v - (np.abs(v) * _PHI + _SMALLEST_SUBNORMAL)


def _up(v):
    return v + (np.abs(v) * _PHI + _SMALLEST_SUBNORMAL)


def _widen(v, k: int):
    """An upper bound of a sum S of non-negative terms (each a double, or a
    product, quotient or sum of doubles) from v, S evaluated in rounding to
    nearest with at most k >= 2 roundings on the way of any one term, at
    most k - 1 of them products or quotients. Each rounding keeps a relative
    1 - u of its exact result (u = 2^-53), less 2^-1075 where a product or
    quotient underflows, so v >= S (1 - u)^k - (k - 1) 2^-1075; then
    v (1 + (k + 2) 2^-52) + k 2^-1074, rounded to nearest, is at least
    S (1 + u) + 2^-1075. An array v, always a new one here, is widened in
    place: on stacks of this size allocation costs more than arithmetic."""
    v *= 1 + (k + 2) * 2.0 ** -52
    v += k * _SMALLEST_SUBNORMAL
    return v


def _rounding(c):
    """u |c|, the error bound of a result c rounded to nearest except where
    a product or quotient underflows, as a new array to add to."""
    error = np.abs(c)
    error *= _UNIT_ROUNDOFF
    return error


_LIBM_SLACK = 2.0 ** -40  # relative widening of exp and power results
_LIBM_FLOOR = 2.0 ** -1022  # absolute widening: their subnormal results
# |e| past which a half-integer power takes the libm route: binary powering
# widens by a relative |e| 2^-49 or so (2^-39.9 measured at e = 511.5), which
# must stay below that route's 2^-39
_EXACT_POWER_CAP = 512


class _Interval:
    """Closed intervals [mid - rad, mid + rad] on broadcast float arrays,
    elementwise, in midpoint-radius form (Rump, "Fast and parallel interval
    arithmetic", BIT 39, 1999) with rounding to nearest only.

    Each result encloses the exact result of the same operation on any
    points of its operands. Its midpoint c is the operation on the
    midpoints, rounded to nearest, so within u |c| + 2^-1075 of the exact
    one (u = 2^-53; the 2^-1075 only where a product or quotient
    underflows). Its radius adds that to the effect of the operands' radii,
    a sum of non-negative terms that _widen makes an upper bound. The
    endpoints `lo` and `hi` are mid -+ rad moved one or two doubles outward
    (_down, _up). `pow` with a half-integer exponent is built from these
    alone. numpy's exp and power are not correctly rounded and differ
    between builds (SIMD loops), so exp and ** work on the endpoints and
    widen them by a relative 2^-40 and an absolute 2^-1022. A radius that is
    not finite means unbounded, read as [-inf, inf]: where a divisor
    contains 0, a ** or pow base is not positive, a sqrt argument is
    negative or a value is not finite. A non-finite midpoint gives a
    non-finite radius, which every operation keeps. Numbers and arrays
    combine with an interval as point intervals, under Python operators and
    numpy ufuncs alike, so a formula runs unchanged on it.
    """

    __slots__ = ("mid", "rad")

    def __init__(self, lo, hi):
        """The interval [lo, hi], unbounded where an end is not finite."""
        self.mid = lo / 2 + hi / 2
        self.rad = _up(np.maximum(hi - self.mid, self.mid - lo))

    @staticmethod
    def centred(mid, rad) -> _Interval:
        interval = object.__new__(_Interval)
        interval.mid, interval.rad = mid, rad
        return interval

    @staticmethod
    def lift(value) -> _Interval:
        if isinstance(value, _Interval):
            return value
        if isinstance(value, (int, float)):
            value = np.float64(value)
            return _Interval.centred(value, 0.0 if math.isfinite(value) else math.inf)
        value = np.asarray(value, float)
        finite = np.isfinite(value)
        return _Interval.centred(value, 0.0 if finite.all() else np.where(finite, 0.0, np.inf))

    @property
    def lo(self):
        with np.errstate(all="ignore"):
            return np.where(np.isfinite(self.rad), _down(self.mid - self.rad), -np.inf)

    @property
    def hi(self):
        with np.errstate(all="ignore"):
            return np.where(np.isfinite(self.rad), _up(self.mid + self.rad), np.inf)

    def __add__(self, other):
        # |exact - c| <= u |c| + ra + rb
        other = _Interval.lift(other)
        c = self.mid + other.mid
        rad = _rounding(c)
        rad += self.rad
        rad += other.rad
        return _Interval.centred(c, _widen(rad, 2))

    def __sub__(self, other):
        other = _Interval.lift(other)
        return self + _Interval.centred(-other.mid, other.rad)

    def __mul__(self, other):
        # (ma + a)(mb + b) - ma mb = ma b + a (mb + b), so
        # |exact - c| <= u |c| + 2^-1075 + |ma| rb + ra (|mb| + rb)
        other = _Interval.lift(other)
        c = self.mid * other.mid
        rad = _rounding(c)
        rad += np.abs(self.mid) * other.rad
        rad += self.rad * (np.abs(other.mid) + other.rad)
        return _Interval.centred(c, _widen(rad, 4))

    def __truediv__(self, other):
        """For B = mb + b with |b| <= rb < |mb|, A / B - ma / mb is
        ((A - ma) - (ma / mb) b) / B, so with D = |mb| - rb, the quotient's
        rounding and |ma / mb| <= (|c| + 2^-1074)(1 + u),
            |exact - c| <= u |c| + 2^-1075 + ra / D + (rb / D)(|c| + 2^-1074)(1 + u).
        D rounded to nearest is within a relative u of D (a difference is
        exact where it is subnormal) and has its sign; clamped at 0, it
        makes ra / D and rb / D infinite or nan, so the quotient unbounded,
        unless D > 0. rb / D may underflow and lose 2^-1075, which the
        factor |c| can magnify to 2^-1075 |c|, far below the u |c| (1 + u)
        that _widen covers with u |c| in the sum."""
        other = _Interval.lift(other)
        c = self.mid / other.mid
        d = np.maximum(np.abs(other.mid) - other.rad, 0.0)
        size = np.abs(c)
        size += _SMALLEST_SUBNORMAL
        rad = size * _UNIT_ROUNDOFF
        rad += self.rad / d
        rad += other.rad / d * size
        return _Interval.centred(c, _widen(rad, 6))

    def __pow__(self, other):
        other = _Interval.lift(other)
        lo, hi = self.lo, self.hi
        # power is monotone in each argument where the base is positive, so
        # its extremes sit at the four corners
        c = [np.power(a, b) for a in (lo, hi) for b in (other.lo, other.hi)]
        return _Interval(
            np.where(lo > 0, _libm_down(np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))),
                     np.nan),
            _libm_up(np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))))

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return _Interval.lift(other) - self

    def __rtruediv__(self, other):
        return _Interval.lift(other) / self

    def __rpow__(self, other):
        return _Interval.lift(other) ** self

    def exp(self):
        return _Interval(_libm_down(np.exp(self.lo)), _libm_up(np.exp(self.hi)))

    def pow(self, e: float) -> _Interval:
        """self ** e for a constant exponent e. Where 2e is an integer and
        |e| <= _EXACT_POWER_CAP this uses only correctly rounded operations:
        the square root when 2e is odd, then binary powering, then the
        reciprocal when e < 0; every other e takes the libm route of **.
        Unbounded where the base is not positive."""
        twice = 2.0 * e
        if not twice.is_integer() or abs(e) > _EXACT_POWER_CAP:
            return self ** e
        n = abs(int(twice))
        square, result = self, None
        if n % 2:
            square = self.sqrt()
        else:
            n //= 2
        while n:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if n:
                square = square * square
        if result is None:  # e == 0
            result = _Interval.lift(np.ones_like(self.mid))
        if e < 0:
            result = 1.0 / result
        return _Interval.centred(result.mid, np.where(self.mid - self.rad > 0, result.rad, np.nan))

    def sqrt(self):
        """For B = mb + b >= 0 with |b| <= rb, |sqrt(B) - sqrt(mb)| is
        |b| / (sqrt(B) + sqrt(mb)) <= rb / sqrt(mb), and sqrt(mb) is at
        least c / (1 + u), so |exact - c| <= (rb / c)(1 + u) + u c."""
        c = np.sqrt(self.mid)
        rad = c * _UNIT_ROUNDOFF
        rad += self.rad / c
        return _Interval.centred(c, np.where(self.mid - self.rad >= 0, _widen(rad, 3), np.nan))

    _UFUNCS = {np.add: operator.add, np.subtract: operator.sub, np.multiply: operator.mul,
               np.divide: operator.truediv, np.power: operator.pow}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _Interval._UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or op is None:
            return NotImplemented
        return op(*map(_Interval.lift, inputs))


def _libm_down(v):
    return _down(v - np.abs(v) * _LIBM_SLACK - _LIBM_FLOOR)


def _libm_up(v):
    return _up(v + np.abs(v) * _LIBM_SLACK + _LIBM_FLOOR)


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


def _exact_det(matrix, scale=None) -> float:
    """The exact determinant of a matrix of mpf entries, with row i
    multiplied by 2^-scale[i] if a scale is given, rounded once to a double
    (+-inf past the range); nan if an entry is not finite."""
    centre = _mpf_rows(matrix, scale or [0] * len(matrix))
    return math.nan if centre is None else _to_double(integer_det(centre[0]), -centre[1])


def _mpf_rows(matrix, scale) -> tuple[list[list[int]], int] | None:
    """Integer rows of a matrix of mpf entries with row i multiplied by
    2^-scale[i], each divided by 2^(its least exponent), and the sum of
    those exponents, the power of two that turns the rows' determinant into
    the matrix's; None if an entry is infinite or nan."""
    rows, shift = [], 0
    for row, k in zip(matrix, scale):
        row = [a._mpf_ for a in row]  # each entry is (-1)^sign man 2^exp
        if any(not man and exp for _, man, exp, _ in row):
            return None
        low = min(exp for _, _, exp, _ in row)
        rows.append([(-man if sign else man) << (exp - low) for sign, man, exp, _ in row])
        shift += low - k
    return rows, shift


def _row_max(a: np.ndarray) -> np.ndarray:
    """The largest entry of each row of a (trials, m, m) stack."""
    top = a[:, :, 0]
    for j in range(1, a.shape[2]):  # faster than max(axis=2) on short rows
        top = np.maximum(top, a[:, :, j])
    return top


def _row_norm_bounds(magnitudes: np.ndarray) -> np.ndarray:
    """Upper bounds of the row 2-norms of a (trials, m, m) stack of
    non-negative upper bounds. Each row is divided by a power of two at or
    above its largest entry first, so only negligible squares underflow and
    a non-zero row's sum of squares is at least 1/4. That sum, rounded to
    nearest through at most m roundings, keeps a relative 1 - (m + 1) u of
    the exact one (u = 2^-53), so sqrt(sum) (1 + (m + 3) 2^-52), rounded to
    nearest, bounds the scaled norm. It is multiplied back; adding 2^-1074
    then rounds a subnormal result up, and leaves every result from 2^-1020
    up unchanged."""
    m = magnitudes.shape[2]
    e = np.frexp(_row_max(magnitudes))[1]
    scaled = np.ldexp(magnitudes, -e[:, :, None])
    total = np.einsum("tij,tij->ti", scaled, scaled)
    return np.ldexp(np.sqrt(total) * (1 + (m + 3) * 2.0 ** -52), e) + _SMALLEST_SUBNORMAL


def _hadamard_bound(a, b) -> np.ndarray:
    """An upper bound of |det(C + R) - det C| for each minor of a stack,
    from (trials, m) upper bounds a and b of the row 2-norms of C and R.
    Replacing the rows of C by those of C + R one at a time, and bounding
    each step by Hadamard's inequality, gives
        |det(C + R) - det C| <= sum_i b_i prod_{j<i} a_j prod_{j>i} (a_j + b_j)
    (Rump, Acta Numerica 2010), here evaluated by Horner's rule from the
    last row and made an upper bound at every step by _widen. As this sum
    the bound keeps its relative accuracy when b is far below a, where
    prod(a + b) - prod a cancels."""
    bound, suffix = 0.0, 1.0  # the sum over rows i..m-1, and prod_{j>=i} (a_j + b_j)
    for i in reversed(range(a.shape[1])):
        bound = _widen(a[:, i] * bound + b[:, i] * suffix, 3)
        suffix = _widen(suffix * (a[:, i] + b[:, i]), 3)
    return bound


def _lu_enclose(mid, rad) -> tuple[np.ndarray, np.ndarray]:
    """Certified signs of det(mid + R) over every |R| <= rad, for
    (trials, m, m) stacks of doubles, 0 where undecided, and positive lower
    bounds of |det(mid + R)|, 0 where undecided.

    Gaussian elimination with partial pivoting runs on all midpoints at once,
    one column at a time. Its computed factors satisfy P mid + dA = L^U^ with
    |dA| <= gamma_m |L^||U^| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 9.3), plus, where products and quotients underflow,
    at most (m + max_k |u^_kk|) 2^-1074 per entry. So det(mid + R) is
    sign(P) det(C + E) with the centre C = L^U^ and
    |E| <= gamma_m |L^||U^| + P rad + that absolute term. det C is
    prod_k u^_kk, whose rounded product is within a relative gamma_{m-1}.
    |L^||U^| is one matmul of non-negative factors, each entry a sum of at
    most m products, made an upper bound by _widen; it bounds |C|. By the
    triangle inequality, the row 2-norms of E are at most gamma_m times
    those of |L^||U^|, plus those of rad (whose rows swap with the
    elimination's), plus sqrt(m) times the absolute term. _hadamard_bound
    then bounds det(C + E) - det C, and a minor is decided where the
    centre's lower bound minus that bound, rounded down, is positive. A
    minor with a pivot or a partial product of pivots that is not finite or
    not normal is undecided; so is one with a non-finite entry or radius.
    """
    trials, m, _ = mid.shape
    t = np.arange(trials)
    # the rows of rad's norms ride along as column m, so they swap with the rows
    lu = np.concatenate([mid, _row_norm_bounds(rad)[:, :, None]], axis=2)
    flips = np.zeros(trials, bool)  # the parity of the row swaps
    with np.errstate(all="ignore"):
        for j in range(m - 1):
            p = j + np.argmax(np.abs(lu[:, j:, j]), axis=1)
            swapped = p != j
            if swapped.any():
                flips ^= swapped
                row = lu[t, p]
                lu[t, p] = lu[:, j]
                lu[:, j] = row
            lu[:, j + 1:, j] /= lu[:, j, j, None]
            lu[:, j + 1:, j + 1:m] -= lu[:, j + 1:, j, None] * lu[:, j, None, j + 1:m]
        lu, spread = lu[:, :, :m], lu[:, :, m]
        size, strict = np.abs(lu), np.tri(m, k=-1, dtype=bool)  # |L^| below the diagonal
        size = _widen(np.where(strict, size, np.eye(m)) @ np.where(strict, 0.0, size), m + 1)
        pivots = np.diagonal(lu, axis1=1, axis2=2)
        partial = np.cumprod(pivots, axis=1)  # a non-finite pivot leaves det inf or nan
        det = np.where(flips, -partial[:, -1], partial[:, -1])
        normal = np.isfinite(det) & (np.minimum(np.abs(pivots), np.abs(partial)).min(axis=1)
                                     >= 2.0 ** -1022)
        underflow = (m + np.abs(pivots).max(axis=1)) * (m * _SMALLEST_SUBNORMAL)
        a = _row_norm_bounds(size)  # of C's rows
        b = _widen(_up(_gamma(m)) * a + spread + underflow[:, None], 3)  # of E's rows
        bound = _hadamard_bound(a, b)
        lower = _down(_down(np.abs(det) * _down(1.0 - _up(_gamma(m - 1)))) - bound)
        decided = normal & (lower > 0)
        return np.where(decided, np.sign(det), 0).astype(int), np.where(decided, lower, 0.0)


def _scaled_lu_enclose(mid, rad):
    """Stage 1: _lu_enclose on a (trials, m, m) stack of midpoints and radii
    with row i of each matrix scaled by 2^-k_i, 2^k_i just above the row's
    largest |mid|, so a determinant beyond the double range is decided as
    one inside it (|det| >= lower * 2^sum(k)); also the scaled stacks and k,
    (trials, m). Scaling is exact but where it underflows, by at most
    2^-1075 for the midpoint and the radius, which _widen covers. Run it
    under np.errstate(all="ignore")."""
    k = np.frexp(_row_max(np.abs(mid)))[1]
    mid, rad = np.ldexp(mid, -k[:, :, None]), _widen(np.ldexp(rad, -k[:, :, None]), 3)
    signs, lower = _lu_enclose(mid, rad)
    return signs, lower, mid, rad, k


def _enclose(matrices, mid, rad, k, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stage 2: certified signs of the exact determinants f of a stack, 0
    where undecided, and positive lower bounds of their |det| scaled as
    _scaled_lu_enclose scales them, 0 where undecided.

    mid, rad and k come from _scaled_lu_enclose on intervals I that a
    kernel formula's operations built at doubles (_Interval); matrices holds
    the formula's entries E there, built in mpmath at unit roundoff 2^-bits.
    A minor's centre is E with row i scaled by 2^-k_i, and its determinant
    is exact and rounded once (_exact_det).

    The radius bounds |E - f|. E runs the formula's operations rounded at
    2^-bits, so to first order |E - f| is at most the sum over its roundings
    of |df/dv| |v| 2^-bits, where v is the rounded result. Each rounding
    has an interval operation with the same exact result: a half-integer
    power is a square root, then an integer power, then a reciprocal on
    both routes (mpmath's power rounds the integer power once, where
    _Interval.pow ends it with a multiplication, and takes the root with 10
    guard bits). Each interval operation adds at least 2^-53 |v| to its
    radius (exp and other powers 2^-40 |v|), so to first order the radius
    of I is at least that sum at 2^-53. Hence |E - f| <= 2^(53 - bits)
    rad(I); the radii take 2^(55 - bits) rad(I), leaving a factor 4 for
    second-order terms and for mpmath's exp and other powers, which are
    accurate to about an ulp. That is an error model, not a proof. |E| is
    then at most |mid(I)| + rad(I) plus that radius, and _hadamard_bound
    bounds det(E + R) - det E over |R| <= that radius.
    """
    error = _up(np.ldexp(rad, 55 - bits))
    mags = _widen(np.abs(mid) + rad + error, 2)
    bound = _hadamard_bound(_row_norm_bounds(mags), _row_norm_bounds(error))
    det = np.array([_exact_det(matrix, scale) for matrix, scale in zip(matrices, k.tolist())])
    lower = _down(_down(np.abs(det)) - bound)
    decided = lower > 0
    return np.where(decided, np.sign(det), 0).astype(int), np.where(decided, lower, 0.0)
