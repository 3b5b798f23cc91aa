"""Randomized testing of strict sign regularity and strict total positivity
for bivariate kernels.

Sign regularity quantifies over all increasing node tuples, so a program can
only sample: a scan's verdict, the majority sign of each order over random
minors, is a "consistent with" statement, never a proof. Each order draws
its tuples from one generator seeded with (seed, m), as two (trials, m)
blocks of sorted uniform draws (x, then y); the same seed, order, trial
count and domain give the same tuples.

Each minor's sign is certified: under both precision policies a scan
decides an order as one stack by one route (_settle), and a minor carries a
sign only when an enclosure of its exact determinant (of the kernel's
values at the drawn doubles) excludes 0; otherwise it is indeterminate.
Stage 1 runs the kernel formula on midpoint-radius double intervals and
encloses every determinant from a partial-pivot LU of the midpoints
(_lu_enclose). Under the extended policy, stage 2 rebuilds the minors
stage 1 leaves open at the working precision (_enclose); the double policy
has no stage 2. A stage-1 sign is rigorous for a kernel built only from
+ - * /, sqrt and half-integer powers up to 512, which take correctly
rounded operations alone; for exp_xy, other exponents and custom kernels it
rests on numpy's exp and power being accurate to a relative 2^-40. A
stage-2 sign also rests on a first-order bound of the working-precision
entries' error (mpmath.iv would make that stage rigorous). So the signs are
certified under that error model, and rigorous only where it is not used.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from types import SimpleNamespace
from typing import Callable, ClassVar

import mpmath
import numpy as np

from .errors import (
    BadIntervalError,
    BadParameterError,
    BadTupleError,
    OutOfDomainError,
)
from .polycore import _SMALLEST_SUBNORMAL, _UNIT_ROUNDOFF, _gamma, check_params, integer_det
from .powerseries import Series
from .precision import DOUBLE, PrecisionPolicy

MIN_SEPARATION = 1e-3


# ---------------------------------------------------------------------------
# domains and kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Open rectangle: x-interval times y-interval."""

    x: tuple[float, float]
    y: tuple[float, float]

    def __post_init__(self):
        if not (self.x[0] < self.x[1] and self.y[0] < self.y[1]):
            raise BadIntervalError(f"degenerate domain {self.x} x {self.y}")

    def contains(self, x: float, y: float) -> bool:
        return self.x[0] < x < self.x[1] and self.y[0] < y < self.y[1]

    @property
    def window(self) -> str:
        return f"({self.x[0]:g},{self.x[1]:g})x({self.y[0]:g},{self.y[1]:g})"


UNIT_SQUARE = Domain((-1.0, 1.0), (-1.0, 1.0))


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


# The four number routes a kernel formula runs under: numpy on float arrays;
# mpmath at the caller's working precision on object arrays of mpf, where
# numpy maps every operator and function elementwise; midpoint-radius
# intervals on float arrays; and, for genfun_taylor only, Series in y at a
# float x. Each array call evaluates a whole broadcast stack, so per-node
# subexpressions are computed once per node and constants once per call.
# `num` lifts a scalar constant. A lifted mpf constant must never stand on the
# left of an array operator: mpmath then tries to convert the array, building
# its whole repr, before numpy takes over. `pow(base, e)` raises to a constant
# exponent: numpy's power in double, as ** always did, so double entries keep
# their bits; on intervals _Interval.pow, exact up to its rounding terms for
# half-integer e; and mpmath's power, which for half-integer e already takes
# the square root (with 10 guard bits), then the integer power (exact and
# rounded once, or binary powering with guard bits), then the reciprocal, so
# it runs _Interval.pow's operations with fewer roundings.
_NUMPY = SimpleNamespace(num=float, exp=np.exp, sqrt=np.sqrt,
                         pow=lambda base, e: base ** float(e))
_MPMATH = SimpleNamespace(num=mpmath.mpf, exp=np.frompyfunc(mpmath.exp, 1, 1),
                          sqrt=np.frompyfunc(mpmath.sqrt, 1, 1),
                          pow=lambda base, e: base ** mpmath.mpf(e))
_INTERVAL = SimpleNamespace(num=_Interval.lift, exp=_Interval.exp, sqrt=_Interval.sqrt,
                            pow=_Interval.pow)
_SERIES = SimpleNamespace(num=float, sqrt=Series.sqrt, pow=operator.pow)
_lift = np.frompyfunc(mpmath.mpf, 1, 1)  # floats to mpf at the working precision


class _Formula:
    """A kernel written once as formula(x, y, lib) and evaluated under any
    route; `name` and its parameter fields (all but `domain`) describe it.
    Its working-precision entries run the formula's own operations, so they
    refine its intervals (_settle)."""

    name: ClassVar[str]
    refines: ClassVar[bool] = True

    def evaluate(self, x, y):
        return self.formula(np.asarray(x, float), np.asarray(y, float), _NUMPY)

    def evaluate_exact(self, x, y):
        """One mpf for scalar x, y; for arrays, an object array of mpf
        broadcast as `evaluate` broadcasts."""
        return self.formula(_lift(x), _lift(y), _MPMATH)

    def evaluate_interval(self, x, y) -> _Interval:
        """Intervals enclosing the exact value of the formula at the doubles
        x, y (constants as `evaluate_exact` lifts them), broadcast as
        `evaluate` broadcasts."""
        with np.errstate(all="ignore"):
            return self.formula(_Interval.lift(x), _Interval.lift(y), _INTERVAL)

    def describe(self) -> str:
        """Short stable descriptor used in reports."""
        params = ",".join(f"{f.name}={getattr(self, f.name):g}"
                          for f in fields(self) if f.name != "domain")
        label = f"{self.name}({params})" if params else self.name
        return f"{label} on {self.domain.window}"


@dataclass(frozen=True)
class ExpKernel(_Formula):
    """e^(xy); totally positive on the whole plane, scanned on a window."""

    name: ClassVar[str] = "exp_xy"
    domain: Domain = Domain((-3.0, 3.0), (-3.0, 3.0))

    def formula(self, x, y, lib):
        return lib.exp(x * y)


@dataclass(frozen=True)
class PowerSumKernel(_Formula):
    """(x + y)^(-beta) with beta > 0 on a positive rectangle."""

    name: ClassVar[str] = "power_sum"
    beta: float
    domain: Domain = Domain((0.1, 10.0), (0.1, 10.0))

    def __post_init__(self):
        if not self.beta > 0:
            raise BadParameterError(f"beta must be positive, got {self.beta}")
        if self.domain.x[0] <= 0 or self.domain.y[0] <= 0:
            raise BadParameterError("domain must sit inside the positive quadrant")

    def formula(self, x, y, lib):
        return lib.pow(x + y, -self.beta)


def _quadratic_positive_on_open(domain: Domain) -> bool:
    """Whether 1 - 2xy + y^2 > 0 holds on the open rectangle.

    The identity 1 - 2xy + y^2 = (y-x)^2 + (1-x^2) settles any x-interval
    inside [-1, 1]; wider x-intervals must clear the closure minimum.
    """
    xlo, xhi = domain.x
    if -1.0 <= xlo and xhi <= 1.0:
        return True
    best = math.inf
    ylo, yhi = domain.y
    for x in (xlo, xhi):
        vertex = min(max(x, ylo), yhi)  # quadratic in y with vertex at y = x
        for y in (ylo, yhi, vertex):
            best = min(best, 1.0 - 2.0 * x * y + y * y)
    return best > 0.0


@dataclass(frozen=True)
class UltraGenKernel(_Formula):
    """(1 - 2xy + y^2)^(-beta) where the quadratic stays positive.

    beta > 0 is the totally positive regime; beta < 0 is admitted for
    exploration of the sign-regular-but-not-STP behaviour.
    """

    name: ClassVar[str] = "ultra_gen"
    beta: float
    domain: Domain = UNIT_SQUARE

    def __post_init__(self):
        if not _quadratic_positive_on_open(self.domain):
            raise BadParameterError("1 - 2xy + y^2 must stay positive on the domain")

    def formula(self, x, y, lib):
        return lib.pow(1 - 2 * x * y + y * y, -self.beta)


@dataclass(frozen=True)
class UltraDerivedKernel(_Formula):
    """(2a+1)(1-y^2)(1 - 2xy + y^2)^(-a-3/2), the degree-weighted generating
    kernel of the symmetric family."""

    name: ClassVar[str] = "ultra_derived"
    alpha: float
    domain: Domain = UNIT_SQUARE

    def __post_init__(self):
        check_params(alpha=self.alpha)
        if not _quadratic_positive_on_open(self.domain):
            raise BadParameterError("1 - 2xy + y^2 must stay positive on the domain")

    def formula(self, x, y, lib):
        q = 1 - 2 * x * y + y * y
        return (1 - y * y) * lib.num(2 * self.alpha + 1) * lib.pow(q, -self.alpha - 1.5)


@dataclass(frozen=True)
class JacobiGenKernel(_Formula):
    """The two-parameter generating kernel
    (2/(1+y+rho))^b (2/(1-y+rho))^a / rho with rho = sqrt(1 - 2xy + y^2),
    written so that no constant 2^(a+b) overflows where the kernel does
    not."""

    name: ClassVar[str] = "jacobi_gen"
    alpha: float
    beta: float
    domain: Domain = UNIT_SQUARE

    def __post_init__(self):
        check_params(alpha=self.alpha, beta=self.beta)
        if not (-1.0 <= self.domain.y[0] and self.domain.y[1] <= 1.0):
            raise BadParameterError("two-parameter kernel needs its y-interval inside [-1, 1]")
        if not _quadratic_positive_on_open(self.domain):
            raise BadParameterError("1 - 2xy + y^2 must stay positive on the domain")

    def formula(self, x, y, lib):
        rho = lib.sqrt(1 - 2 * x * y + y * y)
        return (lib.pow(2 / (1 + y + rho), self.beta)
                * lib.pow(2 / (1 - y + rho), self.alpha) / rho)


@dataclass(frozen=True)
class FactorWrappedKernel:
    """phi(x) psi(y) K(x, y) for fixed-sign factors phi, psi."""

    base: object
    phi: Callable[[float], float]
    psi: Callable[[float], float]

    @property
    def domain(self) -> Domain:
        return self.base.domain

    def _factors(self, x, y):
        phi = np.vectorize(self.phi, otypes=[float])
        psi = np.vectorize(self.psi, otypes=[float])
        return phi(np.asarray(x, float)), psi(np.asarray(y, float))

    def evaluate(self, x, y):
        phi, psi = self._factors(x, y)
        return phi * psi * self.base.evaluate(x, y)

    def evaluate_exact(self, x, y):
        # the wrapping factors act as a rank-one rescaling, so evaluating
        # them in double does not disturb determinant sign or conditioning
        phi, psi = self._factors(x, y)
        return _lift(phi) * _lift(psi) * self.base.evaluate_exact(x, y)

    @property
    def refines(self) -> bool:
        return self.base.refines

    def evaluate_interval(self, x, y) -> _Interval:
        phi, psi = self._factors(x, y)
        with np.errstate(all="ignore"):
            return _Interval.lift(phi) * _Interval.lift(psi) * self.base.evaluate_interval(x, y)

    def describe(self) -> str:
        return f"factor_wrapped[{self.base.describe()}]"


@dataclass(frozen=True)
class CustomKernel:
    """Arbitrary callable kernel with an explicit scan domain. The callable
    runs in double; its intervals take each value to be as accurate as
    _Interval takes numpy's exp and power, so the rounded minors of a
    rank-deficient kernel stay undecided, and lifting the values refines
    nothing."""

    refines: ClassVar[bool] = False
    fn: Callable
    domain: Domain
    label: str = "custom"

    def evaluate(self, x, y):
        return np.asarray(self.fn(np.asarray(x, float), np.asarray(y, float)), float)

    def evaluate_exact(self, x, y):
        # the callable runs in double; only its values are lifted
        return _lift(self.evaluate(x, y))

    def evaluate_interval(self, x, y) -> _Interval:
        values = self.evaluate(x, y)
        with np.errstate(all="ignore"):
            return _Interval(_libm_down(values), _libm_up(values))

    def describe(self) -> str:
        return f"{self.label} on {self.domain.window}"


def kernel_eval(spec, x: float, y: float) -> float:
    """Kernel value at a point, with domain checking."""
    if not spec.domain.contains(x, y):
        raise OutOfDomainError(f"({x}, {y}) outside {spec.domain}")
    return float(spec.evaluate(x, y))


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def _check_tuple(vals, interval) -> np.ndarray:
    vals = np.asarray(vals, float)
    if vals.ndim != 1 or len(vals) < 1:
        raise BadTupleError("nodes must form a one-dimensional tuple")
    if len(vals) > 1 and np.any(np.diff(vals) <= 0):
        raise BadTupleError("nodes must be strictly increasing")
    if vals[0] <= interval[0] or vals[-1] >= interval[1]:
        raise BadTupleError(f"nodes must lie strictly inside {interval}")
    return vals


def _minor_matrices(spec, xs, ys, policy: PrecisionPolicy = DOUBLE) -> np.ndarray:
    """The stack [K(xs[t, i], ys[t, j])] for node arrays of shape (trials, m),
    from one broadcast kernel evaluation: doubles, or under the extended
    policy mpf entries built at the working precision."""
    x, y = xs[:, :, None], ys[:, None, :]
    if policy.extended:
        with mpmath.workprec(policy.bits):
            return spec.evaluate_exact(x, y)
    return np.asarray(spec.evaluate(x, y), float)


def _exact_det(matrix) -> float:
    """The exact determinant of a matrix of mpf entries, rounded once to a
    double (+-inf past the range); nan if an entry is not finite."""
    centre = _mpf_rows(matrix, [0] * len(matrix))
    return math.nan if centre is None else _dyadic_to_float(integer_det(centre[0]), centre[1])


def _mpf_rows(matrix, scale) -> tuple[list[list[int]], int] | None:
    """_integer_rows of a matrix of mpf entries with row i multiplied by
    2^-scale[i]; None if an entry is infinite or nan."""
    # each entry is (-1)^sign man 2^exp
    entries = [[a._mpf_ for a in row] for row in matrix]
    if any(not man and exp for row in entries for _, man, exp, _ in row):
        return None
    return _integer_rows([[-man if sign else man for sign, man, _, _ in row] for row in entries],
                         [[exp - k for _, _, exp, _ in row] for row, k in zip(entries, scale)])


def _integer_rows(mans, exps) -> tuple[list[list[int]], int]:
    """Integer rows of the matrix with entries man * 2^exp: row i scaled by
    2^-(its least exponent); and the sum of those exponents, the power of
    two that turns the rows' determinant into the matrix's."""
    rows, shift = [], 0
    for row_mans, row_exps in zip(mans, exps):
        low = min(row_exps)
        rows.append([man << (exp - low) for man, exp in zip(row_mans, row_exps)])
        shift += low
    return rows, shift


def _dyadic_to_float(num: int, shift: int) -> float:
    """num * 2^shift rounded once to the nearest double, +-inf past the range."""
    try:
        return num / (1 << -shift) if shift < 0 else float(num << shift)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _enclose(centres, mags, radii) -> tuple[np.ndarray, np.ndarray]:
    """Certified signs of det(C + R) for a stack of minors, 0 where
    undecided, and positive lower bounds of |det(C + R)|, 0 where undecided.

    centres[t] is the centre C as integer rows and a power of two
    (_integer_rows), or None where there is none; mags and radii are
    (trials, m, m) upper bounds of |C| and of |R|. det C is exact and
    rounded once, and _hadamard_bound bounds the rest.
    """
    bound = _hadamard_bound(_row_norm_bounds(mags), _row_norm_bounds(radii))
    det = np.array([math.nan if c is None else _dyadic_to_float(integer_det(c[0]), c[1])
                    for c in centres])
    lower = _down(_down(np.abs(det)) - bound)
    decided = lower > 0
    return np.where(decided, np.sign(det), 0).astype(int), np.where(decided, lower, 0.0)


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


def _settle(spec, xs, ys, policy: PrecisionPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certified signs of one order's minors, 0 where undecided, and
    lower bounds of their |det|: each minor's is lower * 2^shift with a
    positive double `lower`, and `lower` is 0 where the minor is undecided.
    Both come from enclosures of the exact determinants.

    Let I be the entries' intervals from `evaluate_interval`, which enclose
    the exact values f of the kernel at the drawn doubles. Row i of a minor
    is scaled by a power of two, 2^-k_i, which changes no sign; shift is
    sum(k). Stage 1 encloses each determinant over the box of I's midpoints
    and radii (_lu_enclose). Under the double policy that is all, and
    an open minor is undecided. Under the extended policy stage 2 runs on
    the minors stage 1 leaves open, and only for a kernel whose
    working-precision entries refine its intervals (`refines`): its centres
    are the entries E built at the working precision (_minor_matrices), and
    its radii bound |E - f| (_enclose).

    That route runs the formula's operations rounded at unit roundoff
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
    then at most |mid(I)| + rad(I) plus that radius. A minor with an
    unbounded entry has no radius: it is undecided and is not built.
    """
    with np.errstate(all="ignore"):
        entries = spec.evaluate_interval(xs[:, :, None], ys[:, None, :])
        mid, rad = np.broadcast_arrays(entries.mid, entries.rad)
        size = np.abs(mid)
        top = size[:, :, 0]
        for j in range(1, size.shape[2]):  # faster than max(axis=2) on short rows
            top = np.maximum(top, size[:, :, j])
        k = np.frexp(top)[1][:, :, None]
        # scaling is exact but where it underflows, by at most 2^-1075 for
        # the midpoint and for the radius, which _widen covers
        mid, rad = np.ldexp(mid, -k), _widen(np.ldexp(rad, -k), 3)
        signs, lower = _lu_enclose(mid, rad)
        if policy.extended:
            bounded = np.isfinite(rad).all(axis=(1, 2))
            rebuild = np.flatnonzero(bounded & (signs == 0) & spec.refines)
            mid, rad = mid[rebuild], rad[rebuild]
            error = _up(np.ldexp(rad, 55 - policy.bits))
            matrices = _minor_matrices(spec, xs[rebuild], ys[rebuild], policy)
            centres = [_mpf_rows(matrix, scale)
                       for matrix, scale in zip(matrices, k[rebuild, :, 0].tolist())]
            signs[rebuild], lower[rebuild] = _enclose(centres, _widen(np.abs(mid) + rad + error, 2),
                                                      error)
        return signs, lower, k.sum(axis=(1, 2))


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
    top = magnitudes[:, :, 0]
    for j in range(1, m):  # faster than max(axis=2) on short rows
        top = np.maximum(top, magnitudes[:, :, j])
    e = np.frexp(top)[1]
    scaled = np.ldexp(magnitudes, -e[:, :, None])
    total = np.einsum("tij,tij->ti", scaled, scaled)
    return np.ldexp(np.sqrt(total) * (1 + (m + 3) * 2.0 ** -52), e) + _SMALLEST_SUBNORMAL


def ssr_minor(spec, xs, ys, policy: PrecisionPolicy = DOUBLE) -> float:
    """Determinant of [K(x_i, y_j)] for strictly increasing node tuples: the
    exact determinant of the entries, rounded once, with the entries in
    double or, under the extended policy, built at the working precision."""
    xs = _check_tuple(xs, spec.domain.x)
    ys = _check_tuple(ys, spec.domain.y)
    if len(xs) != len(ys):
        raise BadTupleError("node tuples must have equal length")
    if len(xs) > 8:
        raise BadTupleError("minor order capped at 8")
    matrix = _minor_matrices(spec, xs[None], ys[None], policy)[0]
    if not policy.extended:
        with mpmath.workprec(53):  # doubles lift exactly
            matrix = _lift(matrix)
    return _exact_det(matrix)


# ---------------------------------------------------------------------------
# randomized scanning
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    CONSISTENT_STP = "consistent_stp"
    CONSISTENT_SSR = "consistent_ssr"
    VIOLATION_FOUND = "violation_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MinorStats:
    """Per-order tallies from a scan."""

    m: int
    trials: int
    positive: int
    negative: int
    indeterminate: int
    inferred_sign: int | None
    min_abs_det: float
    min_abs_det_exp2: int
    violations: int


@dataclass(frozen=True)
class SsrReport:
    kernel: str
    m_max: int
    trials_per_m: int
    seed: int
    per_m: tuple[MinorStats, ...]
    verdict: Verdict

    def signs(self) -> list[int | None]:
        return [s.inferred_sign for s in self.per_m]


def draw_separated(rng, lo: float, hi: float, m: int, trials: int = 1,
                   sep: float = MIN_SEPARATION) -> np.ndarray:
    """trials rows of m sorted i.i.d. uniform draws on (lo, hi), as a
    (trials, m) array: every row whose adjacent values are not more than
    sep apart is redrawn, all such rows together, until none is left.

    Each round draws its rows as one (rows, m) block, which consumes the
    generator exactly as drawing those rows one after another would, so a
    batch of one draws what a single tuple did.
    """
    if (hi - lo) <= (m - 1) * sep:
        raise BadParameterError("interval too small for the separation floor")
    out = np.empty((trials, m))
    redraw = np.arange(trials)
    for _ in range(1000):
        out[redraw] = np.sort(rng.uniform(lo, hi, (len(redraw), m)), axis=1)
        redraw = redraw[np.any(np.diff(out[redraw], axis=1) <= sep, axis=1)]
        if not len(redraw):
            return out
    raise BadParameterError("could not draw a separated tuple")


def _verdict(per_m) -> Verdict:
    if any(s.violations > 0 for s in per_m):
        return Verdict.VIOLATION_FOUND
    if any(s.inferred_sign is None for s in per_m):
        return Verdict.INCONCLUSIVE
    if all(s.inferred_sign == 1 for s in per_m):
        return Verdict.CONSISTENT_STP
    return Verdict.CONSISTENT_SSR


def ssr_scan(
    spec,
    m_max: int,
    trials_per_m: int,
    seed: int,
    policy: PrecisionPolicy = DOUBLE,
) -> SsrReport:
    """Sample minors of every order up to m_max and infer the sign pattern.

    Tuples are sorted i.i.d. uniform draws, conditioned on a minimum
    separation of 1e-3. Each order m has one generator, seeded with
    (seed, m), which draws all x-tuples of the order as one batch and then
    all y-tuples (draw_separated), so the same (seed, m, trials_per_m,
    domain) gives the same tuples and reports are reproducible. The order
    is decided as one batch by _settle under either policy: a minor is
    determinate only when an enclosure of its exact determinant excludes 0,
    and its sign is certified as the module docstring says.
    min_abs_det * 2^min_abs_det_exp2 is the smallest lower bound of |det|
    from the enclosures, rounded down, with min_abs_det in [0.5, 1), so a
    bound below or above the double range keeps its value; both are 0 when
    any minor of the order is indeterminate. The per-order sign is the
    majority of determinate signs and any determinate disagreement is a
    violation.
    """
    if not 1 <= m_max <= 8:
        raise BadParameterError("m_max must be in [1, 8]")
    if trials_per_m < 1:
        raise BadParameterError("trials_per_m must be at least 1")
    stats = []
    for m in range(1, m_max + 1):
        rng = np.random.default_rng((seed, m))
        xs = draw_separated(rng, *spec.domain.x, m, trials_per_m)
        ys = draw_separated(rng, *spec.domain.y, m, trials_per_m)
        signs, lower, shift = _settle(spec, xs, ys, policy)
        min_abs, min_exp2 = 0.0, 0
        if signs.all():
            mantissa, exp2 = np.frexp(lower)
            exp2 += shift
            least = np.lexsort((mantissa, exp2))[0]  # least exponent, then least mantissa
            min_abs, min_exp2 = float(mantissa[least]), int(exp2[least])
        pos = int(np.count_nonzero(signs > 0))
        neg = int(np.count_nonzero(signs < 0))
        ind = trials_per_m - pos - neg
        if pos == 0 and neg == 0:
            sign = None
        else:
            sign = 1 if pos >= neg else -1
        stats.append(MinorStats(
            m=m, trials=trials_per_m, positive=pos, negative=neg,
            indeterminate=ind, inferred_sign=sign,
            min_abs_det=min_abs, min_abs_det_exp2=min_exp2, violations=min(pos, neg),
        ))
    per_m = tuple(stats)
    return SsrReport(
        kernel=spec.describe(), m_max=m_max, trials_per_m=trials_per_m,
        seed=seed, per_m=per_m, verdict=_verdict(per_m),
    )


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _constant_sign(fn, interval, samples: int = 33) -> int:
    lo, hi = interval
    xs = np.linspace(lo, hi, samples + 2)[1:-1]
    vals = np.array([fn(x) for x in xs], float)
    if np.any(vals == 0.0) or (np.any(vals > 0) and np.any(vals < 0)):
        raise BadParameterError("factor must keep one nonzero sign on the interval")
    return 1 if vals[0] > 0 else -1


@dataclass(frozen=True)
class FactorInvarianceReport:
    base: SsrReport
    wrapped: SsrReport
    sign_phi: int
    sign_psi: int
    consistent: bool


def factor_invariance_check(
    base,
    phi: Callable[[float], float],
    psi: Callable[[float], float],
    m_max: int,
    trials_per_m: int,
    seed: int,
    policy: PrecisionPolicy = DOUBLE,
) -> FactorInvarianceReport:
    """Scan a kernel and its phi(x)psi(y)-wrapped version with the same
    tuples; the wrapped sign pattern must equal the base pattern times
    (sign phi * sign psi)^m."""
    sign_phi = _constant_sign(phi, base.domain.x)
    sign_psi = _constant_sign(psi, base.domain.y)
    wrapped = FactorWrappedKernel(base=base, phi=phi, psi=psi)
    rep_base = ssr_scan(base, m_max, trials_per_m, seed, policy)
    rep_wrapped = ssr_scan(wrapped, m_max, trials_per_m, seed, policy)
    consistent = True
    for sb, sw in zip(rep_base.per_m, rep_wrapped.per_m):
        if sb.inferred_sign is None or sw.inferred_sign is None:
            continue
        expected = sb.inferred_sign * (sign_phi * sign_psi) ** sb.m
        if sw.inferred_sign != expected:
            consistent = False
    return FactorInvarianceReport(
        base=rep_base, wrapped=rep_wrapped,
        sign_phi=sign_phi, sign_psi=sign_psi, consistent=consistent,
    )


def composition_kernel(k_spec, l_spec, grid) -> CustomKernel:
    """Discrete composition M(x, y) = sum_eta K(x, eta) L(eta, y)."""
    grid = np.asarray(grid, float)
    if len(grid) < 1 or (len(grid) > 1 and np.any(np.diff(grid) <= 0)):
        raise BadTupleError("grid must be non-empty and strictly increasing")
    ky = k_spec.domain.y
    lx = l_spec.domain.x
    if grid[0] <= ky[0] or grid[-1] >= ky[1] or grid[0] <= lx[0] or grid[-1] >= lx[1]:
        raise BadTupleError("grid must lie inside K's y-domain and L's x-domain")

    def fn(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        bx, by = np.broadcast_arrays(x, y)
        out = np.zeros(bx.shape)
        for eta in grid:
            out += np.asarray(k_spec.evaluate(bx, eta), float) \
                 * np.asarray(l_spec.evaluate(eta, by), float)
        return out

    return CustomKernel(
        fn=fn,
        domain=Domain(k_spec.domain.x, l_spec.domain.y),
        label=f"composition[{k_spec.describe()} . {l_spec.describe()}]",
    )


def composition_check(
    k_spec,
    l_spec,
    grid,
    m_max: int,
    trials_per_m: int,
    seed: int,
    policy: PrecisionPolicy = DOUBLE,
) -> SsrReport:
    """Scan the discrete composition of two kernels."""
    return ssr_scan(composition_kernel(k_spec, l_spec, grid), m_max, trials_per_m, seed, policy)
