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
The kernel formula runs on midpoint-radius double intervals, and stage 1
encloses every determinant from them; under the extended policy, stage 2
rebuilds the minors stage 1 leaves open at the working precision. Both
stages, their derivations and the rounding model live in
orthozero.enclosure. A stage-1 sign is rigorous for a kernel built only
from + - * /, sqrt and half-integer powers up to 512, which take correctly
rounded operations alone; for exp_xy, other exponents and custom kernels it
rests on numpy's exp and power being accurate to a relative 2^-40. A
stage-2 sign also rests on a first-order bound of the working-precision
entries' error (mpmath.iv would make that stage rigorous). So the signs are
certified under that error model, and rigorous only where it is not used.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from enum import Enum
from types import SimpleNamespace
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    BadIntervalError,
    BadParameterError,
    BadTupleError,
    OutOfDomainError,
)
from .enclosure import (_Interval, _enclose, _exact_det, _libm_down, _libm_up, _scaled_lu_enclose,
                        _to_double, integer_det)
from .polycore import check_params, dyadic_numerators
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
# it runs _Interval.pow's operations with fewer roundings. `lift` takes
# doubles into the route's numbers, and `rounded` a double callable's values:
# as they are, as intervals widened as numpy's exp and power are, or as mpf.
# Only the extended policy computes in mpmath, so its route is built on
# first use (_mpmath_route), and a double run never imports it.
_NUMPY = SimpleNamespace(num=float, exp=np.exp, sqrt=np.sqrt,
                         pow=lambda base, e: base ** float(e),
                         lift=lambda v: np.asarray(v, float), rounded=lambda v: v)
_INTERVAL = SimpleNamespace(num=_Interval.lift, exp=_Interval.exp, sqrt=_Interval.sqrt,
                            pow=_Interval.pow, lift=_Interval.lift,
                            rounded=lambda v: _Interval(_libm_down(v), _libm_up(v)))
_SERIES = SimpleNamespace(num=float, sqrt=Series.sqrt, pow=operator.pow)


@functools.cache
def _mpmath_route() -> SimpleNamespace:
    """The mpmath route, with `lift` and `rounded` (floats to mpf at the
    working precision) and `workprec` (mpmath's precision context)."""
    import mpmath

    lift = np.frompyfunc(mpmath.mpf, 1, 1)
    return SimpleNamespace(num=mpmath.mpf, exp=np.frompyfunc(mpmath.exp, 1, 1),
                           sqrt=np.frompyfunc(mpmath.sqrt, 1, 1),
                           pow=lambda base, e: base ** mpmath.mpf(e),
                           lift=lift, rounded=lift, workprec=mpmath.workprec)


class _Kernel:
    """The entry points of a kernel, each its `on(route, x, y)`: its values
    at the doubles x, y on that route, broadcast as numpy broadcasts."""

    def evaluate(self, x, y):
        return self.on(_NUMPY, x, y)

    def evaluate_exact(self, x, y):
        """One mpf for scalar x, y; for arrays, an object array of mpf."""
        return self.on(_mpmath_route(), x, y)

    def evaluate_interval(self, x, y) -> _Interval:
        """Intervals enclosing the kernel's values, with its constants as
        `evaluate_exact` lifts them."""
        with np.errstate(all="ignore"):
            return self.on(_INTERVAL, x, y)


class _Formula(_Kernel):
    """A kernel written once as formula(x, y, lib) and evaluated under any
    route; `name` and its parameter fields (all but `domain`) describe it.
    Its working-precision entries run the formula's own operations, so they
    refine its intervals (_settle)."""

    name: ClassVar[str]
    refines: ClassVar[bool] = True

    def on(self, route, x, y):
        return self.formula(route.lift(x), route.lift(y), route)

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
class FactorWrappedKernel(_Kernel):
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

    def on(self, route, x, y):
        # the wrapping factors act as a rank-one rescaling, so evaluating
        # them in double does not disturb determinant sign or conditioning
        phi, psi = self._factors(x, y)
        return route.lift(phi) * route.lift(psi) * self.base.on(route, x, y)

    @property
    def refines(self) -> bool:
        return self.base.refines

    def describe(self) -> str:
        return f"factor_wrapped[{self.base.describe()}]"


@dataclass(frozen=True)
class CustomKernel(_Kernel):
    """Arbitrary callable kernel with an explicit scan domain. The callable
    runs in double; its intervals take each value to be as accurate as
    _Interval takes numpy's exp and power, so the rounded minors of a
    rank-deficient kernel stay undecided, and lifting the values refines
    nothing."""

    refines: ClassVar[bool] = False
    fn: Callable
    domain: Domain
    label: str = "custom"

    def on(self, route, x, y):
        # the callable runs in double; the route takes only its values
        return route.rounded(np.asarray(self.fn(_NUMPY.lift(x), _NUMPY.lift(y)), float))

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
        with _mpmath_route().workprec(policy.bits):
            return spec.evaluate_exact(x, y)
    return np.asarray(spec.evaluate(x, y), float)


def _settle(spec, xs, ys, policy: PrecisionPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certified signs of one order's minors, 0 where undecided, and
    lower bounds of their |det|: each minor's is lower * 2^shift with a
    positive double `lower`, and `lower` is 0 where the minor is undecided.

    Stage 1 (_scaled_lu_enclose) decides what it can from the entries'
    intervals (`evaluate_interval`). Under the extended policy, stage 2
    (_enclose) rebuilds the minors it leaves open at the working precision
    (_minor_matrices), for a kernel whose working-precision entries refine
    its intervals (`refines`) and a minor whose entries are all bounded.
    """
    with np.errstate(all="ignore"):
        entries = spec.evaluate_interval(xs[:, :, None], ys[:, None, :])
        signs, lower, mid, rad, k = _scaled_lu_enclose(*np.broadcast_arrays(entries.mid, entries.rad))
        if policy.extended:
            bounded = np.isfinite(rad).all(axis=(1, 2))
            rebuild = np.flatnonzero(bounded & (signs == 0) & spec.refines)
            matrices = _minor_matrices(spec, xs[rebuild], ys[rebuild], policy)
            signs[rebuild], lower[rebuild] = _enclose(matrices, mid[rebuild], rad[rebuild],
                                                      k[rebuild], policy.bits)
        return signs, lower, k.sum(axis=1)



def ssr_minor(spec, xs, ys, policy: PrecisionPolicy = DOUBLE) -> float:
    """Determinant of [K(x_i, y_j)] for strictly increasing node tuples: the
    exact determinant of the entries, rounded once (nan if an entry is not
    finite), with the entries in double, taken as the binary rationals they
    are, or, under the extended policy, built at the working precision."""
    xs = _check_tuple(xs, spec.domain.x)
    ys = _check_tuple(ys, spec.domain.y)
    if len(xs) != len(ys):
        raise BadTupleError("node tuples must have equal length")
    if len(xs) > 8:
        raise BadTupleError("minor order capped at 8")
    matrix = _minor_matrices(spec, xs[None], ys[None], policy)[0]
    if policy.extended:
        return _exact_det(matrix)
    if not np.isfinite(matrix).all():
        return math.nan
    rows, shifts = zip(*map(dyadic_numerators, matrix.tolist()))
    return _to_double(integer_det(rows), sum(shifts))


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
