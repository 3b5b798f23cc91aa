"""Randomized testing of strict sign regularity and strict total positivity
for bivariate kernels.

Sign regularity quantifies over all increasing node tuples, so a program can
only sample: verdicts here are "consistent with" statements, never proofs.
Minors are classified determinate only when they clear a threshold relative
to the matrix row norms; everything else is counted indeterminate rather
than silently assigned a sign.
"""

from __future__ import annotations

import math
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
from .polycore import check_params
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

# The two number routes a kernel formula runs under: numpy in double, and
# mpmath at the caller's working precision. `num` lifts a scalar constant.
_NUMPY = SimpleNamespace(num=float, exp=np.exp, sqrt=np.sqrt)
_MPMATH = SimpleNamespace(num=mpmath.mpf, exp=mpmath.exp, sqrt=mpmath.sqrt)


class _Formula:
    """A kernel written once as formula(x, y, lib) and evaluated under either
    route; `name` and its parameter fields (all but `domain`) describe it."""

    name: ClassVar[str]

    def evaluate(self, x, y):
        return self.formula(np.asarray(x, float), np.asarray(y, float), _NUMPY)

    def evaluate_exact(self, x, y):
        return self.formula(mpmath.mpf(x), mpmath.mpf(y), _MPMATH)

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
        return (x + y) ** (-self.beta)


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
        return (1 - 2 * x * y + y * y) ** (-self.beta)


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
        return (2 * self.alpha + 1) * (1 - y * y) * q ** (-self.alpha - 1.5)


@dataclass(frozen=True)
class JacobiGenKernel(_Formula):
    """The two-parameter generating kernel
    2^(a+b) / (rho (1+y+rho)^b (1-y+rho)^a) with rho = sqrt(1 - 2xy + y^2)."""

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
        return (lib.num(2) ** (self.alpha + self.beta)
                / (rho * (1 + y + rho) ** self.beta * (1 - y + rho) ** self.alpha))


@dataclass(frozen=True)
class FactorWrappedKernel:
    """phi(x) psi(y) K(x, y) for fixed-sign factors phi, psi."""

    base: object
    phi: Callable[[float], float]
    psi: Callable[[float], float]

    @property
    def domain(self) -> Domain:
        return self.base.domain

    def evaluate(self, x, y):
        phi = np.vectorize(self.phi, otypes=[float])
        psi = np.vectorize(self.psi, otypes=[float])
        return phi(np.asarray(x, float)) * psi(np.asarray(y, float)) * self.base.evaluate(x, y)

    def evaluate_exact(self, x, y):
        # the wrapping factors act as a rank-one rescaling, so evaluating
        # them in double does not disturb determinant sign or conditioning
        return (mpmath.mpf(self.phi(float(x))) * mpmath.mpf(self.psi(float(y)))
                * self.base.evaluate_exact(x, y))

    def describe(self) -> str:
        return f"factor_wrapped[{self.base.describe()}]"


@dataclass(frozen=True)
class CustomKernel:
    """Arbitrary callable kernel with an explicit scan domain."""

    fn: Callable
    domain: Domain
    label: str = "custom"

    def evaluate(self, x, y):
        return np.asarray(self.fn(np.asarray(x, float), np.asarray(y, float)), float)

    def evaluate_exact(self, x, y):
        # the callable runs in double; only its value is lifted
        return mpmath.mpf(float(self.evaluate(x, y)))

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


def _minor_matrix(spec, xs, ys) -> np.ndarray:
    return np.asarray(spec.evaluate(xs[:, None], ys[None, :]), float)


def _det_double(matrix: np.ndarray) -> float:
    if len(matrix) == 1:
        return float(matrix[0, 0])
    return float(np.linalg.det(matrix))


def _det_extended(spec, xs, ys, bits: int) -> float:
    # rebuild the entries at working precision: with double entries the
    # exactly-computed determinant still inherits the entry rounding, which
    # dominates for near-singular Cauchy-like minors
    with mpmath.workprec(bits):
        m = len(xs)
        matrix = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(m):
                matrix[i, j] = spec.evaluate_exact(xs[i], ys[j])
        if m == 1:
            return float(matrix[0, 0])
        return float(mpmath.det(matrix))


def minor_scale(matrix: np.ndarray) -> float:
    """Product of row sup-norms: the natural magnitude of the determinant."""
    return float(np.prod(np.max(np.abs(matrix), axis=1)))


def ssr_minor(spec, xs, ys, policy: PrecisionPolicy = DOUBLE) -> float:
    """Determinant of [K(x_i, y_j)] for strictly increasing node tuples."""
    xs = _check_tuple(xs, spec.domain.x)
    ys = _check_tuple(ys, spec.domain.y)
    if len(xs) != len(ys):
        raise BadTupleError("node tuples must have equal length")
    if len(xs) > 8:
        raise BadTupleError("minor order capped at 8")
    if policy.extended:
        return _det_extended(spec, xs, ys, policy.bits)
    return _det_double(_minor_matrix(spec, xs, ys))


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


def draw_separated(rng, lo: float, hi: float, m: int, sep: float = MIN_SEPARATION) -> np.ndarray:
    """m sorted i.i.d. uniform draws on (lo, hi), redrawn until adjacent
    values are more than sep apart."""
    if (hi - lo) <= (m - 1) * sep:
        raise BadParameterError("interval too small for the separation floor")
    for _ in range(1000):
        vals = np.sort(rng.uniform(lo, hi, m))
        if m == 1 or np.min(np.diff(vals)) > sep:
            return vals
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

    Tuples are sorted i.i.d. uniform draws with a minimum separation of
    1e-3, redrawn per (seed, m, trial), so reports are reproducible and
    order-independent. A minor is determinate when |det| exceeds tau_det
    times the product of row sup-norms; the per-order sign is the majority
    of determinate signs and any determinate disagreement is a violation.
    """
    cap = 8 if policy.extended else 6
    if not 1 <= m_max <= cap:
        raise BadParameterError(f"m_max must be in [1, {cap}] under this policy")
    if trials_per_m < 1:
        raise BadParameterError("trials_per_m must be at least 1")
    stats = []
    for m in range(1, m_max + 1):
        pos = neg = ind = 0
        min_abs = math.inf
        for trial in range(trials_per_m):
            rng = np.random.default_rng((seed, m, trial))
            xs = draw_separated(rng, *spec.domain.x, m)
            ys = draw_separated(rng, *spec.domain.y, m)
            matrix = _minor_matrix(spec, xs, ys)
            det = (_det_extended(spec, xs, ys, policy.bits) if policy.extended
                   else _det_double(matrix))
            min_abs = min(min_abs, abs(det))
            if abs(det) <= policy.tau_det * minor_scale(matrix):
                ind += 1
            elif det > 0:
                pos += 1
            else:
                neg += 1
        if pos == 0 and neg == 0:
            sign = None
        else:
            sign = 1 if pos >= neg else -1
        stats.append(MinorStats(
            m=m, trials=trials_per_m, positive=pos, negative=neg,
            indeterminate=ind, inferred_sign=sign,
            min_abs_det=min_abs, violations=min(pos, neg),
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
