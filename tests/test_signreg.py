"""Sign-regularity machinery: minors against closed forms, randomized scans
of the kernels with known positivity status, factor and composition rules."""

import json
import math
import operator
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthozero import (
    DOUBLE,
    CustomKernel,
    Domain,
    ExpKernel,
    FactorWrappedKernel,
    JacobiGenKernel,
    PowerSumKernel,
    UltraDerivedKernel,
    UltraGenKernel,
    Verdict,
    composition_check,
    extended,
    factor_invariance_check,
    kernel_eval,
    ssr_minor,
    ssr_scan,
)
from orthozero.cli import main as cli_main
from orthozero.errors import BadParameterError, BadTupleError, OutOfDomainError
from orthozero.harness import CampaignConfig, run_campaign
from orthozero import signreg
from orthozero.enclosure import (
    _Interval,
    _down,
    _lu_enclose,
    _mpf_rows,
    _row_norm_bounds,
    _up,
    integer_det,
)
from orthozero.signreg import (
    _INTERVAL,
    _minor_matrices,
    _settle,
    composition_kernel,
    draw_separated,
)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    assert kernel_eval(ExpKernel(Domain((-1, 1), (-6, 6))), 0.0, 5.0) == 1.0
    assert kernel_eval(PowerSumKernel(1.0), 1.0, 1.0) == 0.5
    assert kernel_eval(UltraGenKernel(0.5), 0.0, 0.0) == 1.0


def test_eval_out_of_domain():
    with pytest.raises(OutOfDomainError):
        kernel_eval(ExpKernel(), 5.0, 0.0)
    with pytest.raises(OutOfDomainError):
        kernel_eval(UltraGenKernel(1.0), 0.0, 1.0)


def test_kernel_validation():
    with pytest.raises(BadParameterError):
        PowerSumKernel(0.0)
    with pytest.raises(BadParameterError):
        PowerSumKernel(1.0, Domain((-1.0, 1.0), (0.1, 1.0)))
    with pytest.raises(BadParameterError):
        UltraGenKernel(1.0, Domain((0.0, 2.0), (0.9, 1.5)))
    # wide x is fine while the quadratic stays positive
    UltraGenKernel(1.0, Domain((-2.0, 2.0), (-0.2, 0.2)))


def test_wrapped_kernel_eval():
    base = ExpKernel()
    wrapped = FactorWrappedKernel(base, lambda x: 2.0, lambda y: 3.0)
    assert math.isclose(kernel_eval(wrapped, 0.5, 0.5),
                        6.0 * math.exp(0.25), rel_tol=1e-14)


FORMULA_KERNELS = [ExpKernel(), PowerSumKernel(1.5), UltraGenKernel(-0.5),
                   UltraDerivedKernel(0.5), JacobiGenKernel(1.0, 0.25)]


def test_double_and_extended_routes_agree():
    for spec in FORMULA_KERNELS:
        (xlo, xhi), (ylo, yhi) = spec.domain.x, spec.domain.y
        x, y = 0.6 * xlo + 0.4 * xhi, 0.3 * ylo + 0.7 * yhi
        assert math.isclose(float(spec.evaluate_exact(x, y)), float(spec.evaluate(x, y)),
                            rel_tol=1e-14)


def test_kernels_describe_themselves():
    assert [spec.describe() for spec in FORMULA_KERNELS] == [
        "exp_xy on (-3,3)x(-3,3)",
        "power_sum(beta=1.5) on (0.1,10)x(0.1,10)",
        "ultra_gen(beta=-0.5) on (-1,1)x(-1,1)",
        "ultra_derived(alpha=0.5) on (-1,1)x(-1,1)",
        "jacobi_gen(alpha=1,beta=0.25) on (-1,1)x(-1,1)",
    ]
    wrapped = FactorWrappedKernel(UltraGenKernel(2.0), abs, abs)
    assert wrapped.describe() == "factor_wrapped[ultra_gen(beta=2) on (-1,1)x(-1,1)]"
    custom = CustomKernel(fn=np.multiply, domain=Domain((0, 1), (0, 2)), label="xy")
    assert custom.describe() == "xy on (0,1)x(0,2)"


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_minor_exp_2x2():
    val = ssr_minor(ExpKernel(), (0.0, 1.0), (0.0, 1.0))
    assert math.isclose(val, math.e - 1.0, rel_tol=1e-14)


def test_minor_cauchy_2x2():
    val = ssr_minor(PowerSumKernel(1.0), (1.0, 2.0), (1.0, 2.0))
    assert math.isclose(val, 1.0 / 72.0, rel_tol=1e-13)


def test_minor_order_one_is_value():
    spec = UltraGenKernel(1.5)
    assert math.isclose(ssr_minor(spec, (0.3,), (0.4,)),
                        kernel_eval(spec, 0.3, 0.4), rel_tol=1e-15)


def _cauchy_det(xs, ys):
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    num = 1.0
    for i in range(len(xs)):
        for j in range(i):
            num *= (xs[i] - xs[j]) * (ys[i] - ys[j])
    den = np.prod([(x + y) for x in xs for y in ys])
    return num / den


def test_minor_matches_cauchy_closed_form():
    # double precision holds 1e-8 relative only away from near-confluent
    # tuples; the extended policy covers the ill-conditioned draws
    rng = np.random.default_rng(0)
    spec = PowerSumKernel(1.0)
    policy = extended(256)
    for m in range(1, 6):
        for _ in range(10):
            xs = np.sort(rng.uniform(0.2, 9.0, m))
            ys = np.sort(rng.uniform(0.2, 9.0, m))
            if m > 1 and (np.min(np.diff(xs)) < 1e-2 or np.min(np.diff(ys)) < 1e-2):
                continue
            want = _cauchy_det(xs, ys)
            got = ssr_minor(spec, xs, ys, policy)
            assert abs(got - want) <= 1e-10 * abs(want)
            if m == 1 or (np.min(np.diff(xs)) > 0.8 and np.min(np.diff(ys)) > 0.8):
                got_double = ssr_minor(spec, xs, ys)
                assert abs(got_double - want) <= 1e-8 * abs(want)


def test_minor_tuple_validation():
    spec = ExpKernel()
    with pytest.raises(BadTupleError):
        ssr_minor(spec, (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(BadTupleError):
        ssr_minor(spec, (0.0, 5.0), (0.0, 1.0))
    with pytest.raises(BadTupleError):
        ssr_minor(spec, (0.0, 1.0), (0.0,))


def test_minor_extended_agrees_with_double():
    spec = UltraGenKernel(1.5)
    xs = (-0.7, -0.1, 0.4)
    ys = (-0.5, 0.2, 0.8)
    d = ssr_minor(spec, xs, ys)
    e = ssr_minor(spec, xs, ys, extended(192))
    assert math.isclose(d, e, rel_tol=1e-10)


def test_scale_covariance():
    rng = np.random.default_rng(1)
    base = ExpKernel()
    c = 3.7
    wrapped = FactorWrappedKernel(base, lambda x: c, lambda y: 1.0)
    for m in range(1, 5):
        xs = np.sort(rng.uniform(-2.5, 2.5, m))
        ys = np.sort(rng.uniform(-2.5, 2.5, m))
        if m > 1 and (np.min(np.diff(xs)) < 1e-2 or np.min(np.diff(ys)) < 1e-2):
            continue
        assert math.isclose(ssr_minor(wrapped, xs, ys),
                            c ** m * ssr_minor(base, xs, ys), rel_tol=1e-12)


def test_monotone_relabeling_determinism():
    spec = ExpKernel()
    xs = np.array([-1.0, 0.2, 1.4])
    ys = np.array([-2.0, 0.0, 2.0])
    perm = [2, 0, 1]
    a = ssr_minor(spec, xs, ys)
    b = ssr_minor(spec, np.sort(xs[perm]), np.sort(ys[perm]))
    assert a == b


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

TP_KERNELS = [
    ExpKernel(),
    PowerSumKernel(0.5),
    PowerSumKernel(1.0),
    PowerSumKernel(2.0),
    UltraGenKernel(0.5),
    UltraGenKernel(1.5),
    UltraGenKernel(3.0),
    UltraDerivedKernel(0.0),
    UltraDerivedKernel(1.0),
]


@pytest.mark.parametrize("spec", TP_KERNELS, ids=lambda s: type(s).__name__ + str(getattr(s, "beta", getattr(s, "alpha", ""))))
def test_totally_positive_kernels_scan_clean(spec):
    for seed in (1, 2):
        rep = ssr_scan(spec, m_max=4, trials_per_m=150, seed=seed)
        assert rep.verdict is Verdict.CONSISTENT_STP
        assert all(s.violations == 0 for s in rep.per_m)
        assert all(s.negative == 0 for s in rep.per_m)


def test_negative_beta_is_sign_regular_not_stp():
    rep = ssr_scan(UltraGenKernel(-0.5), m_max=4, trials_per_m=300, seed=1)
    assert rep.verdict in (Verdict.CONSISTENT_SSR, Verdict.INCONCLUSIVE)
    if rep.verdict is Verdict.CONSISTENT_SSR:
        assert rep.signs() == [1, -1, 1, -1]
    assert all(s.violations == 0 for s in rep.per_m)


def test_scan_determinism():
    a = ssr_scan(ExpKernel(), m_max=3, trials_per_m=50, seed=42)
    b = ssr_scan(ExpKernel(), m_max=3, trials_per_m=50, seed=42)
    assert a == b


class _CountingRng:
    """A generator that counts its uniform calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)


@pytest.mark.parametrize("lo,hi,m,trials,sep", [
    (-1.0, 1.0, 1, 7, 1e-3), (-1.0, 1.0, 4, 200, 1e-3), (0.1, 10.0, 8, 50, 1e-3),
    (0.0, 1.0, 5, 40, 0.15),  # about 1 row in 100 is separated, so most are redrawn
])
def test_batched_tuples_are_sorted_separated_and_reproducible(lo, hi, m, trials, sep):
    rng = _CountingRng(7)
    tuples = draw_separated(rng, lo, hi, m, trials, sep)
    assert tuples.shape == (trials, m)
    assert np.all(tuples > lo) and np.all(tuples < hi)
    assert np.all(np.diff(tuples, axis=1) > sep)  # sorted, and every gap above sep
    assert np.array_equal(tuples, draw_separated(np.random.default_rng(7), lo, hi, m, trials, sep))
    if sep == 0.15:
        assert rng.calls > 1


def test_batch_of_one_draws_what_a_single_tuple_did():
    # the one-tuple loop the batched sampler replaced: redraw the whole tuple
    # until its sorted values are more than sep apart
    def single(rng, lo, hi, m, sep):
        while True:
            vals = sorted(rng.uniform(lo, hi, m).tolist())
            if all(b - a > sep for a, b in zip(vals, vals[1:])):
                return vals

    for seed in range(30):
        for m, sep in ((1, 0.05), (4, 0.05), (6, 0.05), (5, 0.15)):
            got = draw_separated(np.random.default_rng(seed), -0.95, 0.95, m, sep=sep)
            assert got.tolist() == [single(np.random.default_rng(seed), -0.95, 0.95, m, sep)]


def test_sampler_rejects_what_it_cannot_draw():
    with pytest.raises(BadParameterError, match="interval too small for the separation floor"):
        draw_separated(np.random.default_rng(1), 0.0, 1.0, 5, 10, sep=0.25)
    # a separated row has probability about 1e-7 here: 1000 rounds run out
    with pytest.raises(BadParameterError, match="could not draw a separated tuple"):
        draw_separated(np.random.default_rng(1), 0.0, 1.0, 8, 1, sep=0.124)


def test_scan_builds_one_generator_per_order(monkeypatch):
    from orthozero import signreg

    seeds = []
    make = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(signreg.np.random, "default_rng", counting)
    ssr_scan(UltraGenKernel(1.5), m_max=4, trials_per_m=300, seed=9)
    assert seeds == [(9, 1), (9, 2), (9, 3), (9, 4)]


def test_scan_m_cap_by_policy():
    # both policies decide minors by the same enclosures, under one cap
    for policy in (DOUBLE, extended(128)):
        with pytest.raises(BadParameterError, match=r"\[1, 8\]"):
            ssr_scan(ExpKernel(), m_max=9, trials_per_m=10, seed=1, policy=policy)
        rep = ssr_scan(ExpKernel(), m_max=8, trials_per_m=10, seed=1, policy=policy)
        assert rep.m_max == 8 and len(rep.per_m) == 8


def test_scan_order_one_signs_kernel_values():
    rep = ssr_scan(UltraDerivedKernel(-0.8), m_max=1, trials_per_m=100, seed=3)
    # 2a+1 < 0 here, so every order-1 minor is negative
    assert rep.signs() == [-1]


# ---------------------------------------------------------------------------
# factor rule and composition rule
# ---------------------------------------------------------------------------

def test_factor_rule_positive_constants():
    rep = factor_invariance_check(ExpKernel(), lambda x: 2.0, lambda y: 2.0,
                                  m_max=3, trials_per_m=120, seed=4)
    assert rep.consistent
    assert rep.base.signs() == rep.wrapped.signs()


def test_factor_rule_drops_derived_prefactor():
    # wrapping the pure power kernel with (2a+1)(1 - t^2) reproduces the
    # derived kernel; the inferred pattern must be unchanged (a = 0)
    rep = factor_invariance_check(
        UltraGenKernel(1.5),
        lambda x: 1.0,
        lambda t: (2 * 0.0 + 1.0) * (1.0 - t * t),
        m_max=4, trials_per_m=150, seed=5,
    )
    assert rep.consistent
    assert rep.base.signs() == rep.wrapped.signs()


def test_factor_rule_sign_flip():
    rep = factor_invariance_check(ExpKernel(), lambda x: -1.0, lambda y: 1.0,
                                  m_max=2, trials_per_m=100, seed=6)
    assert rep.consistent
    assert rep.wrapped.signs()[0] == -rep.base.signs()[0]
    # order 2: (-1)^2 restores the base sign
    assert rep.wrapped.signs()[1] == rep.base.signs()[1]


def test_factor_rule_rejects_vanishing_factor():
    with pytest.raises(BadParameterError):
        factor_invariance_check(ExpKernel(), lambda x: x, lambda y: 1.0,
                                m_max=2, trials_per_m=100, seed=7)


def test_composition_of_exp_kernels():
    window = Domain((-2.0, 2.0), (-2.0, 2.0))
    rep = composition_check(ExpKernel(window), ExpKernel(window),
                            np.linspace(-1.9, 1.9, 12),
                            m_max=3, trials_per_m=150, seed=8)
    assert rep.verdict is Verdict.CONSISTENT_STP


def test_composition_exp_with_power_sum():
    k = ExpKernel(Domain((0.2, 3.0), (0.2, 3.0)))
    l = PowerSumKernel(2.0, Domain((0.2, 3.0), (0.2, 3.0)))
    rep = composition_check(k, l, np.linspace(0.3, 2.9, 12),
                            m_max=3, trials_per_m=150, seed=9)
    assert rep.verdict is Verdict.CONSISTENT_STP


def test_composition_positive_at_order_one():
    k = ExpKernel(Domain((0.2, 3.0), (0.2, 3.0)))
    l = PowerSumKernel(1.0, Domain((0.2, 3.0), (0.2, 3.0)))
    from orthozero.signreg import composition_kernel

    m = composition_kernel(k, l, np.linspace(0.3, 2.9, 8))
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(0.25, 2.95)
        y = rng.uniform(0.25, 2.95)
        assert kernel_eval(m, x, y) > 0


def test_composition_grid_validation():
    k = ExpKernel(Domain((0.2, 3.0), (0.2, 3.0)))
    l = PowerSumKernel(1.0, Domain((0.5, 3.0), (0.2, 3.0)))
    with pytest.raises(BadTupleError):
        composition_check(k, l, np.linspace(0.3, 2.9, 8), m_max=2,
                          trials_per_m=50, seed=1)


def test_two_parameter_kernel_scan_positive_regime():
    rep = ssr_scan(JacobiGenKernel(1.0, 2.0), m_max=3, trials_per_m=150, seed=11)
    assert rep.verdict is Verdict.CONSISTENT_STP


def test_custom_kernel_scan():
    spec = CustomKernel(fn=lambda x, y: np.exp(x * y), domain=Domain((-2, 2), (-2, 2)))
    rep = ssr_scan(spec, m_max=3, trials_per_m=100, seed=12)
    assert rep.verdict is Verdict.CONSISTENT_STP


def test_rank_one_kernel_is_inconclusive_beyond_order_one():
    # every minor of order >= 2 vanishes for phi(x)psi(y), so no sign can be
    # inferred there and the scan must say so rather than guess; under the
    # extended policy each of them is exactly 0, which no enclosure excludes
    spec = CustomKernel(fn=lambda x, y: (1.0 + 0 * x) * (1.0 + 0 * y),
                        domain=Domain((-1, 1), (-1, 1)))
    for policy in (DOUBLE, extended(128)):
        rep = ssr_scan(spec, m_max=3, trials_per_m=100, seed=13, policy=policy)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.signs() == [1, None, None]
        assert all(s.violations == 0 for s in rep.per_m)


# ---------------------------------------------------------------------------
# batched scans: the stacked double route and the certified extended route
# ---------------------------------------------------------------------------

_POSITIVE = Domain((0.2, 3.0), (0.2, 3.0))
SCAN_KERNELS = {
    "ExpKernel": ExpKernel(),
    "PowerSumKernel": PowerSumKernel(1.5),
    "UltraGenKernel": UltraGenKernel(-0.5),
    "UltraDerivedKernel": UltraDerivedKernel(0.5),
    "JacobiGenKernel": JacobiGenKernel(1.0, 0.25),
    "FactorWrappedKernel": FactorWrappedKernel(UltraGenKernel(1.5), lambda x: 2.0 - x,
                                               lambda t: 1.0 - t * t),
    "composition_kernel": composition_kernel(ExpKernel(_POSITIVE), PowerSumKernel(2.0, _POSITIVE),
                                             np.linspace(0.3, 2.9, 6)),
}


@pytest.mark.parametrize("policy", [DOUBLE, extended(128)], ids=["double", "extended"])
@pytest.mark.parametrize("name", list(SCAN_KERNELS))
def test_scan_equals_minor_by_minor_recomputation(name, policy):
    # the per-minor loop the batched scan replaced, kept as its reference:
    # same draws (one generator per order, all x-tuples, then all
    # y-tuples), one ssr_minor per tuple and the enclosure of each minor on
    # its own, whose sign, where it has one, is that of ssr_minor's
    # determinant of the double or working-precision entries
    spec, seed, trials = SCAN_KERNELS[name], 5, 25
    rep = ssr_scan(spec, 4, trials, seed, policy)
    for stats in rep.per_m:
        pos = neg = ind = 0
        bounds = []
        x_tuples, y_tuples = _draws(spec, stats.m, trials, seed)
        for xs, ys in zip(x_tuples, y_tuples):
            det = ssr_minor(spec, xs, ys, policy)
            (sign,), (lower,), (shift,) = _settle(spec, xs[None], ys[None], policy)
            assert sign in (0, np.sign(det))
            bounds.append(Fraction(lower) * Fraction(2) ** int(shift))  # 0 where undecided
            pos, neg, ind = pos + (sign > 0), neg + (sign < 0), ind + (sign == 0)
        assert (stats.positive, stats.negative, stats.indeterminate) == (pos, neg, ind)
        assert Fraction(stats.min_abs_det) * Fraction(2) ** stats.min_abs_det_exp2 == min(bounds)
        assert stats.min_abs_det == 0.0 or 0.5 <= stats.min_abs_det < 1.0


def _draws(spec, m, trials, seed):
    """The x- and y-tuples a scan draws for order m."""
    rng = np.random.default_rng((seed, m))
    return (draw_separated(rng, *spec.domain.x, m, trials),
            draw_separated(rng, *spec.domain.y, m, trials))


# One entry at a time, at the current mpmath precision: each kernel formula
# on two mpf scalars under a scalar namespace, and the wrapping factors in
# double with their values lifted. This is independent of the broadcast
# object-array evaluation that builds a scan's entries.
_SCALAR = SimpleNamespace(num=mpmath.mpf, exp=mpmath.exp, sqrt=mpmath.sqrt, pow=mpmath.power)


def _entry_by_entry(spec, x, y):
    if isinstance(spec, FactorWrappedKernel):
        return (mpmath.mpf(spec.phi(x)) * mpmath.mpf(spec.psi(y))
                * _entry_by_entry(spec.base, x, y))
    return spec.formula(mpmath.mpf(x), mpmath.mpf(y), _SCALAR)


# integer, half-integer and generic exponents for every kernel type
ENTRY_KERNELS = {
    "ExpKernel": lambda e: ExpKernel(),
    "PowerSumKernel": lambda e: PowerSumKernel(e),
    "UltraGenKernel": lambda e: UltraGenKernel(e),
    "UltraDerivedKernel": lambda e: UltraDerivedKernel(e),
    "JacobiGenKernel": lambda e: JacobiGenKernel(2.2 - e, e),
    "FactorWrappedKernel": lambda e: FactorWrappedKernel(
        JacobiGenKernel(e, 0.7), lambda x: 2.0 - x, lambda t: 1.0 - t * t),
    "composition_kernel": lambda e: composition_kernel(
        ExpKernel(_POSITIVE), PowerSumKernel(e, _POSITIVE), np.linspace(0.3, 2.9, 6)),
}


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("name", list(ENTRY_KERNELS))
def test_broadcast_entries_equal_entry_by_entry_evaluation(name, bits):
    rng = np.random.default_rng(bits)
    for exponent in (1.0, 1.5, 0.3):
        spec = ENTRY_KERNELS[name](exponent)
        (xlo, xhi), (ylo, yhi) = spec.domain.x, spec.domain.y
        xs = rng.uniform(xlo + 0.01 * (xhi - xlo), xhi - 0.01 * (xhi - xlo), (5, 4))
        ys = rng.uniform(ylo + 0.01 * (yhi - ylo), yhi - 0.01 * (yhi - ylo), (5, 4))
        stack = _minor_matrices(spec, xs, ys, extended(bits))
        assert stack.shape == (5, 4, 4)
        # a custom callable runs in double on the whole stack, as in the
        # double route (numpy's array loops may differ from scalar calls in
        # the last bit), and only its values are lifted
        doubles = spec.evaluate(xs[:, :, None], ys[:, None, :])
        with mpmath.workprec(bits):
            for (t, i, j), entry in np.ndenumerate(stack):
                if isinstance(spec, CustomKernel):
                    reference = mpmath.mpf(float(doubles[t, i, j]))
                else:
                    reference = _entry_by_entry(spec, float(xs[t, i]), float(ys[t, j]))
                assert entry._mpf_ == reference._mpf_, (exponent, t, i, j)
            # the scalar contract: two floats give one mpf
            single = spec.evaluate_exact(float(xs[0, 0]), float(ys[0, 0]))
            assert isinstance(single, mpmath.mpf)
            if not isinstance(spec, CustomKernel):
                assert single._mpf_ == stack[0, 0, 0]._mpf_


def _reference_det(spec, xs, ys, bits=128, ref_bits=1500):
    """mpmath.det at ref_bits of the entries rebuilt at bits."""
    with mpmath.workprec(bits):
        entries = mpmath.matrix([[spec.evaluate_exact(x, y) for y in ys] for x in xs])
    with mpmath.workprec(ref_bits):
        return float(mpmath.det(entries))


def test_extended_minors_have_no_singularity_cutoff():
    # ultra_gen(150) at seed 1: the row scales of a minor differ by up to
    # 1e200, and an LU with a pivot cutoff relative to the matrix norm read
    # 57 of these 100 determinants as 0 (trial 2 of order 2 among them); the
    # exact determinant of the 128-bit entries equals a 1500-bit elimination
    spec = UltraGenKernel(150.0)
    for m in (2, 3):
        for trial in range(50):
            rng = np.random.default_rng((1, m, trial))
            xs = draw_separated(rng, -1.0, 1.0, m)[0]
            ys = draw_separated(rng, -1.0, 1.0, m)[0]
            got = ssr_minor(spec, xs, ys, extended(128))
            assert got == _reference_det(spec, xs, ys) and got != 0.0
    rng = np.random.default_rng((1, 2, 2))
    xs = draw_separated(rng, -1.0, 1.0, 2)[0]
    ys = draw_separated(rng, -1.0, 1.0, 2)[0]
    assert ssr_minor(spec, xs, ys, extended(128)) == pytest.approx(3.631653787856355e18, rel=1e-15)


def test_exact_minors_cut_the_false_indeterminates():
    config = CampaignConfig("ssr", alpha_grid=(0.0,), beta_grid=(150.0,), m_max=3, trials=50,
                            seed=1, precision="extended:128")
    cases = run_campaign(config).to_dict()["cases"]
    counts = [[(s["indeterminate"], s["min_abs_det"] > 0) for s in case["per_m"][1:]]
              for case in cases]
    # orders 2 and 3: mpmath.det of the same 128-bit entries reads 31, 44
    # and 29, 36 indeterminate, and the threshold on exact determinants
    # 19, 30 and 25, 36; the certified enclosures leave 10, 14 and 7, 13,
    # and an order with an indeterminate minor reports min_abs_det 0
    assert counts == [[(10, False), (14, False)], [(7, False), (13, False)]]


def test_extended_overflow_reads_infinite(capsys):
    assert ssr_minor(UltraGenKernel(150.0), (0.999,), (0.998,), extended(128)) == math.inf
    # under the extended policy the only double matrices are the interval
    # filter's, whose overflows read as unbounded entries, never as errors
    with np.errstate(all="raise"):
        code = cli_main(["ssr", "--precision", "extended:128", "--alpha", "0", "--beta", "300",
                         "--m-max", "2", "--trials", "200"])
    assert code == 0
    assert "ssr: 2 cases, 2 passes" in capsys.readouterr().err


def test_extended_scan_needs_no_double_kernel(capsys):
    # the kernel's values at alpha = 1100 fit a double (2.05e50 at (0.1,
    # 0.2)); the extended scan once built the double matrices for its
    # threshold anyway and exited 1. Four of its five order-2 minors are at
    # most 3.2e-47 of their row-norm products, below what 128-bit entries
    # can certify, so they are indeterminate; the fifth is certified
    # positive, so that kernel reads consistent_stp
    with np.errstate(all="raise"):
        code = cli_main(["ssr", "--precision", "extended:128", "--alpha", "1100",
                         "--beta", "0.5", "--m-max", "2", "--trials", "5"])
    assert code == 0
    assert "ssr: 2 cases, 2 passes, 0 violations, 0 indeterminate" in capsys.readouterr().err


def test_two_parameter_kernel_keeps_its_scale_inside_the_powers(capsys):
    # the formula once computed the constant 2^(alpha+beta) before dividing,
    # which overflows a double at alpha = 1100 and made the double scan exit
    # 1, although the kernel's values fit a double
    spec = JacobiGenKernel(1100.0, 0.5)
    with mpmath.workprec(128):
        assert math.isclose(float(spec.evaluate_exact(0.1, 0.2)), 2.05372965490396e50,
                            rel_tol=1e-12)
    assert math.isclose(float(spec.evaluate(0.1, 0.2)), 2.05372965490396e50, rel_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["ssr", "--alpha", "1100", "--beta", "0.5", "--m-max", "2",
                         "--trials", "5"])
    assert code == 0
    assert "ssr: 2 cases, 2 passes, 0 violations, 0 indeterminate" in capsys.readouterr().err


def test_extended_minor_of_equal_rows_is_exactly_zero():
    spec = CustomKernel(fn=lambda x, y: np.exp(y) + 0 * x, domain=Domain((-1, 1), (-1, 1)))
    for m in (2, 3, 5):
        nodes = np.linspace(-0.9, 0.9, m)
        assert ssr_minor(spec, nodes, nodes, extended(128)) == 0.0


@pytest.mark.parametrize("policy", [DOUBLE, extended(128)], ids=["double", "extended"])
def test_non_finite_entries_never_give_a_sign(policy):
    spec = CustomKernel(fn=lambda x, y: np.where(x > 0.5, np.inf, 1.0 + x * y),
                        domain=Domain((-1, 1), (-1, 1)))
    with np.errstate(invalid="ignore"):
        rep = ssr_scan(spec, 3, 20, 1, policy)
    assert [(s.negative, s.violations) for s in rep.per_m] == [(0, 0)] * 3
    # orders 1 and 2: the tuples with a node above 0.5 (6 and 9 of 20);
    # order 3: every minor, since 1 + xy has rank 2
    assert [s.indeterminate for s in rep.per_m] == [6, 9, 20]


# ---------------------------------------------------------------------------
# certified extended signs: the interval stage, then working-precision entries
# ---------------------------------------------------------------------------

FILTER_KERNELS = {
    **SCAN_KERNELS,
    "ultra_gen-20": UltraGenKernel(20.0),
    "ultra_gen-40": UltraGenKernel(40.0),
    "jacobi_gen-1100": JacobiGenKernel(1100.0, 0.5),  # values up to about 1e300
    # entries near 1e-200, whose order-2 minors lie below the double range
    "exp-underflow": ExpKernel(Domain((-23.0, -22.0), (20.0, 21.0))),
    # nearly rank one: the signs of its order-5 midpoint determinants are
    # rounding noise, which only the bound keeps from being counted
    "exp-narrow": ExpKernel(Domain((0.0, 0.1), (0.0, 0.1))),
    # the benchmark's kernels, on the exact half-integer power route
    "jacobi_gen-1-1.5": JacobiGenKernel(1.0, 1.5),
    "ultra_gen-3": UltraGenKernel(3.0),
}


def _exact_dets(spec, xs, ys, bits):
    """Exact determinants of the kernel's entries built at `bits`, as
    Fractions; None for a minor with a non-finite entry."""
    dets = []
    for matrix in _minor_matrices(spec, xs, ys, extended(bits)):
        centre = _mpf_rows(matrix, [0] * len(matrix))
        dets.append(None if centre is None else Fraction(integer_det(centre[0])) * Fraction(2) ** centre[1])
    return dets


def _signs(dets):
    return np.array([0 if det is None else (det > 0) - (det < 0) for det in dets])


@pytest.mark.parametrize("bits", [pytest.param(None, id="double"), 64, 128, 256])
@pytest.mark.parametrize("name", list(FILTER_KERNELS))
def test_filtered_scan_equals_the_working_precision_route(name, bits):
    # every sign the scan counts is the sign of the kernel's 600-bit
    # determinant, the oracle for its exact determinant, and under the
    # extended policy of the exact determinant of the entries built at the
    # working precision; the double policy has no such entries
    spec, trials = FILTER_KERNELS[name], 25
    policy = DOUBLE if bits is None else extended(bits)
    for seed in (1, 2, 3):
        with np.errstate(all="raise"):
            rep = ssr_scan(spec, 5, trials, seed, policy)
        for s in rep.per_m:
            xs, ys = _draws(spec, s.m, trials, seed)
            signs, _, _ = _settle(spec, xs, ys, policy)
            assert (s.positive, s.negative) == (np.sum(signs > 0), np.sum(signs < 0))
            counted = signs != 0
            for reference_bits in (600,) if bits is None else (600, bits):
                reference = _signs(_exact_dets(spec, xs[counted], ys[counted], reference_bits))
                assert np.array_equal(signs[counted], reference), (seed, s.m, reference_bits)


def test_large_beta_scans_read_no_false_violation(capsys):
    # ultra_gen(20) and ultra_gen(40) are totally positive; with double
    # determinants against a threshold their ill-conditioned minors read
    # negative and the campaign exited 2
    for precision in ("double", "extended:128"):
        code = cli_main(["ssr", "--precision", precision, "--beta", "20", "40"])
        assert code == 0, precision
        assert "ssr: 6 cases, 6 passes, 0 violations" in capsys.readouterr().err


def test_minors_below_the_double_range_keep_their_sign():
    # a totally positive kernel whose order-2 minors round to +0.0: their
    # signs once read negative from the rounded double. Their lower bounds
    # of |det|, near 2^-1380, once read 0.0 as min_abs_det; its mantissa
    # and power of two keep them
    spec = FILTER_KERNELS["exp-underflow"]
    for policy in (DOUBLE, extended(128)):
        rep = ssr_scan(spec, 3, 25, 1, policy)
        order_2 = rep.per_m[1]
        assert (order_2.positive, order_2.negative) == (25, 0)
        assert 0.5 <= order_2.min_abs_det < 1.0 and order_2.min_abs_det_exp2 < -1075
        xs, ys = _draws(spec, 2, 25, 1)
        smallest = min(abs(det) for det in _exact_dets(spec, xs, ys, 600))
        assert Fraction(order_2.min_abs_det) * Fraction(2) ** order_2.min_abs_det_exp2 <= smallest
        assert rep.verdict is Verdict.CONSISTENT_STP
    # at 128 bits stage 2 signs every order-3 minor as well
    assert rep.per_m[2].positive == 25 and rep.per_m[2].min_abs_det_exp2 < -1075


def test_row_norm_bounds_keep_their_accuracy_at_every_scale():
    # upper bounds of the exact row norms, within a few ulps of them
    # wherever a row's largest entry is normal; every square of a row below
    # 2^-537 once underflowed, which floored its bound at about 2^-537
    rng = np.random.default_rng(5)
    for shift in (-1074, -1060, -1022, -800, -537, 0, 500, 1000):
        mags = np.ldexp(rng.random((10, 4, 4)), shift)
        mags[:, 0, 1:] = 0.0
        bounds = _row_norm_bounds(mags)
        for row, bound in zip(mags.reshape(-1, 4).tolist(), bounds.ravel().tolist()):
            square = sum(Fraction(v) ** 2 for v in row)
            assert Fraction(bound) ** 2 >= square, (shift, row)
            if max(row) >= np.finfo(float).tiny:
                assert Fraction(bound) ** 2 <= square * (1 + Fraction(1, 2 ** 40)), (shift, row)


def test_minors_far_below_their_row_norms_are_decided():
    # ultra_gen(150)'s order-3 trial 43 has a determinant 3.4e-251 of its
    # row norms; with the norms floored at 2^-537 it stayed undecided at
    # 512 and 1024 bits
    rep = ssr_scan(UltraGenKernel(150.0), 3, 50, 1, extended(1024))
    stats = rep.per_m[2]
    assert (stats.positive, stats.negative, stats.indeterminate) == (50, 0, 0)


def test_extended_min_abs_det_bounds_every_minor(tmp_path):
    # min_abs_det * 2^min_abs_det_exp2 is the smallest certified lower bound
    # of |det| over an order's minors, rounded down: positive when every
    # minor is signed, 0.0 when one is not (ultra_gen(300) and jacobi_gen(0, 300) have
    # overflowing entries), never inf, so the report always parses
    out = tmp_path / "ssr.json"
    code = cli_main(["ssr", "--precision", "extended:128", "--alpha", "0", "--beta", "1.5", "300",
                     "--m-max", "3", "--trials", "20", "--out", str(out)])
    assert code == 0
    cases = json.loads(out.read_text(encoding="utf-8"))["cases"]
    specs = [UltraGenKernel(1.5), UltraGenKernel(300.0), JacobiGenKernel(0.0, 1.5),
             JacobiGenKernel(0.0, 300.0)]
    indeterminate = []
    for case, spec in zip(cases, specs):
        assert case["input"] == spec.describe()
        for s in case["per_m"]:
            xs, ys = _draws(spec, s["m"], 20, 1 + case["case_index"])
            smallest = min(abs(det) for det in _exact_dets(spec, xs, ys, 600))
            indeterminate.append(s["indeterminate"])
            if s["indeterminate"]:
                assert (s["min_abs_det"], s["min_abs_det_exp2"]) == (0.0, 0)
            else:
                assert 0.5 <= s["min_abs_det"] < 1.0
                assert Fraction(s["min_abs_det"]) * Fraction(2) ** s["min_abs_det_exp2"] <= smallest
    assert 0 in indeterminate and max(indeterminate) > 0


def _record_working_precision_minors(monkeypatch):
    """The node arrays of each call that builds working-precision entries."""
    built = []

    def recording(spec, xs, ys, policy):
        built.append(xs)
        return _minor_matrices(spec, xs, ys, policy)

    monkeypatch.setattr(signreg, "_minor_matrices", recording)
    return built


def test_well_conditioned_scan_builds_few_working_precision_minors(monkeypatch):
    built = _record_working_precision_minors(monkeypatch)
    for seed in (1, 2, 3):
        built.clear()
        ssr_scan(JacobiGenKernel(1.0, 1.5), 5, 100, seed, extended(128))
        sizes = [len(xs) for xs in built]
        assert len(sizes) == 5 and sum(sizes) <= 50, (seed, sizes)


def test_benchmark_scan_builds_few_working_precision_minors(monkeypatch):
    # at the benchmark's extended ssr flags stage 1 decides all but a few of
    # the 6000 minors; with libm-widened powers and exact integer centres it
    # left 217 to be built at 128 bits
    built = _record_working_precision_minors(monkeypatch)
    config = CampaignConfig("ssr", alpha_grid=(0.0, 1.0), beta_grid=(-0.5, 0.5, 1.5, 3.0),
                            m_max=5, trials=100, seed=1, precision="extended:128")
    report = run_campaign(config)
    assert (report.summary["passes"], report.summary["violations"]) == (10, 2)
    assert sum(len(xs) for xs in built) <= 100


def test_unbounded_entries_are_indeterminate_and_not_rebuilt(monkeypatch):
    # ultra_gen(300) overflows a double where 1 - 2xy + y^2 < 0.094: a minor
    # with such an entry has no radius, so it is indeterminate, and it is not
    # built at the working precision
    spec, built = UltraGenKernel(300.0), _record_working_precision_minors(monkeypatch)
    with np.errstate(all="raise"):
        rep = ssr_scan(spec, 3, 20, 1, extended(128))
    assert [s.indeterminate for s in rep.per_m] == [0, 6, 9]
    assert [len(xs) for xs in built] == [0, 8, 12]
    unbounded = []
    for s, rebuilt in zip(rep.per_m, built):
        xs, ys = _draws(spec, s.m, 20, 1)
        entries = spec.evaluate_interval(xs[:, :, None], ys[:, None, :])
        overflowing = ~np.isfinite(entries.hi).all(axis=(1, 2))
        unbounded.append(int(overflowing.sum()))
        assert not any((rebuilt == x).all(axis=1).any() for x in xs[overflowing])
    assert unbounded == [0, 1, 1]


def _contains(interval, value):
    # both forms: the endpoints, and the midpoint and radius themselves,
    # where the radius is finite
    lo, hi = float(interval.lo), float(interval.hi)
    mid, rad = float(interval.mid), float(interval.rad)
    return (mpmath.mpf(lo) <= value <= mpmath.mpf(hi)
            and (not math.isfinite(rad) or abs(value - mpmath.mpf(mid)) <= mpmath.mpf(rad)))


def _unbounded(interval):
    return np.all(interval.lo == -np.inf) and np.all(interval.hi == np.inf)


DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
INTERVALS = st.tuples(DOUBLES, DOUBLES).map(sorted)
OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=300, deadline=None)
@given(a=INTERVALS, b=INTERVALS, op=st.sampled_from(list(OPERATIONS)),
       t=st.floats(0, 1), u=st.floats(0, 1))
@example(a=[1.0, 1.0], b=[3.0, 3.0], op="/", t=0.0, u=0.0)
@example(a=[-5e-324, 5e-324], b=[1e-300, 1e-300], op="*", t=0.5, u=0.5)
def test_interval_arithmetic_encloses_the_exact_result(a, b, op, t, u):
    with np.errstate(all="ignore"):
        result = OPERATIONS[op](_Interval(*np.array(a)), _Interval(*np.array(b)))
    for x in _points(a, t):
        for y in _points(b, u):
            if op == "/" and y == 0:
                continue
            with mpmath.workprec(256):
                assert _contains(result, OPERATIONS[op](mpmath.mpf(x), mpmath.mpf(y))), (x, y)


RADII = st.one_of(st.just(0.0), st.floats(0, 1e300))


@settings(max_examples=500, deadline=None)
@given(ma=st.floats(-1e300, 1e300), ra=RADII, mb=st.floats(-1e300, 1e300), rb=RADII,
       op=st.sampled_from(list(OPERATIONS)))
@example(ma=2.0 ** -1022, ra=0.0, mb=3.0, rb=0.0, op="/")  # an underflowing quotient
@example(ma=1.0, ra=10.0, mb=3.0, rb=1.0, op="/")  # radii far above the rounding
def test_interval_radius_covers_every_corner(ma, ra, mb, rb, op):
    # the midpoint-radius form itself, without the endpoints' outward
    # rounding: every corner's exact result lies within rad of mid, in exact
    # rational arithmetic, so a radius short by its last ulps is caught
    with np.errstate(all="ignore"):
        result = OPERATIONS[op](_Interval.centred(np.float64(ma), np.float64(ra)),
                                _Interval.centred(np.float64(mb), np.float64(rb)))
    mid, rad = float(result.mid), float(result.rad)
    if op == "/" and abs(Fraction(mb)) <= Fraction(rb):
        assert not math.isfinite(rad)
    if not math.isfinite(rad):
        return
    for a in (Fraction(ma) - Fraction(ra), Fraction(ma) + Fraction(ra)):
        for b in (Fraction(mb) - Fraction(rb), Fraction(mb) + Fraction(rb)):
            assert abs(OPERATIONS[op](a, b) - Fraction(mid)) <= Fraction(rad), (a, b)


def _points(pair, t):
    """Points of [lo, hi]: both ends, and one between unless it overflows."""
    lo, hi = pair
    inner = lo + t * (hi - lo)
    return {lo, hi, inner} if lo <= inner <= hi else {lo, hi}


POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(x=POSITIVE, c=st.floats(-400, 400), h=st.integers(-2048, 2048).map(lambda k: k / 2),
       e=st.floats(-800, 800), s=st.floats(0, 1e308))
@example(x=5e-324, c=0.5, h=-0.5, e=-745.5, s=5e-324)
@example(x=2.0, c=1100.5, h=1023.5, e=709.8, s=1e308)
@example(x=1e-300, c=0.5, h=7.5, e=0.0, s=0.0)  # an underflowing square
@example(x=0.7, c=0.5, h=0.0, e=0.0, s=0.0)
def test_interval_functions_enclose_the_exact_result(x, c, h, e, s):
    with np.errstate(all="ignore"):
        power = _Interval.lift(x) ** _Interval.lift(c)
        half_integer_power = _INTERVAL.pow(_Interval.lift(x), h)
        exp = _INTERVAL.exp(_Interval.lift(e))
        root = _INTERVAL.sqrt(_Interval.lift(s))
    with mpmath.workprec(256):
        assert _contains(power, mpmath.power(mpmath.mpf(x), mpmath.mpf(c)))
        exact = mpmath.power(mpmath.mpf(x), mpmath.mpf(h))
        assert _contains(half_integer_power, exact)
        assert _contains(exp, mpmath.exp(mpmath.mpf(e)))
        assert _contains(root, mpmath.sqrt(mpmath.mpf(s)))
        # tight where every intermediate power is normal: some |e| ulps, not
        # the 2^-40 of the libm route
        if abs(h) <= 8 and 2 ** -1000 < exact < 2 ** 1000:
            lo, hi = float(half_integer_power.lo), float(half_integer_power.hi)
            assert mpmath.mpf(hi) - mpmath.mpf(lo) < exact * 2 ** -45


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_mpmath_power_route_is_mpmath_power(bits):
    # the working-precision route raises each entry by mpmath's own power,
    # to within an ulp of the exact value for half-integer exponents up to 8
    rng = np.random.default_rng(bits)
    bases = rng.uniform(0.0, 4.0, 40) ** 3
    route = signreg._mpmath_route()
    with mpmath.workprec(bits):
        lifted = route.lift(bases)
        for e in [k / 2 for k in range(-16, 17)] + [0.3, -2.7]:
            powers = route.pow(lifted, e)
            for base, power in zip(bases.tolist(), powers):
                assert power._mpf_ == mpmath.power(base, e)._mpf_, (base, e)
                if float(2 * e).is_integer():
                    with mpmath.workprec(600):
                        exact = mpmath.power(mpmath.mpf(base), mpmath.mpf(e))
                    assert abs(power - exact) <= mpmath.ldexp(abs(power), 1 - bits), (base, e)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["exp", "power_sum", "ultra_gen", "ultra_derived", "jacobi_gen"]),
       p=st.floats(0.05, 60), q=st.floats(-0.95, 60), t=st.floats(0.001, 0.999),
       u=st.floats(0.001, 0.999))
def test_kernel_intervals_enclose_the_exact_value(name, p, q, t, u):
    spec = {"exp": lambda: ExpKernel(), "power_sum": lambda: PowerSumKernel(p),
            "ultra_gen": lambda: UltraGenKernel(q), "ultra_derived": lambda: UltraDerivedKernel(q),
            "jacobi_gen": lambda: JacobiGenKernel(q, p)}[name]()
    (xlo, xhi), (ylo, yhi) = spec.domain.x, spec.domain.y
    x, y = xlo + t * (xhi - xlo), ylo + u * (yhi - ylo)
    with np.errstate(all="raise"):
        interval = spec.evaluate_interval(x, y)
    with mpmath.workprec(256):
        assert _contains(interval, spec.evaluate_exact(x, y))


def _check_outward_rounding(v):
    # _down and _up move one or two doubles below and above v
    with np.errstate(all="ignore"):  # as in every caller: |v| phi underflows
        down, up = _down(v), _up(v)
        below, above = np.nextafter(v, -np.inf), np.nextafter(v, np.inf)
        two_below, two_above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
    assert np.all(down <= below) and np.all(up >= above)
    assert np.all(down >= two_below) and np.all(up <= two_above)


@settings(max_examples=500, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False))
@example(v=0.0)
@example(v=-5e-324)
@example(v=-1.7976931348623157e308)
def test_outward_rounding_moves_one_or_two_doubles(v):
    _check_outward_rounding(np.float64(v))


def test_outward_rounding_at_the_edges_of_the_range():
    tiny = np.finfo(float).tiny  # 2^-1022
    edges = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
        [0.0, 3 * 5e-324, np.nextafter(tiny, 0), np.nextafter(tiny, 1), np.finfo(float).max],
        np.nextafter(np.ldexp(1.0, np.arange(-1073, 1024)), 0),  # just below each
    ])
    _check_outward_rounding(np.concatenate([edges, -edges]))
    with np.errstate(all="ignore"):
        for v in (np.inf, -np.inf, np.nan):
            v = np.float64(v)
            assert _unbounded(_Interval(_down(v), _up(v))), v


def test_unbounded_intervals():
    with np.errstate(all="ignore"):  # as under evaluate_interval
        # a divisor that contains 0
        assert _unbounded(_Interval.lift(1.0) / _Interval(np.array(-1e-300), np.array(2.0)))
        assert _unbounded(_Interval.lift(1.0) / _Interval.lift(0.0))
        # a ** base that is not positive
        assert _unbounded(_Interval(np.array(0.0), np.array(2.0)) ** 1.5)
        assert _unbounded(_Interval.lift(-2.0) ** 2.0)
        # non-finite endpoints, given or reached
        assert _unbounded(_Interval.lift(np.inf) + 1.0)
        assert _unbounded(_Interval.lift(np.nan) * 2.0)
        assert _unbounded(_Interval.lift(1e308) * 10.0)
        assert _unbounded(_INTERVAL.exp(_Interval.lift(710.0)))
        assert _unbounded(_INTERVAL.num(2.0) ** 1100.5)
        assert _unbounded(_INTERVAL.pow(_INTERVAL.num(2.0), 1100.5))  # past the cap: libm
        assert _unbounded(_INTERVAL.pow(_INTERVAL.num(4.0), 512.0))  # binary powering
        for e in (1.5, 2.0, 0.0, -0.5):
            assert _unbounded(_INTERVAL.pow(_Interval(np.array(0.0), np.array(2.0)), e))
            assert _unbounded(_INTERVAL.pow(_Interval.lift(-2.0), e))
        # a negative sqrt argument
        assert _unbounded(_INTERVAL.sqrt(_Interval(np.array(-1e-300), np.array(1.0))))


def _fraction_det(rows) -> Fraction:
    """Exact determinant of a matrix of dyadic rationals: each row scaled to
    integers by its largest denominator, a power of two."""
    rows = [[Fraction(v) for v in row] for row in rows]
    scales = [max(v.denominator for v in row) for row in rows]
    return Fraction(integer_det([[int(v * s) for v in row] for row, s in zip(rows, scales)]),
                    math.prod(scales))


def test_lu_filter_signs_no_singular_matrix():
    # one row is the sum of two others, exactly, in 21-bit dyadics, so every
    # determinant is 0; the midpoint LU's is rounding noise that only the
    # backward-error term gamma_m |L||U| keeps from being counted
    rng = np.random.default_rng(16)
    for m in range(3, 9):
        mid = rng.integers(-2 ** 20, 2 ** 20, (350, m, m)) / 2.0 ** 20
        mid[:, -1] = mid[:, 0] + mid[:, 1]
        order = rng.permuted(np.tile(np.arange(m), (350, 1)), axis=1)
        mid = np.take_along_axis(mid, order[:, :, None], axis=1)
        signs, lower = _lu_enclose(mid, np.zeros_like(mid))
        assert not signs.any() and not lower.any(), m


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), dependent=st.booleans(),
       tiny=st.sampled_from([0, -1000, -1040, -1070]),
       radius=st.sampled_from([0.0, 2.0 ** -60, 2.0 ** -30]))
def test_lu_filter_signs_agree_with_the_exact_determinant(m, seed, dependent, tiny, radius):
    # rows of varying scale with small integer or uniform entries, about a
    # third of the entries scaled by 2^tiny, to or below the bottom of the
    # normal range, where the elimination's products underflow; sometimes
    # one row is the rounded sum of two others. The sign and the lower
    # bound hold for the midpoints and for one corner of the radius box, in
    # exact rational arithmetic
    rng = np.random.default_rng(seed)
    entries = np.where(rng.random((m, m)) < 0.5, rng.integers(-3, 4, (m, m)),
                       rng.uniform(-1.0, 1.0, (m, m)))
    scales = rng.integers(-60, 61, (m, 1)) + np.where(rng.random((m, m)) < 0.3, tiny, 0)
    mid = np.ldexp(entries, scales)
    if dependent and m >= 3:
        mid[-1] = mid[0] + mid[1]
    rad = radius * np.abs(mid)
    (sign,), (lower,) = _lu_enclose(mid[None], rad[None])
    flips = rng.choice([-1, 1], (m, m))
    for matrix in (mid.tolist(), [[Fraction(c) + f * Fraction(r) for c, f, r in zip(*row)]
                                  for row in zip(mid.tolist(), flips.tolist(), rad.tolist())]):
        det = _fraction_det(matrix)
        assert sign in (0, (det > 0) - (det < 0))
        assert Fraction(lower) <= abs(det)


class _Loose:
    """A kernel whose working-precision entries are its double values, and
    whose intervals are rel wide relative to them and off-centre by a
    fraction that varies from entry to entry, so that the filter's
    decisions rest on its bounds alone."""

    refines = True

    def __init__(self, base, rel=1e-3):
        self.base, self.domain, self.rel = base, base.domain, rel

    def describe(self):
        return f"loose[{self.base.describe()}]"

    def evaluate(self, x, y):
        return self.base.evaluate(x, y)

    def evaluate_exact(self, x, y):
        return signreg._mpmath_route().lift(self.evaluate(x, y))

    def evaluate_interval(self, x, y):
        values = self.evaluate(x, y)
        width, below = self.rel * np.abs(values), (1e4 * values) % 1.0
        return _Interval(values - below * width, values + (1.0 - below) * width)


@pytest.mark.parametrize("rel", [1e-11, 1e-5, 0.3, 0.7])
@pytest.mark.parametrize("base", [ExpKernel(), UltraGenKernel(-0.5)], ids=["exp", "ultra_gen"])
def test_filter_decides_only_what_its_bounds_clear(base, rel):
    # from tight enclosures to ones as wide as the entries, the extended scan
    # is reproducible, and every sign it counts is the sign of the exact
    # determinant of _Loose's double values, which are its exact values
    spec, trials = _Loose(base, rel), 60
    for seed in (1, 2):
        rep = ssr_scan(spec, 4, trials, seed, extended(128))
        assert rep == ssr_scan(spec, 4, trials, seed, extended(128))
        for s in rep.per_m:
            xs, ys = _draws(spec, s.m, trials, seed)
            signs, lower, shift = _settle(spec, xs, ys, extended(128))
            dets = _exact_dets(spec, xs, ys, 128)
            assert (s.positive, s.negative) == (np.sum(signs > 0), np.sum(signs < 0))
            for sign, low, k, det in zip(signs, lower, shift.tolist(), dets):
                assert sign in (0, (det > 0) - (det < 0))
                assert Fraction(low) * Fraction(2) ** k <= abs(det)
