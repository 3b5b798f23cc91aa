"""Sign-regularity machinery: minors against closed forms, randomized scans
of the kernels with known positivity status, factor and composition rules."""

import math

import numpy as np
import pytest

from orthozero import (
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
from orthozero.errors import BadParameterError, BadTupleError, OutOfDomainError


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


def test_scan_m_cap_by_policy():
    with pytest.raises(BadParameterError):
        ssr_scan(ExpKernel(), m_max=7, trials_per_m=10, seed=1)
    rep = ssr_scan(ExpKernel(), m_max=7, trials_per_m=10, seed=1, policy=extended(128))
    assert rep.m_max == 7


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
    # inferred there and the scan must say so rather than guess
    spec = CustomKernel(fn=lambda x, y: (1.0 + 0 * x) * (1.0 + 0 * y),
                        domain=Domain((-1, 1), (-1, 1)))
    rep = ssr_scan(spec, m_max=3, trials_per_m=100, seed=13)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.signs() == [1, None, None]
    assert all(s.violations == 0 for s in rep.per_m)
