"""Acceptance suite: every criterion at its stated size and tolerance,
one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from orthozero import (
    ExpKernel,
    GenFunFamily,
    GenFunSpec,
    Poly,
    PowerSumKernel,
    RootLocation,
    UltraDerivedKernel,
    UltraGenKernel,
    Verdict,
    biorthogonal_poly,
    extended,
    genfun_taylor,
    jacobi_poly,
    legendre_transform,
    ortho_constant,
    pochhammer,
    poly_eval,
    quad_inner_product,
    resolve_diag_constant,
    resolve_ultra_derived_factor,
    ssr_minor,
    ssr_scan,
    transform_equivalence_check,
    ultra_transform,
    zeros_in_interval_check,
)
from orthozero.harness import (
    CampaignConfig,
    expected_case_count,
    report_to_json,
    run_campaign,
)
from orthozero.polycore import integer_poly, locate


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_proven_transform_sweep():
    config = CampaignConfig(
        "theorem12",
        alpha_grid=(-0.5, 0.0, 0.5, 1.0, 2.5),
        deg_cap=12,
        trials=1000,
        seed=1,
        tol=1e-8,
    )
    t0 = time.monotonic()
    report = run_campaign(config)
    elapsed = time.monotonic() - t0
    ok = (
        report.summary["cases"] == expected_case_count(config) == 5000
        and report.summary["passes"] == 5000
        and elapsed < 120.0
    )
    _line("criterion 1", ok,
          f"{report.summary['passes']}/5000 strictly inside at tol 1e-8 "
          f"in {elapsed:.1f}s")
    assert ok


def test_criterion_2_legendre_specialization():
    rng = np.random.default_rng(2)
    mismatches = 0
    worst_coeff_dev = 0.0
    for _ in range(1000):
        deg = int(rng.integers(1, 13))
        f = Poly(tuple(np.poly(rng.uniform(-0.99, 0.99, deg))[::-1]), tau_trim=0.0)
        out = legendre_transform(f)
        ref = ultra_transform(f, 0.0)
        scale = max(1.0, float(np.max(np.abs(ref.array))))
        worst_coeff_dev = max(worst_coeff_dev,
                              float(np.max(np.abs(out.array - ref.array))) / scale)
        # exact Sturm counts on the double image, taken as the binary
        # rationals its coefficients are
        if locate(integer_poly(out), (-1.0, 1.0), 1e-8) is not RootLocation.ALL_STRICTLY_INSIDE:
            mismatches += 1
    ok = mismatches == 0 and worst_coeff_dev <= 1e-14
    _line("criterion 2", ok,
          f"1000/1000 inside, max coefficient deviation {worst_coeff_dev:.2e}")
    assert ok


def test_criterion_3_conjectured_two_parameter_sweep():
    config = CampaignConfig(
        "conj32",
        alpha_grid=(0.0, 1.0, 2.0, 3.0, 4.0),
        beta_grid=(0.0, 1.0, 2.0, 3.0, 4.0),
        deg_cap=14,
        trials=200,
        seed=3,
        tol=1e-7,
    )
    t0 = time.monotonic()
    report = run_campaign(config)
    elapsed = time.monotonic() - t0
    boundary = [c for c in report.cases if c["family"] == "boundary"]
    random_cases = [c for c in report.cases if c["family"] == "random"]
    ok = (
        report.summary["cases"] == expected_case_count(config)
        and len(boundary) == 25 * 119
        and all(c["in_closed_interval"] for c in boundary)
        and len(random_cases) == 25 * 200
        and all(c["classification"] == "all_strictly_inside" for c in random_cases)
        and elapsed < 600.0
    )
    _line("criterion 3", ok,
          f"{len(boundary)} boundary-family cases in [-1,1] (tol 1e-7), "
          f"{len(random_cases)} random cases strictly inside, {elapsed:.1f}s")
    assert ok


def test_criterion_4_generating_function_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for alpha, beta in [(0.0, 0.0), (0.5, 0.5), (1.0, 2.0), (2.0, 0.5)]:
        spec = GenFunSpec(GenFunFamily.JACOBI_F, alpha, beta)
        for x in rng.uniform(-0.99, 0.99, 20):
            coeffs = genfun_taylor(spec, x, 12)
            for n in range(13):
                val = poly_eval(jacobi_poly(n, alpha, beta), x)
                worst = max(worst, abs(coeffs[n] - val) / (1.0 + abs(val)))
    for alpha in (0.0, 0.5, 1.0, 2.5):
        spec = GenFunSpec(GenFunFamily.ULTRA_G, alpha)
        for x in rng.uniform(-0.99, 0.99, 20):
            coeffs = genfun_taylor(spec, x, 12)
            for n in range(13):
                pref = pochhammer(1 + 2 * alpha, n) / pochhammer(1 + alpha, n)
                val = pref * poly_eval(jacobi_poly(n, alpha, alpha), x)
                worst = max(worst, abs(coeffs[n] - val) / (1.0 + abs(val)))
    resolutions = [resolve_ultra_derived_factor(a) for a in (0.5, 1.0, 2.5)]
    resolved_ok = all(r["resolved"] == "2k+2a+1" and r["dev_2k_2a_1"] < 1e-9
                      for r in resolutions)
    ok = worst <= 1e-9 and resolved_ok
    _line("criterion 4", ok,
          f"recurrence vs series max relative deviation {worst:.2e}; "
          f"derived-kernel factor resolved to 2k+2a+1")
    assert ok


def test_criterion_5_orthogonality_constants():
    worst_diag = 0.0
    worst_off = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        hs = [ortho_constant(n, alpha, alpha).h for n in range(11)]
        for n in range(11):
            for m in range(n, 11):
                val = quad_inner_product(n, m, alpha, alpha)
                if n == m:
                    worst_diag = max(worst_diag, abs(val - hs[n]) / hs[n])
                else:
                    worst_off = max(worst_off, abs(val) / min(hs[n], hs[m]))
    resolutions = [resolve_diag_constant(3, a) for a in (0.5, 1.0, 2.0)]
    resolved_ok = all(r["resolved"] == "2^(1+2a)" and r["dev_2pow_1_2a"] < 1e-8
                      for r in resolutions)
    ok = worst_diag <= 1e-8 and worst_off <= 1e-8 and resolved_ok
    _line("criterion 5", ok,
          f"diagonal dev {worst_diag:.2e}, off-diagonal dev {worst_off:.2e} "
          f"(relative to h); constant resolved to 2^(1+2a)")
    assert ok


def test_criterion_6_sign_regularity_suites():
    kernels = [
        ExpKernel(),
        PowerSumKernel(0.5), PowerSumKernel(1.0), PowerSumKernel(2.0),
        UltraGenKernel(0.5), UltraGenKernel(1.5), UltraGenKernel(3.0),
    ]
    clean = True
    for spec in kernels:
        for seed in (1, 2, 3):
            rep = ssr_scan(spec, m_max=5, trials_per_m=500, seed=seed)
            clean = clean and rep.verdict is Verdict.CONSISTENT_STP
            clean = clean and all(s.violations == 0 and s.negative == 0
                                  for s in rep.per_m)

    def cauchy_det(xs, ys):
        num = 1.0
        for i in range(len(xs)):
            for j in range(i):
                num *= (xs[i] - xs[j]) * (ys[i] - ys[j])
        return num / np.prod([(x + y) for x in xs for y in ys])

    rng = np.random.default_rng(6)
    spec = PowerSumKernel(1.0)
    policy = extended(256)
    worst_cauchy = 0.0
    for m in range(1, 6):
        for _ in range(20):
            xs = np.sort(rng.uniform(0.2, 9.0, m))
            ys = np.sort(rng.uniform(0.2, 9.0, m))
            if m > 1 and (np.min(np.diff(xs)) < 1e-2 or np.min(np.diff(ys)) < 1e-2):
                continue
            want = cauchy_det(xs, ys)
            got = ssr_minor(spec, xs, ys, policy)
            worst_cauchy = max(worst_cauchy, abs(got - want) / abs(want))
    ok = clean and worst_cauchy <= 1e-8
    _line("criterion 6", ok,
          f"21 scans consistent-STP with zero determinate violations; "
          f"Cauchy closed-form deviation {worst_cauchy:.2e}")
    assert ok


def test_criterion_7_biorthogonal_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    for alpha in (0.0, 1.0):
        done = 0
        while done < 100:
            n = int(rng.integers(1, 7))
            roots = np.sort(rng.uniform(-0.95, 0.95, n))
            if n > 1 and np.min(np.diff(roots)) < 0.05:
                continue
            worst = max(worst, transform_equivalence_check(roots, alpha))
            done += 1
            count += 1

    kernel = UltraDerivedKernel(0.0)
    zero_ok = True
    built = 0
    while built < 100:
        m = int(rng.integers(1, 6))
        nodes = np.sort(rng.uniform(-0.99, 0.99, m))
        if m > 1 and np.min(np.diff(nodes)) < 0.02:
            continue
        system = biorthogonal_poly(kernel, nodes, (-1, 1))
        report = zeros_in_interval_check(system)
        reals = sorted(r.real for r in report.roots)
        zero_ok = zero_ok and report.classification is RootLocation.ALL_STRICTLY_INSIDE
        zero_ok = zero_ok and len(report.roots) == m  # m simple roots
        zero_ok = zero_ok and all(b - a > 1e-9 for a, b in zip(reals, reals[1:]))
        built += 1
    ok = worst <= 1e-6 and count == 200 and zero_ok
    _line("criterion 7", ok,
          f"max equivalence deviation {worst:.2e} over 200 inputs; "
          f"100 constructed polynomials all have distinct interior zeros")
    assert ok


def test_criterion_8_byte_identical_reports():
    configs = [
        CampaignConfig("theorem12", alpha_grid=(0.0, 1.0), deg_cap=8,
                       trials=25, seed=8),
        CampaignConfig("conj32", alpha_grid=(0.0,), beta_grid=(2.0,),
                       deg_cap=6, trials=10, seed=8),
        CampaignConfig("ssr", alpha_grid=(0.5,), beta_grid=(1.5, -0.5),
                       m_max=3, trials=120, seed=8),
        CampaignConfig("biortho-equiv", alpha_grid=(0.0,), deg_cap=4,
                       trials=6, seed=8),
    ]
    ok = True
    for config in configs:
        first = report_to_json(run_campaign(config).to_dict())
        second = report_to_json(run_campaign(config).to_dict())
        ok = ok and first == second
    _line("criterion 8", ok, "repeated runs byte-identical for all campaigns")
    assert ok
