"""Campaign runner contracts: determinism, workload accounting, report
schemas, serialization round-trips, and the CLI surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthozero.errors import BadParameterError
from orthozero.harness import (
    CampaignConfig,
    boundary_family_roots,
    boundary_pairs,
    emit_report,
    expected_case_count,
    format_number,
    has_proven_violation,
    report_to_csv,
    report_to_json,
    run_campaign,
    run_selftest,
)
from orthozero.polycore import (
    Poly,
    RootLocation,
    all_roots_real,
    classify_roots,
    comrade_roots,
    count_roots,
    integer_poly,
    jacobi_coefficient_rows,
    jacobi_rows_int,
    locate,
    min_boundary_distance,
    monic_from_roots,
    poly_roots,
    primitive_part,
    sturm_sequence,
    sturm_verdict,
    verdicts,
)
from orthozero.transforms import (
    exact_image,
    factorial_row_scale,
    ultra_row_scale,
    unit_row_scale,
)
from orthozero import cli, harness, polycore, signreg, transforms

SMALL = dict(deg_cap=6, trials=10, seed=21)


# ---------------------------------------------------------------------------
# campaign mechanics
# ---------------------------------------------------------------------------

def test_boundary_pairs_count():
    cap = 14
    pairs = boundary_pairs(cap)
    assert len(pairs) == cap * (cap + 3) // 2
    assert all(1 <= n + m <= cap for n, m in pairs)
    assert len(set(pairs)) == len(pairs)


def test_expected_case_counts_match():
    configs = [
        CampaignConfig("theorem12", alpha_grid=(0.0, 1.0), **SMALL),
        CampaignConfig("conj32", alpha_grid=(0.0,), beta_grid=(0.0, 1.0), **SMALL),
        CampaignConfig("q31", alpha_grid=(0.0,), beta_grid=(2.0,), **SMALL),
        CampaignConfig("ssr", alpha_grid=(0.0,), beta_grid=(1.5,), m_max=2,
                       deg_cap=6, trials=100, seed=21),
        CampaignConfig("biortho-equiv", alpha_grid=(0.0,), deg_cap=4, trials=5, seed=21),
    ]
    for config in configs:
        report = run_campaign(config)
        assert report.summary["cases"] == expected_case_count(config)
        s = report.summary
        assert s["passes"] + s["violations"] + s["indeterminates"] == s["cases"]


def test_config_validation():
    with pytest.raises(BadParameterError):
        CampaignConfig("nope", alpha_grid=(0.0,))
    with pytest.raises(BadParameterError):
        CampaignConfig("theorem12", alpha_grid=(0.0,), deg_cap=31)
    with pytest.raises(BadParameterError):
        CampaignConfig("theorem12", alpha_grid=(), trials=5)
    with pytest.raises(BadParameterError):
        CampaignConfig("theorem12", alpha_grid=(0.0,), trials=0)
    with pytest.raises(BadParameterError, match="precision 'bogus'"):
        CampaignConfig("theorem12", alpha_grid=(0.0,), precision="bogus")


def test_theorem_sweep_all_pass():
    config = CampaignConfig("theorem12", alpha_grid=(-0.5, 1.0), deg_cap=10,
                            trials=40, seed=5)
    report = run_campaign(config)
    assert report.summary["violations"] == 0
    assert report.summary["passes"] == report.summary["cases"]
    assert not has_proven_violation(report)


@pytest.mark.parametrize("deg_cap", [25, 30])
def test_theorem12_has_no_false_proven_violations(tmp_path, capsys, deg_cap):
    # a double-rounded image once put roots outside (-1, 1) in 3 (deg_cap 25)
    # and 23 (deg_cap 30) of these cases, and the CLI exited 2; the exact
    # image puts every root inside
    out = tmp_path / "t12.json"
    code = cli.main(["theorem12", "--alpha", "-0.5", "0", "1", "2.5", "--trials", "250",
                     "--seed", "1", "--deg-cap", str(deg_cap), "--out", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert code == 0
    assert report["summary"]["violations"] == 0 and report["summary"]["passes"] == 1000
    if deg_cap == 30:
        # max |Re| of their roots: 0.99988 (alpha = 1), 0.99986 and 0.99997 (alpha = -1/2)
        for index in (650, 132, 166):
            assert report["cases"][index]["classification"] == "all_strictly_inside"
            assert 0 < report["cases"][index]["min_boundary_distance"] < 3e-4


def test_theorem12_on_boundary_is_indeterminate(tmp_path, capsys):
    # at tol 0.5 the band [1 - tol, 1 + tol] straddles 1, so a root in it may
    # lie inside (-1, 1), as these do (distances 0.04 to 0.36): each case
    # once read as a proven violation, and the CLI exited 2
    out = tmp_path / "t12.json"
    code = cli.main(["theorem12", "--deg-cap", "2", "--trials", "2", "--tol", "0.5",
                     "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert code == 0
    assert report["summary"] == {"cases": 10, "passes": 1, "violations": 0, "indeterminates": 9}
    on_boundary = [c for c in report["cases"] if c["classification"] == "some_on_boundary"]
    assert len(on_boundary) == 9
    assert all(c["outcome"] == "indeterminate" and c["min_boundary_distance"] > 0.04
               for c in on_boundary)


def test_theorem12_precision_changes_only_the_echo():
    # the verdicts come from exact signs, whatever the policy
    runs = [run_campaign(CampaignConfig("theorem12", alpha_grid=(-0.5, 0.3, 2.5), deg_cap=20,
                                        trials=15, seed=4, precision=precision)).to_dict()
            for precision in ("double", "extended:128")]
    assert runs[0]["cases"] == runs[1]["cases"]
    assert runs[0]["summary"] == runs[1]["summary"]
    assert {k for k in runs[0]["config"] if runs[0]["config"][k] != runs[1]["config"][k]} == {
        "precision"}


def test_certified_interior_verdict_falls_back_to_exact_counts():
    # the exact counts must find each violation and classify it, on (-1, 1)
    # and on any interval with double ends; verdicts agrees, whether its
    # certificate decides or fails
    tol = 1e-8
    tiny = Fraction(1, 2 ** 80)
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0)):
        a, b = Fraction(lo), Fraction(hi)
        mid, width = (a + b) / 2, b - a
        inside = [mid + width / 4, mid - width / 6]
        # the band ends are the doubles classify_roots compares against
        hi_out, lo_out = Fraction(hi + tol), Fraction(lo - tol)
        hi_in, lo_in = Fraction(hi - tol), Fraction(lo + tol)
        cases = [
            (primitive_part([mid ** 2 + Fraction(1, 4), -2 * mid, 1]),
             RootLocation.SOME_NON_REAL),
            # mid +- i tol/2: |Im r| <= tol, yet not real
            (primitive_part([mid ** 2 + (Fraction(tol) / 2) ** 2, -2 * mid, 1]),
             RootLocation.SOME_NON_REAL),
            (primitive_part(monic_from_roots([*inside, b + width / 4])),
             RootLocation.SOME_OUTSIDE),
            (primitive_part(monic_from_roots([*inside, hi_out + tiny])), RootLocation.SOME_OUTSIDE),
            (primitive_part(monic_from_roots([*inside, lo_out - tiny])), RootLocation.SOME_OUTSIDE),
            # a root at a band end is counted on its closed side
            (primitive_part(monic_from_roots([*inside, hi_out])), RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, lo_out])), RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, hi_in])), RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, lo_in])), RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, hi_in - tiny])),
             RootLocation.ALL_STRICTLY_INSIDE),
            (primitive_part(monic_from_roots([*inside, lo_in + tiny])),
             RootLocation.ALL_STRICTLY_INSIDE),
            # inside a tol-band
            (primitive_part(monic_from_roots([*inside, b - Fraction(tol) / 2])),
             RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, a + Fraction(tol) / 4])),
             RootLocation.SOME_ON_BOUNDARY),
            (primitive_part(monic_from_roots([*inside, b + Fraction(tol) / 2])),
             RootLocation.SOME_ON_BOUNDARY),
        ]
        for image, expected in cases:
            assert locate(image, (lo, hi), tol) is expected, (lo, hi, image, expected)
            approx = np.roots(np.array(image[::-1], dtype=float))
            (classification, roots), = verdicts([image], tol, [approx], interval=(lo, hi))
            assert classification is expected, (lo, hi, image, expected)
            assert sturm_verdict(image, (lo, hi), tol, True) == (classification, roots)
        # on the library route, a double polynomial with a complex pair
        # 2^-10 +- i 5e-9 is non-real, where its eigenvalues classify inside
        centre = 2.0 ** -10
        pair = Poly((centre ** 2 + (tol / 2) ** 2, -2 * centre, 1.0))
        assert classify_roots(poly_roots(pair), (lo, hi), tol).classification is (
            RootLocation.ALL_STRICTLY_INSIDE)
        assert locate(integer_poly(pair), (lo, hi), tol) is RootLocation.SOME_NON_REAL
    # a double root inside passes through the Sturm count, not the certificate
    inside = [Fraction(1, 2), Fraction(-1, 3)]
    image = primitive_part(monic_from_roots([*inside, Fraction(1, 2)]))
    (classification, roots), = verdicts([image], tol, [[0.5, 0.5, -1 / 3]])
    assert classification is RootLocation.ALL_STRICTLY_INSIDE
    assert roots == [complex(-1 / 3), complex(0.5)]
    image = primitive_part(monic_from_roots(inside))
    assert verdicts([image], tol, [[0.5, -1 / 3]]) == [
        (RootLocation.ALL_STRICTLY_INSIDE, [-1 / 3, 0.5])]


def _per_case_verdict(rng, degree, rows, scales, alpha, beta, tol):
    """One random interior-rooted case decided alone, as the campaigns did
    before they batched the cases of a grid point: the reference for
    harness._random_interior_verdicts."""
    roots = harness.random_interior_roots(rng, degree)
    weights = np.array([[a * scales[k] for k, a in enumerate(monic_from_roots(roots))]])
    return verdicts([exact_image(roots, rows)], tol, comrade_roots(weights, alpha, beta))[0]


# (campaign, alpha, beta): theorem12's symmetric map, and conj32's random
# inputs at integer and non-dyadic parameters
BATCHED_POINTS = [("theorem12", a, a) for a in (-0.5, 0.0, 2.5, 30.0)] + [
    ("conj32", 0.0, 1.0), ("conj32", 2.0, 3.0), ("conj32", 0.1, 0.3)]


@pytest.mark.parametrize("campaign,alpha,beta", BATCHED_POINTS)
def test_batched_interior_verdicts_equal_per_case(campaign, alpha, beta):
    # classifications and reported extremes of the batched path equal the
    # per-case loop's, in the campaign report and directly; a group of one
    # decides as a large group does
    if campaign == "theorem12":
        config = CampaignConfig(campaign, alpha_grid=(alpha,), deg_cap=30, trials=60, seed=1)
        top, scale, first = 30, ultra_row_scale, 0
    else:
        config = CampaignConfig(campaign, alpha_grid=(alpha,), beta_grid=(beta,), deg_cap=4,
                                trials=60, seed=1)
        top, scale, first = 9, unit_row_scale, len(boundary_pairs(4))
    rows = jacobi_rows_int(top, alpha, beta, scale)
    scales = np.array([float(scale(k, Fraction(alpha))) for k in range(top + 1)])
    tol = config.effective_tol

    def draws():
        rngs = [np.random.default_rng((1, first + i)) for i in range(60)]
        return rngs, [int(rng.integers(1, top + 1)) for rng in rngs]

    rngs, degrees = draws()
    reference = [_per_case_verdict(rng, degree, rows, scales, alpha, beta, tol)
                 for rng, degree in zip(rngs, degrees)]
    assert harness._random_interior_verdicts(*draws(), rows, scales, alpha, beta, tol) == reference
    rngs, degrees = draws()
    assert [harness._random_interior_verdicts([rng], [degree], rows, scales, alpha, beta, tol)[0]
            for rng, degree in zip(rngs, degrees)] == reference
    cases = run_campaign(config).cases[first:]
    assert [(c["degree"], c["classification"], c["min_boundary_distance"]) for c in cases] == [
        (degree, flag.value, min_boundary_distance(found, (-1.0, 1.0)))
        for degree, (flag, found) in zip(degrees, reference)]


def test_boundary_family_exact_roots():
    # alpha = beta = 0 keeps both boundary roots, e.g. x^2-1 -> 3/2 (x^2-1)
    residual, detail = boundary_family_roots(
        1, 1, jacobi_rows_int(2, 0.0, 0.0, unit_row_scale))
    assert detail == {"mult_plus": 1, "mult_minus": 1, "residual_degree": 0}
    assert residual == [1]
    assert sturm_verdict(residual, (-1.0, 1.0), 1e-7, True) == (
        RootLocation.ALL_STRICTLY_INSIDE, [])


def test_boundary_family_noninteger_parameters():
    # half-integer parameters genuinely push roots off [-1,1] (one real root
    # outside plus a complex pair); the exact route must surface that, and
    # the diagnostic roots show both
    rows = jacobi_rows_int(5, 0.5, 0.5, unit_row_scale)
    residual, detail = boundary_family_roots(3, 2, rows)
    assert detail == {"mult_plus": 0, "mult_minus": 0, "residual_degree": 5}
    assert not all_roots_real(sturm_sequence(residual))
    classification, roots = sturm_verdict(residual, (-1.0, 1.0), 1e-7, True)
    assert classification is RootLocation.SOME_NON_REAL
    assert len(roots) == 5
    assert any(abs(r.imag) > 1e-7 for r in roots)
    assert any(abs(r.imag) <= 1e-12 and abs(r.real) > 1.0 + 1e-7 for r in roots)
    assert sturm_verdict(residual, (-1.0, 1.0), 1e-7, True) == (classification, roots)


def _polyroots_reference(n, m, alpha, beta, factorial):
    """Every root of the image: the image over Fractions, deflated at +-1 by
    Fraction synthetic division, then 400-bit polyroots."""
    rows = jacobi_coefficient_rows(n + m, Fraction(alpha), Fraction(beta))
    f = monic_from_roots([1] * n + [-1] * m)
    coeffs = [sum(f[k] * rows[k, j] / (math.factorial(k) if factorial else 1)
                  for k in range(j, n + m + 1)) for j in range(n + m + 1)]
    roots = []
    for at in (1, -1):
        while len(coeffs) > 1 and sum(c * at ** j for j, c in enumerate(coeffs)) == 0:
            q = [coeffs[-1]]
            for c in reversed(coeffs[1:-1]):
                q.append(c + at * q[-1])
            coeffs = q[::-1]
            roots.append(complex(at))
    if len(coeffs) > 1:
        with mpmath.workprec(400):
            found = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in coeffs[::-1]],
                maxsteps=200, extraprec=400)
        roots += [complex(r) for r in found]
    return roots


def _verdicts(roots, tol=1e-7):
    """What the q31 and conj32 cases report from a root list."""
    max_imag = max((abs(r.imag) for r in roots), default=0.0)
    in_closed = all(abs(r.imag) <= tol and -1 - tol <= r.real <= 1 + tol for r in roots)
    flag = (classify_roots(roots, (-1.0, 1.0), tol).classification if roots
            else RootLocation.ALL_STRICTLY_INSIDE)
    return max_imag, in_closed, flag, min_boundary_distance(roots, (-1.0, 1.0))


@pytest.mark.parametrize("alpha,beta", [(-0.5, 0.3), (-0.5, 1.0), (0.0, 0.0), (0.5, 0.5)])
def test_certified_boundary_verdicts_match_polyroots(alpha, beta):
    # the exact route must report what full 400-bit root finding reports:
    # real-rootedness over the line (q31) and the closed-interval and
    # strict-interior flags on (-1, 1) (conj32). max_imag and the distance
    # are exact where the counts certify them (all roots real, or all in
    # (-1, 1]); elsewhere they are double-eigenvalue diagnostics, held to a
    # relative bound of 1e-9 (1.4e-12 at most here)
    tol = 1e-7
    for factorial, scale in ((False, unit_row_scale), (True, factorial_row_scale)):
        rows = jacobi_rows_int(8, alpha, beta, scale)
        for n, m in boundary_pairs(8):
            max_imag, in_closed, flag, distance = _verdicts(
                _polyroots_reference(n, m, alpha, beta, factorial), tol)
            residual, detail = boundary_family_roots(n, m, rows)
            seq = sturm_sequence(residual) if len(residual) > 1 else None
            # q31's case
            real = seq is None or all_roots_real(seq)
            assert real == (max_imag <= tol), (n, m, factorial)
            if real:
                assert max_imag == 0.0, (n, m, factorial)
            else:
                got = max(abs(r.imag) for r in sturm_verdict(residual, (-1.0, 1.0), tol, True)[1])
                assert got == pytest.approx(max_imag, rel=1e-9, abs=0), (n, m, factorial)
            # conj32's case
            got_flag, roots = sturm_verdict(residual, (-1.0, 1.0), tol, True)
            at_ends = [complex(1.0)] * detail["mult_plus"] + [complex(-1.0)] * detail["mult_minus"]
            if at_ends and got_flag is RootLocation.ALL_STRICTLY_INSIDE:
                got_flag = RootLocation.SOME_ON_BOUNDARY
            assert got_flag is flag, (n, m, factorial)
            assert (got_flag in (RootLocation.ALL_STRICTLY_INSIDE,
                                 RootLocation.SOME_ON_BOUNDARY)) == in_closed, (n, m, factorial)
            got = min_boundary_distance(at_ends + roots, (-1.0, 1.0))
            if at_ends or seq is None or count_roots(seq, -1, 1) == len(seq[0]) - 1:
                assert got == distance, (n, m, factorial)
            else:
                assert got == pytest.approx(distance, rel=1e-9, abs=0), (n, m, factorial)


@settings(max_examples=12, deadline=None)
@given(alpha=st.sampled_from([0.0, 1.0, 2.5, 0.1, 0.3, -0.5]),
       beta=st.sampled_from([0.0, 2.0, 0.5, 0.1, 0.3, -0.5]),
       factorial=st.booleans())
def test_line_certificate_agrees_with_sturm(alpha, beta, factorial):
    # every residual of the boundary family (n + m <= 10) that the
    # certificate decides, building no Sturm sequence, has all its roots
    # real; and every verdict, certified or not, is locate's classification
    # with sturm_verdict's roots where they are read
    tol = 1e-7
    rows = jacobi_rows_int(10, alpha, beta, factorial_row_scale if factorial else unit_row_scale)
    residuals = [boundary_family_roots(n, m, rows)[0] for n, m in boundary_pairs(10)]
    read = [k % 2 == 0 for k in range(len(residuals))]
    with mock.patch.object(polycore, "sturm_sequence", wraps=sturm_sequence) as built:
        found = verdicts(residuals, tol, read_roots=read)
    sturm_decided = [call.args[0] for call in built.call_args_list]
    for residual, wanted, (flag, roots) in zip(residuals, read, found):
        if residual not in sturm_decided and len(residual) > 1:
            assert all_roots_real(sturm_sequence(residual))
        assert flag is locate(residual, (-1.0, 1.0), tol)
        if wanted:
            assert (flag, roots) == sturm_verdict(residual, (-1.0, 1.0), tol, True)
        else:
            assert roots == []


def test_interior_image_with_a_real_root_outside_builds_no_sturm_sequence():
    # at (0.1, 0.3) the image of (x - 7/8)(x - 15/16) has a real root
    # outside (-1, 1); the certificate's outer cuts at +-inf hold, so conj32
    # decides it some_outside from its comrade estimates with no Sturm
    # sequence built
    roots, tol = [0.875, 0.9375], 1e-7
    rows = jacobi_rows_int(9, 0.1, 0.3, unit_row_scale)
    monic = monic_from_roots(roots)
    weights = np.array([[a * unit_row_scale(k, 0.1) for k, a in enumerate(monic)]])
    image = exact_image(roots, rows)
    with mock.patch.object(polycore, "sturm_sequence", wraps=sturm_sequence) as built:
        found = verdicts([image], tol, comrade_roots(weights, 0.1, 0.3))
    assert built.call_count == 0
    assert found == [sturm_verdict(primitive_part(image), (-1.0, 1.0), tol, True)]
    assert found[0][0] is RootLocation.SOME_OUTSIDE


def test_q31_builds_one_sturm_sequence(monkeypatch, tmp_path, capsys):
    # the certificate decides every real-rooted residual; only the non-real
    # (x-1)^3 at alpha = -0.5 builds a Sturm sequence. The pins keep their
    # bytes under the counter: conj32-nondyadic builds one for each of its
    # 35 residuals that are not real-rooted
    built = []
    sturm = polycore.sturm_sequence

    def counted(p):
        built.append(p)
        return sturm(p)

    monkeypatch.setattr(polycore, "sturm_sequence", counted)
    code = cli.main(["q31", "--deg-cap", "10", "--alpha", "-0.5", "1", "--beta", "0.3",
                     "--out", str(tmp_path / "q31.json")])
    capsys.readouterr()
    assert code == 0 and len(built) == 1
    pins = {name: entry for name, *entry in PINNED_DIGESTS}
    for name, count in (("q31", 1), ("conj32-int", 0), ("conj32-nondyadic", 35)):
        built.clear()
        test_pinned_report_digests(*pins[name])
        assert len(built) == count, name


def test_conj32_campaign_counts_and_flags():
    config = CampaignConfig("conj32", alpha_grid=(0.0, 2.0), beta_grid=(1.0,),
                            deg_cap=5, trials=8, seed=7)
    report = run_campaign(config)
    assert report.summary["cases"] == expected_case_count(config)
    assert report.summary["violations"] == 0
    boundary = [c for c in report.cases if c["family"] == "boundary"]
    assert all(c["in_closed_interval"] for c in boundary)
    assert all(not c["exploratory"] for c in report.cases)


def test_q31_reports_per_parameter_counts():
    config = CampaignConfig("q31", alpha_grid=(2.0,), beta_grid=(2.0,),
                            deg_cap=6, trials=1, seed=7)
    report = run_campaign(config)
    assert report.summary["violations"] == 0
    assert report.summary["per_parameter_violations"] == {"alpha=2,beta=2": 0}


def test_ssr_campaign_records_sign_tables():
    config = CampaignConfig("ssr", alpha_grid=(0.5,), beta_grid=(1.5, -0.5),
                            m_max=3, trials=150, seed=7)
    report = run_campaign(config)
    ultra = [c for c in report.cases if c["input"].startswith("ultra_gen")]
    assert len(ultra) == 2
    stp = next(c for c in ultra if "beta=1.5" in c["input"])
    assert stp["verdict"] == "consistent_stp"
    assert stp["signs"] == [1, 1, 1]
    neg = next(c for c in ultra if "beta=-0.5" in c["input"])
    assert neg["signs"][:2] == [1, -1]
    assert not has_proven_violation(report)


def test_indeterminate_cases_carry_detail():
    config = CampaignConfig("ssr", alpha_grid=(0.5,), beta_grid=(1.5,),
                            m_max=3, trials=100, seed=7)
    report = run_campaign(config)
    for case in report.cases:
        assert "per_m" in case
        for row in case["per_m"]:
            assert "min_abs_det" in row and "indeterminate" in row


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _tiny_report():
    config = CampaignConfig("theorem12", alpha_grid=(0.5,), deg_cap=4,
                            trials=3, seed=2)
    return run_campaign(config)


def test_reports_byte_identical_across_runs():
    config = CampaignConfig("theorem12", alpha_grid=(0.5,), deg_cap=6,
                            trials=10, seed=9)
    a = report_to_json(run_campaign(config).to_dict())
    b = report_to_json(run_campaign(config).to_dict())
    assert a == b


def test_timing_fields_nulled_by_default():
    report = _tiny_report()
    payload = report.to_dict()
    assert payload["timestamp"] is None
    assert all(c["wall_time_s"] is None for c in payload["cases"])
    timed = report.to_dict(include_timing=True)
    assert timed["timestamp"] is not None
    assert all(isinstance(c["wall_time_s"], float) for c in timed["cases"])


def test_grouped_cases_share_their_group_time():
    # theorem12 decides the trials of one alpha as a group; each case's
    # wall_time_s is an even share of the group's time
    report = run_campaign(CampaignConfig("theorem12", alpha_grid=(0.0, 1.0), deg_cap=8,
                                         trials=5, seed=2))
    times = [c["wall_time_s"] for c in report.to_dict(include_timing=True)["cases"]]
    assert len(set(times[:5])) == 1 and len(set(times[5:])) == 1 and min(times) > 0
    assert all(c["wall_time_s"] is None for c in report.to_dict()["cases"])


def test_json_schema_fields():
    payload = _tiny_report().to_dict()
    assert list(payload) == ["config", "cases", "summary", "artifact_version", "timestamp"]
    assert set(payload["summary"]) == {"cases", "passes", "violations", "indeterminates"}
    case = payload["cases"][0]
    for key in ("case_index", "parameters", "input", "classification",
                "min_boundary_distance", "outcome", "wall_time_s"):
        assert key in case


def test_artifact_version_matches_the_package_version():
    import tomllib

    from orthozero import __version__

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == __version__


def test_json_parses_and_roundtrips():
    text = report_to_json(_tiny_report().to_dict())
    parsed = json.loads(text)
    assert report_to_json(parsed) == text


def _reference_escape(text):
    # the character-by-character escaper the writer had before its fast path
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _reference_json(obj, indent=0):
    # the recursive writer the report format was defined by
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (int, float)):
        return format_number(obj)
    if isinstance(obj, str):
        return _reference_escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {_reference_escape(str(k))}: {_reference_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if not obj:
        return "[]"
    items = [pad + "  " + _reference_json(v, indent + 1) for v in obj]
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


ESCAPE_PRONE = st.text(st.sampled_from('"\\\x00\x01\n\t\x1f\x7f aZ\u00e9\u2028') | st.characters())


@settings(max_examples=300, deadline=None)
@given(text=ESCAPE_PRONE)
def test_json_escape_matches_reference(text):
    assert harness._json_escape(text) == _reference_escape(text)
    assert json.loads(harness._json_escape(text)) == text


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ESCAPE_PRONE
    | st.sampled_from([np.float64(0.1), np.float64(-2.5e-300), RootLocation.SOME_ON_BOUNDARY]),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(ESCAPE_PRONE | st.integers() | st.booleans(), inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(obj=JSON_VALUES)
def test_report_writer_matches_reference(obj):
    # same bytes as the recursive writer, for numpy scalars, str enums, tuples
    # and non-string keys too
    assert report_to_json(obj) == _reference_json(obj) + "\n"


def test_report_writer_keeps_keys_that_compare_equal_apart():
    # True == 1, so a cache of key lines by key tuple must not serve one for the other
    text = report_to_json([{True: 0}, {1: 0}, {1.0: 0}])
    assert text == _reference_json([{True: 0}, {1: 0}, {1.0: 0}]) + "\n"
    assert '"True"' in text and '"1"' in text and '"1.0"' in text


def test_empty_report_serializes():
    payload = {"config": {}, "cases": [], "summary": {"cases": 0}, "timestamp": None}
    parsed = json.loads(report_to_json(payload))
    assert parsed["summary"]["cases"] == 0


def test_number_formatting_17_digits():
    third = 1.0 / 3.0
    assert format_number(third) == "0.33333333333333331"
    assert float(format_number(third)) == third
    assert format_number(7) == "7"
    assert format_number(True) == "true"


def test_csv_one_row_per_case():
    report = _tiny_report()
    text = report_to_csv(report.to_dict())
    lines = text.strip().splitlines()
    assert len(lines) == 1 + report.summary["cases"]
    assert lines[0].split(",")[0] == "case_index"


def test_emit_report_writes_files(tmp_path):
    report = _tiny_report()
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    emit_report(report, "json", jpath)
    emit_report(report, "csv", cpath)
    assert json.loads(jpath.read_text())["summary"]["cases"] == 3
    assert len(cpath.read_text().strip().splitlines()) == 4
    emitted = jpath.read_text()
    assert emitted == report_to_json(report.to_dict())


def test_emit_report_bad_path_raises():
    with pytest.raises(OSError):
        emit_report(_tiny_report(), "json", "/nonexistent-dir/rep.json")


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(BadParameterError):
        emit_report(_tiny_report(), "yaml", tmp_path / "rep.yaml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_writes_deterministic_report(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["theorem12", "--alpha", "0.5", "--trials", "8", "--deg-cap", "5",
            "--seed", "3"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_stdout_json(capsys):
    code = cli.main(["theorem12", "--alpha", "0", "--trials", "2", "--deg-cap", "3",
                     "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["summary"]["cases"] == 2
    assert "2 cases" in captured.err


def test_cli_csv_format(capsys):
    code = cli.main(["theorem12", "--alpha", "0", "--trials", "2", "--deg-cap", "3",
                     "--seed", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].startswith("case_index,")


def test_cli_grid_flags(capsys):
    code = cli.main(["ssr", "--alpha", "0", "--beta", "0.5", "--beta-max", "2.5",
                     "--beta-step", "1.0", "--m-max", "2", "--trials", "100",
                     "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["config"]["beta_grid"] == [0.5, 1.5, 2.5]


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small sweep\n"
        "alpha = 0.0 1.0\n"
        "trials = 3\n"
        "deg_cap = 4\n"
        "seed = 6\n"
    )
    code = cli.main(["theorem12", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["config"]["alpha_grid"] == [0, 1]
    assert payload["config"]["trials"] == 3
    # explicit flags beat the file
    code = cli.main(["theorem12", "--config", str(cfg), "--trials", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["trials"] == 2


def test_cli_operational_errors(tmp_path, capsys):
    assert cli.main(["theorem12", "--config", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    assert cli.main(["theorem12", "--precision", "quad"]) == 1
    capsys.readouterr()
    assert cli.main(["unknown-subcommand"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    assert cli.main(["theorem12", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_cli_extended_precision_runs(capsys):
    code = cli.main(["theorem12", "--alpha", "0", "--trials", "2", "--deg-cap", "3",
                     "--seed", "1", "--precision", "extended:96"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["config"]["precision"] == "extended:96"


def test_cli_entry_point_subprocess():
    # pytest's pythonpath setting reaches this process only, so the child
    # is given the package's source directory itself
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orthozero.cli", "theorem12", "--alpha", "0",
         "--trials", "2", "--deg-cap", "3", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["passes"] == 2


def test_cli_import_loads_no_scipy():
    # scipy serves only the adaptive library routes and the tests, so a CLI
    # process starts without it
    src = str(Path(harness.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import orthozero.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_double_runs_load_no_mpmath(tmp_path):
    # mpmath serves only the extended policy: every campaign in double, and
    # the library's ssr_minor in double, run without it, and an extended
    # config loads it at set-up
    src = str(Path(harness.__file__).resolve().parents[1])
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
from orthozero import cli
from orthozero.harness import CampaignConfig
from orthozero.signreg import UltraGenKernel, ssr_minor
runs = [["theorem12", "--alpha", "0", "2.5", "--deg-cap", "8", "--trials", "5"],
        ["conj32", "--alpha", "0.1", "--beta", "0.3", "--deg-cap", "6", "--trials", "5"],
        ["q31", "--alpha", "-0.5", "--beta", "0.3", "--deg-cap", "6"],
        ["ssr", "--trials", "20", "--m-max", "3"],
        ["biortho-equiv", "--trials", "5"]]
codes = [cli.main(argv + ["--out", sys.argv[2]]) for argv in runs]
ssr_minor(UltraGenKernel(1.5), [-0.5, 0.25], [-0.3, 0.6])
double = "mpmath" in sys.modules
CampaignConfig("ssr", alpha_grid=(0.0,), beta_grid=(0.5,), precision="extended:128")
extended = "mpmath" in sys.modules
print(json.dumps([codes, double, extended]))
"""
    proc = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, double, extended = json.loads(proc.stdout)
    assert codes == [0] * 5
    assert not double
    assert extended


def test_every_module_imports_alone():
    # importing orthozero.<name> runs the package's __init__ first, whose
    # order can hide an import cycle; a bare package in its place lets each
    # module's own imports run first
    package = Path(harness.__file__).resolve().parent
    code = """
import importlib, sys, types
sys.path.insert(0, sys.argv[1])
import orthozero
version, path = orthozero.__version__, orthozero.__path__
for name in sys.argv[2:]:
    for loaded in [m for m in sys.modules if m == "orthozero" or m.startswith("orthozero.")]:
        del sys.modules[loaded]
    bare = types.ModuleType("orthozero")
    bare.__path__, bare.__version__ = path, version
    sys.modules["orthozero"] = bare
    importlib.import_module("orthozero." + name)
"""
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    proc = subprocess.run([sys.executable, "-c", code, str(package.parent), *modules],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_harness_leaves_sturm_to_polycore():
    # the policy "certificate first, Sturm where it fails" lives in
    # polycore.verdicts; harness imports nothing from the Sturm layer
    assert not {"sturm_sequence", "all_roots_real", "locate", "sturm_verdict"} & set(vars(harness))


def test_one_root_reader_and_one_kernel_route_entry():
    # the library's roots go through polycore._nearest_roots, as the
    # campaigns' do, with no second reader beside it; and each kernel entry
    # point is written once, over the kernel's own `on(route, x, y)`
    assert not hasattr(polycore, "_inner_doubles")
    for kind in (signreg._Formula, signreg.FactorWrappedKernel, signreg.CustomKernel):
        assert issubclass(kind, signreg._Kernel)
        assert not {"evaluate", "evaluate_exact", "evaluate_interval"} & set(vars(kind)), kind
    assert {"evaluate", "evaluate_exact", "evaluate_interval"} <= set(vars(signreg._Kernel))


def test_selftest_passes():
    results = run_selftest()
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert "derived-kernel per-degree factor" in names
    assert "diagonal orthogonality constant" in names


def test_exit_code_two_on_proven_violation(monkeypatch, capsys):
    from orthozero import harness as hmod

    def fake_run(config):
        cases = [{"case_index": 0, "parameters": {}, "input": "synthetic",
                  "classification": "some_outside", "min_boundary_distance": 0.0,
                  "proven": True, "outcome": "violation", "wall_time_s": 0.0}]
        return hmod.CampaignReport(
            config=config.echo(),
            cases=cases,
            summary={"cases": 1, "passes": 0, "violations": 1, "indeterminates": 0},
        )

    monkeypatch.setitem(cli.__dict__, "run_campaign", fake_run)
    code = cli.main(["theorem12", "--alpha", "0", "--trials", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv,field", [
    (["conj32", "--alpha", "inf"], "alpha_grid"),
    (["theorem12", "--alpha", "inf"], "alpha_grid"),
    (["ssr", "--alpha", "inf"], "alpha_grid"),
    (["q31", "--alpha", "nan"], "alpha_grid"),
    (["q31", "--beta", "inf"], "beta_grid"),
    (["theorem12", "--tol", "-1"], "tol"),
    (["q31", "--deg-cap", "3", "--tol", "nan"], "tol"),
    (["q31", "--alpha", "-1.5"], "alpha must exceed -1, got -1.5"),
    (["q31", "--alpha", "1", "--alpha-max", "2", "--alpha-step", "1e-20"], "grid step 1e-20"),
    (["q31", "--alpha", "1", "--alpha-max", "inf"], "grid max and step must be finite"),
    (["q31", "--alpha", "1", "--alpha-max", "2", "--alpha-step", "nan"],
     "grid max and step must be finite"),
    (["theorem12", "--precision", "extended:abc"], "precision 'extended:abc'"),
])
def test_cli_rejects_unusable_configs(capsys, argv, field):
    # each of these once ended in a traceback, a Fraction repr, a report of
    # passes or violations, a grid that silently dropped its step or a grid
    # loop that never ended; now each exits 1 naming the field
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_cli_overflow_exits_one(monkeypatch, capsys):
    # the two-parameter kernel once computed 2 ** (alpha + beta) first, which
    # overflows a double at alpha = 2000 and exited 1; its entries that
    # overflow now read inf, so their minors are indeterminate
    code = cli.main(["ssr", "--alpha", "2000", "--beta", "0.5", "--m-max", "2",
                     "--trials", "5"])
    assert code == 0
    assert "ssr: 2 cases, 2 passes" in capsys.readouterr().err
    # an overflow that does reach the CLI exits 1 with a clear message

    def overflowing(config):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setitem(cli.__dict__, "run_campaign", overflowing)
    code = cli.main(["ssr", "--m-max", "2", "--trials", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "overflow" in err


def test_large_alpha_ends_in_a_verdict_or_a_clear_error(capsys):
    # the comrade weights are the doubles of the row scale k!/(1+alpha)_k,
    # which stay normal at alpha = 2000, so the certificate decides each case
    code = cli.main(["theorem12", "--alpha", "2000", "--deg-cap", "4", "--trials", "3"])
    assert code == 0
    assert "theorem12: 3 cases, 3 passes" in capsys.readouterr().err
    # conj32 once built a double image for its random cases, which overflows
    # here; from the exact image every case is on the boundary: the 70 pairs
    # pass, and each of the 15 random cases has a root that rounds to +-1
    code = cli.main(["conj32", "--alpha", "1e300", "--deg-cap", "4", "--trials", "3"])
    err = capsys.readouterr().err
    assert code == 0
    assert "conj32: 85 cases, 70 passes, 0 violations, 15 indeterminate" in err


# sha256 of report_to_json at artifact_version 0.10.0. Both ssr policies
# count a sign only where an enclosure of the exact determinant excludes 0:
# first a partial-pivot LU of the midpoints of numpy's midpoint-radius
# intervals with Higham's backward-error bound, then, under the extended
# policy only, for the minors that leaves open, the exact determinant of the
# entries built with mpmath at the working precision, each plus or minus a
# Hadamard bound. Such a sign is certified under the route's error model
# (numpy's exp and non-half-integer powers accurate to 2^-40, and a
# first-order bound on the working-precision entries), so within that model
# it cannot differ between numpy builds. Half-integer powers take only
# correctly rounded operations, but exp and other powers are numpy's, and
# the bound on |L^||U^| comes from a BLAS matmul whose summation order may
# differ, so a minor near the edge of its bound can move between signed and
# indeterminate, and min_abs_det (the mantissa of the smallest lower bound
# from the enclosures) in its last bits. ssr-e64 pins the route at 64 bits,
# the lowest precision a policy allows, and ssr-e256 at 256 bits with
# generic exponents. ssr-double pins the double policy, which has no second
# stage. theorem12, conj32 and q31 take every verdict from certified
# signs, with LAPACK eigenvalues only picking the points of the sign-change
# certificate. Each certificate sign is a double-double Horner value's
# where an a-priori error bound, with the enclosure's radius, clears it, and
# else the exact integer sign, so it is the exact sign either way. The
# distances that certified cases report are nearest doubles of exact roots,
# so theorem12, theorem12-bench and conj32-int (the certified Sturm route,
# with non-zero boundary distances) do not depend on LAPACK.
# Where the counts do not certify all roots, the reported max_imag (q31's one
# non-real case) and distances (most of conj32-nondyadic's pairs) are
# diagnostics from LAPACK eigenvalues, as are those of
# conj32-defaults-nondyadic's cases with a root outside. theorem12-bench
# and conj32-defaults-nondyadic pin the interior images' enclosure route at
# the benchmark's and the CLI's flags. biortho-equiv decides each case from
# exact integers and rounds its deviation once, with no LAPACK call. A change
# here is a change of report bytes.
PINNED_DIGESTS = [
    ("q31", CampaignConfig("q31", alpha_grid=(-0.5,), beta_grid=(0.3, 1.0), deg_cap=6,
                           trials=1, seed=3),
     "72d5e83435e1d83b786f131adc662ad83930a5ae6c477e6d2002e0099e1139f5"),
    ("ssr", CampaignConfig("ssr", alpha_grid=(0.0, 1.0), beta_grid=(-0.5, 1.5), m_max=3,
                           trials=30, seed=3, precision="extended:128"),
     "46d5670b8fc5f48eac027e5ed5eeb9829d9cb75083c9cb39168678406a075202"),
    ("conj32-int", CampaignConfig("conj32", alpha_grid=(0.0, 2.0), beta_grid=(1.0, 3.0),
                                  deg_cap=8, trials=10, seed=1),
     "0ace2c54bbdd575b434adb2e9d86032e6ab192f2feae61abc5a46b2031935b76"),
    ("conj32-nondyadic", CampaignConfig("conj32", alpha_grid=(0.1,), beta_grid=(0.3,),
                                        deg_cap=8, trials=10, seed=1),
     "f5e928f55f971a23ba81a4322262ccd001dd9e73e78ad81a83d697e61aa6e7dd"),
    ("theorem12", CampaignConfig("theorem12", alpha_grid=(-0.5, 2.5), deg_cap=30, trials=20,
                                 seed=1),
     "4542741877d6eaf3acc513273e1be1b9e3f9165e0015fadccf0a3a483bec0993"),
    ("ssr-e64", CampaignConfig("ssr", alpha_grid=(-0.7, 0.3), beta_grid=(-0.9, 7.0), m_max=6,
                               trials=12, seed=2, precision="extended:64"),
     "8db8eba9bf4542903ca385b0419f672dda5b330f1f9418b96eccbd96d2c04b98"),
    ("ssr-double", CampaignConfig("ssr", alpha_grid=(0.0, 1.0), beta_grid=(-0.5, 0.5, 1.5, 3.0),
                                  m_max=4, trials=50),
     "9ecfefb1767abc911b1a2ecc86d43d4949fcfee9ee2506936f794d0b55226cfe"),
    ("ssr-e256", CampaignConfig("ssr", alpha_grid=(0.3,), beta_grid=(2.2,), m_max=4, trials=10,
                                precision="extended:256"),
     "0585b8d6e5e4c39a4e110d56807c6ecf7703fed4f08863da68065f7c771edf7e"),
    ("biortho-equiv", CampaignConfig("biortho-equiv", alpha_grid=(-0.99, 0.0, 1e300), trials=20),
     "efc4fa3a63fcac7eb1ba9ad90e059db06e04f14d25dd487572005ce0537dc298"),
    ("theorem12-bench", CampaignConfig("theorem12", alpha_grid=(-0.5, 0.0, 1.0, 2.5), deg_cap=30,
                                       trials=250, seed=1),
     "dd9bafcbe07d8ab37138d7c7553be34ea5fa51779997bd173b641b0b3f64c437"),
    ("conj32-defaults-nondyadic", CampaignConfig("conj32", alpha_grid=(0.1,), beta_grid=(0.3,),
                                                 deg_cap=14, trials=200, seed=1),
     "235e1066baaa354931bdb8a7dab4029942da78adcb7ab5a342360026593267d6"),
    ("theorem12-alpha2000", CampaignConfig("theorem12", alpha_grid=(2000.0,), deg_cap=4, trials=3),
     "90db3ff2bc464c24d2a26a70e68ad0f44fdd152456ae14d5b46c6713f70f7f81"),
]


@pytest.mark.parametrize("config,digest", [entry[1:] for entry in PINNED_DIGESTS],
                         ids=[entry[0] for entry in PINNED_DIGESTS])
def test_pinned_report_digests(config, digest):
    text = report_to_json(run_campaign(config).to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_transform_verdicts_use_no_root_finder(monkeypatch):
    # theorem12, conj32 and q31 decide from the integer image alone: the pins
    # keep their bytes with every root finder and the double transform disabled
    from orthozero import harness, polycore, transforms

    def disabled(*args, **kwargs):
        raise AssertionError("a root finder or the double transform was called")

    monkeypatch.setattr(mpmath, "polyroots", disabled)
    monkeypatch.setattr(polycore, "poly_roots", disabled)
    monkeypatch.setattr(transforms, "jacobi_transform", disabled)
    for name in ("mpmath", "poly_roots", "jacobi_transform"):
        assert not hasattr(harness, name)
    assert not hasattr(polycore, "mpmath")
    pins = {name: entry for name, *entry in PINNED_DIGESTS}
    for name in ("q31", "conj32-nondyadic", "theorem12"):
        test_pinned_report_digests(*pins[name])


def test_theorem12_builds_few_exact_images(monkeypatch):
    # at the benchmark's flags the dd enclosures decide and read nearly
    # every case: an exact image is built for at most 15% of them (79 of
    # the 1000 when this was written) and no mark needs an exact sign. The
    # 84 extreme roots that the dd reader leaves uncertified are each read
    # by one exact bisection, which takes 1072 exact signs with its
    # brackets; a wider bracket or a second fallback would move these
    # counts. They are counts, so they do not vary with the machine's speed
    pins = {name: entry for name, *entry in PINNED_DIGESTS}
    config = pins["theorem12-bench"][0]
    tol = config.effective_tol
    marks = {-1.0 - tol, -1.0 + tol, 1.0 - tol, 1.0 + tol, -1.0, 1.0}
    fallback = {"reads": 0, "signs": 0}
    reading = []
    nearest_roots, sign_at, bisect = (polycore._nearest_roots, polycore._sign_at,
                                      polycore._bisect_to_double)

    def nearest(*args):
        reading.append(True)
        try:
            return nearest_roots(*args)
        finally:
            reading.pop()

    def counted(key, f):
        def wrapped(*args):
            fallback[key] += bool(reading)
            return f(*args)
        return wrapped

    monkeypatch.setattr(polycore, "_nearest_roots", nearest)
    monkeypatch.setattr(polycore, "_sign_at", counted("signs", sign_at))
    monkeypatch.setattr(polycore, "_bisect_to_double", counted("reads", bisect))
    with mock.patch.object(transforms, "exact_image", wraps=transforms.exact_image) as built, \
            mock.patch.object(polycore, "_sign_at_double",
                              wraps=polycore._sign_at_double) as exact_signs:
        test_pinned_report_digests(*pins["theorem12-bench"])
    assert built.call_count <= 0.15 * config.trials * len(config.alpha_grid)
    assert not [call for call in exact_signs.call_args_list if call.args[1] in marks]
    assert fallback == {"reads": 84, "signs": 1072}


def test_biortho_equiv_passes_at_large_alpha(tmp_path):
    # the closed-form moments and the untrimmed monic image hold at large
    # alpha, where the Gauss-rule moments did not converge and Poly's trim cut
    # the image to a constant (deviation 1.0)
    out = tmp_path / "equiv.json"
    code = cli.main(["biortho-equiv", "--alpha", "5", "10", "100", "--trials", "200",
                     "--out", str(out)])
    cases = json.loads(out.read_text(encoding="utf-8"))["cases"]
    assert code == 0
    assert len(cases) == 600 and all(c["outcome"] == "pass" for c in cases)


def test_biortho_equiv_passes_past_the_double_range():
    # the double moments overflowed here and every case was indeterminate
    report = run_campaign(CampaignConfig("biortho-equiv", alpha_grid=(-0.9999, 1e300, 1.7e308),
                                         trials=20))
    assert all(c["outcome"] == "pass" and c["deviation"] == 0.0 for c in report.cases)
    assert report.summary["passes"] == 60


def test_biortho_equiv_solves_no_system(monkeypatch):
    from orthozero import biortho

    def disabled(*args, **kwargs):
        raise AssertionError("a double solve was called")

    monkeypatch.setattr(biortho, "biorthogonal_poly", disabled)
    monkeypatch.setattr(np.linalg, "solve", disabled)
    report = run_campaign(CampaignConfig("biortho-equiv", alpha_grid=(0.0, 1.0), trials=50))
    assert report.summary["passes"] == 100


def test_biortho_equiv_rejects_alpha_minus_half(capsys):
    with pytest.raises(BadParameterError, match="2a\\+1"):
        CampaignConfig("biortho-equiv", alpha_grid=(0.0, -0.5))
    code = cli.main(["biortho-equiv", "--alpha", "-0.5", "--trials", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "2a+1 vanish" in err
