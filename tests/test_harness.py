"""Campaign runner contracts: determinism, workload accounting, report
schemas, serialization round-trips, and the CLI surface."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from orthozero.errors import BadParameterError
from orthozero.harness import (
    CampaignConfig,
    boundary_family_roots,
    boundary_pairs,
    certified_interior_verdict,
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
    RootLocation,
    classify_roots,
    jacobi_coefficient_rows,
    min_boundary_distance,
    monic_from_roots,
    primitive_part,
)
from orthozero.precision import DOUBLE
from orthozero.transforms import factorial_row_scale, jacobi_rows_int, unit_row_scale
from orthozero import cli

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


def test_theorem12_precision_changes_only_the_echo():
    # the verdicts come from exact signs; the policy only sets fallback bits
    runs = [run_campaign(CampaignConfig("theorem12", alpha_grid=(-0.5, 0.3, 2.5), deg_cap=20,
                                        trials=15, seed=4, precision=precision)).to_dict()
            for precision in ("double", "extended:128")]
    assert runs[0]["cases"] == runs[1]["cases"]
    assert runs[0]["summary"] == runs[1]["summary"]
    assert {k for k in runs[0]["config"] if runs[0]["config"][k] != runs[1]["config"][k]} == {
        "precision"}


def test_certified_interior_verdict_falls_back_to_exact_counts():
    # the certificate fails on each of these; the fallback must still find
    # the violation and classify it
    tol = 1e-8
    inside = [Fraction(1, 2), Fraction(-1, 3)]
    cases = [
        (primitive_part([Fraction(1, 4), 0, 1]), RootLocation.SOME_NON_REAL),
        (primitive_part(monic_from_roots([*inside, Fraction(3, 2)])), RootLocation.SOME_OUTSIDE),
        (primitive_part(monic_from_roots([*inside, 1 - Fraction(tol) / 2])),
         RootLocation.SOME_ON_BOUNDARY),
        (primitive_part(monic_from_roots([*inside, -1 + Fraction(tol) / 4])),
         RootLocation.SOME_ON_BOUNDARY),
    ]
    for image, expected in cases:
        approx = np.roots(np.array(image[::-1], dtype=float))
        classification, roots = certified_interior_verdict(image, approx, tol, DOUBLE)
        assert classification is expected
    # a double root inside passes through the Sturm count, not the certificate
    image = primitive_part(monic_from_roots([*inside, Fraction(1, 2)]))
    classification, roots = certified_interior_verdict(image, [0.5, 0.5, -1 / 3], tol, DOUBLE)
    assert classification is RootLocation.ALL_STRICTLY_INSIDE
    assert roots == [complex(-1 / 3), complex(0.5)]
    image = primitive_part(monic_from_roots(inside))
    assert certified_interior_verdict(image, [0.5, -1 / 3], tol, DOUBLE) == (
        RootLocation.ALL_STRICTLY_INSIDE, [-1 / 3, 0.5])


def test_boundary_family_exact_roots():
    # alpha = beta = 0 keeps both boundary roots, e.g. x^2-1 -> 3/2 (x^2-1)
    roots, detail = boundary_family_roots(1, 1, jacobi_rows_int(2, 0.0, 0.0, unit_row_scale),
                                          DOUBLE)
    assert detail == {"mult_plus": 1, "mult_minus": 1, "residual_degree": 0}
    assert sorted(r.real for r in roots) == [-1.0, 1.0]


def test_boundary_family_noninteger_parameters():
    # half-integer parameters genuinely push roots off [-1,1] (one real root
    # outside plus a complex pair); the exact route must surface that
    rows = jacobi_rows_int(5, 0.5, 0.5, unit_row_scale)
    roots, detail = boundary_family_roots(3, 2, rows, DOUBLE)
    assert len(roots) == 5
    assert detail["mult_plus"] == 0 and detail["mult_minus"] == 0
    assert any(abs(r.imag) > 1e-7 for r in roots)
    assert any(abs(r.imag) <= 1e-12 and abs(r.real) > 1.0 + 1e-7 for r in roots)
    again, _ = boundary_family_roots(3, 2, rows, DOUBLE)
    assert roots == again


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
    # the Sturm route must report what full 400-bit root finding reports:
    # max_imag over the line, closed-interval flag and distance on (-1, 1)
    for factorial, scale in ((False, unit_row_scale), (True, factorial_row_scale)):
        rows = jacobi_rows_int(8, alpha, beta, scale)
        for n, m in boundary_pairs(8):
            reference = _verdicts(_polyroots_reference(n, m, alpha, beta, factorial))
            line, _ = boundary_family_roots(n, m, rows, DOUBLE)
            unit, _ = boundary_family_roots(n, m, rows, DOUBLE, unit_interval=True)
            assert _verdicts(line)[0] == reference[0], (n, m, factorial)
            assert _verdicts(unit)[1:] == reference[1:], (n, m, factorial)


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


def test_json_schema_fields():
    payload = _tiny_report().to_dict()
    assert list(payload) == ["config", "cases", "summary", "artifact_version", "timestamp"]
    assert set(payload["summary"]) == {"cases", "passes", "violations", "indeterminates"}
    case = payload["cases"][0]
    for key in ("case_index", "parameters", "input", "classification",
                "min_boundary_distance", "outcome", "wall_time_s"):
        assert key in case


def test_json_parses_and_roundtrips():
    text = report_to_json(_tiny_report().to_dict())
    parsed = json.loads(text)
    assert report_to_json(parsed) == text


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
    proc = subprocess.run(
        [sys.executable, "-m", "orthozero.cli", "theorem12", "--alpha", "0",
         "--trials", "2", "--deg-cap", "3", "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["passes"] == 2


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
])
def test_cli_rejects_unusable_configs(capsys, argv, field):
    # each of these once ended in a traceback, a Fraction repr or a report
    # of passes or violations; now each exits 1 naming the field
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_cli_overflow_exits_one(capsys):
    # 2 ** (alpha + beta) in the two-parameter kernel overflows a double
    code = cli.main(["ssr", "--alpha", "2000", "--beta", "0.5", "--m-max", "2",
                     "--trials", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "overflow" in err


def test_exit_code_one_on_no_convergence(monkeypatch, capsys):
    from mpmath.libmp import NoConvergence

    def fake_run(config):
        raise NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setitem(cli.__dict__, "run_campaign", fake_run)
    code = cli.main(["q31", "--alpha", "0", "--beta", "0", "--deg-cap", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "did not converge" in err


# sha256 of report_to_json at artifact_version 0.3.0. The q31 and ssr routes
# run in exact integers and mpmath, away from BLAS and LAPACK, so their
# digests do not depend on the numpy build. The ssr minors are exact
# determinants of the entries rebuilt at the working precision; ssr-e64 pins
# them at 64 bits, the lowest precision a policy allows. The conj32 runs also
# hold ten random cases per grid point, whose roots come from LAPACK. The conj32-int
# run takes the certified Sturm route and has non-zero boundary distances;
# conj32-nondyadic mostly fails the certificate and falls back to polyroots.
# theorem12 takes its verdicts and distances from exact integer signs, with
# LAPACK eigenvalues only picking the points, so its bytes do not depend on
# LAPACK either. A change here is a change of report bytes.
PINNED_DIGESTS = [
    ("q31", CampaignConfig("q31", alpha_grid=(-0.5,), beta_grid=(0.3, 1.0), deg_cap=6,
                           trials=1, seed=3),
     "d42a60022f03ed25437d3a076c48c52aebc9214922c619f3d1cdb1e936720e56"),
    ("ssr", CampaignConfig("ssr", alpha_grid=(0.0, 1.0), beta_grid=(-0.5, 1.5), m_max=3,
                           trials=30, seed=3, precision="extended:128"),
     "d389214bbe8db010067a37d088c7b19febbe76e552de7df0a790f4bced1d6a4f"),
    ("conj32-int", CampaignConfig("conj32", alpha_grid=(0.0, 2.0), beta_grid=(1.0, 3.0),
                                  deg_cap=8, trials=10, seed=1),
     "e7d27017d24c9643015344a026670d1846bba8b328e9198390419afe53121bb9"),
    ("conj32-nondyadic", CampaignConfig("conj32", alpha_grid=(0.1,), beta_grid=(0.3,),
                                        deg_cap=8, trials=10, seed=1),
     "fb6f51273710761e6dc596aff11ebab2db4c9a57520e845acb3127c1ea301a8a"),
    ("theorem12", CampaignConfig("theorem12", alpha_grid=(-0.5, 2.5), deg_cap=30, trials=20,
                                 seed=1),
     "19d8ec0aadb1967054752610fd9f377465da81297044eeac9eddf6a1e8a7f4a8"),
    ("ssr-e64", CampaignConfig("ssr", alpha_grid=(-0.7, 0.3), beta_grid=(-0.9, 7.0), m_max=6,
                               trials=12, seed=2, precision="extended:64"),
     "6c85dd33f678278b1c87f4fb8b3801badcf51f3dde9293d2f01f746eb8428b9f"),
]


@pytest.mark.parametrize("config,digest", [entry[1:] for entry in PINNED_DIGESTS],
                         ids=[entry[0] for entry in PINNED_DIGESTS])
def test_pinned_report_digests(config, digest):
    text = report_to_json(run_campaign(config).to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_biortho_equiv_rejects_alpha_minus_half(capsys):
    with pytest.raises(BadParameterError, match="2a\\+1"):
        CampaignConfig("biortho-equiv", alpha_grid=(0.0, -0.5))
    code = cli.main(["biortho-equiv", "--alpha", "-0.5", "--trials", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "2a+1 vanish" in err
