"""The benchmark's workloads: fixed CLI campaigns, their case counts, and the
checks every report must pass.

Each workload is one or more `orthozero` CLI campaigns run back to back in
one fresh interpreter. The flags are fixed here; only `--seed` comes from
the benchmark's seed argument. Why each workload was chosen is recorded in
`BENCHMARK.json`. The case counts are worked out by hand from
the flags, independently of `orthozero.harness.expected_case_count`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    campaigns: tuple[tuple[str, ...], ...]  # CLI argv per campaign, without --seed
    cases: tuple[int, ...]  # expected case count per campaign


WORKLOADS = {w.name: w for w in (
    # The exact and extended-precision routes; no double transform, no
    # poly_roots. q31: 2 (alpha, beta) points x 65 pairs (x-1)^n (x+1)^m with
    # n+m <= 10. beta = 0.3 is non-dyadic, so the exact route's rationals get
    # large denominators; alpha = -0.5 gives the one non-real residual,
    # (x-1)^3. ssr: 4 one-parameter + 2 x 4 two-parameter kernel scans, 5
    # orders x 100 tuples: 6000 minors with entries rebuilt at 128 bits.
    Workload(
        name="boundary-extended",
        campaigns=(
            ("q31", "--deg-cap", "10", "--alpha", "-0.5", "--beta", "0.3", "1"),
            ("ssr", "--precision", "extended:128", "--alpha", "0", "1",
             "--beta", "-0.5", "0.5", "1.5", "3", "--m-max", "5", "--trials", "100"),
        ),
        cases=(130, 12),
    ),
    # The double-precision routes; no exact route. theorem12: 4 alpha values
    # x 250 random interior-rooted inputs of degree <= 30; at seed 1, 23 of
    # the 1000 cases are false proven violations. ssr at its CLI defaults:
    # the same 12 scans, 500 tuples per order, 30000 double minors.
    # biortho-equiv: 2 x 100 equivalence cases on cached Gauss rules.
    Workload(
        name="interior-double",
        campaigns=(
            ("theorem12", "--deg-cap", "30", "--alpha", "-0.5", "0", "1", "2.5",
             "--trials", "250"),
            ("ssr",),
            ("biortho-equiv", "--alpha", "0", "1", "--trials", "100"),
        ),
        cases=(1000, 12, 200),
    ),
)}


OUTCOMES = ("pass", "violation", "indeterminate")


def _case_error(campaign: str, case: dict, config: dict) -> str | None:
    """What is wrong with one case of a campaign's report, or None."""
    outcome = case["outcome"]
    if outcome not in OUTCOMES:
        return f"unknown outcome {outcome!r}"
    if campaign == "q31":
        detail = case["detail"]
        if detail["mult_plus"] + detail["mult_minus"] + detail["residual_degree"] != case["degree"]:
            return "deflated multiplicities and residual degree do not add up to the degree"
        if (outcome == "pass") != (case["classification"] == "real_rooted"):
            return "outcome disagrees with the real-rootedness classification"
    elif campaign == "theorem12":
        if not 1 <= case["degree"] <= config["deg_cap"]:
            return f"degree {case['degree']} outside [1, {config['deg_cap']}]"
        if (outcome == "pass") != (case["classification"] == "all_strictly_inside"):
            return "outcome disagrees with the root classification"
    elif campaign == "ssr":
        for per_m in case["per_m"]:
            counted = per_m["positive"] + per_m["negative"] + per_m["indeterminate"]
            if (counted != config["trials"]
                    or per_m["violations"] != min(per_m["positive"], per_m["negative"])):
                return f"inconsistent minor tallies at m={per_m['m']}"
    elif campaign == "biortho-equiv":
        if outcome != "indeterminate" and (outcome == "pass") != (case["deviation"] <= config["tol"]):
            return "outcome disagrees with the deviation"
    return None


def report_errors(report: dict, campaign: str, seed: int, cases: int) -> list[str]:
    """Structural and per-case checks of one campaign report."""
    errors = []
    config = report["config"]
    if config["campaign"] != campaign or config["seed"] != seed:
        errors.append("config echo does not match the campaign and seed")
    rows = report["cases"]
    if len(rows) != cases or report["summary"]["cases"] != cases:
        errors.append(f"{len(rows)} cases reported, {cases} expected")
    if [c["case_index"] for c in rows] != list(range(len(rows))):
        errors.append("case indices are not 0..n-1 in order")
    tallies = verdict_tallies(report)
    summary = report["summary"]
    if (summary["passes"], summary["violations"], summary["indeterminates"]) != (
            tallies["pass"], tallies["violation"], tallies["indeterminate"]):
        errors.append("summary tallies disagree with the cases")
    for case in rows:
        error = _case_error(campaign, case, config)
        if error:
            errors.append(f"case {case['case_index']}: {error}")
            break
    return errors


def verdict_tallies(report: dict) -> dict:
    """Cases per outcome, plus those that contradict a proven statement."""
    tallies = dict.fromkeys(OUTCOMES, 0)
    for case in report["cases"]:
        tallies[case["outcome"]] = tallies.get(case["outcome"], 0) + 1
    tallies["proven_violation"] = sum(
        1 for c in report["cases"] if c["outcome"] == "violation" and c.get("proven"))
    return tallies
