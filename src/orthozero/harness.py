"""Campaign runner: seeded, reproducible experiment sweeps over the
transforms and kernels, with machine-readable JSON/CSV reports.

Reports are byte-identical for identical config+seed: volatile fields
(timestamp, per-case wall time) are carried in memory but serialized as
null unless timing output is explicitly requested.

The boundary-rooted family (x-1)^n (x+1)^m needs exact coefficient
arithmetic: its transform images have roots at +-1 of high multiplicity,
and float coefficients perturb those roots by roughly eps^(1/multiplicity),
orders of magnitude beyond the campaign tolerances. Every float parameter
is an exact binary rational, so all of them go through the exact-rational
route with deflation at +-1. The residual factor's verdict is an exact
Sturm certificate (distinct real roots counted over the integers); only
when the certificate fails is the residual root-found by 400-bit
mpmath.polyroots.

Each campaign is a sequence of case specs plus a per-case body; one loop
(_run_cases) numbers, seeds, times and frames the cases of every campaign.
"""

from __future__ import annotations

import datetime as _dt
import functools
import io
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .biortho import EQUIV_ALPHA_HALF, transform_equivalence_check
from .errors import BadParameterError, SingularSystemError
from .polycore import (
    MONOMIAL,
    Poly,
    RootLocation,
    classify_roots,
    count_roots,
    jacobi_coefficient_rows,
    min_boundary_distance,
    monic_from_roots,
    nearest_double_root,
    poly_roots,
    primitive_part,
    root_bound,
    sturm_sequence,
)
from .precision import PrecisionPolicy, parse_precision
from .signreg import (
    JacobiGenKernel,
    UltraGenKernel,
    Verdict,
    draw_separated,
    ssr_scan,
)
from .transforms import (
    boundary_transform_exact,
    deflate_exact_root,
    jacobi_transform,
    ultra_transform,
)

CAMPAIGNS = ("theorem12", "conj32", "q31", "ssr", "biortho-equiv")

ROOT_MARGIN = 0.99  # random interior roots are drawn uniformly in (-margin, margin)

_DEFAULT_TOL = {
    "theorem12": 1e-8,
    "conj32": 1e-7,
    "q31": 1e-7,
    "ssr": 0.0,
    "biortho-equiv": 1e-6,
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs; echoed verbatim into its report."""

    campaign: str
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...] = (0.0,)
    deg_cap: int = 12
    trials: int = 100
    seed: int = 1
    precision: str = "double"
    m_max: int = 4
    tol: float | None = None

    def __post_init__(self):
        if self.campaign not in CAMPAIGNS:
            raise BadParameterError(f"unknown campaign {self.campaign!r}")
        if not (1 <= self.deg_cap <= 30):
            raise BadParameterError("deg_cap must be in [1, 30]")
        if self.trials < 1:
            raise BadParameterError("trials must be at least 1")
        if not self.alpha_grid or not self.beta_grid:
            raise BadParameterError("parameter grids must be non-empty")
        if self.campaign == "biortho-equiv" and -0.5 in self.alpha_grid:
            raise BadParameterError(EQUIV_ALPHA_HALF)

    @property
    def policy(self) -> PrecisionPolicy:
        return parse_precision(self.precision)

    @property
    def effective_tol(self) -> float:
        return self.tol if self.tol is not None else _DEFAULT_TOL[self.campaign]

    def echo(self) -> dict:
        return {
            "campaign": self.campaign,
            "alpha_grid": list(self.alpha_grid),
            "beta_grid": list(self.beta_grid),
            "deg_cap": self.deg_cap,
            "trials": self.trials,
            "seed": self.seed,
            "precision": self.precision,
            "m_max": self.m_max,
            "tol": self.effective_tol,
            "root_distribution": f"roots iid uniform(-{ROOT_MARGIN}, {ROOT_MARGIN})",
        }


@dataclass
class CampaignReport:
    config: dict
    cases: list[dict]
    summary: dict
    artifact_version: str = ARTIFACT_VERSION
    timestamp: str | None = None

    def to_dict(self, include_timing: bool = False) -> dict:
        cases = []
        for case in self.cases:
            case = dict(case)
            if not include_timing:
                case["wall_time_s"] = None
            cases.append(case)
        return {
            "config": self.config,
            "cases": cases,
            "summary": self.summary,
            "artifact_version": self.artifact_version,
            "timestamp": self.timestamp if include_timing else None,
        }


def _run_cases(config: CampaignConfig, specs, body) -> CampaignReport:
    """The case loop shared by every campaign.

    body(spec, rng, case_index) returns one case's fields. The loop numbers
    the cases, gives each a generator seeded with (seed, case_index), times
    the body, and frames its fields between case_index and wall_time_s (the
    JSON writer keeps insertion order).
    """
    cases = []
    for case_index, spec in enumerate(specs):
        rng = np.random.default_rng((config.seed, case_index))
        start = time.perf_counter()
        case = {"case_index": case_index, **body(spec, rng, case_index)}
        case["wall_time_s"] = time.perf_counter() - start
        cases.append(case)
    passes = sum(1 for c in cases if c["outcome"] == "pass")
    violations = sum(1 for c in cases if c["outcome"] == "violation")
    indeterminates = sum(1 for c in cases if c["outcome"] == "indeterminate")
    assert passes + violations + indeterminates == len(cases)
    return CampaignReport(
        config=config.echo(),
        cases=cases,
        summary={
            "cases": len(cases),
            "passes": passes,
            "violations": violations,
            "indeterminates": indeterminates,
        },
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


def expected_case_count(config: CampaignConfig) -> int:
    """Case count implied by the config (reports must match it exactly)."""
    na, nb = len(config.alpha_grid), len(config.beta_grid)
    pairs = len(boundary_pairs(config.deg_cap))
    if config.campaign == "theorem12":
        return na * config.trials
    if config.campaign == "conj32":
        return na * nb * (pairs + config.trials)
    if config.campaign == "q31":
        return na * nb * pairs
    if config.campaign == "ssr":
        return nb + na * nb
    if config.campaign == "biortho-equiv":
        return na * config.trials
    raise BadParameterError(config.campaign)


def boundary_pairs(cap: int) -> list[tuple[int, int]]:
    """(n, m) exponent pairs with 1 <= n+m <= cap, in deterministic order."""
    return [(n, total - n) for total in range(1, cap + 1) for n in range(total + 1)]


def random_interior_roots(rng, degree: int, margin: float = ROOT_MARGIN) -> np.ndarray:
    return rng.uniform(-margin, margin, degree)


def poly_from_roots(roots) -> Poly:
    return Poly(tuple(monic_from_roots(roots)), MONOMIAL, tau_trim=0.0)


# ---------------------------------------------------------------------------
# exact route for the boundary-rooted family
# ---------------------------------------------------------------------------

def boundary_family_roots(
    n: int,
    m: int,
    alpha: float,
    beta: float,
    factorial: bool,
    policy: PrecisionPolicy,
    unit_interval: bool = False,
    rows=None,
) -> tuple[list[complex], dict]:
    """Roots of the transform image of (x-1)^n (x+1)^m that decide its verdicts.

    The parameters are taken as exact binary rationals, the transform runs
    in Fraction arithmetic (rows: exact Jacobi rows to reuse, see
    boundary_transform_exact) and roots at exactly +-1 are deflated. The
    residual's verdict is then an exact Sturm certificate: the distinct
    real roots of its squarefree part are counted in the open interval
    (-1, 1) when unit_interval is set, else over the whole line. If that
    count is the squarefree degree, every residual root is real (and
    inside), and only the smallest and largest distinct ones are returned,
    as the nearest doubles; together with the +-1 roots they fix every
    classification and boundary distance against (-1, 1). Otherwise the
    certificate fails and the residual goes to 400-bit mpmath.polyroots,
    which returns all of its roots.
    """
    coeffs = boundary_transform_exact(n, m, alpha, beta, factorial, rows)
    coeffs, mult_plus = deflate_exact_root(coeffs, 1)
    coeffs, mult_minus = deflate_exact_root(coeffs, -1)
    roots: list[complex] = [complex(1.0)] * mult_plus + [complex(-1.0)] * mult_minus
    detail = {"mult_plus": mult_plus, "mult_minus": mult_minus,
              "residual_degree": len(coeffs) - 1}
    if len(coeffs) > 1:
        extremes = _certified_extremes(primitive_part(coeffs), unit_interval)
        roots.extend(extremes if extremes is not None else _residual_roots(coeffs, policy))
    return roots, detail


def _certified_extremes(p: list[int], unit_interval: bool) -> list[complex] | None:
    """Nearest doubles of the smallest and largest distinct roots of p when
    every root is certified real (and inside (-1, 1) if unit_interval),
    else None.

    Sturm counts cover (lo, hi], so neither end may be a root: p has none
    at +-1 after deflation, and none at or beyond its Cauchy bound.
    """
    if unit_interval:
        lo, hi = -1, 1
    else:
        hi = root_bound(p)
        lo = -hi
    seq = sturm_sequence(p)
    distinct = len(seq[0]) - 1
    if count_roots(seq, lo, hi) != distinct:
        return None
    return [complex(nearest_double_root(seq, lo, hi, i)) for i in sorted({0, distinct - 1})]


def _residual_roots(coeffs, policy: PrecisionPolicy) -> list[complex]:
    """All roots of a rational polynomial by mpmath.polyroots at >= 400 bits."""
    bits = max(policy.bits or 0, 400)
    with mpmath.workprec(bits):
        mp_coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                     for c in coeffs[::-1]]
        found = mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=bits)
    return [complex(r) for r in found]


@functools.lru_cache(maxsize=1)
def _exact_rows(deg_cap: int, alpha: float, beta: float):
    """Exact Jacobi rows at deg_cap; a sweep visits one grid point at a time."""
    return jacobi_coefficient_rows(deg_cap, Fraction(alpha), Fraction(beta))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_theorem12_campaign(config: CampaignConfig) -> CampaignReport:
    """Proven zero-preservation sweep: random interior-rooted inputs through
    the factorial-scaled symmetric transform; every case must classify as
    strictly inside (-1, 1)."""
    policy = config.policy
    tol = config.effective_tol

    def case(alpha, rng, _):
        degree = int(rng.integers(1, config.deg_cap + 1))
        f = poly_from_roots(random_interior_roots(rng, degree))
        image = ultra_transform(f, alpha)
        report = classify_roots(poly_roots(image, policy), (-1.0, 1.0), tol)
        ok = report.classification is RootLocation.ALL_STRICTLY_INSIDE
        return {
            "parameters": {"alpha": alpha},
            "input": f"random_interior(degree={degree})",
            "degree": degree,
            "classification": report.classification.value,
            "min_boundary_distance": min_boundary_distance(report.roots, (-1.0, 1.0)),
            "proven": True,
            "outcome": "pass" if ok else "violation",
        }

    return _run_cases(
        config, (a for a in config.alpha_grid for _ in range(config.trials)), case)


def _classify_closed(roots, tol: float) -> tuple[bool, RootLocation]:
    """Closed-interval acceptance for boundary-rooted inputs, plus the
    strict-interior flag from the open-interval classification."""
    open_report = classify_roots(roots, (-1.0, 1.0), tol) if roots else None
    in_closed = all(
        abs(r.imag) <= tol and -1.0 - tol <= r.real <= 1.0 + tol for r in roots
    )
    flag = open_report.classification if open_report else RootLocation.ALL_STRICTLY_INSIDE
    return in_closed, flag


def run_conjecture32_campaign(config: CampaignConfig) -> CampaignReport:
    """Conjectured zero preservation for the two-parameter expansion.

    Boundary-rooted inputs (x-1)^n (x+1)^m are judged against the closed
    interval (their zeros sit on the boundary, so no open-interval promise
    applies) with the strict-interior flag recorded; random interior-rooted
    inputs of degree < 10 are judged against the open interval.
    """
    policy = config.policy
    tol = config.effective_tol

    def case(spec, rng, _):
        alpha, beta, pair = spec
        if pair is not None:
            n, m = pair
            roots, detail = boundary_family_roots(
                n, m, alpha, beta, False, policy, unit_interval=True,
                rows=_exact_rows(config.deg_cap, alpha, beta))
            in_closed, flag = _classify_closed(roots, tol)
            text, degree, family = f"(x-1)^{n} (x+1)^{m}", n + m, "boundary"
            outcome = "pass" if in_closed else "violation"
        else:
            degree = int(rng.integers(1, 10))
            f = poly_from_roots(random_interior_roots(rng, degree))
            image = jacobi_transform(f, alpha, beta)
            report = classify_roots(poly_roots(image, policy), (-1.0, 1.0), tol)
            roots, detail, flag = report.roots, None, report.classification
            text, family = f"random_interior(degree={degree})", "random"
            in_closed = flag in (RootLocation.ALL_STRICTLY_INSIDE, RootLocation.SOME_ON_BOUNDARY)
            outcome = ("pass" if flag is RootLocation.ALL_STRICTLY_INSIDE
                       else "indeterminate" if flag is RootLocation.SOME_ON_BOUNDARY
                       else "violation")
        return {
            "parameters": {"alpha": alpha, "beta": beta},
            "input": text,
            "degree": degree,
            "family": family,
            "exploratory": not (float(alpha).is_integer() and float(beta).is_integer()
                                and alpha >= 0 and beta >= 0),
            "classification": flag.value,
            "in_closed_interval": in_closed,
            "min_boundary_distance": min_boundary_distance(roots, (-1.0, 1.0)),
            "detail": detail,
            "proven": False,
            "outcome": outcome,
        }

    pairs = boundary_pairs(config.deg_cap) + [None] * config.trials
    return _run_cases(config, (
        (alpha, beta, pair)
        for alpha in config.alpha_grid for beta in config.beta_grid for pair in pairs
    ), case)


def run_question31_campaign(config: CampaignConfig) -> CampaignReport:
    """Real-rootedness survey for the factorial-normalized two-parameter
    expansion over a grid that may include negative parameters; evidence
    gathering only, with per-parameter violation counts."""
    policy = config.policy
    tol = config.effective_tol

    def case(spec, rng, _):
        alpha, beta, (n, m) = spec
        roots, detail = boundary_family_roots(
            n, m, alpha, beta, True, policy, rows=_exact_rows(config.deg_cap, alpha, beta))
        max_imag = max((abs(r.imag) for r in roots), default=0.0)
        real_rooted = max_imag <= tol
        return {
            "parameters": {"alpha": alpha, "beta": beta},
            "input": f"(x-1)^{n} (x+1)^{m}",
            "degree": n + m,
            "family": "boundary",
            "exploratory": alpha < 0 or beta < 0,
            "classification": "real_rooted" if real_rooted else "some_non_real",
            "max_imag": max_imag,
            "min_boundary_distance": None,
            "detail": detail,
            "proven": False,
            "outcome": "pass" if real_rooted else "violation",
        }

    pairs = boundary_pairs(config.deg_cap)
    report = _run_cases(config, (
        (alpha, beta, pair)
        for alpha in config.alpha_grid for beta in config.beta_grid for pair in pairs
    ), case)
    per_parameter: dict[str, int] = {}
    for c in report.cases:
        key = "alpha={alpha:g},beta={beta:g}".format(**c["parameters"])
        per_parameter[key] = per_parameter.get(key, 0) + (c["outcome"] == "violation")
    report.summary["per_parameter_violations"] = per_parameter
    return report


def run_ssr_explore(config: CampaignConfig) -> CampaignReport:
    """Sign-pattern survey: the one-parameter generating kernel over the
    beta grid (negative beta included) and the two-parameter kernel over
    the (alpha, beta) grid; inferred sign tables are recorded per order."""
    policy = config.policy

    def case(spec, rng, case_index):
        kernel, proven = spec
        rep = ssr_scan(kernel, config.m_max, config.trials,
                       seed=config.seed + case_index, policy=policy)
        if rep.verdict is Verdict.VIOLATION_FOUND:
            outcome = "violation"
        elif rep.verdict is Verdict.INCONCLUSIVE:
            outcome = "indeterminate"
        else:
            outcome = "pass"
        return {
            "parameters": {"kernel": rep.kernel},
            "input": rep.kernel,
            "verdict": rep.verdict.value,
            "signs": rep.signs(),
            "per_m": [{
                "m": s.m, "positive": s.positive, "negative": s.negative,
                "indeterminate": s.indeterminate, "min_abs_det": s.min_abs_det,
                "violations": s.violations,
            } for s in rep.per_m],
            "min_boundary_distance": None,
            "proven": proven,
            "outcome": outcome,
        }

    specs = [(UltraGenKernel(beta=beta), beta > 0) for beta in config.beta_grid]
    specs += [(JacobiGenKernel(alpha=alpha, beta=beta), False)
              for alpha in config.alpha_grid for beta in config.beta_grid]
    return _run_cases(config, specs, case)


def run_biortho_equiv_campaign(config: CampaignConfig) -> CampaignReport:
    """Equivalence of the factorial-scaled transform with the biorthogonal
    construction at the input's roots; deviations above tol are violations
    (the equivalence is proven, so any violation is a defect)."""
    policy = config.policy
    tol = config.effective_tol
    deg_cap = min(config.deg_cap, 6)

    def case(alpha, rng, _):
        degree = int(rng.integers(1, deg_cap + 1))
        f = poly_from_roots(draw_separated(rng, -0.95, 0.95, degree, sep=0.05))
        try:
            deviation = transform_equivalence_check(f, alpha, policy)
            outcome = "pass" if deviation <= tol else "violation"
            detail = None
        except SingularSystemError as exc:
            # rare compounded node clusters trip the conservative
            # regularity threshold; report instead of aborting the sweep
            deviation = None
            outcome = "indeterminate"
            detail = str(exc)
        return {
            "parameters": {"alpha": alpha},
            "input": f"random_interior_distinct(degree={degree})",
            "degree": degree,
            "deviation": deviation,
            "detail": detail,
            "min_boundary_distance": None,
            "proven": True,
            "outcome": outcome,
        }

    return _run_cases(
        config, (a for a in config.alpha_grid for _ in range(config.trials)), case)


RUNNERS = {
    "theorem12": run_theorem12_campaign,
    "conj32": run_conjecture32_campaign,
    "q31": run_question31_campaign,
    "ssr": run_ssr_explore,
    "biortho-equiv": run_biortho_equiv_campaign,
}


def run_campaign(config: CampaignConfig) -> CampaignReport:
    return RUNNERS[config.campaign](config)


def has_proven_violation(report: CampaignReport) -> bool:
    return any(c["outcome"] == "violation" and c.get("proven") for c in report.cases)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def format_number(value) -> str:
    """Numbers rendered with 17 significant digits (floats round-trip)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _write_json(obj, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.write("null")
    elif isinstance(obj, (int, float)):  # bool included
        out.write(format_number(obj))
    elif isinstance(obj, str):
        out.write(_json_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.write(f"{pad}  {_json_escape(str(key))}: ")
            _write_json(value, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, value in enumerate(obj):
            out.write(pad + "  ")
            _write_json(value, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "]")
    else:
        raise BadParameterError(f"cannot serialize {type(obj).__name__}")


def _json_escape(text: str) -> str:
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


def report_to_json(report_dict: dict) -> str:
    buf = io.StringIO()
    _write_json(report_dict, buf, 0)
    buf.write("\n")
    return buf.getvalue()


def _flatten_case(case: dict) -> dict:
    flat = {}
    for key, value in case.items():
        if isinstance(value, dict):
            for sub, subval in value.items():
                flat[f"{key}.{sub}"] = subval
        elif isinstance(value, (list, tuple)):
            flat[key] = ";".join(
                format_number(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                else str(v)
                for v in value
            )
        else:
            flat[key] = value
    return flat


def report_to_csv(report_dict: dict) -> str:
    """One row per case; nested per-case dicts are dot-flattened."""
    cases = [_flatten_case(c) for c in report_dict["cases"]]
    columns: list[str] = []
    for case in cases:
        for key in case:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for case in cases:
        row = []
        for col in columns:
            value = case.get(col)
            if value is None:
                row.append("")
            elif isinstance(value, (int, float)):  # bool included
                row.append(format_number(value))
            else:
                text = str(value)
                if any(ch in text for ch in ",\"\n"):
                    text = '"' + text.replace('"', '""') + '"'
                row.append(text)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt: str, path, include_timing: bool = False) -> None:
    """Serialize a report (CampaignReport or an already-parsed dict) to disk."""
    if isinstance(report, CampaignReport):
        payload = report.to_dict(include_timing=include_timing)
    else:
        payload = report
    if fmt == "json":
        text = report_to_json(payload)
    elif fmt == "csv":
        text = report_to_csv(payload)
    else:
        raise BadParameterError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def run_selftest(precision: str = "double") -> list[tuple[str, bool, str]]:
    """Quick end-to-end checks: the two printed-form resolutions plus a small
    run of every campaign. Returns (name, ok, detail) triples."""
    from .orthopoly import resolve_diag_constant, resolve_ultra_derived_factor

    results = []

    res = resolve_ultra_derived_factor(1.0)
    results.append((
        "derived-kernel per-degree factor",
        res["resolved"] == "2k+2a+1" and res["dev_2k_2a_1"] < 1e-9,
        f"resolved {res['resolved']} (dev {res['dev_2k_2a_1']:.2e})",
    ))
    res = resolve_diag_constant(3, 0.5)
    results.append((
        "diagonal orthogonality constant",
        res["resolved"] == "2^(1+2a)" and res["dev_2pow_1_2a"] < 1e-8,
        f"resolved {res['resolved']} (dev {res['dev_2pow_1_2a']:.2e})",
    ))

    minis = [
        CampaignConfig("theorem12", alpha_grid=(0.0, 1.0), deg_cap=8,
                       trials=40, seed=11, precision=precision),
        CampaignConfig("conj32", alpha_grid=(0.0, 1.0), beta_grid=(0.0, 1.0),
                       deg_cap=6, trials=15, seed=11, precision=precision),
        CampaignConfig("q31", alpha_grid=(0.0, 2.0), beta_grid=(0.0, 2.0),
                       deg_cap=6, trials=1, seed=11, precision=precision),
        CampaignConfig("ssr", alpha_grid=(0.0,), beta_grid=(1.5, -0.5),
                       m_max=3, trials=120, seed=11, precision=precision),
        CampaignConfig("biortho-equiv", alpha_grid=(0.0, 1.0), deg_cap=5,
                       trials=8, seed=11, precision=precision),
    ]
    for config in minis:
        report = run_campaign(config)
        bad = (has_proven_violation(report) if config.campaign == "ssr"
               else report.summary["violations"] > 0)
        count_ok = report.summary["cases"] == expected_case_count(config)
        results.append((
            f"campaign {config.campaign}",
            (not bad) and count_ok,
            f"{report.summary['cases']} cases, "
            f"{report.summary['passes']} passes, "
            f"{report.summary['violations']} violations",
        ))
    return results
