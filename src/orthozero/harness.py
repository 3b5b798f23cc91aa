"""Campaign runner: seeded, reproducible experiment sweeps over the
transforms and kernels, with machine-readable JSON/CSV reports.

Reports are byte-identical for identical config+seed: volatile fields
(timestamp, per-case wall time) are carried in memory but serialized as
null unless timing output is explicitly requested.

Every double is an exact binary rational, so the images of inputs given by
double roots are computed exactly, in Python ints: the campaign's map as
integer Jacobi rows (jacobi_rows_int, one set cached per grid point) and
the image through them (exact_image). The boundary-rooted family
(x-1)^n (x+1)^m needs that: its images have roots at +-1 of high
multiplicity, which float coefficients perturb by roughly
eps^(1/multiplicity), far beyond the campaign tolerances. Those roots are
deflated by integer synthetic division, and the residual's verdict is an
exact Sturm certificate; only when it fails is the residual root-found by
400-bit mpmath.polyroots.

theorem12's interior-rooted inputs have double roots too. Approximate roots
(comrade-matrix eigenvalues) only pick the points of a sign-change
certificate, whose exact signs decide the verdict; when it fails, the Sturm
count and then 400-bit polyroots take over, as for the boundary family. No
theorem12 verdict rests on a rounded image.

Each campaign is a sequence of case specs plus a per-case body; one loop
(_run_cases) numbers, seeds, times and frames the cases of every campaign.
"""

from __future__ import annotations

import datetime as _dt
import functools
import io
import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .biortho import EQUIV_ALPHA_HALF, transform_equivalence_check
from .errors import BadParameterError, SingularSystemError
from .polycore import (
    MONOMIAL,
    Poly,
    RootLocation,
    certify_interior_roots,
    classify_roots,
    count_roots,
    deflate_root,
    jacobi_series_roots,
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
    exact_image,
    factorial_row_scale,
    factorial_scale,
    jacobi_rows_int,
    jacobi_transform,
    ultra_row_scale,
    unit_row_scale,
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
        for name, grid in (("alpha_grid", self.alpha_grid), ("beta_grid", self.beta_grid)):
            if not all(math.isfinite(v) for v in grid):
                raise BadParameterError(f"{name} values must be finite, got {list(grid)}")
        if self.tol is not None and not 0 < self.tol < 1:
            raise BadParameterError(f"tol must lie in (0, 1), got {self.tol}")
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
    rows: list[list[int]],
    policy: PrecisionPolicy,
    unit_interval: bool = False,
) -> tuple[list[complex], dict]:
    """Roots of the transform image of (x-1)^n (x+1)^m that decide its verdicts.

    rows are the map's integer rows (jacobi_rows_int) at any degree >= n+m.
    The integer image's roots at exactly +-1 are deflated, and the
    residual's verdict is an exact Sturm certificate: the distinct real
    roots of its squarefree part are counted in the open interval (-1, 1)
    when unit_interval is set, else over the whole line. If that count is
    the squarefree degree, every residual root is real (and inside). On
    (-1, 1) the nearest doubles of the smallest and largest distinct ones
    are then returned; with the +-1 roots they fix every classification and
    boundary distance against (-1, 1). Over the line none is returned, as
    the roots at +-1 are all that is left to report. Otherwise the residual
    goes to 400-bit mpmath.polyroots, which returns all of its roots.
    """
    residual = exact_image([1.0] * n + [-1.0] * m, rows)
    residual, mult_plus = deflate_root(residual, 1)
    residual, mult_minus = deflate_root(residual, -1)
    roots: list[complex] = [complex(1.0)] * mult_plus + [complex(-1.0)] * mult_minus
    detail = {"mult_plus": mult_plus, "mult_minus": mult_minus,
              "residual_degree": len(residual) - 1}
    if len(residual) > 1:
        p = primitive_part(residual)
        extremes = _certified_extremes(p, unit_interval)
        roots.extend(extremes if extremes is not None else _residual_roots(p, policy))
    return roots, detail


def _certified_extremes(p: list[int], unit_interval: bool) -> list[complex] | None:
    """None unless every root of p is certified real (and inside (-1, 1) if
    unit_interval); else, on (-1, 1), the nearest doubles of the smallest
    and largest distinct roots, and over the line no root at all.

    Sturm counts cover half-open intervals (lo, hi], so neither end may be
    a root: p has none at +-1 after deflation, and none at or beyond its
    Cauchy bound.
    """
    seq = sturm_sequence(p)
    distinct = len(seq[0]) - 1
    if not unit_interval:
        bound = root_bound(p)
        return [] if count_roots(seq, -bound, bound) == distinct else None
    if count_roots(seq, -1, 1) != distinct:
        return None
    return [complex(nearest_double_root(seq, -1, 1, i)) for i in sorted({0, distinct - 1})]


def _residual_roots(p: list[int], policy: PrecisionPolicy) -> list[complex]:
    """All roots of an integer polynomial by mpmath.polyroots at >= 400 bits
    (policy.bits when larger)."""
    bits = max(policy.bits or 0, 400)
    with mpmath.workprec(bits):
        found = mpmath.polyroots([mpmath.mpf(c) for c in p[::-1]],
                                 maxsteps=200, extraprec=bits)
    return [complex(r) for r in found]


def certified_interior_verdict(
    image: list[int], approx, tol: float, policy: PrecisionPolicy
) -> tuple[RootLocation, list]:
    """Classification of the integer polynomial image's roots against
    (-1, 1) with tolerance tol, plus the roots it was read from.

    First the sign-change certificate, with approx (root estimates) picking
    its points: if it holds, every root is real, simple and inside
    (-1 + tol, 1 - tol), and the nearest doubles of the extreme roots come
    back. Otherwise the exact Sturm count on (-1, 1) gives the extremes when
    all distinct roots lie there, and only when it does not are all roots
    found by polyroots at >= 400 bits. Those roots are then classified, so
    a violation is never read from a rounded image.
    """
    found = certify_interior_roots(image, approx, tol)
    if found is not None:
        return RootLocation.ALL_STRICTLY_INSIDE, found
    p = primitive_part(image)
    found = _certified_extremes(p, unit_interval=True) or _residual_roots(p, policy)
    return classify_roots(found, (-1.0, 1.0), tol).classification, found


# A sweep visits one grid point at a time, so one set of rows is cached,
# keyed on (deg_cap, alpha, beta, scale): the scale tells the campaigns apart.
_rows = functools.lru_cache(maxsize=1)(jacobi_rows_int)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_theorem12_campaign(config: CampaignConfig) -> CampaignReport:
    """Proven zero-preservation sweep: random interior-rooted inputs through
    the factorial-scaled symmetric transform; every case must classify as
    strictly inside (-1, 1) (by tol).

    The image is computed exactly, as integers (exact_image), and
    its verdict is certified (certified_interior_verdict): the comrade-matrix
    roots of the double image only pick the points of a sign-change
    certificate. min_boundary_distance comes from the nearest doubles of
    the smallest and largest roots. The policy sets only the bits of the
    polyroots fallback, which the certificate makes rare.
    """
    policy = config.policy
    tol = config.effective_tol

    def case(alpha, rng, _):
        degree = int(rng.integers(1, config.deg_cap + 1))
        roots = random_interior_roots(rng, degree)
        image = exact_image(roots, _rows(config.deg_cap, alpha, alpha, ultra_row_scale))
        weights = [a * factorial_scale(k, alpha) for k, a in enumerate(monic_from_roots(roots))]
        classification, found = certified_interior_verdict(
            image, jacobi_series_roots(weights, alpha, alpha), tol, policy)
        return {
            "parameters": {"alpha": alpha},
            "input": f"random_interior(degree={degree})",
            "degree": degree,
            "classification": classification.value,
            "min_boundary_distance": min_boundary_distance(found, (-1.0, 1.0)),
            "proven": True,
            "outcome": ("pass" if classification is RootLocation.ALL_STRICTLY_INSIDE
                        else "violation"),
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
                n, m, _rows(config.deg_cap, alpha, beta, unit_row_scale), policy,
                unit_interval=True)
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
            n, m, _rows(config.deg_cap, alpha, beta, factorial_row_scale), policy)
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
