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
deflated by integer synthetic division. One polycore function, verdicts,
decides where the roots of every image of theorem12, conj32 and q31 lie:
first by one batched sign-change certificate over the whole line, whose
points the comrade-matrix eigenvalues of the random interior-rooted inputs
pick, and the companion-matrix eigenvalues of the boundary family's
residuals; then, where it fails, by exact Sturm counts. harness itself
builds no Sturm sequence. The inputs of a grid point are decided in
batches of equal degree. No verdict rests on a rounded image or a root
finder.
biortho-equiv checks its identity exactly, on the same integer rows
(transform_equivalence_check).

Each campaign is a sequence of groups of case specs plus a body that
decides one group; one loop (_run_cases) numbers, seeds, times and frames
the cases of every campaign.
"""

from __future__ import annotations

import datetime as _dt
import functools
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .biortho import EQUIV_ALPHA_HALF, transform_equivalence_check
from .errors import BadParameterError
from .polycore import (
    RootLocation,
    comrade_roots,
    deflate_root,
    diagnostic_roots,
    min_boundary_distance,
    monic_from_roots,
    primitive_part,
    verdicts,
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


def _run_cases(config: CampaignConfig, groups, body) -> CampaignReport:
    """The case loop shared by every campaign.

    groups is a sequence of lists of case specs, and body(specs,
    case_indices) returns the fields of each case of one group. The loop
    numbers the cases, times the body, and frames each case's fields
    between case_index and wall_time_s (the JSON writer keeps insertion
    order). A case's wall_time_s is its even share of its group's time. A
    body that draws builds each case's generator (_rng).
    """
    cases = []
    for specs in groups:
        indices = range(len(cases), len(cases) + len(specs))
        start = time.perf_counter()
        fields = body(specs, indices)
        share = (time.perf_counter() - start) / len(specs)
        cases.extend({"case_index": case_index, **case, "wall_time_s": share}
                     for case_index, case in zip(indices, fields))
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


def _rng(config: CampaignConfig, case_index: int) -> np.random.Generator:
    """The generator of the case case_index, seeded with (seed, case_index)."""
    return np.random.default_rng((config.seed, case_index))


def _run_each(config: CampaignConfig, specs, body) -> CampaignReport:
    """_run_cases with every case a group of one: body(spec, case_index)
    returns one case's fields."""
    return _run_cases(config, ([spec] for spec in specs),
                      lambda group, indices: [body(group[0], indices[0])])


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


# ---------------------------------------------------------------------------
# exact images (polycore decides where their roots lie)
# ---------------------------------------------------------------------------

def boundary_family_roots(n: int, m: int, rows: list[list[int]]) -> tuple[list[int], dict]:
    """The roots of the integer image of (x-1)^n (x+1)^m, in two parts.

    rows are the map's integer rows (jacobi_rows_int) at any degree >= n+m.
    The image's roots at exactly +-1 are deflated, and detail records their
    multiplicities; the primitive integer residual holds the rest.
    """
    residual = exact_image([1.0] * n + [-1.0] * m, rows)
    residual, mult_plus = deflate_root(residual, 1)
    residual, mult_minus = deflate_root(residual, -1)
    return primitive_part(residual), {"mult_plus": mult_plus, "mult_minus": mult_minus,
                                      "residual_degree": len(residual) - 1}


def _random_interior_verdicts(rngs, degrees, rows, alpha, beta, scale, tol) -> list:
    """polycore.verdicts on random interior-rooted inputs, one drawn from
    each generator at its degree: the exact image through rows, with the
    comrade-matrix roots of sum_k a_k scale(k, alpha) P_k^(alpha,beta)
    picking the certificate's points.

    The inputs of one degree are decided together: their monic products
    and comrade matrices are stacked, one eigvals call gives every
    estimate, and one filtered_signs pass the certificate's signs. Only one
    degree's integer images are held at a time.
    """
    roots = [random_interior_roots(rng, degree) for rng, degree in zip(rngs, degrees)]
    found = [None] * len(roots)
    for degree in sorted(set(degrees)):
        group = [c for c, d in enumerate(degrees) if d == degree]
        # over the rows of the transposed stack, each coefficient is an
        # array over the group's cases (the leading one stays the int 1)
        monic = monic_from_roots(np.array([roots[c] for c in group]).T)
        scales = np.array([scale(k, alpha) for k in range(degree + 1)], dtype=float)
        approx = comrade_roots(np.stack(np.broadcast_arrays(*monic), axis=1) * scales,
                               alpha, beta)
        images = [exact_image(roots[c], rows) for c in group]
        for c, verdict in zip(group, verdicts(images, tol, approx)):
            found[c] = verdict
    return found


# A sweep visits one grid point at a time, so one set of rows is cached,
# keyed on (deg_cap, alpha, beta, scale): the scale tells the campaigns apart.
_rows = functools.lru_cache(maxsize=1)(jacobi_rows_int)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_theorem12_campaign(config: CampaignConfig) -> CampaignReport:
    """Proven zero-preservation sweep: random interior-rooted inputs through
    the factorial-scaled symmetric transform; every case must classify as
    strictly inside (-1, 1) (by tol). A root in the band [1 - tol, 1 + tol]
    or its mirror may lie inside (-1, 1), as the theorem says it does, so
    some_on_boundary is indeterminate; only a root outside the closed band
    or a non-real root is a violation.

    The image is computed exactly, as integers (exact_image), and its
    verdict comes from polycore.verdicts: the comrade-matrix roots of the
    double image only pick the points of a sign-change certificate, and
    Sturm counts decide where it fails. min_boundary_distance comes from
    the nearest doubles of the smallest and largest roots.
    """
    tol = config.effective_tol

    def cases(alphas, indices):
        alpha = alphas[0]
        rngs = [_rng(config, i) for i in indices]
        degrees = [int(rng.integers(1, config.deg_cap + 1)) for rng in rngs]
        decided = _random_interior_verdicts(
            rngs, degrees, _rows(config.deg_cap, alpha, alpha, ultra_row_scale), alpha, alpha,
            factorial_scale, tol)
        return [{
            "parameters": {"alpha": alpha},
            "input": f"random_interior(degree={degree})",
            "degree": degree,
            "classification": classification.value,
            "min_boundary_distance": min_boundary_distance(found, (-1.0, 1.0)),
            "proven": True,
            "outcome": ("pass" if classification is RootLocation.ALL_STRICTLY_INSIDE
                        else "indeterminate" if classification is RootLocation.SOME_ON_BOUNDARY
                        else "violation"),
        } for degree, (classification, found) in zip(degrees, decided)]

    # the trials of one alpha are one group
    return _run_cases(config, ([a] * config.trials for a in config.alpha_grid), cases)


def run_conjecture32_campaign(config: CampaignConfig) -> CampaignReport:
    """Conjectured zero preservation for the two-parameter expansion.

    Boundary-rooted inputs (x-1)^n (x+1)^m are judged against the closed
    interval (their zeros sit on the boundary, so no open-interval promise
    applies) with the strict-interior flag recorded; random interior-rooted
    inputs of degree < 10 are judged against the open interval. Both take
    their verdicts from the exact integer image.
    """
    tol = config.effective_tol
    closed = (RootLocation.ALL_STRICTLY_INSIDE, RootLocation.SOME_ON_BOUNDARY)

    def cases(specs, indices):
        alpha, beta, pair = specs[0]
        # one set of rows per grid point serves the pairs and the random
        # inputs, whose degree is below 10
        rows = _rows(max(config.deg_cap, 9), alpha, beta, unit_row_scale)
        if pair is not None:  # the boundary pairs of a grid point are one group
            found = [boundary_family_roots(n, m, rows) for *_, (n, m) in specs]
            # a pair with a root at +-1 has distance 0 already, so the
            # residual's roots are not read
            ends = [[1 + 0j] * d["mult_plus"] + [-1 + 0j] * d["mult_minus"] for _, d in found]
            decided = verdicts([r for r, _ in found], tol, read_roots=[not e for e in ends])
            out = []
            for (*_, (n, m)), (_, detail), at_ends, (flag, roots) in zip(
                    specs, found, ends, decided):
                if at_ends and flag is RootLocation.ALL_STRICTLY_INSIDE:
                    flag = RootLocation.SOME_ON_BOUNDARY
                out.append((f"(x-1)^{n} (x+1)^{m}", n + m, "boundary", flag, at_ends or roots,
                            detail, "pass" if flag in closed else "violation"))
        else:  # the random inputs of a grid point are one group
            rngs = [_rng(config, i) for i in indices]
            degrees = [int(rng.integers(1, 10)) for rng in rngs]
            out = [(f"random_interior(degree={degree})", degree, "random", flag, roots, None,
                    "pass" if flag is RootLocation.ALL_STRICTLY_INSIDE
                    else "indeterminate" if flag is RootLocation.SOME_ON_BOUNDARY
                    else "violation")
                   for degree, (flag, roots) in zip(degrees, _random_interior_verdicts(
                       rngs, degrees, rows, alpha, beta, unit_row_scale, tol))]
        exploratory = not (float(alpha).is_integer() and float(beta).is_integer()
                           and alpha >= 0 and beta >= 0)
        return [{
            "parameters": {"alpha": alpha, "beta": beta},
            "input": text,
            "degree": degree,
            "family": family,
            "exploratory": exploratory,
            "classification": flag.value,
            "in_closed_interval": flag in closed,
            "min_boundary_distance": min_boundary_distance(roots, (-1.0, 1.0)),
            "detail": detail,
            "proven": False,
            "outcome": outcome,
        } for text, degree, family, flag, roots, detail, outcome in out]

    pairs = boundary_pairs(config.deg_cap)
    return _run_cases(config, (
        group
        for alpha in config.alpha_grid for beta in config.beta_grid
        for group in ([(alpha, beta, p) for p in pairs], [(alpha, beta, None)] * config.trials)
    ), cases)


def run_question31_campaign(config: CampaignConfig) -> CampaignReport:
    """Real-rootedness survey for the factorial-normalized two-parameter
    expansion over a grid that may include negative parameters; evidence
    gathering only, with per-parameter violation counts.

    The pairs of one grid point are one group. A residual is real-rooted
    unless polycore.verdicts finds a non-real root (by its sign-change
    certificate, or by Sturm counts where that fails). A non-real
    residual's max_imag is a diagnostic, read from its double eigenvalues.
    """
    tol = config.effective_tol

    def cases(specs, _):
        alpha, beta = specs[0][:2]
        rows = _rows(config.deg_cap, alpha, beta, factorial_row_scale)
        found = [boundary_family_roots(n, m, rows) for *_, (n, m) in specs]
        decided = verdicts([residual for residual, _ in found], tol,
                           read_roots=[False] * len(found))
        out = []
        for (*_, (n, m)), (residual, detail), (flag, _) in zip(specs, found, decided):
            real_rooted = flag is not RootLocation.SOME_NON_REAL
            max_imag = 0.0 if real_rooted else max(abs(r.imag) for r in diagnostic_roots(residual))
            out.append({
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
            })
        return out

    pairs = boundary_pairs(config.deg_cap)
    report = _run_cases(config, (
        [(alpha, beta, pair) for pair in pairs]
        for alpha in config.alpha_grid for beta in config.beta_grid
    ), cases)
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

    def case(spec, case_index):
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
                "min_abs_det_exp2": s.min_abs_det_exp2, "violations": s.violations,
            } for s in rep.per_m],
            "min_boundary_distance": None,
            "proven": proven,
            "outcome": outcome,
        }

    specs = [(UltraGenKernel(beta=beta), beta > 0) for beta in config.beta_grid]
    specs += [(JacobiGenKernel(alpha=alpha, beta=beta), False)
              for alpha in config.alpha_grid for beta in config.beta_grid]
    return _run_each(config, specs, case)


def run_biortho_equiv_campaign(config: CampaignConfig) -> CampaignReport:
    """Equivalence of the factorial-scaled transform with the biorthogonal
    construction at the input's roots. deviation is the exact relative
    residual of transform_equivalence_check, rounded once: 0.0 exactly when
    the identity holds. A case passes when it is at most tol, so every
    violation is certified (the equivalence is proven, so any violation is
    a defect), and no case is indeterminate."""
    tol = config.effective_tol
    deg_cap = min(config.deg_cap, 6)

    def case(alpha, case_index):
        rng = _rng(config, case_index)
        degree = int(rng.integers(1, deg_cap + 1))
        nodes = draw_separated(rng, -0.95, 0.95, degree, sep=0.05)[0]
        deviation = transform_equivalence_check(nodes, alpha)
        return {
            "parameters": {"alpha": alpha},
            "input": f"random_interior_distinct(degree={degree})",
            "degree": degree,
            "deviation": deviation,
            "min_boundary_distance": None,
            "proven": True,
            "outcome": "pass" if deviation <= tol else "violation",
        }

    return _run_each(
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


# the characters JSON requires escaped; everything else is written as is
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_JSON_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_JSON_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\"})


def _json_escape(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return '"' + text + '"'
    return '"' + text.translate(_JSON_ESCAPES) + '"'


# exact-type formatters, equal to format_number and _json_escape on these
# types; subclasses (numpy scalars, str enums) take the isinstance route
_SCALARS = {
    float: "{:.17g}".format,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def report_to_json(report_dict: dict) -> str:
    """The report as indented JSON with keys in insertion order.

    Strings are escaped once per distinct value, and the line starts
    '<indent>"key": ' of a dict once per indent and key tuple, so the many
    cases of one shape format little more than their numbers.
    """
    heads = {}
    scalars = dict(_SCALARS)
    scalars[str] = functools.cache(_json_escape)
    formatter = scalars.get

    def render(obj, pad: str) -> str:
        scalar = formatter(type(obj))
        if scalar is not None:
            return scalar(obj)
        if isinstance(obj, (int, float)):  # bool included
            return format_number(obj)
        if isinstance(obj, str):
            return _json_escape(obj)
        inner = pad + "  "
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            shape = (pad, *obj)
            starts = heads.get(shape)
            if starts is None:
                starts = [f"{inner}{_json_escape(str(key))}: " for key in obj]
                if all(type(key) is str for key in obj):  # 1 and True would share a shape
                    heads[shape] = starts
            items = [start + (scalar(value) if (scalar := formatter(type(value)))
                              else render(value, inner))
                     for start, value in zip(starts, obj.values())]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            items = [inner + (scalar(value) if (scalar := formatter(type(value)))
                              else render(value, inner))
                     for value in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise BadParameterError(f"cannot serialize {type(obj).__name__}")

    return render(report_dict, "") + "\n"


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
