"""Outside-in layer trace for the benchmark.

`install` wraps orthozero functions at the names their callers look them up
(harness imports `poly_roots`, `boundary_transform_exact` and others by
name, so patching the defining module alone would miss those calls). Each
call becomes a span: name, layer, start, end, parent and a few attributes
taken from its arguments or result. Spans stay in memory until the run ends.
A hook whose target no longer exists is reported as absent, and its metrics
read zero.

`layer_metrics` turns the spans of one traced campaign run into the
per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types


def _degree(args, result):
    return {"degree": args[0].degree}


def _escalation(args, result):
    return {"kept": complex(result) != complex(args[2])}


def _boundary(args, result):
    return {"residual_degree": result[1]["residual_degree"]}


def _scan(args, result):
    return {"determinate": sum(s.positive + s.negative for s in result.per_m),
            "trials": sum(s.trials for s in result.per_m)}


# (caller module, name as the caller looks it up, span name, layer, attributes)
HOOKS = (
    ("cli", "emit_report", "harness.serialize", "harness", None),
    ("harness", "CampaignReport.to_dict", "harness.serialize", "harness", None),
    ("harness", "boundary_family_roots", "harness.boundary", "harness", _boundary),
    ("harness", "mpmath.polyroots", "harness.residual_roots", "mpmath", None),
    ("harness", "boundary_transform_exact", "transforms.exact", "transforms", None),
    ("transforms", "jacobi_rows_exact", "transforms.rows_exact", "transforms", None),
    ("harness", "deflate_exact_root", "transforms.deflate", "transforms", None),
    ("harness", "ultra_transform", "transforms.double", "transforms", None),
    ("harness", "jacobi_transform", "transforms.double", "transforms", None),
    ("biortho", "ultra_transform", "transforms.double", "transforms", None),
    ("harness", "poly_roots", "polycore.roots", "polycore", _degree),
    ("biortho", "poly_roots", "polycore.roots", "polycore", _degree),
    ("polycore", "_newton_mp", "polycore.escalation", "polycore", _escalation),
    ("harness", "classify_roots", "polycore.classify", "polycore", None),
    ("harness", "ssr_scan", "signreg.scan", "signreg", _scan),
    ("signreg", "_det_double", "signreg.det", "signreg", None),
    ("signreg", "_det_extended", "signreg.det", "signreg", None),
    ("harness", "transform_equivalence_check", "biortho.equiv", "biortho", None),
    ("biortho", "_weighted_moments", "biortho.moments", "biortho", None),
    ("biortho", "_weighted_moment_block", "biortho.moment_block", "biortho", None),
    ("biortho", "biorthogonal_poly", "biortho.solve", "biortho", None),
    ("biortho", "gauss_jacobi_rule", "orthopoly.gauss_rule", "orthopoly", None),
)

ROOT = "harness.main"
LAYERS = ("harness", "transforms", "polycore", "signreg", "biortho", "orthopoly")


class Recorder:
    """Spans in call order: [name, layer, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, layer: str, attributes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if attributes is not None:
                try:
                    span[5] = attributes(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the attribute moved; the span itself still counts
            return result

        return traced


class _ModuleView(types.ModuleType):
    """A module as one caller sees it, with a single attribute replaced."""

    def __init__(self, module, attr, value):
        super().__init__(module.__name__)
        self._module = module
        setattr(self, attr, value)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(recorder: Recorder) -> list[str]:
    """Patch every hook in the loaded orthozero modules; return the absent ones."""
    absent = []
    for caller, dotted, name, layer, attributes in HOOKS:
        try:
            module = importlib.import_module(f"orthozero.{caller}")
        except ImportError:
            absent.append(f"{caller}.{dotted}")
            continue
        owner_name, _, attr = dotted.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        target = getattr(owner, attr, None) if owner is not None else None
        if not callable(target):
            absent.append(f"{caller}.{dotted}")
            continue
        wrapped = recorder.wrap(target, name, layer, attributes)
        if isinstance(owner, types.ModuleType) and owner is not module:
            # a library module the caller reaches through an attribute: give
            # only this caller a view of it, so other callers stay untraced
            setattr(module, owner_name, _ModuleView(owner, attr, wrapped))
        else:
            setattr(owner, attr, wrapped)
    return absent


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process, on spans read back from disk)
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def case_time_percentiles(case_times_s: list[float]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile). The tail is the highest percentile
    with at least ten cases beyond it; below 20 cases it is the maximum."""
    if not case_times_s:
        return 0.0, 0.0, 0.0
    ordered = sorted(case_times_s)
    n = len(ordered)
    index = n - 11 if n >= 20 else n - 1
    return 1e3 * statistics.median(ordered), 1e3 * ordered[index], 100.0 * (index + 1) / n


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, counts and self times from one traced run's spans."""
    covered = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        if layer in self_by_layer:
            self_by_layer[layer] += end - start - covered[i]
        if parent >= 0 and spans[parent][0] == name:
            continue  # nested call of the same span name is already inside its parent
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1

    def attrs(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    roots_ms = {"le12": [], "13_20": [], "21_30": []}
    for span in spans:
        if span[0] == "polycore.roots" and span[5] is not None:
            degree = span[5]["degree"]
            bucket = "le12" if degree <= 12 else "13_20" if degree <= 20 else "21_30"
            roots_ms[bucket].append(1e3 * (span[3] - span[2]))
    escalations = attrs("polycore.escalation")
    scans = attrs("signreg.scan")
    scan_trials = sum(s["trials"] for s in scans)
    minors = calls.get("signreg.det", 0)
    equiv_calls = calls.get("biortho.equiv", 0)

    metrics = {f"{layer}.self_s": value for layer, value in self_by_layer.items()}
    metrics.update({
        "harness.serialize_s": total.get("harness.serialize", 0.0),
        "harness.boundary_s": total.get("harness.boundary", 0.0),
        "harness.residual_roots_s": total.get("harness.residual_roots", 0.0),
        "harness.residual_roots_calls": calls.get("harness.residual_roots", 0),
        "harness.residual_degree_sum": sum(a["residual_degree"] for a in attrs("harness.boundary")),
        "transforms.exact_s": total.get("transforms.exact", 0.0),
        "transforms.exact_calls": calls.get("transforms.exact", 0),
        "transforms.rows_exact_s": total.get("transforms.rows_exact", 0.0),
        "transforms.rows_exact_calls": calls.get("transforms.rows_exact", 0),
        "transforms.deflate_s": total.get("transforms.deflate", 0.0),
        "transforms.double_s": total.get("transforms.double", 0.0),
        "transforms.double_calls": calls.get("transforms.double", 0),
        "polycore.roots_s": total.get("polycore.roots", 0.0),
        "polycore.roots_calls": calls.get("polycore.roots", 0),
        "polycore.roots_ms_le12": _median(roots_ms["le12"]),
        "polycore.roots_ms_13_20": _median(roots_ms["13_20"]),
        "polycore.roots_ms_21_30": _median(roots_ms["21_30"]),
        "polycore.escalations": calls.get("polycore.escalation", 0),
        "polycore.escalation_s": total.get("polycore.escalation", 0.0),
        "polycore.escalation_kept_frac":
            sum(a["kept"] for a in escalations) / len(escalations) if escalations else 0.0,
        "polycore.classify_s": total.get("polycore.classify", 0.0),
        "signreg.scan_s": total.get("signreg.scan", 0.0),
        "signreg.minors": minors,
        "signreg.minor_us": 1e6 * total.get("signreg.scan", 0.0) / minors if minors else 0.0,
        "signreg.det_s": total.get("signreg.det", 0.0),
        "signreg.determinate_frac":
            sum(s["determinate"] for s in scans) / scan_trials if scan_trials else 0.0,
        "biortho.equiv_s": total.get("biortho.equiv", 0.0),
        "biortho.moments_s": total.get("biortho.moments", 0.0),
        "biortho.moment_blocks": calls.get("biortho.moment_block", 0),
        "biortho.blocks_per_case":
            calls.get("biortho.moment_block", 0) / equiv_calls if equiv_calls else 0.0,
        "biortho.solve_s": total.get("biortho.solve", 0.0),
        "orthopoly.gauss_rule_s": total.get("orthopoly.gauss_rule", 0.0),
        "orthopoly.gauss_rule_builds": calls.get("orthopoly.gauss_rule", 0),
    })
    return metrics
