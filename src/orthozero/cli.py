"""Command-line harness: seeded campaign runs with JSON/CSV reports.

Exit codes: 0 when nothing proven was violated, 2 when a case contradicts a
proven statement (which would be an implementation defect), 1 on
operational errors (bad arguments, unreadable config, I/O failures).
"""

from __future__ import annotations

import argparse
import sys

from mpmath.libmp import NoConvergence

from .errors import OrthozeroError
from .harness import (
    CampaignConfig,
    emit_report,
    has_proven_violation,
    report_to_csv,
    report_to_json,
    run_campaign,
    run_selftest,
)
from .precision import parse_precision

CAMPAIGN_DEFAULTS = {
    "theorem12": dict(alpha=(-0.5, 0.0, 0.5, 1.0, 2.5), beta=(0.0,),
                      deg_cap=12, trials=1000, m_max=4),
    "conj32": dict(alpha=(0.0, 1.0, 2.0, 3.0, 4.0), beta=(0.0, 1.0, 2.0, 3.0, 4.0),
                   deg_cap=14, trials=200, m_max=4),
    "q31": dict(alpha=(-0.5, 0.0, 1.0, 2.0), beta=(-0.5, 0.0, 1.0, 2.0),
                deg_cap=14, trials=1, m_max=4),
    "ssr": dict(alpha=(0.0, 1.0), beta=(-0.5, 0.5, 1.5, 3.0),
                deg_cap=12, trials=500, m_max=5),
    "biortho-equiv": dict(alpha=(0.0, 1.0), beta=(0.0,),
                          deg_cap=6, trials=100, m_max=4),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_common_flags(sub):
    sub.add_argument("--alpha", type=float, nargs="+", default=None,
                     help="alpha grid values (explicit list)")
    sub.add_argument("--alpha-max", type=float, default=None,
                     help="extend the first --alpha value to a stepped range")
    sub.add_argument("--alpha-step", type=float, default=1.0)
    sub.add_argument("--beta", type=float, nargs="+", default=None,
                     help="beta grid values (explicit list)")
    sub.add_argument("--beta-max", type=float, default=None)
    sub.add_argument("--beta-step", type=float, default=1.0)
    sub.add_argument("--deg-cap", type=int, default=None,
                     help="degree cap (boundary family: max n+m)")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--m-max", type=int, default=None,
                     help="largest minor order for sign-regularity scans")
    sub.add_argument("--tol", type=float, default=None,
                     help="classification tolerance (campaign default if omitted)")
    sub.add_argument("--precision", type=str, default=None,
                     help='"double" or "extended:<bits>"')
    sub.add_argument("--out", type=str, default=None,
                     help="report path (stdout when omitted)")
    sub.add_argument("--format", type=str, choices=("json", "csv"), default=None)
    sub.add_argument("--config", type=str, default=None,
                     help="flat key = value file supplying defaults for these flags")
    sub.add_argument("--include-timing", action="store_true",
                     help="emit wall times and timestamp (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthozero",
                     description="zero-preserving transform and kernel campaigns")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("theorem12", "proven interior-zero preservation sweep (any violation is a defect)"),
        ("conj32", "conjectured zero preservation for the two-parameter expansion"),
        ("q31", "real-rootedness survey for the factorial-normalized expansion"),
        ("ssr", "sign-regularity scans of the generating kernels"),
        ("biortho-equiv", "transform vs biorthogonal-construction equivalence"),
    ]:
        sub = subs.add_parser(name, help=text)
        _add_common_flags(sub)
    selftest = subs.add_parser("selftest", help="quick end-to-end sanity run")
    selftest.add_argument("--precision", type=str, default="double")
    return parser


def load_config_file(path: str) -> dict:
    """Flat key = value file; keys mirror the flags (dashes or underscores)."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise OrthozeroError(f"config line without '=': {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _merge_config(args, file_values: dict) -> None:
    casts = {
        "alpha": _floats, "beta": _floats,
        "alpha_max": float, "beta_max": float,
        "alpha_step": float, "beta_step": float,
        "deg_cap": int, "trials": int, "seed": int, "m_max": int,
        "tol": float, "precision": str, "out": str, "format": str,
    }
    for key, raw in file_values.items():
        if key not in casts:
            raise OrthozeroError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, casts[key](raw))


def _grid(values, vmax, step, fallback):
    if values is None and vmax is None:
        return tuple(fallback)
    values = tuple(values) if values is not None else (fallback[0],)
    if vmax is None:
        return values
    start = values[0]
    if step <= 0:
        raise OrthozeroError("grid step must be positive")
    grid = []
    v = start
    while v <= vmax + 1e-12:
        grid.append(round(v, 12))
        v += step
    return tuple(grid)


def _config_from_args(args) -> CampaignConfig:
    defaults = CAMPAIGN_DEFAULTS[args.command]
    return CampaignConfig(
        campaign=args.command,
        alpha_grid=_grid(args.alpha, args.alpha_max, args.alpha_step, defaults["alpha"]),
        beta_grid=_grid(args.beta, args.beta_max, args.beta_step, defaults["beta"]),
        deg_cap=args.deg_cap if args.deg_cap is not None else defaults["deg_cap"],
        trials=args.trials if args.trials is not None else defaults["trials"],
        seed=args.seed if args.seed is not None else 1,
        precision=args.precision if args.precision is not None else "double",
        m_max=args.m_max if args.m_max is not None else defaults["m_max"],
        tol=args.tol,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "selftest":
            parse_precision(args.precision)
            results = run_selftest(args.precision)
            ok = True
            for name, passed, detail in results:
                print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
                ok = ok and passed
            return 0 if ok else 2

        if args.config:
            _merge_config(args, load_config_file(args.config))
        config = _config_from_args(args)
        parse_precision(config.precision)

        report = run_campaign(config)
        fmt = args.format or "json"
        payload = report.to_dict(include_timing=args.include_timing)
        if args.out:
            emit_report(payload, fmt, args.out)
        else:
            sys.stdout.write(report_to_json(payload) if fmt == "json"
                             else report_to_csv(payload))
        summary = report.summary
        sys.stderr.write(
            f"{config.campaign}: {summary['cases']} cases, {summary['passes']} passes, "
            f"{summary['violations']} violations, {summary['indeterminates']} indeterminate\n"
        )
        return 2 if has_proven_violation(report) else 0
    except (OrthozeroError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NoConvergence as exc:  # an mpmath iteration ran out of steps
        sys.stderr.write(f"error: extended-precision iteration did not converge: {exc}\n")
        return 1
    except OverflowError as exc:  # e.g. a kernel constant beyond the double range
        sys.stderr.write(f"error: a value overflowed the double range "
                         f"(parameters too large?): {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
