"""Campaign benchmark for orthozero.

Runs one workload (bench/workloads.py) through `orthozero.cli.main`, each
time in a fresh single-threaded interpreter, one process at a time: a closed
loop with one client and campaigns back to back. Every report is checked,
and the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 repeats the workload for about --seconds seconds and reports the
end-to-end metrics of BENCHMARK.json as medians over the repetitions.
--trace 1 runs the workload once untraced, then traced (bench/layers.py)
for about --seconds seconds, and reports the per-layer metrics.

Usage, from the repository root:
    python3 bench/run.py --workload interior-double --seed 1 --seconds 50 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import case_time_percentiles, layer_metrics
from workloads import WORKLOADS, report_errors, verdict_tallies

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEADLINE_S = 170.0
MIN_REPEATS = 2
SETUP_ONLY = 2  # extra set-up-only interpreters per untraced run

# Pinned so that numpy's BLAS and any OpenMP pool run on one thread: with up
# to 64 OpenBLAS threads on a 2-core machine the scheduler would be measured
# instead of np.roots and np.linalg.det.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (not a defect of the program)."""


class Session:
    """Fresh interpreters for one benchmark run, all under one deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, **SINGLE_THREAD)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, campaigns, run=True, spans=None, environment=False) -> dict:
        self.count += 1
        job_path = self.workdir / f"job{self.count}.json"
        result_path = self.workdir / f"result{self.count}.json"
        job = {"campaigns": campaigns, "run": run, "spans": spans and str(spans),
               "environment": environment}
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before the next interpreter")
        job["spawned"] = time.monotonic()
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path), str(result_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"interpreter still running at the {DEADLINE_S:g} s deadline") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"benchmark interpreter exited with {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def campaign_argvs(workload, seed: int, tag: str, workdir: Path, timing: bool) -> list[list[str]]:
    argvs = []
    for i, argv in enumerate(workload.campaigns):
        argv = list(argv) + ["--seed", str(seed), "--out", str(workdir / f"{tag}-{i}.json")]
        argvs.append(argv + ["--include-timing"] if timing else argv)
    return argvs


_VOLATILE = re.compile(rb'("(?:wall_time_s|timestamp)": )(?:"[^"]*"|[-+0-9.eE]+|null)')


def digest(raw: bytes) -> str:
    """sha256 of a report with the --include-timing fields nulled; for an
    untraced report this is the digest of its exact bytes."""
    return hashlib.sha256(_VOLATILE.sub(rb"\1null", raw)).hexdigest()


class Checker:
    """Checks every report of a run and tallies cases and failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.proven_violations = 0
        self.indeterminate = 0
        self.digests: dict[int, set[str]] = {}
        self.tallies: dict[int, dict] = {}
        self.case_times: list[float] = []
        self.artifact_version = None

    def check(self, argvs, runs) -> None:
        for i, (argv, run) in enumerate(zip(argvs, runs)):
            cases = self.workload.cases[i]
            self.attempted += cases
            if run["exit"] not in (0, 2):
                self.failed += cases  # counted as failed cases, not as a wrong output
                print(f"{argv[0]} aborted: {run['exit']}", file=sys.stderr)
                continue
            raw = Path(argv[argv.index("--out") + 1]).read_bytes()
            report = json.loads(raw)
            self.artifact_version = report["artifact_version"]
            self.errors += [f"{argv[0]}: {e}" for e in
                            report_errors(report, argv[0], self.seed, cases)]
            tallies = verdict_tallies(report)
            if run["exit"] != (2 if tallies["proven_violation"] else 0):
                self.errors.append(f"{argv[0]}: exit code {run['exit']} disagrees with the report")
            self.proven_violations += tallies["proven_violation"]
            self.indeterminate += tallies["indeterminate"]
            if self.tallies.setdefault(i, tallies) != tallies:
                self.errors.append(f"{argv[0]}: verdict tallies differ between repetitions")
            self.digests.setdefault(i, set()).add(digest(raw))
            if "--include-timing" in argv:
                self.case_times += [c["wall_time_s"] for c in report["cases"]]

    def finish(self, recorded: dict) -> list[str]:
        """Determinism and recorded-tally checks; returns lines to print."""
        lines = []
        expected = recorded.get(self.workload.name, {}).get(str(self.seed))
        if expected and expected["artifact_version"] != self.artifact_version:
            expected = None  # report bytes changed on purpose; nothing to compare
        for i, argv in enumerate(self.workload.campaigns):
            if i not in self.tallies:
                continue
            t = self.tallies[i]
            n = self.workload.cases[i]
            line = (f"tallies {self.workload.name} {argv[0]} seed={self.seed}: "
                    f"pass={t['pass']} violation={t['violation']} "
                    f"indeterminate={t['indeterminate']} proven_violation={t['proven_violation']} "
                    f"failed_frac={t['proven_violation'] / n:.4f} "
                    f"indeterminate_frac={t['indeterminate'] / n:.4f}")
            digests = self.digests[i]
            if len(digests) != 1:
                self.errors.append(f"{argv[0]}: report digests differ between repetitions")
            digest_line = f"digest {self.workload.name} {argv[0]} seed={self.seed}: " \
                          f"{' '.join(sorted(digests))}"
            if expected:
                want = expected["campaigns"][argv[0]]
                same = all(t[k] == want[k] for k in ("pass", "violation", "indeterminate"))
                line += (f" | recorded: pass={want['pass']} violation={want['violation']} "
                         f"indeterminate={want['indeterminate']} ({'match' if same else 'MISMATCH'})")
                if not same:
                    self.errors.append(f"{argv[0]}: tallies differ from those recorded for "
                                       f"artifact_version {self.artifact_version}")
                digest_line += " | recorded: " + (
                    "match" if digests == {want["sha256"]} else "differs")
            else:
                line += " | recorded: none for this seed and artifact_version"
            lines += [line, digest_line]
        return lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_untraced(session, workload, seed, seconds, checker) -> dict:
    walls, setups, rss = [], [], []
    repeat = 0
    while True:
        argvs = campaign_argvs(workload, seed, f"r{repeat}", session.workdir, timing=False)
        started = session.elapsed()
        result = session.child(argvs)
        checker.check(argvs, result["runs"])
        walls.append(sum(r["wall_s"] for r in result["runs"]))
        setups.append(result["setup_s"])
        rss.append(result["peak_rss_mb"])
        repeat += 1
        took = session.elapsed() - started
        if repeat >= MIN_REPEATS and session.elapsed() + took > seconds:
            break
    for _ in range(SETUP_ONLY):
        setups.append(session.child(campaign_argvs(workload, seed, "s", session.workdir, False),
                                    run=False)["setup_s"])
    wall = statistics.median(walls)
    cases = sum(workload.cases)
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    for name, values in samples.items():
        lo, hi = quartiles(values)
        print(f"{name}: median {statistics.median(values):.6g} quartiles {lo:.6g}..{hi:.6g} "
              f"of {len(values)} samples: {' '.join(f'{v:.4g}' for v in values)}")
    sound = checker.attempted - checker.failed - checker.proven_violations
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cases_per_s": cases / wall,
        "peak_rss_mb": statistics.median(rss),
        "sound_frac": sound / checker.attempted,
        "determinate_frac": 1.0 - checker.indeterminate / checker.attempted,
    }


def run_traced(session, workload, seed, seconds, checker) -> dict:
    argvs = campaign_argvs(workload, seed, "u", session.workdir, timing=False)
    result = session.child(argvs)
    checker.check(argvs, result["runs"])
    untraced = sum(r["wall_s"] for r in result["runs"])
    spans_path = ROOT / ".bench_build" / f"trace-{workload.name}-seed{seed}.json"
    per_repeat, walls = [], []
    while True:
        argvs = campaign_argvs(workload, seed, f"t{len(walls)}", session.workdir, timing=True)
        before = len(checker.case_times)
        result = session.child(argvs, spans=spans_path)
        checker.check(argvs, result["runs"])
        if not walls:
            for hook in result["absent_hooks"]:
                print(f"absent hook: {hook} (its metrics read 0)")
        metrics = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
        p50, tail, pct = case_time_percentiles(checker.case_times[before:])
        metrics.update({"harness.case_p50_ms": p50, "harness.case_tail_ms": tail})
        walls.append(sum(r["wall_s"] for r in result["runs"]))
        per_repeat.append(metrics)
        if session.elapsed() > seconds:
            break
    print(f"harness.case_tail_ms is the p{pct:.4g} case time; traced walls {walls}, "
          f"untraced wall {untraced:.6g} s; spans of the last repetition in {spans_path}")
    merged = {}
    for name in per_repeat[0]:
        values = [m[name] for m in per_repeat]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                checker.errors.append(f"count {name} differs between traced repetitions: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    merged["trace.overhead_s"] = statistics.median(walls) - untraced
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "orthozero" / "cli.py").is_file():
        raise BenchError(f"no orthozero sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = json.loads((BENCH / "recorded.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]

    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(workdir)
        # the first interpreter compiles bytecode and warms the file cache;
        # its set-up time is not counted
        warm = session.child(campaign_argvs(workload, args.seed, "w", workdir, False),
                             run=False, environment=True)
        print("environment " + json.dumps(warm["environment"], sort_keys=True))
        checker = Checker(workload, args.seed)
        run = run_traced if args.trace else run_untraced
        values = run(session, workload, args.seed, args.seconds, checker)
        for line in checker.finish(recorded["tallies"]):
            print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in declared} - set(values)
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    for error in dict.fromkeys(checker.errors):  # once each, not once per repetition
        print(f"check failed: {error}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
