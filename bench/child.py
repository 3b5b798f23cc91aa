"""One fresh interpreter of the benchmark.

Imports the CLI and builds each campaign's config (the set-up every CLI call
pays), then, unless the job is set-up only, runs the campaigns back to back
through `orthozero.cli.main` and writes what it measured to a result file.
With a spans path in the job, the layer hooks are installed first and the
spans are written to that path once, after the last campaign.

Usage: python3 bench/child.py JOB.json RESULT.json
(bench/run.py writes the job file and sets the environment.)
"""

import json
import os
import platform
import resource
import sys
import time
import traceback


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)

    import orthozero.cli as cli

    parser = cli.build_parser()
    # the CLI builds configs in a private helper; if it is renamed, set-up
    # is measured through argument parsing only
    make_config = getattr(cli, "_config_from_args", None)
    for argv in job["campaigns"]:
        args = parser.parse_args(argv)
        if make_config is not None:
            make_config(args)
    result = {"setup_s": time.monotonic() - job["spawned"], "runs": []}
    if job["environment"]:
        result["environment"] = environment()

    if job["run"]:
        entry = cli.main
        recorder = None
        if job["spans"]:
            import layers

            recorder = layers.Recorder()
            result["absent_hooks"] = layers.install(recorder)
            entry = recorder.wrap(cli.main, layers.ROOT, "harness")
        for argv in job["campaigns"]:
            start = time.perf_counter()
            try:
                code = entry(argv)
            except Exception:  # the campaign aborted: record why, run the next one
                code = traceback.format_exc()
            result["runs"].append({"exit": code, "wall_s": time.perf_counter() - start})
        if recorder is not None:
            with open(job["spans"], "w", encoding="utf-8") as handle:
                json.dump(recorder.spans, handle)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
