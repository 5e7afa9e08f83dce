"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload selective_ref --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics ``setup_s``,
``time_to_fit_s``, ``trials_per_s`` and ``peak_rss_mb``; with ``--trace 1``
it holds the per-layer metrics of a traced one-worker sweep.  The sweeps
themselves run in a fresh interpreter (``sweep.py``) with one BLAS thread
per process, so worker processes never oversubscribe the cores and the
peak resident set covers only this run.  ``setup_s`` is the median, over
15 fresh interpreters, of the time until ``mmsediv`` is imported and
the workload constructed.  The checkout's ``src/mmsediv`` is required;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
RUN_LIMIT_S = 175.0
BLAS_THREADS = "1"


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env, workload, smoke):
    """Median time from spawning an interpreter to mmsediv imported and workload built.

    The probe prints ``time.monotonic()`` when it is done; that clock is
    system-wide, so interpreter teardown and the parent's polling in
    ``subprocess.run(timeout=...)`` stay out of the measurement.
    """
    build = "workloads.smoke(workloads.get(sys.argv[1]))" if smoke else \
        "workloads.get(sys.argv[1])"
    code = f"import sys, time, mmsediv, workloads; {build}; print(time.monotonic())"
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        probe = subprocess.run([sys.executable, "-c", code, workload], env=env,
                               check=True, timeout=60, stdout=subprocess.PIPE,
                               text=True)
        times.append(float(probe.stdout) - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workload for the self-check")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "mmsediv" / "__init__.py").is_file():
        print(f"no src/mmsediv under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    try:
        setup_s = None if args.trace else measure_setup(env, args.workload, args.smoke)
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=limit,
                               text=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"sweep.py exited with status {child.returncode}", file=sys.stderr)
        return 3
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
