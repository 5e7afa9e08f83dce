"""Run one workload's sweeps in this interpreter and print one JSON line.

`run.py` starts this script in a fresh interpreter per run, with
``PYTHONPATH`` pointing at the checkout's ``src`` and the BLAS thread
count pinned, so that ``ru_maxrss`` covers exactly this run's sweeps and
their worker processes.

Every sweep is one operation.  It fails if the estimator or the fit
raises, if the fitted exponent misses the workload's tolerance, if a point
breaks ``ci_low <= p_out <= ci_high`` or ``trials <= max_trials``, or if its
per-point ``(trials, outages)`` differ from any other sweep of the same
workload and seed in this checkout (runs with any worker count must agree
bit for bit).

Sweep ``j`` of a run uses the master seed ``sweep_seed(seed, j)``, so a
run's mean time to fit averages the stopping times of several independent
curves instead of repeating one curve's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import mmsediv
from mmsediv import diversity, mmse
from mmsediv.randmat import derive_stream

import tracing
import workloads

RECORD_DIR = Path(".bench_runs")
SEEDS_PER_RUN = 1000


def sweep_seed(seed, index):
    """Master seed of sweep ``index`` in a run with benchmark seed ``seed``."""
    if not 0 <= index < SEEDS_PER_RUN:
        raise ValueError(f"sweep index {index} outside [0, {SEEDS_PER_RUN})")
    return seed * SEEDS_PER_RUN + index


@dataclass
class Sweep:
    """Outcome of one estimator call plus fit."""

    seed: int
    workers: int
    traced: bool
    estimate_s: float = math.nan
    fit_s: float = math.nan
    points: list = field(default_factory=list)
    d_hat: float = math.nan
    points_used: int = 0
    curve: object = None
    errors: list = field(default_factory=list)

    @property
    def time_to_fit_s(self):
        return self.estimate_s + self.fit_s

    @property
    def trials(self):
        return sum(t for t, _ in self.points)


def _check_points(wl, curve):
    errors = []
    for pt in curve.points:
        if not pt.ci_low <= pt.p_out <= pt.ci_high:
            errors.append(f"{pt.snr_db:g} dB: p_out {pt.p_out!r} outside "
                          f"[{pt.ci_low!r}, {pt.ci_high!r}]")
        if not 1 <= pt.trials <= wl.policy.max_trials:
            errors.append(f"{pt.snr_db:g} dB: {pt.trials} trials outside "
                          f"[1, {wl.policy.max_trials}]")
    return errors


def run_sweep(wl, seed, workers, tracer=None):
    """One timed estimator call and fit, checked against the workload's gate."""
    sweep = Sweep(seed=seed, workers=workers, traced=tracer is not None)
    try:
        start = time.perf_counter()
        if tracer is None:
            curve = wl.estimate(seed, workers)
        else:
            curve = tracer.span("sweep", wl.estimate, seed, workers)
        estimated = time.perf_counter()
        sweep.estimate_s = estimated - start
        sweep.curve = curve
        sweep.points = [(pt.trials, pt.outages) for pt in curve.points]
        sweep.errors += _check_points(wl, curve)
        try:
            fit = diversity.fit_diversity_slope(curve, wl.window)
        finally:
            sweep.fit_s = time.perf_counter() - estimated
        sweep.d_hat = fit.d_hat
        sweep.points_used = fit.points_used
        if not abs(fit.d_hat - wl.d_expected) <= wl.d_tolerance:
            sweep.errors.append(f"d_hat {fit.d_hat:.4f} outside "
                                f"{wl.d_expected:g} +- {wl.d_tolerance:g}")
    except Exception:  # one failed sweep is a failed operation, not a crash
        sweep.errors.append(traceback.format_exc(limit=3))
    return sweep


def _record_path(wl, seed):
    digest = hashlib.sha256(repr(wl).encode()).hexdigest()[:12]
    return RECORD_DIR / f"{wl.name}-seed{seed}-{digest}.points.json"


def check_determinism(wl, sweeps):
    """Compare per-point (trials, outages) with every sweep of the same master seed."""
    references = {}
    for sweep in sweeps:
        if not sweep.points:
            continue
        path = _record_path(wl, sweep.seed)
        if sweep.seed not in references and path.is_file():
            references[sweep.seed] = [tuple(p) for p in json.loads(path.read_text())]
        reference = references.setdefault(sweep.seed, sweep.points)
        if reference is sweep.points:
            RECORD_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(reference))
        elif sweep.points != reference:
            sweep.errors.append(
                f"per-point (trials, outages) differ from {path}: "
                f"{sweep.points} != {reference}")


def peak_rss_mb():
    """Peak resident set over this process and its reaped children, MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def speculative_blocks(curve, policy, workers):
    """Blocks past each point's stopping block in its last wave of ``workers``.

    Computed from the current scheduler's policy: blocks are launched in
    waves of one per worker and those after the stopping block are dropped.
    """
    plan_blocks = math.ceil(policy.max_trials / policy.block_trials)
    total = 0
    for pt in curve.points:
        used = math.ceil(pt.trials / policy.block_trials)
        launched = min(math.ceil(used / workers) * workers, plan_blocks)
        total += launched - used
    return total


def _eligible(pt, window):
    """Mirror of fit_diversity_slope's eligibility rule."""
    return (pt.converged and pt.p_out > 0.0
            and window.p_min <= pt.p_out <= window.p_max
            and window.snr_db_min <= pt.snr_db <= window.snr_db_max)


def repeat(budget_s, start, body):
    """Call ``body(j)`` for j = 0, 1, ... until another call of the same length would overrun."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        now = time.perf_counter()
        if (now - start) + (now - t0) > budget_s:
            return results


def _require_curves(sweeps):
    if any(s.curve is None for s in sweeps):
        sys.exit("an estimator call raised; no metrics to report")


def untraced_run(wl, seed, seconds, start):
    """Sweeps with the workload's workers; the end-to-end metrics.

    The run reports totals over all its sweeps: the mean time to fit and
    all trials over all estimator time.  On a shared host whose speed
    swings for several seconds at a time, these vary less from run to run
    than the median of a handful of sweeps.
    """
    sweeps = repeat(seconds, start,
                    lambda j: run_sweep(wl, sweep_seed(seed, j), wl.workers))
    _require_curves(sweeps)
    estimate_s = sum(s.estimate_s for s in sweeps)
    return sweeps, {
        "time_to_fit_s": (statistics.mean(s.time_to_fit_s for s in sweeps), "s"),
        "trials_per_s": (sum(s.trials for s in sweeps) / estimate_s, "trials/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {}


def traced_run(wl, seed, seconds, start):
    """Untraced sweep(s) with the workload's workers, then a traced 1-worker sweep."""
    tracer = tracing.Tracer()
    health_read = hasattr(mmse, "numerical_health")
    health = {"evaluations": 0, "clamped_beyond_slack": 0}

    def cycle(j):
        seed_j = sweep_seed(seed, j)
        base = run_sweep(wl, seed_j, wl.workers)
        single = base if wl.workers == 1 else run_sweep(wl, seed_j, 1)
        before = mmse.numerical_health() if health_read else {}
        with tracer.patched():
            traced = run_sweep(wl, seed_j, 1, tracer)
        after = mmse.numerical_health() if health_read else {}
        for key in health:
            health[key] += after.get(key, 0) - before.get(key, 0)
        return base, single, traced

    cycles = repeat(seconds, start, cycle)
    sweeps = [s for base, single, traced in cycles
              for s in ((base, traced) if single is base else (base, single, traced))]
    _require_curves(sweeps)
    traced = [c[2] for c in cycles]
    n_traced = len(traced)
    trials = sum(s.trials for s in traced)
    self_s = tracer.self_times()

    def us_per_trial(span_name):
        return 1e6 * self_s.get(span_name, 0.0) / trials

    block_ms = [1e3 * d for name in ("diversity.kernel", "wishart.kernel")
                for d in tracer.durations(name)]
    blocks_per_sweep = len(block_ms) / n_traced
    first = traced[0]   # sweep 0: its counts depend on the seed alone
    curve = first.curve
    med = statistics.median
    t_base = med(c[0].time_to_fit_s for c in cycles)
    t_single = med(c[1].time_to_fit_s for c in cycles)
    t_traced = med(s.time_to_fit_s for s in traced)

    block_peak_mb = 0.0
    if tracer.first_block is not None:
        kernel, rho = tracer.first_block
        tracemalloc.start()
        try:
            kernel(rho, derive_stream(first.seed, 0, 0), wl.policy.block_trials)
            block_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    useful = sum(pt.trials for pt in curve.points if _eligible(pt, wl.window))
    capped = sum(1 for pt in curve.points
                 if pt.trials >= wl.policy.max_trials and not pt.converged)

    metrics = {
        "randmat.sample_us_per_trial": (us_per_trial("randmat.sample"), "us"),
        "randmat.sample_bytes_per_trial": (tracer.sample_bytes / trials, "B-computed"),
        "mmse.dft_us_per_trial": (us_per_trial("mmse.dft"), "us"),
        "mmse.capacity_self_us_per_trial": (us_per_trial("mmse.capacity"), "us"),
        "mmse.block_peak_mb": (block_peak_mb, "MB"),
        "mmse.sinr_evaluations": (health["evaluations"] / n_traced, "count"),
        "mmse.clamped_beyond_slack": (
            health["clamped_beyond_slack"] / n_traced, "count"),
        "wishart.kernel_self_us_per_trial": (us_per_trial("wishart.kernel"), "us"),
        "diversity.kernel_self_us_per_trial": (us_per_trial("diversity.kernel"), "us"),
        "diversity.fit_ms": (1e3 * med(s.fit_s for s in sweeps), "ms"),
        "diversity.d_hat": (first.d_hat, "1"),
        "diversity.d_hat_error": (abs(first.d_hat - wl.d_expected), "1"),
        "diversity.points_used": (first.points_used, "count"),
        "montecarlo.trials_total": (first.trials, "count"),
        "montecarlo.blocks_run": (blocks_per_sweep, "count"),
        "montecarlo.capped_points": (capped, "count"),
        "montecarlo.useful_trial_share": (useful / first.trials, "ratio"),
        "montecarlo.overhead_us_per_trial": (us_per_trial("sweep"), "us"),
        "montecarlo.block_ms_p50": (
            float(np.percentile(block_ms, 50)) if block_ms else 0.0, "ms"),
        "montecarlo.block_ms_p75": (
            float(np.percentile(block_ms, 75)) if block_ms else 0.0, "ms"),
        "montecarlo.speculative_blocks": (
            speculative_blocks(curve, wl.policy, wl.workers), "count"),
        "montecarlo.parallel_efficiency": (
            med(c[2].time_to_fit_s / (wl.workers * c[0].time_to_fit_s)
                for c in cycles), "ratio"),
        "tracing.overhead_share": (
            med(c[2].time_to_fit_s / c[1].time_to_fit_s - 1.0 for c in cycles),
            "ratio"),
    }
    record = {
        "spans_self_s": dict(self_s),
        "spans": tracer.spans,
        "missing_patch_points": sorted(tracer.missing),
        "numerical_health_read": health_read,
        "block_samples": len(block_ms),
        "time_to_fit_s": {"base": t_base, "single": t_single, "traced": t_traced},
    }
    return sweeps, metrics, record


def environment(wl):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "mmsediv": mmsediv.__version__,
        "nproc": os.cpu_count(),
        "workers": wl.workers,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    wl = workloads.get(args.workload)
    if args.smoke:
        wl = workloads.smoke(wl)
    run = traced_run if args.trace else untraced_run
    sweeps, metrics, extra = run(wl, args.seed, args.seconds, start)
    check_determinism(wl, sweeps)
    failed = sum(1 for s in sweeps if s.errors)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(wl),
        "sweeps": [{"master_seed": s.seed, "workers": s.workers, "traced": s.traced,
                    "estimate_s": s.estimate_s, "fit_s": s.fit_s,
                    "d_hat": s.d_hat, "points": s.points, "errors": s.errors}
                   for s in sweeps],
        **extra,
    }
    RECORD_DIR.mkdir(exist_ok=True)
    (RECORD_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.run.json").write_text(
        json.dumps(record, indent=1, default=str))
    for s in sweeps:
        for err in s.errors:
            print(f"{wl.name}: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(sweeps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
