"""Deterministic adaptive Monte Carlo estimation of rare event probabilities.

Trials are organized in fixed-size blocks.  Block ``i`` of grid point ``g``
draws all of its randomness from a generator keyed by
``(master_seed, g, i)``, and each point consumes its blocks in index order,
so the estimate is bit-reproducible for any worker count and any
scheduling.  A grid point stops after the first block in which the
cumulative event count reaches the target (or when the trial budget is
exhausted) and reports a Wilson 95% confidence interval.

One scheduler runs the whole grid with at most ``workers`` blocks in
flight.  A free worker takes a sure block if there is one: the next block
of the lowest unfinished point with none in flight, which that point needs
whatever its earlier blocks return.  Otherwise it takes the next block of
the lowest unfinished point speculatively; blocks past a point's stopping
block are dropped, errors included.  Each block also returns the `mmse`
numerical-health counters it produced; only consumed blocks are merged
into the calling process's counters.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import mmse
from .exceptions import ConfigurationError, _require_integers
from .randmat import derive_stream

__all__ = [
    "BinomialCurve",
    "CurvePoint",
    "TrialPolicy",
    "estimate_binomial_curve",
    "wilson_interval",
]

WILSON_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(successes, trials):
    """Wilson 95% score interval; well behaved at small and zero counts.

    ``successes`` and ``trials`` are integers with
    ``0 <= successes <= trials``; zero trials give ``(0.0, 1.0)``.
    """
    _require_integers(successes=successes, trials=trials)
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"need 0 <= successes <= trials, got {successes} of {trials}")
    if trials == 0:
        return 0.0, 1.0
    z = WILSON_Z_95
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # roundoff must not push the interval off the point estimate
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return low, high


@dataclass(frozen=True)
class TrialPolicy:
    """Stopping policy for one adaptive Monte Carlo grid point.

    A point runs until ``target_events`` events were observed or
    ``max_trials`` is reached.  Stopping is evaluated at block boundaries;
    changing ``block_trials`` therefore changes the exact trial counts (but
    not the correctness or the determinism of the estimate).  Drawing a
    block in slices, as `diversity._count_below` does, moves no stopping.
    """

    max_trials: int = 10_000_000
    target_events: int = 200
    block_trials: int = 100_000

    def __post_init__(self):
        _require_integers(max_trials=self.max_trials,
                          target_events=self.target_events,
                          block_trials=self.block_trials)
        if self.max_trials < 1:
            raise ConfigurationError(
                f"max_trials must be >= 1, got {self.max_trials}")
        if self.target_events < 1:
            raise ConfigurationError("target_events must be >= 1")
        if self.block_trials < 1:
            raise ConfigurationError("block_trials must be >= 1")


@dataclass(frozen=True)
class CurvePoint:
    """One grid point of an estimated event-probability curve."""

    rho: float
    snr_db: float
    trials: int
    outages: int
    p_out: float
    ci_low: float
    ci_high: float
    converged: bool


@dataclass
class BinomialCurve:
    """Event-probability estimates over an SNR grid, one point per row."""

    scenario: str
    points: list
    master_seed: int | None = None

    def column(self, name):
        """Per-point field as a numpy array (e.g. 'rho', 'p_out')."""
        return np.asarray([getattr(pt, name) for pt in self.points])

    @property
    def snr_db(self):
        return self.column("snr_db")

    @property
    def p_out(self):
        return self.column("p_out")

    @property
    def converged(self):
        return self.column("converged")


def _block_events(kernel, rho, master_seed, point_index, block_index, n_trials):
    """Event count of one block and the mmse health counters it produced."""
    rng = derive_stream(master_seed, point_index, block_index)
    events, health = mmse.collect_health(kernel, rho, rng, n_trials)
    if not (isinstance(events, numbers.Integral) and 0 <= events <= n_trials):
        raise ConfigurationError(
            f"kernel counted {events!r} events in {n_trials} trials at grid "
            f"point {point_index}, block {block_index}; need an integer in "
            f"[0, {n_trials}]")
    return int(events), health


@dataclass(eq=False)
class _PointRun:
    """Counts of one grid point; its blocks ``consumed .. launched - 1`` are
    in flight or done ahead of an earlier block, in ``results``."""

    index: int
    launched: int = 0
    consumed: int = 0
    events: int = 0
    results: dict = field(default_factory=dict)


def _next_run(open_runs, n_blocks):
    """Point of the next block to launch, sure before speculative; or None."""
    idle = (run for run in open_runs if run.launched == run.consumed)
    spare = (run for run in open_runs if run.launched < n_blocks)
    return next(idle, None) or next(spare, None)


def _run_inline(fn, *args):
    """``fn(*args)`` as a finished future.  With one worker every block is
    sure, so its error may propagate at once."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _sweep(kernel, rho, snr_db, policy, master_seed, submit, n_workers):
    """Points of the whole grid, with at most ``n_workers`` blocks in flight.

    ``open_runs`` holds the started unfinished points in index order and,
    last, the next point to start.
    """
    size, cap, target = policy.block_trials, policy.max_trials, policy.target_events
    n_blocks = -(-cap // size)
    points = [None] * rho.size
    open_runs, in_flight = [_PointRun(0)], {}
    while open_runs:
        while len(in_flight) < n_workers and (run := _next_run(open_runs, n_blocks)):
            g, i = run.index, run.launched
            run.launched += 1
            if i == 0 and g + 1 < rho.size:
                open_runs.append(_PointRun(g + 1))
            # block i holds min(block_trials, max_trials - i * block_trials) trials
            future = submit(_block_events, kernel, rho[g], master_seed, g, i,
                            min(size, cap - i * size))
            in_flight[future] = run, i
        finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in finished:
            run, i = in_flight.pop(future)
            run.results[i] = future
            # consume strictly in block order, so worker count cannot matter;
            # results past the stopping block are dropped, errors included
            while run in open_runs and run.consumed in run.results:
                count, health = run.results.pop(run.consumed).result()
                run.consumed += 1
                run.events += count
                mmse.merge_health(health)
                if run.events >= target or run.consumed == n_blocks:
                    open_runs.remove(run)
                    g, n, k = run.index, min(cap, run.consumed * size), run.events
                    points[g] = CurvePoint(float(rho[g]), float(snr_db[g]), n, k, k / n,
                                           *wilson_interval(k, n), converged=k >= target)
    return points


def resolve_workers(workers):
    """Normalize a worker-count request ('auto'/None -> cpu count)."""
    if workers in (None, "auto"):
        return max(1, os.cpu_count() or 1)
    _require_integers(workers=workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def estimate_binomial_curve(kernel, rho_grid, policy=None, master_seed=0,
                            workers=1, scenario="", snr_db_grid=None):
    """Estimate an event-probability curve over a grid of SNR values.

    Parameters
    ----------
    kernel : callable
        ``kernel(rho, rng, n) -> int`` counting events among ``n``
        independent trials drawn from ``rng``: an integer ``count`` with
        ``0 <= count <= n``, else `ConfigurationError` names the grid point
        and the block.  Must be picklable when ``workers > 1``.
    rho_grid : 1-D array of strictly increasing positive linear SNRs.
    policy : TrialPolicy, optional
    master_seed : int
        Non-negative root of all per-block streams; echoed on the returned
        curve.
    workers : int or "auto"
        Number of processes; the result is identical for every value.  Up
        to ``workers`` blocks of the whole grid run at once, sure blocks
        before speculative ones (module docstring); one worker runs every
        block inline, in the calling process.
    scenario : str
        Label stored with the curve (and written to CSV exports).
    snr_db_grid : optional matching grid in dB; derived from rho if omitted.
    """
    policy = TrialPolicy() if policy is None else policy
    if not isinstance(master_seed, numbers.Integral) or master_seed < 0:
        raise ConfigurationError(
            f"master_seed must be a non-negative integer, got {master_seed!r}")
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size < 1:
        raise ConfigurationError("rho grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(rho)) or np.any(rho <= 0.0):
        raise ConfigurationError("rho grid values must be positive and finite")
    if np.any(np.diff(rho) <= 0.0):
        raise ConfigurationError("rho grid must be strictly increasing")
    if snr_db_grid is None:
        snr_db = 10.0 * np.log10(rho)
    else:
        snr_db = np.asarray(snr_db_grid, dtype=float)
        if snr_db.shape != rho.shape:
            raise ConfigurationError("snr_db grid must match the rho grid")
    n_workers = resolve_workers(workers)
    # one worker runs every block inline: no pool starts, nothing is pickled
    pool = ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        points = _sweep(kernel, rho, snr_db, policy, master_seed,
                        pool.submit if pool else _run_inline, n_workers)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)  # waits for running blocks only
    return BinomialCurve(scenario=scenario, points=points, master_seed=master_seed)
