"""Deterministic adaptive Monte Carlo estimation of rare event probabilities.

Trials are organized in fixed-size blocks.  Block ``i`` of grid point ``g``
draws all of its randomness from a generator keyed by
``(master_seed, g, i)``, and each point consumes its blocks in index order,
so the estimate is bit-reproducible for any worker count and any
scheduling.  A grid point stops after the first block in which the
cumulative event count reaches the target, or caps when its trial budget
is exhausted, and reports a Wilson 95% confidence interval.

Along the grid the event probability does not rise (the contract of
`estimate_binomial_curve`), so once a point caps no later point can reach
the target within the same budget.  Every point past the first capped one
is given up: it keeps only its block 0 and, unless that block alone
reaches the target, is reported as skipped.  Block 0 stays because every
point runs it anyway: a skipped point still has at least one block of
trials and a valid Wilson interval, exactly as block 0 gives them.  Which
points are skipped is decided from consumed blocks only, so results stay
a deterministic function of the per-point block counts.  A point's result
becomes final once it and every earlier point have stopped.

One scheduler runs the whole grid.  A free worker takes a sure block if
there is one: block 0 of any point, or the next block of an open point
with none in flight while every earlier open point is on course.  A point
is on course while its consumed events, scaled to its full block budget,
reach the target (``events * n_blocks >= target * consumed``).  Otherwise
the worker takes the next block of the lowest open point speculatively.  On a curve where
no point falls behind, this is the plain lowest-idle-point-first order.
Blocks that a point does not keep, past its stopping block or past block
0 of a skipped point, are dropped, errors included.  Each block also
returns the count of `mmse` clamps it produced (`mmse.numerical_health`);
only the blocks a final result keeps are merged into the calling
process's count and reported as the point's ``clamps``.

One worker runs every block inline, one at a time.  More workers share one
process-wide pool, opened at the first multi-worker sweep and kept for the
next; a sweep with another worker count shuts it down and opens its own, a
sweep that breaks it drops it, and it is shut down at interpreter exit.
Such a sweep keeps ``workers + 1`` blocks in flight: the one in reserve
waits in the pool's queue, so a worker that finishes a block starts the
next at once instead of waiting for the calling process.  At the end of a
sweep, its blocks still queued are cancelled and those running are waited
for, so none runs into the next sweep.  The workers are forked once, at
the first multi-worker sweep, so a kernel must not depend on module state
that changes after that point.  The pool serves one sweep at a time: two
threads must not run multi-worker sweeps at once.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field

import numpy as np

from . import mmse
from .exceptions import ConfigurationError, _is_integer, _require_integers
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
    """One grid point of an estimated event-probability curve.

    ``converged`` means the point reached its event target; ``skipped``
    that it came after the first capped point and kept only block 0.
    ``clamps`` counts the SINRs its kept blocks clamped beyond the roundoff
    slack (`mmse.numerical_health`).
    """

    rho: float
    snr_db: float
    trials: int
    outages: int
    p_out: float
    ci_low: float
    ci_high: float
    converged: bool
    skipped: bool = False
    clamps: int = 0

    @property
    def status(self):
        """``"converged"``, ``"skipped"`` or ``"capped"``."""
        if self.converged:
            return "converged"
        return "skipped" if self.skipped else "capped"


@dataclass
class BinomialCurve:
    """Event-probability estimates over an SNR grid: a `CurvePoint` per
    grid point, in grid order, under a ``scenario`` label."""

    scenario: str
    points: list


def _block_events(kernel, rho, master_seed, point_index, block_index, n_trials):
    """Event count of one block and the mmse clamp count it produced."""
    rng = derive_stream(master_seed, point_index, block_index)
    events, clamps = mmse.collect_health(kernel, rho, rng, n_trials)
    if not (_is_integer(events) and 0 <= events <= n_trials):
        raise ConfigurationError(
            f"kernel counted {events!r} events in {n_trials} trials at grid "
            f"point {point_index}, block {block_index}; need an integer in "
            f"[0, {n_trials}]")
    return int(events), clamps


@dataclass(eq=False)
class _PointRun:
    """Counts of one grid point: ``(events, clamps)`` of each consumed block
    in ``blocks``, and its blocks ``consumed .. launched - 1``, in flight or
    done ahead of an earlier block, in ``results``.  A point past a capped
    one needs its block 0 only."""

    index: int
    launched: int = 0
    consumed: int = 0
    events: int = 0
    past_cap: bool = False
    blocks: list = field(default_factory=list)
    results: dict = field(default_factory=dict)


def _next_run(open_runs, n_blocks, target):
    """Point of the next block to launch, sure before speculative; or None.

    Block i >= 1 of a point is launched only while every earlier open point
    is on course; block 0 always is.
    """
    spare, on_course = None, True
    for run in open_runs:
        if run.launched < (1 if run.past_cap else n_blocks):
            if run.launched == 0 or (on_course and run.launched == run.consumed):
                return run
            if on_course and spare is None:
                spare = run
        on_course = on_course and run.events * n_blocks >= target * run.consumed
    return spare


def _run_inline(fn, *args):
    """``fn(*args)`` as a finished future.  With one worker every block is
    the next one of the lowest open point, so its error may propagate at
    once."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _consume(run, runs, open_runs, n_blocks, target):
    """Take ``run``'s finished blocks in index order until it stops.

    A block >= 1 that raised is left pending while an earlier point is
    open, since that point may cap and make the block one to drop.
    """
    while run in open_runs and run.consumed in run.results:
        future = run.results[run.consumed]
        if run.consumed and run is not open_runs[0] and future.exception():
            return
        count, clamps = run.results.pop(run.consumed).result()
        run.consumed += 1
        run.events += count
        run.blocks.append((count, clamps))
        if run.events >= target or run.consumed == (1 if run.past_cap else n_blocks):
            open_runs.remove(run)
            if run.events < target:  # capped: every later point keeps block 0 only
                for later in runs[run.index + 1:]:
                    later.past_cap = True
                    if later.consumed and later in open_runs:
                        open_runs.remove(later)


def _final_point(run, rho, snr_db, policy):
    """The point ``run`` reports, its kept clamps merged."""
    kept = run.blocks[:1] if run.past_cap else run.blocks
    for _, clamps in kept:
        mmse.merge_health(clamps)
    cap, target = policy.max_trials, policy.target_events
    g, k = run.index, sum(count for count, _ in kept)
    n = min(cap, len(kept) * policy.block_trials)
    return CurvePoint(float(rho[g]), float(snr_db[g]), n, k, k / n,
                      *wilson_interval(k, n), converged=k >= target,
                      skipped=run.past_cap and k < target and n < cap,
                      clamps=sum(clamps for _, clamps in kept))


def _sweep(kernel, rho, snr_db, policy, master_seed, submit, max_in_flight):
    """Points of the whole grid, with at most ``max_in_flight`` blocks in flight.

    ``open_runs`` holds, in index order, every point that still needs a
    block.  After each completion the open points consume their finished
    blocks in index order, so a cap reaches every later point in the same
    pass; then every stopped point whose earlier points are final is made
    final.  On return or error, blocks still queued are cancelled and those
    running are waited for; their results and errors are dropped.
    """
    size, cap, target = policy.block_trials, policy.max_trials, policy.target_events
    n_blocks = -(-cap // size)
    runs = [_PointRun(g) for g in range(rho.size)]
    open_runs, in_flight, points = list(runs), {}, []
    try:
        while len(points) < rho.size:
            while len(in_flight) < max_in_flight and (
                    run := _next_run(open_runs, n_blocks, target)):
                g, i = run.index, run.launched
                run.launched += 1
                # block i holds min(block_trials, max_trials - i * block_trials) trials
                future = submit(_block_events, kernel, rho[g], master_seed, g, i,
                                min(size, cap - i * size))
                in_flight[future] = run, i
            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                run, i = in_flight.pop(future)
                run.results[i] = future
            for run in list(open_runs):
                _consume(run, runs, open_runs, n_blocks, target)
            while len(points) < rho.size and runs[len(points)] not in open_runs:
                points.append(_final_point(runs[len(points)], rho, snr_db, policy))
    finally:
        for future in in_flight:
            if not future.cancel():
                future.exception()  # waits for the block to end
    return points


def resolve_workers(workers):
    """Normalize a worker-count request ('auto'/None -> usable CPU count)."""
    if workers in (None, "auto"):
        # the affinity mask, where the OS has one, bounds the CPUs in reach
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    _require_integers(workers=workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def estimate_binomial_curve(kernel, rho_grid, policy=None, master_seed=0,
                            workers=1, scenario="", snr_db_grid=None):
    """Estimate an event-probability curve over a grid of SNR values.

    The event probability must not rise along the grid.  Each point stops
    at the event target or caps at ``max_trials``; every point past the
    first capped one is given up after its block 0 and, unless that block
    reaches the target, reported as skipped (module docstring).  Up to and
    including the first capped point, the counts are those of a sweep
    without the give-up.

    Parameters
    ----------
    kernel : callable
        ``kernel(rho, rng, n) -> int`` counting events among ``n``
        independent trials drawn from ``rng``: an integer ``count`` with
        ``0 <= count <= n``, else `ConfigurationError` names the grid point
        and the block.  Its event rate must not rise with ``rho``.  When
        ``workers > 1`` it must be picklable, and it runs in workers forked
        at the process's first multi-worker sweep: module state changed
        after that point does not reach it.
    rho_grid : 1-D array of strictly increasing positive linear SNRs.
    policy : TrialPolicy, optional
    master_seed : int
        Non-negative root of every per-block stream (module docstring).
    workers : int or "auto"
        Number of processes; the result, skipped points included, is
        identical for every value.  One worker runs every block inline, in
        the calling process.  More run the blocks of the whole grid, sure
        blocks before speculative ones, in the process-wide pool, which
        stays open for the next sweep; one block more than ``workers``
        waits in its queue.  The sweep returns or raises only once none of
        its blocks is queued or running (module docstring).
    scenario : str
        Label stored with the curve (and written to CSV exports).
    snr_db_grid : optional matching grid in dB; derived from rho if omitted.
    """
    policy = TrialPolicy() if policy is None else policy
    if not _is_integer(master_seed) or master_seed < 0:
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
    if n_workers == 1:
        # no pool starts, nothing is pickled, and `multiprocessing` is never imported
        points = _sweep(kernel, rho, snr_db, policy, master_seed, _run_inline, 1)
    else:
        from concurrent.futures.process import BrokenProcessPool
        try:
            points = _sweep(kernel, rho, snr_db, policy, master_seed,
                            _worker_pool(n_workers).submit, n_workers + 1)
        except BrokenProcessPool:
            _close_pool()
            raise
    return BinomialCurve(scenario=scenario, points=points)


_pool = None  # (worker count, ProcessPoolExecutor): the process-wide pool


def _worker_pool(n_workers):
    """The process-wide pool of ``n_workers`` workers, opened on first use.

    A pool of another size is shut down first, so at most one is alive.
    """
    global _pool
    if _pool is None or _pool[0] != n_workers:
        _close_pool()
        from concurrent.futures import ProcessPoolExecutor
        _pool = n_workers, ProcessPoolExecutor(max_workers=n_workers)
    return _pool[1]


@atexit.register
def _close_pool():
    """Shut the process-wide pool down, if one is open, and join its workers."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(cancel_futures=True)
