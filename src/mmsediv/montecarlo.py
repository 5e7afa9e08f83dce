"""Deterministic adaptive Monte Carlo estimation of rare event probabilities.

Trials are organized in fixed-size blocks.  Block ``i`` of grid point ``g``
draws all of its randomness from a generator keyed by
``(master_seed, g, i)``, and blocks are always consumed in index order, so
the estimate is bit-reproducible for any worker count and any scheduling.
A grid point stops after the first block in which the cumulative event
count reaches the target (or when the trial budget is exhausted) and
reports a Wilson 95% confidence interval.  Each block also returns the
`mmse` numerical-health counters it produced; only consumed blocks are
merged into the calling process's counters.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    not the correctness or the determinism of the estimate).
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


def _estimate_point(kernel, rho, snr_db, point_index, policy, master_seed,
                    map_blocks, wave_size):
    run_block = functools.partial(_block_events, kernel, rho, master_seed,
                                  point_index)
    # block i holds min(block_trials, max_trials - i * block_trials) trials;
    # sizes are computed per wave, so no schedule of every block is built
    size = policy.block_trials
    n_blocks = -(-policy.max_trials // size)
    trials = 0
    events = 0
    first = 0
    while trials < policy.max_trials and events < policy.target_events:
        wave = range(first, min(first + wave_size, n_blocks))
        sizes = [min(size, policy.max_trials - i * size) for i in wave]
        results = list(map_blocks(run_block, wave, sizes))
        # consume strictly in block order; speculative blocks past the
        # stopping block are discarded, so worker count cannot matter
        for n, (count, health) in zip(sizes, results):
            trials += n
            events += count
            mmse.merge_health(health)
            if events >= policy.target_events or trials >= policy.max_trials:
                break
        first += wave_size
    p_out = events / trials
    ci_low, ci_high = wilson_interval(events, trials)
    return CurvePoint(rho=float(rho), snr_db=float(snr_db), trials=trials,
                      outages=events, p_out=p_out, ci_low=ci_low,
                      ci_high=ci_high, converged=events >= policy.target_events)


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
        Number of processes; the result is identical for every value.
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
    with (ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1
          else contextlib.nullcontext()) as pool:
        map_blocks = map if pool is None else pool.map
        points = [_estimate_point(kernel, rho[g], snr_db[g], g, policy,
                                  master_seed, map_blocks, n_workers)
                  for g in range(rho.size)]
    return BinomialCurve(scenario=scenario, points=points, master_seed=master_seed)
