"""Rate-regime diversity prediction, outage estimation and slope fitting.

The closed-form side is one resolver, `resolve_rate_regime`, for the link
a `SystemConfig` describes.  For a fixed target rate R it finds the regime
index m whose per-stream rate interval contains R/M and reports the
predicted high-SNR outage decay exponent (the diversity order)
``m (L N - M + m)`` of a cyclic-prefix channel with L taps and block
length K large enough (``K > M^2 (L - 1)``).  Flat fading is its L = 1
case, ``m (N - M + m)``, with no route of its own.  For L > 1 there is a
gap of rates where only a bracket ``[(m-1)(LN-M+(m-1)), m(LN-M+m)]`` is
known; the resolver reports the bracket and never a point value there.

The Monte Carlo side estimates outage probabilities ``P(I < R)`` over an
SNR grid with the deterministic block engine of `mmsediv.montecarlo`.  Its
kernel is `_count_below` with the MMSE capacity as the statistic and R as
the threshold; the Wishart tails of `mmsediv.wishart` use the same kernel
with a spectral statistic.  `fit_diversity_slope` recovers the decay
exponent by weighted least-squares regression of log10 p_out on log10 rho.
Diversity is a high-SNR limit statement, so only converged points with
small outage probability are eligible for the fit by default.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mmse
from .exceptions import (ApplicabilityError, BoundaryRateError,
                         ConfigurationError, InsufficientDataError,
                         _require_integers)
from .montecarlo import estimate_binomial_curve
from .randmat import sample_complex_gaussian

__all__ = [
    "FitWindow",
    "RateRegime",
    "SlopeFit",
    "SystemConfig",
    "estimate_outage",
    "fit_diversity_slope",
    "resolve_rate_regime",
]

@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and scenario parameters of one simulated link.

    A cyclic-prefix channel with L taps and block length ``K >= L``;
    ``L == 1`` is flat fading, where K changes no result.
    """

    M: int
    N: int
    R: float
    L: int = 1
    K: int = 1
    scaling: str = "per-tap"

    def __post_init__(self):
        _require_integers(M=self.M, N=self.N, L=self.L, K=self.K)
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        if self.N < self.M:
            raise ConfigurationError(f"need N >= M, got N={self.N}, M={self.M}")
        if self.L < 1:
            raise ConfigurationError(f"L must be >= 1, got {self.L}")
        if self.K < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.K}")
        if self.K < self.L:
            raise ConfigurationError(
                f"selective channels need K >= L, got K={self.K}, L={self.L}")
        if not math.isfinite(self.R) or self.R < 0.0:
            raise ConfigurationError(f"rate R must be finite and >= 0, got {self.R}")
        if self.scaling not in mmse.SCALING_CONVENTIONS:
            raise ConfigurationError(
                f"unknown scaling {self.scaling!r}; expected one of "
                f"{mmse.SCALING_CONVENTIONS}")

    @property
    def selective(self):
        return self.L > 1

    def label(self):
        """Compact scenario token used in curve exports."""
        if self.selective:
            return (f"sel-M{self.M}-N{self.N}-L{self.L}-K{self.K}"
                    f"-R{self.R:g}-{self.scaling}")
        return f"flat-M{self.M}-N{self.N}-R{self.R:g}"


@dataclass(frozen=True)
class RateRegime:
    """Resolved rate regime with its per-stream interval and diversity bounds.

    ``rate_interval`` bounds R/M (bits/s/Hz per stream).
    """

    m: int
    rate_interval: tuple
    diversity_low: int
    diversity_high: int

    @property
    def tight(self):
        """True exactly when the two diversity bounds coincide."""
        return self.diversity_low == self.diversity_high

    def describe(self):
        if self.tight:
            return f"m={self.m}, diversity={self.diversity_high} (tight)"
        return (f"m={self.m}, diversity in "
                f"[{self.diversity_low}, {self.diversity_high}] (bounds only)")


def _lower_boundary(n_streams, m):
    """Per-stream rate at the lower edge of regime m: log2(M/m)."""
    return math.log2(n_streams / m)


def _find_regime_index(n_streams, rate_per_stream):
    """Unique m with log2(M/m) < R/M < log2(M/(m-1)) for R/M > 0; refuses
    exact boundaries.  The edges fall as m rises and the m = M edge is 0."""
    for m in range(1, n_streams):
        edge = _lower_boundary(n_streams, m)
        if rate_per_stream == edge:
            raise BoundaryRateError(
                f"per-stream rate R/M = {rate_per_stream} equals the regime "
                f"boundary log2({n_streams}/{m}); regimes m={m} (above) and "
                f"m={m + 1} (below) meet there and neither applies")
        if rate_per_stream > edge:
            return m
    return n_streams


def resolve_rate_regime(cfg):
    """Rate regime and diversity bounds of the link a `SystemConfig` describes.

    One rule serves every tap count; flat fading is its L = 1 case.  The
    prediction requires ``K > M^2 (L - 1)``, vacuous for L = 1.  The
    regime index m is the unique m in {1, ..., M} with
    ``log2(M/m) < R/M < log2(M/(m-1))`` (upper edge +inf for m = 1); a
    rate exactly on an edge raises `BoundaryRateError`.  If R/M also lies
    strictly below ``-log2((m-1)/M + (L-1)(M-(m-1))/K)`` the prediction is
    tight with diversity ``m (L N - M + m)``; otherwise R/M falls in the
    gap region and only the bracket ``[(m-1)(LN-M+(m-1)), m(LN-M+m)]`` is
    returned.  For L = 1 the gap term vanishes, the prediction is always
    the tight ``m (N - M + m)`` whatever K is, and the tight interval ends
    at the regime's upper edge ``log2(M/(m-1))`` itself, which
    ``-log2((m-1)/M)`` can miss by one ulp.

    `SystemConfig` has checked the dimensions and that R is finite and
    nonnegative; R = 0 lies in no regime and is refused here.
    """
    M, N, L, K, R = cfg.M, cfg.N, cfg.L, cfg.K, cfg.R
    # the rate first: R = 0 raises this error at any K, not ApplicabilityError
    if R <= 0.0:
        raise ConfigurationError(f"rate must be positive and finite, got {R}")
    if K <= M * M * (L - 1):
        raise ApplicabilityError(
            f"prediction requires K > M^2(L-1): got K={K} <= {M * M * (L - 1)}")
    x = R / M
    m = _find_regime_index(M, x)
    low = _lower_boundary(M, m)
    upper = _lower_boundary(M, m - 1) if m > 1 else math.inf
    excess = (L - 1) * (M - (m - 1)) / K
    tight_high = upper if excess == 0 else -math.log2((m - 1) / M + excess)
    d_high = m * (L * N - M + m)
    if x < tight_high:
        return RateRegime(m=m, rate_interval=(low, tight_high),
                          diversity_low=d_high, diversity_high=d_high)
    d_low = (m - 1) * (L * N - M + (m - 1))
    return RateRegime(m=m, rate_interval=(tight_high, upper),
                      diversity_low=d_low, diversity_high=d_high)


_BLOCK_DRAW_BYTES = 256 * 2**20


def _count_below(statistic, threshold, dims, rho, rng, n_trials):
    """Number of trials whose ``statistic(taps, rho, threshold) < threshold``.

    A statistic is handed the threshold it is compared with and may return,
    for each trial, any value on the same side of the threshold as its
    exact value: the float32 outage screen (`_capacity`) and the trace
    screen of the m = M Wishart tails (`mmsediv.wishart`) decide most
    trials without computing the exact value, so every count is the exact
    statistic's count.

    A trial is L standard complex Gaussian N x M taps, ``dims = (N, M, L)``.
    They are drawn from ``rng`` in turn, in slices of at most
    `_BLOCK_DRAW_BYTES` of taps, so a block's memory is bounded; a block
    within that budget is one draw and one statistic call.  Every library
    kernel is a `functools.partial` of this function, so kernels pickle
    for ``workers > 1``; each statistic bounds its own temporaries.
    """
    N, M, L = dims
    step = max(1, _BLOCK_DRAW_BYTES // (16 * L * N * M))
    count = 0
    for lo in range(0, n_trials, step):
        taps = sample_complex_gaussian(N, M, rng, size=(min(step, n_trials - lo), L))
        count += int(np.count_nonzero(statistic(taps, rho, threshold) < threshold))
    return count


def _capacity(taps, rho, rate, cfg):
    """The outage statistic; `mmse` is looked up at call time, not bound.

    A capacity may be a float32 value, but always on the float64
    capacity's side of ``rate``, so every outage decision is float64's.
    """
    return mmse.selective_capacity_batch(taps, rho, cfg.K, cfg.scaling, rate=rate)


def estimate_outage(cfg, snr_grid_db, policy=None, master_seed=0, workers=1):
    """Monte Carlo outage curve P(capacity < R) over an SNR grid in dB.

    Each grid point draws independent channel realizations (one Gaussian
    N x M matrix when flat, L tap matrices when selective), computes the
    MMSE capacity and counts outage events until the policy's event target
    or trial budget is hit; a block draws its channels in slices of at most
    `_BLOCK_DRAW_BYTES` of taps (`_count_below`).  Capacities are screened
    in float32 against R and re-decided in float64 near it, so every
    outage decision, and with it every count, equals the float64 one.
    Given (cfg, grid, policy, master_seed) the returned curve is
    bit-identical for any worker count.
    The grid is checked as ``rho = 10^(dB/10)`` by `estimate_binomial_curve`.
    """
    snr_db = np.asarray(snr_grid_db, dtype=float)
    kernel = functools.partial(_count_below, functools.partial(_capacity, cfg=cfg),
                               cfg.R, (cfg.N, cfg.M, cfg.L))
    return estimate_binomial_curve(kernel, 10.0 ** (snr_db / 10.0),
                                   policy=policy, master_seed=master_seed,
                                   workers=workers, scenario=cfg.label(),
                                   snr_db_grid=snr_db)


@dataclass(frozen=True)
class FitWindow:
    """Eligibility window for slope fitting.

    Only converged points with ``p_min <= p_out <= p_max`` inside the SNR
    range take part in the fit.  The decay exponent is a high-SNR
    statement, hence the default cap of p_out <= 0.1.
    """

    p_min: float = 0.0
    p_max: float = 0.1
    snr_db_min: float = -math.inf
    snr_db_max: float = math.inf


@dataclass(frozen=True)
class SlopeFit:
    """Fitted outage decay exponent d_hat with fit diagnostics.

    ``window_db`` records the SNR span of the points actually used, which
    reports should state whenever convergence limits the usable window.
    """

    d_hat: float
    intercept: float
    points_used: int
    residual: float
    window_db: tuple


def fit_diversity_slope(curve, window=None):
    """Diversity exponent from a log10-log10 weighted least-squares fit.

    Regresses log10 p_out on log10 rho over the eligible points of the
    curve, weighting each point by its event count (approximately inverse
    variance of log p_out); ``d_hat`` is minus the slope.
    """
    window = FitWindow() if window is None else window
    pts = [pt for pt in curve.points
           if pt.converged and pt.p_out > 0.0
           and window.p_min <= pt.p_out <= window.p_max
           and window.snr_db_min <= pt.snr_db <= window.snr_db_max]
    if len(pts) < 3:
        raise InsufficientDataError(
            f"slope fit needs at least 3 eligible points, found {len(pts)} "
            f"(converged, {window.p_min:g} <= p_out <= {window.p_max:g}, "
            f"SNR in [{window.snr_db_min:g}, {window.snr_db_max:g}] dB)")
    x = np.log10([pt.rho for pt in pts])
    y = np.log10([pt.p_out for pt in pts])
    counts = np.asarray([pt.outages for pt in pts], dtype=float)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(counts))
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.sum(counts * resid ** 2) / np.sum(counts)))
    return SlopeFit(d_hat=float(-slope), intercept=float(intercept),
                    points_used=len(pts), residual=rms,
                    window_db=(float(pts[0].snr_db), float(pts[-1].snr_db)))
