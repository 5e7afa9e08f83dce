"""Rate-regime diversity prediction, outage estimation and slope fitting.

The closed-form side resolves, for a fixed target rate R, the regime index
m whose per-stream rate interval contains R/M and reports the predicted
high-SNR outage decay exponent (the diversity order): ``m (N - M + m)``
for flat fading and ``m (L N - M + m)`` for cyclic-prefix
frequency-selective channels with block length K large enough
(``K > M^2 (L - 1)``).  For selective channels there is a gap of rates
where only a bracket ``[(m-1)(LN-M+(m-1)), m(LN-M+m)]`` is known; the
resolver reports the bracket and never a point value there.

The Monte Carlo side estimates outage probabilities ``P(I < R)`` over an
SNR grid with the deterministic block engine of `mmsediv.montecarlo`, and
`fit_diversity_slope` recovers the decay exponent by weighted
least-squares regression of log10 p_out on log10 rho.  Diversity is a
high-SNR limit statement, so only converged points with small outage
probability are eligible for the fit by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mmse
from .exceptions import (ApplicabilityError, BoundaryRateError,
                         ConfigurationError, InsufficientDataError)
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
    "resolve_rate_regime_flat",
    "resolve_rate_regime_selective",
]

@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and scenario parameters of one simulated link.

    ``L == 1`` describes a flat-fading channel (K is then unused);
    ``L > 1`` a cyclic-prefix frequency-selective channel with block
    length ``K >= L``.
    """

    M: int
    N: int
    R: float
    L: int = 1
    K: int = 1
    scaling: str = "per-tap"

    def __post_init__(self):
        if self.M < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.M}")
        if self.N < self.M:
            raise ConfigurationError(f"need N >= M, got N={self.N}, M={self.M}")
        if self.L < 1:
            raise ConfigurationError(f"L must be >= 1, got {self.L}")
        if self.K < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.K}")
        if self.L > 1 and self.K < self.L:
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

    ``rate_interval`` bounds R/M (bits/s/Hz per stream); ``tight`` is true
    exactly when the two diversity bounds coincide.
    """

    m: int
    rate_interval: tuple
    diversity_low: int
    diversity_high: int
    tight: bool

    def describe(self):
        if self.tight:
            return f"m={self.m}, diversity={self.diversity_high} (tight)"
        return (f"m={self.m}, diversity in "
                f"[{self.diversity_low}, {self.diversity_high}] (bounds only)")


def _lower_boundary(n_streams, m):
    """Per-stream rate at the lower edge of regime m: log2(M/m)."""
    return math.log2(n_streams / m)


def _find_regime_index(n_streams, rate_per_stream):
    """Unique m with log2(M/m) < R/M < log2(M/(m-1)); refuses exact boundaries."""
    for m in range(1, n_streams):
        if rate_per_stream == _lower_boundary(n_streams, m):
            raise BoundaryRateError(
                f"per-stream rate R/M = {rate_per_stream} equals the regime "
                f"boundary log2({n_streams}/{m}); regimes m={m} (above) and "
                f"m={m + 1} (below) meet there and neither applies")
    for m in range(1, n_streams + 1):
        if rate_per_stream > _lower_boundary(n_streams, m):
            return m
    # unreachable for rate_per_stream > 0: the m = M boundary is log2(1) = 0
    raise ConfigurationError(f"no regime contains R/M = {rate_per_stream}")


def resolve_rate_regime_flat(M, N, R):
    """Rate regime and diversity order for a flat-fading channel.

    The L = 1 case of `resolve_rate_regime_selective`: the regime index is
    the unique m in {1, ..., M} with ``log2(M/m) < R/M < log2(M/(m-1))``
    (upper bound +inf for m = 1), and the predicted diversity is
    ``m (N - M + m)``, always tight.  A rate exactly on a boundary raises
    `BoundaryRateError`.
    """
    return resolve_rate_regime_selective(M, N, 1, 1, R)


def resolve_rate_regime_selective(M, N, L, K, R):
    """Rate regime and diversity bounds for a cyclic-prefix selective channel.

    Requires the block length to satisfy ``K > M^2 (L - 1)`` (vacuous for
    L = 1).  The regime index m comes from the left boundaries
    ``log2(M/m)``.  If R/M also lies strictly below
    ``-log2((m-1)/M + (L-1)(M-(m-1))/K)`` the prediction is tight with
    diversity ``m (L N - M + m)``; otherwise R/M falls in the gap region
    and only the bracket ``[(m-1)(LN-M+(m-1)), m(LN-M+m)]`` is returned.
    For L = 1 the gap term vanishes and the tight interval ends at the
    regime's upper edge ``log2(M/(m-1))`` itself, which ``-log2((m-1)/M)``
    can miss by one ulp.
    """
    if M < 1 or N < M:
        raise ConfigurationError(f"need N >= M >= 1, got M={M}, N={N}")
    if L < 1 or K < max(1, L):
        raise ConfigurationError(f"need K >= L >= 1, got L={L}, K={K}")
    if R <= 0.0 or not math.isfinite(R):
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
                          diversity_low=d_high, diversity_high=d_high, tight=True)
    d_low = (m - 1) * (L * N - M + (m - 1))
    return RateRegime(m=m, rate_interval=(tight_high, upper),
                      diversity_low=d_low, diversity_high=d_high, tight=False)


def resolve_rate_regime(cfg):
    """Regime prediction for a `SystemConfig` (flat or selective)."""
    return resolve_rate_regime_selective(cfg.M, cfg.N, cfg.L, cfg.K, cfg.R)


_CHUNK_BYTES = 4 * 2**20
_MAX_CHUNK = 65536


def _capacity_chunk_size(n_bins, n_tx):
    """Trials per capacity evaluation, from the bytes of its per-bin arrays.

    A trial's per-bin Gram matrices hold ``K * M * M`` complex values; the
    chunk keeps their total near `_CHUNK_BYTES` whatever M and K are, so
    the memory of a kernel call is bounded and its temporaries stay in
    cache (1024 trials at M = 2, K = 64).
    """
    per_trial = 16 * n_bins * n_tx * n_tx
    return max(1, min(_MAX_CHUNK, _CHUNK_BYTES // per_trial))


@dataclass(frozen=True)
class _OutageKernel:
    """Counts capacity outages; ``n_taps == 1`` is flat fading."""

    n_tx: int
    n_rx: int
    n_taps: int
    n_bins: int
    rate: float
    scaling: str

    def __call__(self, rho, rng, n_trials):
        taps = sample_complex_gaussian(self.n_rx, self.n_tx, rng,
                                       size=(n_trials, self.n_taps))
        # a flat channel has one Gram matrix for every bin
        bins = self.n_bins if self.n_taps > 1 else 1
        chunk = _capacity_chunk_size(bins, self.n_tx)
        events = 0
        for lo in range(0, n_trials, chunk):
            cap = mmse.selective_capacity_batch(taps[lo:lo + chunk], rho,
                                                self.n_bins, self.scaling)
            events += int(np.count_nonzero(cap < self.rate))
        return events


def estimate_outage(cfg, snr_grid_db, policy=None, master_seed=0, workers=1):
    """Monte Carlo outage curve P(capacity < R) over an SNR grid in dB.

    Each grid point draws independent channel realizations (one Gaussian
    N x M matrix when flat, L tap matrices when selective), computes the
    MMSE capacity and counts outage events until the policy's event target
    or trial budget is hit.  Given (cfg, grid, policy, master_seed) the
    returned curve is bit-identical for any worker count.
    """
    snr_db = np.asarray(snr_grid_db, dtype=float)
    if snr_db.ndim != 1 or snr_db.size < 1:
        raise ConfigurationError("SNR grid must be a non-empty 1-D array")
    if np.any(np.diff(snr_db) <= 0.0):
        raise ConfigurationError("SNR grid must be strictly increasing")
    rho = 10.0 ** (snr_db / 10.0)
    kernel = _OutageKernel(n_tx=cfg.M, n_rx=cfg.N, n_taps=cfg.L, n_bins=cfg.K,
                           rate=cfg.R, scaling=cfg.scaling)
    return estimate_binomial_curve(kernel, rho, policy=policy,
                                   master_seed=master_seed, workers=workers,
                                   scenario=cfg.label(), snr_db_grid=snr_db)


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
