"""Outage and diversity analysis of MIMO MMSE receivers.

A numpy/scipy library for computing exact per-stream MMSE SINRs in flat
and cyclic-prefix frequency-selective MIMO channels, estimating outage
probabilities by deterministic parallel Monte Carlo, fitting high-SNR
diversity exponents from the resulting curves, and checking them against
closed-form rate-regime predictions and Wishart eigenvalue tail
asymptotics.  A thin command-line front-end lives in `mmsediv.cli`.
"""

__version__ = "0.1.0"

from .diversity import (FitWindow, RateRegime, SlopeFit, SystemConfig,
                        estimate_outage, fit_diversity_slope,
                        resolve_rate_regime)
from .exceptions import (ApplicabilityError, BoundaryRateError,
                         ConfigurationError, InsufficientDataError,
                         NumericalError, NumericalHealthWarning)
from .mmse import (selective_capacity_batch, selective_sinrs,
                   selective_sinrs_oracle, transfer_function)
from .montecarlo import (BinomialCurve, CurvePoint, TrialPolicy,
                         estimate_binomial_curve, wilson_interval)
from .randmat import (derive_stream, sample_complex_gaussian,
                      sample_haar_qr_oracle, sample_haar_recursive,
                      unitarity_residual)
from .wishart import (log_density_unnormalized, sample_spectra,
                      smallest_eigs_probability, tail_sum_probability)

__all__ = [
    "ApplicabilityError",
    "BinomialCurve",
    "BoundaryRateError",
    "ConfigurationError",
    "CurvePoint",
    "FitWindow",
    "InsufficientDataError",
    "NumericalError",
    "NumericalHealthWarning",
    "RateRegime",
    "SlopeFit",
    "SystemConfig",
    "TrialPolicy",
    "derive_stream",
    "estimate_binomial_curve",
    "estimate_outage",
    "fit_diversity_slope",
    "log_density_unnormalized",
    "resolve_rate_regime",
    "sample_complex_gaussian",
    "sample_haar_qr_oracle",
    "sample_haar_recursive",
    "sample_spectra",
    "selective_capacity_batch",
    "selective_sinrs",
    "selective_sinrs_oracle",
    "smallest_eigs_probability",
    "tail_sum_probability",
    "transfer_function",
    "unitarity_residual",
    "wilson_interval",
]
