"""Self-check suites behind the ``verify-*`` command-line subcommands.

Each suite runs a handful of statistical and structural invariants at a
desk-scale sample size and returns one `CheckResult` per invariant.  The
full-strength versions of these checks (larger draws, tighter windows)
live in the package's test suite; these are quick operational smoke
checks.  Only `verify_haar` loads scipy, for its KS test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mmse, randmat, wishart

__all__ = ["CheckResult", "verify_haar", "verify_sinr", "verify_wishart"]

# sample sizes of the suites
_HAAR_DRAWS = 20000
_SINR_INSTANCES = 30
_WISHART_DRAWS = 200000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _moment_check(samples_sq, order):
    """Max deviation of E|U_ij|^2 from 1/order, in units of standard errors."""
    mean = samples_sq.mean(axis=0)
    se = samples_sq.std(axis=0, ddof=1) / math.sqrt(samples_sq.shape[0])
    return float(np.max(np.abs(mean - 1.0 / order) / se))


def verify_haar(seed=0):
    """Unitarity, moment symmetry and sampler agreement for Haar unitaries."""
    from scipy import stats
    results = []
    for order in (2, 3, 4):
        rng = randmat.derive_stream(seed, order)
        rec = randmat.sample_haar_recursive(order, rng, size=_HAAR_DRAWS)
        qr = randmat.sample_haar_qr_oracle(order, rng, size=_HAAR_DRAWS)
        resid = max(randmat.unitarity_residual(rec), randmat.unitarity_residual(qr))
        results.append(CheckResult(
            name=f"haar-unitarity-M{order}",
            passed=resid <= 1e-10,
            detail=f"max |U*U - I| = {resid:.2e} (tolerance 1e-10)"))
        worst = max(_moment_check(np.abs(rec) ** 2, order),
                    _moment_check(np.abs(qr) ** 2, order))
        results.append(CheckResult(
            name=f"haar-moments-M{order}",
            passed=worst <= 3.0,
            detail=f"max |E|U_ij|^2 - 1/{order}| = {worst:.2f} standard errors"))
        ks = stats.ks_2samp(np.abs(rec[:, 0, 0]) ** 2, np.abs(qr[:, 0, 0]) ** 2)
        results.append(CheckResult(
            name=f"haar-agreement-M{order}",
            passed=ks.pvalue > 0.01,
            detail=f"KS p-value {ks.pvalue:.3f} between recursive and QR samplers"))
    return results


def verify_sinr(seed=0):
    """Frequency-domain SINRs against the block-circulant time-domain path."""
    rng = randmat.derive_stream(seed)
    worst = 0.0
    for _ in range(_SINR_INSTANCES):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 4))
        n_taps = int(rng.integers(1, 4))
        n_bins = int(rng.choice([4, 8, 16]))
        rho = float(10.0 ** rng.uniform(-0.5, 2.0))
        taps = randmat.sample_complex_gaussian(n, m, rng, size=n_taps)
        fast = mmse.selective_sinrs(taps, rho, n_bins)
        slow = mmse.selective_sinrs_oracle(taps, rho, n_bins)
        rel = float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-300)))
        worst = max(worst, rel)
    results = [CheckResult(
        name="sinr-oracle-equivalence",
        passed=worst <= 1e-8,
        detail=f"max relative discrepancy {worst:.2e} over {_SINR_INSTANCES} instances "
               "(tolerance 1e-8)")]
    taps = randmat.sample_complex_gaussian(3, 2, rng, size=1)
    gram = np.eye(2) + (7.5 / 2) * taps[0].conj().T @ taps[0]
    ref = 1.0 / np.real(np.diag(np.linalg.inv(gram))) - 1.0
    red = mmse.selective_sinrs(taps, 7.5, 8)
    rel = float(np.max(np.abs(red - ref) / np.abs(ref)))
    results.append(CheckResult(
        name="sinr-flat-reduction",
        passed=rel <= 1e-12,
        detail=f"single-tap SINRs vs diag of (I + (rho/M) H^H H)^-1 relative gap "
               f"{rel:.2e} (tolerance 1e-12)"))
    return results


def verify_wishart(seed=0):
    """Spectrum moments, ordering, and the closed-form density expression."""
    results = []
    rng = randmat.derive_stream(seed)
    lam = wishart.sample_spectra(2, 2, rng, _WISHART_DRAWS)
    ordered = bool(np.all(np.diff(lam, axis=1) >= 0.0) and np.all(lam >= 0.0))
    results.append(CheckResult(
        name="wishart-spectrum-ordering",
        passed=ordered,
        detail="eigenvalues ascending and nonnegative on every draw"))
    trace = lam.sum(axis=1)
    se = trace.std(ddof=1) / math.sqrt(_WISHART_DRAWS)
    dev = abs(trace.mean() - 4.0) / se
    results.append(CheckResult(
        name="wishart-trace-moment",
        passed=dev <= 3.0,
        detail=f"E[tr W] deviation {dev:.2f} standard errors from 4 (M=N=2)"))
    val = wishart.log_density_unnormalized(np.array([1.0, 2.0]), 2)
    results.append(CheckResult(
        name="wishart-density-value",
        passed=abs(val + 3.0) <= 1e-12,
        detail=f"log density at (1, 2) for M=N=2 is {val:.12f} (expected -3)"))
    perm = wishart.log_density_unnormalized(np.array([2.0, 1.0]), 2)
    sym = abs(perm - val) <= 1e-12
    results.append(CheckResult(
        name="wishart-density-symmetry",
        passed=sym,
        detail="log density invariant under permuting its arguments"))
    return results
