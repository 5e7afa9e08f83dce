"""Acceptance suite: one test per headline criterion, A1 through A9.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the stated tolerance.  The Monte Carlo scenarios use frozen master
seeds, calibrated grids and the deterministic block engine, so every run
reproduces the same numbers exactly.
"""

import math

import numpy as np

from mmsediv import (FitWindow, SystemConfig, TrialPolicy, derive_stream,
                     estimate_outage, fit_diversity_slope,
                     resolve_rate_regime, sample_complex_gaussian,
                     sample_haar_recursive, selective_sinrs,
                     smallest_eigs_probability, tail_sum_probability)
from mmsediv.cli import main as cli_main
from mmsediv.exceptions import ApplicabilityError, BoundaryRateError
from mmsediv.mmse import selective_sinrs_oracle
from mmsediv.randmat import sample_haar_qr_oracle, unitarity_residual
from scipy import stats


def report(tag, ok, detail):
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_selective_reference_curve():
    """A1: M=N=2, L=2, K=64, R=3; fitted exponent 3.0 +- 0.4 on 0-35 dB."""
    cfg = SystemConfig(M=2, N=2, R=3.0, L=2, K=64)
    policy = TrialPolicy(max_trials=1_000_000, target_events=200,
                         block_trials=100_000)
    curve = estimate_outage(cfg, np.arange(0.0, 35.1, 2.5), policy=policy,
                            master_seed=20260810, workers=2)
    fit = fit_diversity_slope(curve, FitWindow(p_min=1e-5, p_max=1e-1))
    ok = abs(fit.d_hat - 3.0) <= 0.4
    report("A1", ok,
           f"selective d_hat={fit.d_hat:.3f} (target 3.0 +- 0.4, "
           f"{fit.points_used} points over {fit.window_db[0]:g}-"
           f"{fit.window_db[1]:g} dB)")


def test_a2_flat_low_diversity_regime():
    """A2: flat M=N=2, R=3; fitted exponent 1.0 +- 0.25 over 10-35 dB."""
    cfg = SystemConfig(M=2, N=2, R=3.0)
    policy = TrialPolicy(max_trials=2_000_000, target_events=200,
                         block_trials=100_000)
    curve = estimate_outage(cfg, np.arange(10.0, 35.1, 2.5), policy=policy,
                            master_seed=11, workers=2)
    fit = fit_diversity_slope(curve, FitWindow(snr_db_min=10.0, snr_db_max=35.0))
    ok = abs(fit.d_hat - 1.0) <= 0.25
    report("A2", ok, f"flat m=1 d_hat={fit.d_hat:.3f} (target 1.0 +- 0.25)")


def test_a3_flat_full_diversity_regime():
    """A3: flat M=N=2, R=1.2; fitted exponent 4.0 +- 0.8 on converged points."""
    cfg = SystemConfig(M=2, N=2, R=1.2)
    policy = TrialPolicy(max_trials=10_000_000, target_events=200,
                         block_trials=200_000)
    curve = estimate_outage(cfg, np.arange(0.0, 20.1, 2.5), policy=policy,
                            master_seed=12, workers=2)
    fit = fit_diversity_slope(curve, FitWindow(p_max=0.05))
    ok = abs(fit.d_hat - 4.0) <= 0.8
    report("A3", ok,
           f"flat full-diversity d_hat={fit.d_hat:.3f} (target 4.0 +- 0.8); "
           f"steepness limits the usable window to "
           f"{fit.window_db[0]:g}-{fit.window_db[1]:g} dB "
           f"({fit.points_used} converged points)")


def test_a4_sum_tail_exponents():
    """A4: smallest-eigenvalue-sum tails match m(N-M+m)."""
    rho = 10.0 ** (np.array([15.0, 20, 25, 30, 35, 40]) / 10.0)
    policy = TrialPolicy(max_trials=2_000_000, target_events=200,
                         block_trials=100_000)
    curve = tail_sum_probability(2, 2, 1, 1.0, rho, policy=policy,
                                 master_seed=41, workers=2)
    fit_a = fit_diversity_slope(curve, FitWindow(p_max=0.1))
    ok_a = abs(fit_a.d_hat - 1.0) <= 0.2

    rho = 10.0 ** (np.arange(5.5, 9.01, 0.5) / 10.0)
    policy = TrialPolicy(max_trials=10_000_000, target_events=300,
                         block_trials=200_000)
    curve = tail_sum_probability(2, 3, 2, 4.0, rho, policy=policy,
                                 master_seed=42, workers=2)
    fit_b = fit_diversity_slope(curve, FitWindow(p_max=0.1))
    ok_b = abs(fit_b.d_hat - 6.0) <= 0.9
    report("A4", ok_a and ok_b,
           f"sum-tail exponents: M=N=2,m=1,b=1 -> {fit_a.d_hat:.3f} "
           f"(1.0 +- 0.2); M=2,N=3,m=2,b=4 -> {fit_b.d_hat:.3f} (6.0 +- 0.9)")


def test_a5_smallest_eigenvalue_exponent():
    """A5: P(lambda_m <= b/rho) decays with exponent m(N-M+m)."""
    rho = 10.0 ** (np.arange(7.0, 11.1, 1.0) / 10.0)
    policy = TrialPolicy(max_trials=10_000_000, target_events=200,
                         block_trials=200_000)
    curve = smallest_eigs_probability(2, 2, 2, 2.0, rho, policy=policy,
                                      master_seed=43, workers=2)
    fit = fit_diversity_slope(curve, FitWindow(p_max=0.1))
    ok = abs(fit.d_hat - 4.0) <= 0.8
    report("A5", ok,
           f"smallest-eig exponent: M=N=2,m=2,b=2 -> {fit.d_hat:.3f} "
           f"(target 4.0 +- 0.8)")


def test_a6_sinr_oracle_equivalence():
    """A6: 100 random instances, frequency vs time domain within 1e-8."""
    rng = derive_stream(60)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 4))
        taps_count = int(rng.integers(1, 4))
        bins = int(rng.choice([4, 8, 16]))
        rho = float(10.0 ** rng.uniform(-0.5, 2.5))
        scaling = str(rng.choice(["per-tap", "paper"]))
        taps = sample_complex_gaussian(n, m, rng, size=taps_count)
        fast = selective_sinrs(taps, rho, bins, scaling=scaling)
        slow = selective_sinrs_oracle(taps, rho, bins, scaling=scaling)
        rel = float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-300)))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    report("A6", ok,
           f"SINR frequency/time-domain max relative discrepancy {worst:.2e} "
           "over 100 instances (tolerance 1e-8)")


def test_a7_haar_construction_validity():
    """A7: unitarity, 1/M moments and sampler agreement for M in {2,3,4}."""
    n = 100_000
    details = []
    ok = True
    for order in (2, 3, 4):
        rec = sample_haar_recursive(order, derive_stream(70, order), size=n)
        qr = sample_haar_qr_oracle(order, derive_stream(71, order), size=n)
        resid = max(unitarity_residual(rec), unitarity_residual(qr))
        ok &= resid <= 1e-10
        for u in (rec, qr):
            sq = np.abs(u) ** 2
            se = sq.std(axis=0, ddof=1) / math.sqrt(n)
            ok &= bool(np.all(np.abs(sq.mean(axis=0) - 1.0 / order) <= 3 * se))
        pvalue = stats.ks_2samp(np.abs(rec[:, 0, 0]) ** 2,
                                np.abs(qr[:, 0, 0]) ** 2).pvalue
        ok &= pvalue > 0.01
        details.append(f"M={order}: resid={resid:.1e}, KS p={pvalue:.3f}")
    report("A7", ok, "; ".join(details))


def test_a8_predictor_unit_suite():
    """A8: regime tables for M <= 4 plus boundary and applicability refusals."""
    ok = True
    for m_streams in range(1, 5):
        for n_rx in (m_streams, m_streams + 2):
            for m in range(1, m_streams + 1):
                low = math.log2(m_streams / m)
                high = (math.log2(m_streams / (m - 1)) if m > 1 else low + 2.0)
                rate = m_streams * 0.5 * (low + high)
                regime = resolve_rate_regime(SystemConfig(M=m_streams, N=n_rx,
                                                          R=rate))
                ok &= regime.m == m and regime.tight
                ok &= regime.diversity_high == m * (n_rx - m_streams + m)
    for m_streams in range(2, 5):
        for m in range(1, m_streams):
            try:
                rate = m_streams * math.log2(m_streams / m)
                resolve_rate_regime(SystemConfig(M=m_streams, N=m_streams, R=rate))
                ok = False
            except BoundaryRateError:
                pass
    # Theorem-2 style logic: tight vs gap split and the K refusal
    for (m_streams, n_rx, taps, k) in [(2, 2, 2, 64), (2, 3, 2, 16), (3, 3, 2, 32)]:
        for m in range(1, m_streams + 1):
            gap_arg = (m - 1) / m_streams + (taps - 1) * (m_streams - (m - 1)) / k
            tight_high = -math.log2(gap_arg) if gap_arg > 0 else math.inf
            low = math.log2(m_streams / m)
            probe = m_streams * 0.5 * (low + min(tight_high, low + 2.0))
            regime = resolve_rate_regime(SystemConfig(
                M=m_streams, N=n_rx, R=probe, L=taps, K=k))
            ok &= regime.m == m and regime.tight
            ok &= regime.diversity_high == m * (taps * n_rx - m_streams + m)
            upper = math.log2(m_streams / (m - 1)) if m > 1 else math.inf
            if tight_high < upper:
                gap_probe = m_streams * (0.5 * (tight_high + min(upper, tight_high + 1.0)))
                regime = resolve_rate_regime(SystemConfig(
                    M=m_streams, N=n_rx, R=gap_probe, L=taps, K=k))
                ok &= regime.m == m and not regime.tight
                ok &= regime.diversity_high == m * (taps * n_rx - m_streams + m)
                ok &= regime.diversity_low == (m - 1) * (taps * n_rx - m_streams + (m - 1))
    try:
        resolve_rate_regime(SystemConfig(M=2, N=2, R=3.0, L=2, K=4))
        ok = False
    except ApplicabilityError as err:
        ok &= "K > M^2(L-1)" in str(err)
    report("A8", ok, "regime tables, boundary refusal and K > M^2(L-1) refusal")


def test_a9_worker_count_determinism(tmp_path):
    """A9: same seed, different worker counts, bit-identical CSV output."""
    args = ["outage", "--M", "2", "--N", "2", "--L", "2", "--K", "16",
            "--rate", "3", "--snr-start", "0", "--snr-stop", "15",
            "--snr-step", "2.5", "--max-trials", "20000",
            "--target-events", "100", "--seed", "314", "--d-tolerance", "10"]
    outputs = []
    for workers in (1, 2, 3, 1):
        path = tmp_path / f"workers{workers}-{len(outputs)}.csv"
        code = cli_main(args + ["--workers", str(workers), "--out", str(path)])
        assert code in (0, 2)
        outputs.append(path.read_bytes())
    ok = all(blob == outputs[0] for blob in outputs[1:])
    report("A9", ok,
           f"CSV output identical across worker counts (1, 2, 3, 1); "
           f"{len(outputs[0])} bytes each")
