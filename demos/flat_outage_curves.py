"""Flat-fading outage curves: the diversity of the MMSE receiver is rate-dependent.

Estimates P(capacity < R) for a 2x2 link at two target rates.  Above
R = M log2 M the receiver only collects diversity N - M + 1 = 1; below
M log2(M/(M-1)) it reaches the full diversity M*N = 4.  The fitted
log-log slopes of the two Monte Carlo curves show exactly that contrast.

Run (about half a minute):
    python demos/flat_outage_curves.py
"""

import numpy as np

from mmsediv import (FitWindow, SystemConfig, TrialPolicy, estimate_outage,
                     fit_diversity_slope, resolve_rate_regime)

POLICY = TrialPolicy(max_trials=2_000_000, target_events=200,
                     block_trials=100_000)


def sweep(rate, grid, seed):
    cfg = SystemConfig(M=2, N=2, R=rate)
    regime = resolve_rate_regime(cfg)
    curve = estimate_outage(cfg, grid, policy=POLICY, master_seed=seed,
                            workers=2)
    fit = fit_diversity_slope(curve, FitWindow(p_max=0.05))
    print(f"\nR = {rate} bits/s/Hz: predicted {regime.describe()}")
    print(f"fitted d_hat = {fit.d_hat:.3f} over "
          f"{fit.window_db[0]:g}..{fit.window_db[1]:g} dB "
          f"({fit.points_used} points)")
    for pt in curve.points:
        tag = {"converged": "", "capped": "  (unconverged)",
               "skipped": "  (skipped)"}[pt.status]
        print(f"  {pt.snr_db:5.1f} dB  p_out = {pt.p_out:.3e}{tag}")
    return curve, fit


def main():
    high, fit_high = sweep(3.0, np.arange(0.0, 35.1, 2.5), seed=101)
    low, fit_low = sweep(1.2, np.arange(0.0, 17.6, 2.5), seed=102)

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(6, 4.5))
    for curve, fit, label in ((high, fit_high, "R=3.0 (d=1 predicted)"),
                              (low, fit_low, "R=1.2 (d=4 predicted)")):
        mask = curve.converged
        ax.semilogy(curve.snr_db[mask], curve.p_out[mask], "o-",
                    label=f"{label}, fit {fit.d_hat:.2f}")
    ax.set_xlabel("SNR (dB)")
    ax.set_ylabel("outage probability")
    ax.set_title("MMSE receiver outage, flat fading, M=N=2")
    ax.grid(True, which="both", linestyle=":")
    ax.legend()
    fig.tight_layout()
    fig.savefig("flat_outage_curves.png", dpi=150)
    print("\nwrote flat_outage_curves.png")


if __name__ == "__main__":
    main()
