"""Cyclic-prefix frequency-selective outage: taps act like extra antennas.

Reproduces the reference scenario M=N=2, L=2 taps, block length K=64,
R=3 bits/s/Hz.  The predicted diversity is m(LN - M + m) = 3 at m = 1,
the same as a flat 2x4 link, and the fitted slope of the Monte Carlo
outage curve agrees.  Uses a reduced trial budget so the demo finishes in
about a minute; the acceptance suite runs the full-strength version.

Run:
    python demos/selective_outage_curve.py
"""

import numpy as np

from mmsediv import (FitWindow, SystemConfig, TrialPolicy, estimate_outage,
                     fit_diversity_slope, resolve_rate_regime)
from mmsediv.cli import write_curve_csv


def main():
    cfg = SystemConfig(M=2, N=2, R=3.0, L=2, K=64)
    regime = resolve_rate_regime(cfg)
    print(f"scenario: {cfg.label()}")
    print(f"prediction: {regime.describe()}")

    policy = TrialPolicy(max_trials=300_000, target_events=200,
                         block_trials=50_000)
    curve = estimate_outage(cfg, np.arange(0.0, 25.1, 2.5), policy=policy,
                            master_seed=2718, workers=2)
    for pt in curve.points:
        tag = {"converged": "", "capped": "  (unconverged)",
               "skipped": "  (skipped)"}[pt.status]
        print(f"  {pt.snr_db:5.1f} dB  p_out = {pt.p_out:.3e} "
              f"[{pt.ci_low:.2e}, {pt.ci_high:.2e}]{tag}")

    fit = fit_diversity_slope(curve, FitWindow(p_max=0.1))
    print(f"fitted d_hat = {fit.d_hat:.3f} "
          f"(predicted {regime.diversity_high}), window "
          f"{fit.window_db[0]:g}..{fit.window_db[1]:g} dB")

    write_curve_csv(curve, "selective_outage_curve.csv")
    print("wrote selective_outage_curve.csv")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(6, 4.5))
    mask = curve.converged
    ax.semilogy(curve.snr_db[mask], curve.p_out[mask], "s-", color="tab:red",
                label="Monte Carlo")
    anchor = curve.p_out[mask][-1]
    db = curve.snr_db[mask]
    ref = anchor * 10.0 ** (-regime.diversity_high * (db - db[-1]) / 10.0)
    ax.semilogy(db, ref, "k--", label=f"slope {regime.diversity_high}")
    ax.set_xlabel("SNR (dB)")
    ax.set_ylabel("outage probability")
    ax.set_title("MMSE outage, cyclic prefix, M=N=2, L=2, K=64, R=3")
    ax.grid(True, which="both", linestyle=":")
    ax.legend()
    fig.tight_layout()
    fig.savefig("selective_outage_curve.png", dpi=150)
    print("wrote selective_outage_curve.png")


if __name__ == "__main__":
    main()
