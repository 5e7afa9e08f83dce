"""Wishart small-eigenvalue tails govern the outage exponents.

The probability that the m smallest eigenvalues of H^H H sit below b/rho
decays like rho^{-m(N-M+m)}.  This demo estimates two such tail curves by
Monte Carlo, fits their log-log slopes, and overlays the closed-form
exponent.  For M=N=1 the exact law 1 - exp(-b/rho) is also drawn as a
sanity anchor.

Run (about half a minute):
    python demos/wishart_tail_exponents.py
"""

import numpy as np

from mmsediv import (FitWindow, TrialPolicy, fit_diversity_slope,
                     smallest_eigs_probability, tail_sum_probability)

POLICY = TrialPolicy(max_trials=2_000_000, target_events=200,
                     block_trials=100_000)


def show(curve, label, predicted):
    fit = fit_diversity_slope(curve, FitWindow(p_max=0.1))
    print(f"\n{label}: fitted exponent {fit.d_hat:.3f} "
          f"(closed form {predicted})")
    for pt in curve.points:
        tag = {"converged": "", "capped": "  (unconverged)",
               "skipped": "  (skipped)"}[pt.status]
        print(f"  {pt.snr_db:5.1f} dB  p = {pt.p_out:.3e}{tag}")
    return fit


def main():
    rho_a = 10.0 ** (np.arange(10.0, 40.1, 5.0) / 10.0)
    curve_a = tail_sum_probability(2, 2, 1, 1.0, rho_a, policy=POLICY,
                                   master_seed=31, workers=2)
    fit_a = show(curve_a, "sum tail, M=N=2, m=1, b=1", 1)

    rho_b = 10.0 ** (np.arange(6.0, 11.1, 1.0) / 10.0)
    curve_b = smallest_eigs_probability(2, 2, 2, 2.0, rho_b, policy=POLICY,
                                        master_seed=32, workers=2)
    fit_b = show(curve_b, "smallest-eig tail, M=N=2, m=2, b=2", 4)

    rho_c = 10.0 ** (np.arange(5.0, 30.1, 5.0) / 10.0)
    curve_c = tail_sum_probability(1, 1, 1, 1.0, rho_c, policy=POLICY,
                                   master_seed=33)
    print("\nSISO anchor: estimate vs exact 1 - exp(-1/rho)")
    for pt in curve_c.points:
        exact = 1.0 - np.exp(-1.0 / pt.rho)
        inside = pt.ci_low <= exact <= pt.ci_high
        print(f"  {pt.snr_db:5.1f} dB  p = {pt.p_out:.3e}  exact {exact:.3e}  "
              f"{'in CI' if inside else 'OUTSIDE CI'}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return
    fig, ax = plt.subplots(figsize=(6, 4.5))
    for curve, fit, pred, style in ((curve_a, fit_a, 1, "o-"),
                                    (curve_b, fit_b, 4, "s-")):
        mask = curve.converged
        ax.semilogy(curve.snr_db[mask], curve.p_out[mask], style,
                    label=f"{curve.scenario}: fit {fit.d_hat:.2f}, exact {pred}")
    ax.set_xlabel("10 log10(rho)  (dB)")
    ax.set_ylabel("tail probability")
    ax.set_title("Wishart small-eigenvalue tail exponents")
    ax.grid(True, which="both", linestyle=":")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("wishart_tail_exponents.png", dpi=150)
    print("\nwrote wishart_tail_exponents.png")


if __name__ == "__main__":
    main()
