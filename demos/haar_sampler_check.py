"""Two roads to the Haar measure: recursive angles versus QR.

Draws unitary matrices from the recursive angular construction (uniform
phases plus Givens-rotation chains with Beta-law angles) and from the
phase-corrected QR factorization of a complex Gaussian matrix, then
compares |U_11|^2 histograms and the |entry|^2 moment table.  Both
samplers must agree: the Haar measure is unique.

Run:
    python demos/haar_sampler_check.py
"""

import numpy as np
from scipy import stats

from mmsediv import derive_stream, sample_haar_recursive
from mmsediv.randmat import sample_haar_qr_oracle, unitarity_residual

DRAWS = 50_000


def main():
    figures = []
    for order in (2, 3, 4):
        rec = sample_haar_recursive(order, derive_stream(5, order), size=DRAWS)
        qr = sample_haar_qr_oracle(order, derive_stream(6, order), size=DRAWS)
        print(f"\norder M = {order}")
        print(f"  unitarity residual: recursive {unitarity_residual(rec):.2e}, "
              f"QR {unitarity_residual(qr):.2e}")
        moments = np.abs(rec) ** 2
        print(f"  E|U_ij|^2 (recursive, want {1 / order:.4f}):")
        for row in moments.mean(axis=0):
            print("    " + "  ".join(f"{v:.4f}" for v in row))
        ks = stats.ks_2samp(np.abs(rec[:, 0, 0]) ** 2, np.abs(qr[:, 0, 0]) ** 2)
        print(f"  KS test on |U_11|^2, recursive vs QR: "
              f"stat={ks.statistic:.4f}, p={ks.pvalue:.3f}")
        figures.append((order, np.abs(rec[:, 0, 0]) ** 2, np.abs(qr[:, 0, 0]) ** 2))

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.6), sharey=True)
    for ax, (order, rec_sq, qr_sq) in zip(axes, figures):
        bins = np.linspace(0, 1, 41)
        ax.hist(rec_sq, bins=bins, density=True, alpha=0.55, label="recursive")
        ax.hist(qr_sq, bins=bins, density=True, alpha=0.55, label="QR")
        grid = np.linspace(0, 1, 200)
        ax.plot(grid, (order - 1) * (1 - grid) ** (order - 2) if order > 1
                else np.ones_like(grid), "k--", lw=1,
                label=r"$(M{-}1)(1-x)^{M-2}$")
        ax.set_title(f"M = {order}")
        ax.set_xlabel(r"$|U_{11}|^2$")
        ax.legend(fontsize=8)
    axes[0].set_ylabel("density")
    fig.suptitle("Haar samplers agree on the |U_11|^2 law")
    fig.tight_layout()
    fig.savefig("haar_sampler_check.png", dpi=150)
    print("\nwrote haar_sampler_check.png")


if __name__ == "__main__":
    main()
