"""Reproduce the paper's diversity claims from Monte Carlo curves.

Each row of `CASES` estimates one curve, fits its log-log slope d_hat and
prints both beside the prediction: the rate regime of `resolve_rate_regime`
for an outage row, the Wishart tail exponent m(N-M+m) for a tail row.
Every grid point prints with its 95 % interval, and on the SISO row with
the exact law 1 - exp(-1/rho) too.  If matplotlib imports, reproduce.png
shows each row against a dashed line of its predicted slope.

Run (about 5 s on 2 cores):
    python demos/reproduce.py
"""

from dataclasses import dataclass

import numpy as np

from mmsediv import (FitWindow, InsufficientDataError, SystemConfig,
                     TrialPolicy, estimate_outage, fit_diversity_slope,
                     resolve_rate_regime, smallest_eigs_probability,
                     tail_sum_probability)

WORKERS = 2


@dataclass(frozen=True)
class Case:
    """One curve: an outage curve of ``cfg``, or the tail
    ``estimator(M, N, m, b)`` of ``tail = (estimator, M, N, m, b)``."""

    name: str
    grid_db: np.ndarray
    seed: int
    cfg: SystemConfig | None = None
    tail: tuple = ()
    p_max: float = 0.1
    policy: TrialPolicy = TrialPolicy(max_trials=2_000_000, target_events=200,
                                      block_trials=100_000)
    exact: object = None  # exact law p(rho), if one is known


CASES = (
    Case("flat 2x2, R = 3", np.arange(0.0, 35.1, 2.5), 101,
         cfg=SystemConfig(M=2, N=2, R=3.0), p_max=0.05),
    Case("flat 2x2, R = 1.2", np.arange(0.0, 17.6, 2.5), 102,
         cfg=SystemConfig(M=2, N=2, R=1.2), p_max=0.05),
    Case("A1: 2x2, L = 2, K = 64, R = 3", np.arange(0.0, 25.1, 2.5), 2718,
         cfg=SystemConfig(M=2, N=2, R=3.0, L=2, K=64),
         policy=TrialPolicy(max_trials=300_000, target_events=200,
                            block_trials=50_000)),
    Case("sum tail, M = N = 2, m = 1, b = 1", np.arange(10.0, 40.1, 5.0), 31,
         tail=(tail_sum_probability, 2, 2, 1, 1.0)),
    Case("smallest-eig tail, M = N = 2, m = 2, b = 2",
         np.arange(6.0, 11.1, 1.0), 32,
         tail=(smallest_eigs_probability, 2, 2, 2, 2.0)),
    Case("SISO tail, b = 1", np.arange(5.0, 30.1, 5.0), 33,
         tail=(tail_sum_probability, 1, 1, 1, 1.0),
         exact=lambda rho: 1.0 - np.exp(-1.0 / rho)),
)


def row(case):
    """Run one case and print its row; return its predicted slope and curve."""
    if case.cfg is not None:
        regime = resolve_rate_regime(case.cfg)
        prediction, d = regime.describe(), regime.diversity_high
        curve = estimate_outage(case.cfg, case.grid_db, policy=case.policy,
                                master_seed=case.seed, workers=WORKERS)
    else:
        estimator, M, N, m, b = case.tail
        d = m * (N - M + m)
        prediction = f"m(N-M+m) = {d}"
        curve = estimator(M, N, m, b, 10.0 ** (case.grid_db / 10.0),
                          policy=case.policy, master_seed=case.seed,
                          workers=WORKERS)
    print(f"\n{case.name}\n  prediction: {prediction}")
    try:
        fit = fit_diversity_slope(curve, FitWindow(p_max=case.p_max))
        print(f"  d_hat = {fit.d_hat:.3f} over {fit.window_db[0]:g}.."
              f"{fit.window_db[1]:g} dB ({fit.points_used} points, "
              f"p <= {case.p_max:g})")
    except InsufficientDataError as exc:
        print(f"  unconverged: {exc}")
    for pt in curve.points:
        line = (f"  {pt.snr_db:5.1f} dB  p = {pt.p_out:.3e} "
                f"[{pt.ci_low:.3e}, {pt.ci_high:.3e}]")
        if case.exact is not None:
            exact = case.exact(pt.rho)
            inside = pt.ci_low <= exact <= pt.ci_high
            line += f"  exact {exact:.3e} {'in CI' if inside else 'OUTSIDE CI'}"
        print(line if pt.converged else f"{line}  ({pt.status})")
    return d, curve


def main():
    rows = [(case, *row(case)) for case in CASES]
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the figure")
        return
    fig, axes = plt.subplots(2, 3, figsize=(13, 7.5))
    for ax, (case, d, curve) in zip(axes.flat, rows):
        pts = [pt for pt in curve.points if pt.converged]
        db = np.array([pt.snr_db for pt in pts])
        ax.semilogy(db, [pt.p_out for pt in pts], "o-", label="Monte Carlo")
        # the predicted slope through the last converged point
        ref = pts[-1].p_out * 10.0 ** (-d * (db - db[-1]) / 10.0)
        ax.semilogy(db, ref, "k--", label=f"slope {d}")
        ax.set_title(case.name, fontsize=9)
        ax.set_xlabel("SNR (dB)")
        ax.grid(True, which="both", linestyle=":")
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("reproduce.png", dpi=150)
    print("\nwrote reproduce.png")


if __name__ == "__main__":
    main()
