"""Closed-form rate regimes: which diversity does an MMSE receiver get?

Sweeps the target rate for a few antenna configurations and prints the
regime index m, the per-stream rate interval and the predicted diversity.
Every row comes from `resolve_rate_regime` on a `SystemConfig`: flat
fading is its L = 1 case.  For cyclic-prefix frequency-selective channels
(L > 1) the table also shows the gap rates where only a diversity bracket
is known.

Run:
    python demos/rate_regime_tables.py
"""

import math

from mmsediv import (ApplicabilityError, BoundaryRateError, SystemConfig,
                     resolve_rate_regime)


def flat_table(m_streams, n_rx):
    print(f"\nflat fading, M={m_streams}, N={n_rx}")
    print(f"{'R':>7} {'R/M':>7} {'m':>3} {'interval (R/M)':>22} {'diversity':>10}")
    rates = [0.1 + 0.35 * i for i in range(12)]
    for rate in rates:
        try:
            reg = resolve_rate_regime(SystemConfig(M=m_streams, N=n_rx, R=rate))
        except BoundaryRateError:
            print(f"{rate:7.2f} {'-':>7} {'boundary rate, refused':>38}")
            continue
        low, high = reg.rate_interval
        interval = f"({low:.3f}, {'inf' if math.isinf(high) else f'{high:.3f}'})"
        print(f"{rate:7.2f} {rate / m_streams:7.3f} {reg.m:3d} {interval:>22} "
              f"{reg.diversity_high:10d}")


def selective_table(m_streams, n_rx, taps, block):
    print(f"\ncyclic prefix, M={m_streams}, N={n_rx}, L={taps}, K={block}")
    print(f"{'R':>7} {'m':>3} {'tight':>6} {'diversity':>12}")
    rates = [0.2 + 0.45 * i for i in range(14)]
    for rate in rates:
        try:
            reg = resolve_rate_regime(SystemConfig(M=m_streams, N=n_rx, R=rate,
                                                   L=taps, K=block))
        except BoundaryRateError:
            print(f"{rate:7.2f}   boundary rate, refused")
            continue
        except ApplicabilityError as err:
            print(f"{rate:7.2f}   {err}")
            continue
        if reg.tight:
            div = f"{reg.diversity_high}"
        else:
            div = f"[{reg.diversity_low}, {reg.diversity_high}]"
        print(f"{rate:7.2f} {reg.m:3d} {str(reg.tight):>6} {div:>12}")


def main():
    flat_table(2, 2)
    flat_table(2, 4)
    flat_table(4, 4)
    selective_table(2, 2, 2, 64)
    # small K narrows the tight regions and opens visible gap brackets
    selective_table(2, 2, 2, 8)


if __name__ == "__main__":
    main()
