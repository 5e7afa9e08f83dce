"""Properties of the lag-domain MMSE capacity path.

The capacity path builds each bin's Gram matrix from the tap
autocorrelation instead of the per-bin channels; these tests hold it to a
per-bin reference built from `transfer_function` at every L, L = 1 (flat
fading) included, and to monotonicity in the SNR.  The chunking of
`selective_capacity_batch` is held to its chunk-sized calls, and bounds on
the memory of one capacity call and of one outage-kernel call, for a
selective and a flat link, cover it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmsediv import (SystemConfig, derive_stream, diversity, mmse,
                     sample_complex_gaussian, selective_capacity_batch,
                     transfer_function)

REALIZATIONS = 3


@st.composite
def links(draw, max_taps=4):
    """(taps, n_bins, scaling) with M in 1..6, N in M..M+6, L in 1..max_taps, K in L..32.

    M >= 3 reaches the elimination terms of `mmse._inverse_diagonal` that
    skip a row (``z_jk`` with k > j + 1).
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, m + 6))
    n_taps = draw(st.integers(1, max_taps))
    n_bins = draw(st.integers(n_taps, 32))
    scaling = draw(st.sampled_from(["per-tap", "paper"]))
    seed = draw(st.integers(0, 2**32 - 1))
    taps = sample_complex_gaussian(n, m, derive_stream(seed),
                                   size=(REALIZATIONS, n_taps))
    return taps, n_bins, scaling


snr_db = st.floats(-10.0, 40.0)


def per_bin_capacity(taps, rho, n_bins, scaling):
    """Capacity from the explicit per-bin channels and full matrix inverses."""
    n_taps, _, m = taps.shape[-3:]
    c = mmse.noise_scaling(rho, m, n_taps, scaling)
    freq = transfer_function(taps, n_bins)
    gram = np.eye(m) + c * np.einsum("...kni,...knj->...kij", freq.conj(), freq)
    inv = np.linalg.inv(gram)
    mse = np.real(np.diagonal(inv, axis1=-2, axis2=-1)).mean(axis=-2)
    beta = np.maximum(1.0 / mse - 1.0, 0.0)
    return np.sum(np.log2(1.0 + beta), axis=-1)


@given(links(), snr_db)
def test_matches_per_bin_reference(link, snr):
    taps, n_bins, scaling = link
    rho = 10.0 ** (snr / 10.0)
    got = selective_capacity_batch(taps, rho, n_bins, scaling)
    expected = per_bin_capacity(taps, rho, n_bins, scaling)
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected))


@given(links(), snr_db, st.floats(0.0, 20.0))
def test_capacity_nondecreasing_in_snr(link, snr, step_db):
    taps, n_bins, scaling = link
    low = selective_capacity_batch(taps, 10.0 ** (snr / 10.0), n_bins, scaling)
    high = selective_capacity_batch(taps, 10.0 ** ((snr + step_db) / 10.0),
                                    n_bins, scaling)
    assert np.all(high >= low * (1.0 - 1e-12))


@pytest.mark.parametrize("n_taps, n_bins", [(2, 64), (1, 1)],
                         ids=["selective", "flat"])
@pytest.mark.parametrize("lead", [(), (0,), (4, 5000)],
                         ids=["single", "empty", "4x5000"])
def test_chunked_call_is_its_chunk_calls(n_taps, n_bins, lead):
    # 20,000 realizations of a 2x2 link are 20 chunks at L = 2, K = 64 and
    # 2 chunks at L = 1; each chunk-sized call is one `_mse` call
    taps = sample_complex_gaussian(2, 2, derive_stream(3, n_taps, len(lead)),
                                   size=(*lead, n_taps))
    got = selective_capacity_batch(taps, 10.0, n_bins)
    stack = taps.reshape(-1, n_taps, 2, 2)
    chunk = mmse._capacity_chunk_size(stack.shape[1:], n_bins)
    parts = [stack[lo:lo + chunk] for lo in range(0, len(stack), chunk)]
    calls = [selective_capacity_batch(part, 10.0, n_bins) for part in parts]
    for part, cap in zip(parts, calls):
        beta = mmse._sinrs_from_mse(mmse._mse(part, 10.0, n_bins))
        assert np.array_equal(cap, np.sum(np.log2(1.0 + beta), axis=-1))
    assert np.shape(got) == lead
    assert np.array_equal(got, np.concatenate([np.empty(0), *calls]).reshape(lead))


def test_capacity_call_memory_is_bounded():
    # 20,000 realizations of a 2x2, 2-tap link over 64 bins in one call: the
    # taps take 2.4 MiB, and one `_mse` call on all of them peaks near 82 MiB
    taps = sample_complex_gaussian(2, 2, derive_stream(0, 1), size=(20_000, 2))
    tracemalloc.start()
    try:
        selective_capacity_batch(taps, 10.0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("cfg, n_trials, limit_mib", [
    # 2048 trials of an 8x8, 4-tap link over 256 bins: the per-bin Gram
    # matrices alone would take 2048 * 256 * 64 * 16 B = 512 MiB at once
    (SystemConfig(M=8, N=8, L=4, K=256, R=20.0), 2048, 64),
    # one flat 2x2 block: sampling peaks near 18 MiB; the capacity stage
    # holds 12 MiB of taps plus a chunk's temporaries, which lag chunks
    # sized for one Gram matrix per trial (65536 * 384 B) push past 30 MiB
    (SystemConfig(M=2, N=2, R=1.2), 200_000, 30),
], ids=["selective", "flat"])
def test_outage_kernel_memory_is_bounded(cfg, n_trials, limit_mib, monkeypatch):
    # the kernel `estimate_outage` hands to the block engine
    monkeypatch.setattr(diversity, "estimate_binomial_curve",
                        lambda kernel, *args, **kwargs: kernel)
    kernel = diversity.estimate_outage(cfg, [10.0])
    tracemalloc.start()
    try:
        kernel(10.0, derive_stream(0, 0, 0), n_trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
