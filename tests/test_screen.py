"""The float32 screen of `selective_capacity_batch(..., rate=R)`.

Each capacity chunk is decided in float32 when every capacity lies farther
from R than its margin, and recomputed in float64 otherwise.  These tests
check the margin against float64 over extreme SNR and near-singular and
rescaled taps, that a screened call decides every realization as float64
does, and that a chunk the screen cannot decide, or whose float32
computation fails, returns the float64 capacities bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmsediv import (NumericalHealthWarning, derive_stream, sample_complex_gaussian,
                     selective_capacity_batch)
from mmsediv import mmse

N_REAL = 16


@st.composite
def screened_links(draw):
    m = draw(st.integers(1, 4))
    n_taps = draw(st.integers(1, 3))
    n_bins = draw(st.sampled_from([k for k in (1, 8, 64) if k >= n_taps]))
    n_rx = m + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["iid", "near-singular", "rescaled"]))
    scaling = draw(st.sampled_from(mmse.SCALING_CONVENTIONS))
    snr_db = draw(st.floats(-30.0, 60.0))
    rng = derive_stream(808, draw(st.integers(0, 2**20)))
    taps = sample_complex_gaussian(n_rx, m, rng, size=(N_REAL, n_taps))
    if kind == "near-singular" and m > 1:
        # one column a 1e-4 perturbation of another
        taps[..., 1] = taps[..., 0] + 1e-4 * sample_complex_gaussian(
            n_rx, 1, rng, size=(N_REAL, n_taps))[..., 0]
    if kind == "rescaled":
        taps *= 10.0 ** draw(st.integers(-12, 12))
    return taps, 10.0 ** (snr_db / 10.0), n_bins, scaling


@given(screened_links())
def test_margin_covers_float32_error_and_decisions(link):
    taps, rho, n_bins, scaling = link
    c64 = selective_capacity_batch(taps, rho, n_bins, scaling)
    screen = mmse._float32_capacity(taps, rho, n_bins, scaling)
    if screen is not None:
        c32, margin = screen
        assert np.all(np.abs(c32 - c64) <= margin / 4)
    else:
        margin = np.zeros(N_REAL)
    for i in (0, int(np.argmin(c64)), int(np.argmax(c64))):
        ulps = [np.nextafter(c64[i], np.inf), np.nextafter(c64[i], -np.inf)]
        ulps += [np.nextafter(u, d) for u, d in zip(ulps, (np.inf, -np.inf))]
        for rate in [c64[i], *ulps, c64[i] + margin[i], c64[i] - margin[i]]:
            got = selective_capacity_batch(taps, rho, n_bins, scaling, rate=rate)
            assert np.array_equal(got < rate, c64 < rate)


def a1_taps(n, seed):
    return sample_complex_gaussian(2, 2, derive_stream(809, seed), size=(n, 2))


def test_undecided_chunk_is_the_float64_chunk():
    # three 1,024-realization chunks at M = N = 2, L = 2, K = 64; the rate
    # sits on the lowest capacity of the middle chunk, in the sparse tail
    taps = a1_taps(3000, 0)
    plain = selective_capacity_batch(taps, 60.0, 64)
    rate = np.min(plain[1024:2048])
    screened = selective_capacity_batch(taps, 60.0, 64, rate=rate)
    assert np.array_equal(screened[1024:2048], plain[1024:2048])
    # the outer chunks were decided in float32: the values are float32's
    for part in (slice(0, 1024), slice(2048, None)):
        assert not np.array_equal(screened[part], plain[part])
        assert np.array_equal(screened[part], screened[part].astype(np.float32))
    assert np.array_equal(screened < rate, plain < rate)


@pytest.mark.parametrize("rho, scale", [(1e40, 1.0), (60.0, 1e20), (1e20, 1e12)],
                         ids=["rho-1e40", "taps-1e20", "both"])
@pytest.mark.parametrize("n_taps, n_bins", [(1, 1), (2, 64)], ids=["flat", "selective"])
def test_float32_overflow_answers_as_float64(rho, scale, n_taps, n_bins):
    # finite in float64, past float32's range: the screen falls back silently
    # (a RuntimeWarning fails the suite)
    taps = sample_complex_gaussian(2, 2, derive_stream(810), size=(50, n_taps)) * scale
    plain = selective_capacity_batch(taps, rho, n_bins)
    assert np.all(np.isfinite(plain))
    assert mmse._float32_capacity(taps, rho, n_bins, "per-tap") is None
    for rate in (3.0, float(np.median(plain))):
        got = selective_capacity_batch(taps, rho, n_bins, rate=rate)
        assert np.array_equal(got, plain)


def test_float32_roundoff_past_one_is_no_clamp():
    # at -70 dB some float32 MSEs of this link round to just above 1, a
    # clamp beyond the slack had they gone through `_sinrs_from_mse`
    taps = sample_complex_gaussian(1, 1, derive_stream(811), size=(20_000, 2))
    rho = 1e-7
    assert np.any(mmse._mse(taps.astype(np.complex64), rho, 8) > 1.0)
    before = mmse.numerical_health()
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalHealthWarning)
        screened = selective_capacity_batch(taps, rho, 8, rate=1.0)
    after = mmse.numerical_health()
    assert after["evaluations"] - before["evaluations"] == 20_000
    assert after["clamped_beyond_slack"] == before["clamped_beyond_slack"]
    plain = selective_capacity_batch(taps, rho, 8)
    assert not np.array_equal(screened, plain)  # decided in float32
    assert np.array_equal(screened < 1.0, plain < 1.0)
