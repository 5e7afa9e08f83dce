import functools
import re

import numpy as np
import pytest

from mmsediv import (ConfigurationError, NumericalError, NumericalHealthWarning,
                     derive_stream, sample_complex_gaussian,
                     selective_capacity_batch, selective_sinrs,
                     selective_sinrs_oracle, transfer_function)
from mmsediv import mmse as mmse_mod


def rng_for(*key):
    return derive_stream(555, *key)


def flat_sinrs(channel, rho):
    """SINRs of one flat (N, M) channel: the one-tap path, block length 1."""
    return selective_sinrs(np.asarray(channel)[None], rho, 1)


def spd_inverse_diagonal(mats):
    """Diagonal of the inverse of (..., M, M) Hermitian positive-definite stacks.

    Runs `mmse._inverse_diagonal` on the diagonal and the upper triangle.
    """
    mats = np.asarray(mats, dtype=complex)
    iu = np.triu_indices(mats.shape[-1], 1)
    diag = np.moveaxis(np.diagonal(mats, axis1=-2, axis2=-1).real, -1, 0)
    upper = np.moveaxis(mats[..., iu[0], iu[1]], -1, 0)
    return np.stack(mmse_mod._inverse_diagonal(diag, [*upper.real, *upper.imag]),
                    axis=-1)


def block_circulant_operator(taps, n_blocks):
    """(K*N, K*M) channel operator whose (t, s) block is tap (t - s) mod K."""
    n_taps, n_rx, n_tx = taps.shape
    out = np.zeros((n_blocks * n_rx, n_blocks * n_tx), dtype=complex)
    for t in range(n_blocks):
        for lag in range(n_taps):
            s = (t - lag) % n_blocks
            out[t * n_rx:(t + 1) * n_rx, s * n_tx:(s + 1) * n_tx] = taps[lag]
    return out


class TestFlatSinrs:
    def test_siso_scalar_case(self):
        beta = flat_sinrs(np.array([[1.0 + 0j]]), 3.0)
        assert beta.shape == (1,)
        assert abs(beta[0] - 3.0) <= 1e-12

    def test_zero_channel_gives_zero(self):
        beta = flat_sinrs(np.zeros((3, 2)), 10.0)
        assert np.array_equal(beta, np.zeros(2))
        assert np.sum(np.log2(1.0 + beta)) == 0.0

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 2), (4, 3)])
    def test_matches_explicit_inverse(self, dims):
        # oracle: full matrix inversion of the regularized Gram matrix
        n, m = dims
        for trial in range(20):
            h = sample_complex_gaussian(n, m, rng_for(1, n, m, trial))
            rho = float(10.0 ** rng_for(2, n, m, trial).uniform(-1, 3))
            s = np.eye(m) + (rho / m) * h.conj().T @ h
            expected = 1.0 / np.real(np.diag(np.linalg.inv(s))) - 1.0
            got = flat_sinrs(h, rho)
            assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-10

    def test_nonnegative_and_monotone_in_snr(self):
        rhos = np.logspace(-1, 3, 10)
        for trial in range(10):
            h = sample_complex_gaussian(3, 3, rng_for(3, trial))
            betas = np.array([flat_sinrs(h, rho) for rho in rhos])
            assert np.all(betas >= 0.0)
            assert np.all(np.diff(betas, axis=0) >= -1e-12)

    def test_mmse_capacity_below_ml_capacity(self):
        for trial in range(20):
            h = sample_complex_gaussian(3, 2, rng_for(4, trial))
            rho = float(10.0 ** rng_for(5, trial).uniform(-1, 3))
            mmse_bits = np.sum(np.log2(1.0 + flat_sinrs(h, rho)))
            gram = np.eye(2) + (rho / 2) * h.conj().T @ h
            ml_bits = np.linalg.slogdet(gram)[1] / np.log(2.0)
            assert mmse_bits <= ml_bits + 1e-9

    def test_rejects_nonfinite(self):
        h = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            flat_sinrs(h, 1.0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigurationError):
            flat_sinrs(np.eye(2, dtype=complex), 0.0)


class TestSelectiveSinrs:
    def test_single_tap_reduces_to_flat(self):
        taps = sample_complex_gaussian(3, 2, rng_for(10), size=1)
        flat = selective_sinrs(taps, 7.0, 1)
        for scaling in ("per-tap", "paper"):
            sel = selective_sinrs(taps, 7.0, 8, scaling=scaling)
            assert np.max(np.abs(sel - flat) / flat) <= 1e-12

    def test_zero_taps(self):
        beta = selective_sinrs(np.zeros((2, 2, 2)), 5.0, 8)
        assert np.array_equal(beta, np.zeros(2))

    @pytest.mark.parametrize("dims", [(2, 2, 3, 8), (1, 2, 2, 4), (3, 3, 3, 16)])
    def test_matches_block_circulant_oracle(self, dims):
        m, n, taps_count, bins = dims
        for trial in range(5):
            taps = sample_complex_gaussian(n, m, rng_for(11, *dims, trial),
                                           size=taps_count)
            rho = float(10.0 ** rng_for(12, *dims, trial).uniform(-0.5, 2))
            fast = selective_sinrs(taps, rho, bins)
            slow = selective_sinrs_oracle(taps, rho, bins)
            assert np.max(np.abs(fast - slow) / slow) <= 1e-8

    def test_scaling_conventions_differ_by_constant(self):
        taps = sample_complex_gaussian(2, 2, rng_for(13), size=2)
        per_tap = selective_sinrs(taps, 6.0, 8, scaling="per-tap")
        paper = selective_sinrs(taps, 3.0, 8, scaling="paper")
        # rho/(M*L) at rho=6, L=2 equals rho/M at rho=3
        assert np.max(np.abs(per_tap - paper)) <= 1e-12

    def test_rejects_small_block_length(self):
        taps = sample_complex_gaussian(2, 2, rng_for(14), size=3)
        with pytest.raises(ConfigurationError):
            selective_sinrs(taps, 1.0, 2)

    @pytest.mark.parametrize("call", [
        lambda taps: selective_sinrs(taps, 5.0, 8.7),
        lambda taps: transfer_function(taps, 8.7),
        lambda taps: selective_sinrs_oracle(taps, 5.0, 8.7),
    ], ids=["selective_sinrs", "transfer_function", "selective_sinrs_oracle"])
    def test_rejects_non_integer_block_length(self, call):
        taps = sample_complex_gaussian(2, 2, rng_for(16), size=2)
        with pytest.raises(ConfigurationError, match="integer"):
            call(taps)

    def test_accepts_numpy_integer_block_length(self):
        taps = sample_complex_gaussian(2, 2, rng_for(17), size=2)
        assert np.array_equal(selective_sinrs(taps, 5.0, np.int64(8)),
                              selective_sinrs(taps, 5.0, 8))

    def test_rejects_unknown_scaling(self):
        taps = sample_complex_gaussian(2, 2, rng_for(15), size=2)
        with pytest.raises(ConfigurationError):
            selective_sinrs(taps, 1.0, 8, scaling="bogus")

    def test_rejects_nonfinite_taps(self):
        taps = np.zeros((2, 2, 2), dtype=complex)
        taps[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            selective_sinrs(taps, 1.0, 8)


class TestBlockCirculantOracle:
    def test_scalar_circulant(self):
        beta = selective_sinrs_oracle(np.array([[[1.0 + 0j]]]), 1.0, 2)
        assert abs(beta[0] - 1.0) <= 1e-12

    def test_zero_taps(self):
        beta = selective_sinrs_oracle(np.zeros((2, 2, 2)), 5.0, 4)
        assert np.array_equal(beta, np.zeros(2))

    def test_diagonal_constant_across_time_slots(self):
        # circulant shift symmetry: stream-j MSE identical in every slot
        taps = sample_complex_gaussian(2, 2, rng_for(20), size=3)
        bins, m = 8, 2
        op = block_circulant_operator(taps, bins)
        c = mmse_mod.noise_scaling(4.0, m, 3)
        gram = np.eye(bins * m) + c * (op.conj().T @ op)
        diag = np.real(np.diag(np.linalg.inv(gram))).reshape(bins, m)
        assert np.max(np.abs(diag - diag[0])) <= 1e-10
        # the oracle builds this operator and inverts its Gram matrix alike
        assert np.array_equal(selective_sinrs_oracle(taps, 4.0, bins),
                              1.0 / diag.mean(axis=0) - 1.0)

    def test_operator_layout(self):
        taps = np.arange(1, 5, dtype=complex).reshape(2, 1, 2)  # L=2, N=1, M=2
        op = block_circulant_operator(taps, 3)
        assert op.shape == (3, 6)
        assert np.array_equal(op[0, 0:2], taps[0, 0])
        assert np.array_equal(op[1, 0:2], taps[1, 0])   # lag 1
        assert np.array_equal(op[0, 4:6], taps[1, 0])   # wraps around
        assert np.array_equal(op[2, 0:2], np.zeros(2))  # lag 2 absent

    def test_size_cap(self):
        taps = sample_complex_gaussian(2, 2, rng_for(21), size=2)
        with pytest.raises(ConfigurationError):
            selective_sinrs_oracle(taps, 1.0, 512)


class TestBatchPaths:
    def test_flat_batch_matches_scalar(self):
        hs = sample_complex_gaussian(3, 2, rng_for(30), size=50)
        batch = selective_capacity_batch(hs[:, None], 9.0, 1)
        scalar = np.array([np.sum(np.log2(1.0 + flat_sinrs(h, 9.0))) for h in hs])
        assert np.max(np.abs(batch - scalar)) <= 1e-12

    def test_selective_batch_matches_scalar(self):
        taps = sample_complex_gaussian(2, 2, rng_for(31), size=(20, 3))
        batch = selective_capacity_batch(taps, 5.0, 8)
        scalar = np.array([np.sum(np.log2(1.0 + selective_sinrs(t, 5.0, 8)))
                           for t in taps])
        assert np.max(np.abs(batch - scalar)) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("n_taps, n_bins", [(1, 1), (2, 8)],
                             ids=["flat", "selective"])
    def test_rejects_nonfinite_taps(self, n_taps, n_bins, bad):
        # the bad realization is the last one, in the second capacity chunk
        taps = sample_complex_gaussian(2, 2, rng_for(33), size=(12_000, n_taps))
        taps[-1, -1, 0, 0] = bad
        for screen in ({}, {"rate": 3.0}):
            with pytest.raises(ValueError, match="channel taps contains non-finite"):
                selective_capacity_batch(taps, 5.0, n_bins, **screen)

    @pytest.mark.parametrize("call", [selective_sinrs, selective_capacity_batch,
                                      functools.partial(selective_capacity_batch,
                                                        rate=3.0)],
                             ids=["sinrs", "capacity", "screened"])
    def test_infinite_pivot_raises(self, call):
        # |1e160|^2 overflows to +inf, a pivot that `> 0` alone would accept
        with pytest.raises(NumericalError, match="non-finite pivot"):
            call(np.array([[[1e160 + 0j]]]), 1e10, 1)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)],
                             ids=["L", "N", "M"])
    @pytest.mark.parametrize("call", [selective_sinrs, selective_sinrs_oracle,
                                      selective_capacity_batch],
                             ids=["sinrs", "oracle", "capacity"])
    def test_empty_tap_dimension_is_refused(self, call, shape):
        with pytest.raises(ConfigurationError, match=re.escape(f"got {shape}")):
            call(np.zeros(shape, dtype=complex), 5.0, 2)

    def test_transfer_function_is_direct_dft(self):
        taps = sample_complex_gaussian(2, 3, rng_for(32), size=4)
        bins = 8
        freq = transfer_function(taps, bins)
        for k in range(bins):
            direct = sum(taps[ell] * np.exp(-2j * np.pi * k * ell / bins)
                         for ell in range(4))
            assert np.max(np.abs(freq[k] - direct)) <= 1e-12


class TestSpdInverseDiagonal:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
    def test_matches_full_inverse(self, m):
        a = sample_complex_gaussian(m + 2, m, rng_for(40, m))
        s = np.eye(m) + 0.8 * a.conj().T @ a
        expected = np.real(np.diag(np.linalg.inv(s)))
        got = spd_inverse_diagonal(s)
        assert np.max(np.abs(got - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nonpositive_pivot_raises(self, m):
        s = np.eye(m, dtype=complex)
        s[m - 1, m - 1] = 0.0
        with pytest.raises(NumericalError):
            spd_inverse_diagonal(s)

    def test_two_by_two_is_the_closed_form_bit_for_bit(self):
        # the capacity path's M = 2 counts rest on exactly these operations
        a = sample_complex_gaussian(3, 2, rng_for(42), size=1000)
        s = np.eye(2) + 3.0 * np.einsum("bnj,bnk->bjk", a.conj(), a)
        g00, g11, b = s[:, 0, 0].real, s[:, 1, 1].real, s[:, 0, 1]
        off_sq = (b.real * b.real + b.imag * b.imag) / g00
        d1 = 1.0 / (g11 - off_sq)
        d0 = (1.0 + off_sq * d1) / g00
        assert np.array_equal(spd_inverse_diagonal(s), np.stack([d0, d1], axis=-1))

    def test_batched_input(self):
        a = sample_complex_gaussian(4, 3, rng_for(41), size=10)
        s = np.einsum("bnj,bnk->bjk", a.conj(), a) + np.eye(3)
        got = spd_inverse_diagonal(s)
        for i in range(10):
            expected = np.real(np.diag(np.linalg.inv(s[i])))
            assert np.max(np.abs(got[i] - expected) / expected) <= 1e-12


class TestNumericalHealth:
    def test_clamp_beyond_slack_warns_and_counts(self):
        before = mmse_mod.numerical_health()["clamped_beyond_slack"]
        with pytest.warns(NumericalHealthWarning):
            beta = mmse_mod._sinrs_from_mse(np.array([1.0 + 1e-9]))
        assert beta[0] == 0.0
        assert mmse_mod.numerical_health()["clamped_beyond_slack"] == before + 1

    def test_tiny_roundoff_clamps_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalHealthWarning)
            beta = mmse_mod._sinrs_from_mse(np.array([1.0 + 1e-13, 0.5]))
        assert beta[0] == 0.0
        assert abs(beta[1] - 1.0) <= 1e-12
