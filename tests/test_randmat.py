import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mmsediv import (ConfigurationError, derive_stream, sample_complex_gaussian,
                     sample_haar_recursive)
from mmsediv.randmat import sample_haar_qr_oracle, unitarity_residual


def rng_for(*key):
    return derive_stream(777, *key)


class TestComplexGaussian:
    def test_unit_second_moment(self):
        h = sample_complex_gaussian(1000, 1000, rng_for(0))
        power = np.abs(h) ** 2
        se = power.std(ddof=1) / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) <= 3 * se

    def test_entry_independence(self):
        draws = sample_complex_gaussian(2, 2, rng_for(1), size=200_000)
        flat = draws.reshape(-1, 4)
        cross = (flat[:, :, None] * flat.conj()[:, None, :]).mean(axis=0)
        tol = 4.0 / np.sqrt(flat.shape[0])
        assert np.max(np.abs(cross - np.eye(4))) <= tol

    def test_seeded_determinism_bit_exact(self):
        a = sample_complex_gaussian(4, 2, derive_stream(123, 5))
        b = sample_complex_gaussian(4, 2, derive_stream(123, 5))
        assert np.array_equal(a, b)
        c = sample_complex_gaussian(4, 2, derive_stream(123, 6))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("args", [(1.5, 0), (1, 0.7), (1, 0, 2.0), (True, 0),
                                      (1, True)],
                             ids=["seed", "key", "later-key", "bool-seed", "bool-key"])
    def test_derive_stream_rejects_non_integers(self, args):
        with pytest.raises(ConfigurationError, match="integer"):
            derive_stream(*args)

    @pytest.mark.parametrize("args, name", [
        ((-1, 0), "master_seed"), ((1, -2), r"key\[0\]"),
        ((1, 0, -3), r"key\[1\]"),
    ], ids=["seed", "key", "later-key"])
    def test_derive_stream_rejects_negatives(self, args, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be >= 0"):
            derive_stream(*args)

    def test_largest_eigenvalue_stays_finite(self):
        h = sample_complex_gaussian(4, 2, rng_for(2), size=1000)
        gram = np.einsum("bnj,bnk->bjk", h.conj(), h)
        lam_max = np.linalg.eigvalsh(gram)[:, -1]
        assert np.isfinite(lam_max).all()
        assert 0.0 < lam_max.mean() / (4 * 2) < 10.0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            sample_complex_gaussian(0, 3, rng_for(3))
        with pytest.raises(ConfigurationError):
            sample_complex_gaussian(3, -1, rng_for(3))

    @pytest.mark.parametrize("args, size", [((3, 2.0), 2), ((2.5, 3), 2),
                                            ((3, 2), 2.5), ((3, 2), (2, 1.0)),
                                            ((True, 2), 2), ((3, 2), True)],
                             ids=["cols", "rows", "size", "size-tuple", "bool-rows",
                                  "bool-size"])
    def test_rejects_non_integer_dimensions(self, args, size):
        with pytest.raises(ConfigurationError):
            sample_complex_gaussian(*args, rng_for(3), size=size)

    @pytest.mark.parametrize("shape", [(3, 2), (5, 2, 4, 3), (0, 2, 2)])
    def test_draw_matches_the_two_array_expression(self, shape):
        rng = rng_for(4)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = (re + 1j * im) * np.sqrt(0.5)
        draw = sample_complex_gaussian(*shape[-2:], rng_for(4), size=shape[:-2])
        assert draw.tobytes() == expected.tobytes() and draw.shape == shape

    def test_draw_peaks_at_one_and_a_half_outputs(self):
        tracemalloc.start()
        try:
            draw = sample_complex_gaussian(2, 2, rng_for(5), size=(200_000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * draw.nbytes

    def test_numpy_integers_draw_the_same_stream(self):
        a = sample_complex_gaussian(3, 2, derive_stream(4, 0), size=(5, 2))
        b = sample_complex_gaussian(np.int64(3), np.int32(2),
                                    derive_stream(np.int64(4), np.uint8(0)),
                                    size=(np.int64(5), 2))
        assert np.array_equal(a, b)


class TestHaarSamplers:
    def test_order_one_is_uniform_phase(self):
        u = sample_haar_recursive(1, rng_for(20), size=50_000)
        assert np.max(np.abs(np.abs(u[:, 0, 0]) - 1.0)) <= 1e-12
        phase = np.angle(u[:, 0, 0])  # in (-pi, pi]
        res = stats.kstest(phase, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_unitarity_both_samplers(self, order):
        rec = sample_haar_recursive(order, rng_for(21, order), size=500)
        qr = sample_haar_qr_oracle(order, rng_for(22, order), size=500)
        assert unitarity_residual(rec) <= 1e-10
        assert unitarity_residual(qr) <= 1e-10

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_moment_symmetry_both_samplers(self, order):
        n = 100_000
        for tag, sampler in ((23, sample_haar_recursive),
                             (24, sample_haar_qr_oracle)):
            u = sampler(order, rng_for(tag, order), size=n)
            sq = np.abs(u) ** 2
            se = sq.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(sq.mean(axis=0) - 1.0 / order) <= 3 * se)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_recursive_matches_qr_oracle(self, order):
        # distribution of |U_11|^2 under both samplers, two-sample KS at 1%
        rec = sample_haar_recursive(order, rng_for(25, order), size=100_000)
        qr = sample_haar_qr_oracle(order, rng_for(26, order), size=100_000)
        res = stats.ks_2samp(np.abs(rec[:, 0, 0]) ** 2, np.abs(qr[:, 0, 0]) ** 2)
        assert res.pvalue > 0.01

    def test_qr_oracle_left_invariance(self):
        # multiplying by a fixed unitary must not change |entry|^2 moments
        order = 3
        n = 100_000
        dft = np.exp(-2j * np.pi * np.outer(np.arange(order), np.arange(order))
                     / order) / np.sqrt(order)
        u = sample_haar_qr_oracle(order, rng_for(27), size=n)
        rotated = np.einsum("ij,bjk->bik", dft, u)
        sq = np.abs(rotated) ** 2
        se = sq.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(sq.mean(axis=0) - 1.0 / order) <= 3 * se)

    def test_seeded_determinism_bit_exact(self):
        a = sample_haar_recursive(3, derive_stream(9, 1))
        b = sample_haar_recursive(3, derive_stream(9, 1))
        assert np.array_equal(a, b)
        qa = sample_haar_qr_oracle(3, derive_stream(9, 2))
        qb = sample_haar_qr_oracle(3, derive_stream(9, 2))
        assert np.array_equal(qa, qb)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigurationError):
            sample_haar_recursive(0, rng_for(28))
        with pytest.raises(ConfigurationError):
            sample_haar_qr_oracle(0, rng_for(28))

    @pytest.mark.parametrize("order, size", [(2.5, None), (2.0, None), (2, 3.0),
                                             (True, None), (2, True)],
                             ids=["order", "integral-float-order", "size", "bool-order",
                                  "bool-size"])
    def test_rejects_non_integer_order_or_size(self, order, size):
        for sampler in (sample_haar_recursive, sample_haar_qr_oracle):
            with pytest.raises(ConfigurationError):
                sampler(order, rng_for(29), size=size)
