import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from mmsediv import (ConfigurationError, FitWindow, TrialPolicy, WishartSpectrum,
                     derive_stream, fit_diversity_slope, log_density_unnormalized,
                     sample_ordered_spectrum, sample_spectra,
                     smallest_eigs_probability, tail_sum_probability,
                     wilson_interval, wishart)
from mmsediv.randmat import sample_complex_gaussian


def rng_for(*key):
    return derive_stream(333, *key)


class TestSpectrumSampling:
    def test_siso_is_unit_exponential(self):
        lam = sample_spectra(1, 1, rng_for(0), 100_000)[:, 0]
        se = lam.std(ddof=1) / np.sqrt(lam.size)
        assert abs(lam.mean() - 1.0) <= 3 * se
        res = stats.kstest(lam, stats.expon.cdf)
        assert res.pvalue > 0.01

    def test_simo_mean_is_dof(self):
        lam = sample_spectra(1, 3, rng_for(1), 100_000)[:, 0]
        se = lam.std(ddof=1) / np.sqrt(lam.size)
        assert abs(lam.mean() - 3.0) <= 3 * se

    def test_trace_identity(self):
        lam = sample_spectra(2, 2, rng_for(2), 100_000)
        trace = lam.sum(axis=1)
        se = trace.std(ddof=1) / np.sqrt(trace.shape[0])
        assert abs(trace.mean() - 4.0) <= 3 * se

    def test_ordering_and_nonnegativity(self):
        lam = sample_spectra(3, 4, rng_for(3), 20_000)
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam, axis=1) >= 0.0)

    def test_single_draw_type(self):
        spec = sample_ordered_spectrum(2, 3, rng_for(4))
        assert spec.M == 2 and spec.N == 3
        assert spec.eigenvalues.shape == (2,)
        assert spec.eigenvalues[0] <= spec.eigenvalues[1]

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            sample_spectra(3, 2, rng_for(5), 10)


def mp_spectrum(h):
    """Ascending eigenvalues of H^H H for one (N, 2) matrix, to 50 digits."""
    with mpmath.workdps(50):
        hm = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in h])
        return sorted(float(v) for v in mpmath.eigh(hm.H * hm, eigvals_only=True))


class TestClosedFormSpectra:
    """The closed-form M = 2 spectra that `wishart._spectra` returns."""

    @pytest.mark.parametrize("N", [2, 3])
    def test_near_degenerate_rows_stay_ordered(self, N):
        # orthonormal columns scaled alike: both eigenvalues agree to rounding
        n = 200_000
        rng = rng_for(20, N)
        z = rng.standard_normal((n, N, 2)) + 1j * rng.standard_normal((n, N, 2))
        q = np.linalg.qr(z)[0]
        lam = wishart._spectra(q * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 1)))
        assert np.all(np.isfinite(lam))
        assert np.all(lam >= 0.0)
        assert np.all(lam[:, 0] <= lam[:, 1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N", [2, 3])
    def test_zero_channel_gives_zero_spectrum(self, N):
        lam = wishart._spectra(np.zeros((3, N, 2), dtype=complex))
        assert np.array_equal(lam, np.zeros((3, 2)))

    @given(N=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-30.0, 30.0), log_ratio=st.floats(-8.0, 8.0),
           shape=st.sampled_from(["generic", "rank-1", "rank-1+eps"]),
           log_eps=st.floats(-16.0, -2.0))
    def test_matches_mpmath(self, N, seed, log_scale, log_ratio, shape, log_eps):
        # both paths within 1e-13 lambda_max of the 50-digit spectrum
        rng = np.random.default_rng(seed)

        def column():
            return rng.standard_normal(N) + 1j * rng.standard_normal(N)

        x = column()
        if shape == "generic":
            y = column()
        else:
            y = complex(column()[0]) * x
            if shape == "rank-1+eps":
                y = y + 10.0 ** log_eps * column()
        h = 10.0 ** log_scale * np.stack([x, 10.0 ** log_ratio * y], axis=1)
        exact = np.array(mp_spectrum(h))
        for lam in (wishart._spectra(h[None])[0],
                    wishart._eigvalsh_spectra(h[None])[0]):
            assert np.all(np.abs(lam - exact) <= 1e-13 * exact[1])


class TestTieBreak:
    """Trials within `_TIE_BAND` of a threshold are decided by eigvalsh."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("event", [wishart._sum_below, wishart._mth_below])
    def test_threshold_on_an_eigvalsh_eigenvalue(self, monkeypatch, event, m, N):
        n = 5000
        h = sample_complex_gaussian(N, 2, rng_for(30, N), size=n)
        # the reference spectra: a Gram einsum, eigvalsh and a clamp at zero
        lam = np.maximum(np.linalg.eigvalsh(np.einsum("bnj,bnk->bjk", h.conj(), h)),
                         0.0)
        # rho = 1 puts the threshold exactly on trial 0's eigenvalues
        b = float(lam[:1, :m].sum(axis=1)[0] if event is wishart._sum_below
                  else lam[0, m - 1])
        expected = int(np.count_nonzero(event(lam, m, b, 1.0)))
        rows = []
        eigvalsh_spectra = wishart._eigvalsh_spectra

        def counting(h_near):
            rows.append(h_near.shape[0])
            return eigvalsh_spectra(h_near)

        monkeypatch.setattr(wishart, "_eigvalsh_spectra", counting)
        kernel = wishart._TailKernel(M=2, N=N, m=m, b=b, event=event)
        assert kernel(1.0, rng_for(30, N), n) == expected
        assert sum(rows) >= 1


class TestLogDensity:
    def test_siso_value(self):
        spec = WishartSpectrum(eigenvalues=np.array([2.0]), M=1, N=1)
        assert abs(log_density_unnormalized(spec) + 2.0) <= 1e-12

    def test_square_case_value(self):
        spec = WishartSpectrum(eigenvalues=np.array([1.0, 2.0]), M=2, N=2)
        assert abs(log_density_unnormalized(spec) + 3.0) <= 1e-12

    def test_rectangular_value(self):
        # independent arithmetic: ln 4 + 2 ln 3 - 5
        spec = WishartSpectrum(eigenvalues=np.array([1.0, 4.0]), M=2, N=3)
        expected = np.log(4.0) + 2.0 * np.log(3.0) - 5.0
        assert abs(expected - (-1.4164810615438898)) <= 1e-12
        assert abs(log_density_unnormalized(spec) - expected) <= 1e-12

    def test_permutation_invariance(self):
        rng = rng_for(6)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            lam = np.sort(rng.gamma(2.0, 1.0, size=m))
            spec = WishartSpectrum(eigenvalues=lam, M=m, N=m + 1)
            base = log_density_unnormalized(spec)
            perm = WishartSpectrum(eigenvalues=rng.permutation(lam), M=m, N=m + 1)
            assert abs(log_density_unnormalized(perm) - base) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_density_unnormalized(
                WishartSpectrum(eigenvalues=np.array([0.0, 1.0]), M=2, N=2))
        with pytest.raises(ValueError):
            log_density_unnormalized(
                WishartSpectrum(eigenvalues=np.array([1.0, 1.0]), M=2, N=2))

    def test_histogram_matches_density(self):
        # 2-D histogram of (l1, l2) against the numerically normalized
        # closed-form density over a bounded box, chi-square at 1%
        lam = sample_spectra(2, 2, rng_for(7), 200_000)
        box = 5.0
        bins = 10
        inside = lam[(lam[:, 0] < box) & (lam[:, 1] < box)]
        counts, _, _ = np.histogram2d(inside[:, 0], inside[:, 1],
                                      bins=bins, range=[[0, box], [0, box]])
        # cell masses by midpoint quadrature on an 8x8 subgrid per cell
        edges = np.linspace(0.0, box, bins + 1)
        sub = 8
        masses = np.zeros((bins, bins))
        step = box / bins / sub
        for i in range(bins):
            xs = edges[i] + step * (np.arange(sub) + 0.5)
            for j in range(bins):
                ys = edges[j] + step * (np.arange(sub) + 0.5)
                x, y = np.meshgrid(xs, ys, indexing="ij")
                density = (x - y) ** 2 * np.exp(-x - y) * (x < y)
                masses[i, j] = density.sum() * step * step
        observed = counts.ravel()
        expected = masses.ravel() / masses.sum() * observed.sum()
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        res = stats.chisquare(obs, exp)
        assert res.pvalue > 0.01


class TestTailCurves:
    def test_siso_sum_tail_matches_closed_form(self):
        # P(rho * lambda < b) = 1 - exp(-b/rho) for the unit exponential
        b = 1.0
        rho_grid = np.array([2.0, 5.0, 10.0, 30.0])
        policy = TrialPolicy(max_trials=200_000, target_events=200,
                             block_trials=50_000)
        curve = tail_sum_probability(1, 1, 1, b, rho_grid, policy=policy,
                                     master_seed=8)
        for pt in curve.points:
            exact = 1.0 - np.exp(-b / pt.rho)
            assert pt.ci_low <= exact <= pt.ci_high

    def test_siso_smallest_eig_matches_closed_form(self):
        b = 1.0
        rho_grid = np.array([2.0, 8.0, 25.0])
        policy = TrialPolicy(max_trials=200_000, target_events=200,
                             block_trials=50_000)
        curve = smallest_eigs_probability(1, 1, 1, b, rho_grid, policy=policy,
                                          master_seed=9)
        for pt in curve.points:
            exact = 1.0 - np.exp(-b / pt.rho)
            assert pt.ci_low <= exact <= pt.ci_high

    def test_sum_tail_exponent_m1(self):
        # decay exponent N - M + 1 = 1 for the smallest-eigenvalue sum
        rho_grid = 10.0 ** (np.array([15.0, 20, 25, 30, 35, 40]) / 10.0)
        policy = TrialPolicy(max_trials=2_000_000, target_events=200,
                             block_trials=100_000)
        curve = tail_sum_probability(2, 2, 1, 1.0, rho_grid, policy=policy,
                                     master_seed=10, workers=2)
        fit = fit_diversity_slope(curve, FitWindow(p_max=0.1))
        assert abs(fit.d_hat - 1.0) <= 0.2

    def test_smallest_eig_median_sanity(self):
        lam = sample_spectra(2, 3, rng_for(11), 50_000)
        median = np.median(lam[:, 1])
        rho = 2.0
        b = rho * median * 1.5  # threshold above the median
        policy = TrialPolicy(max_trials=20_000, target_events=100,
                             block_trials=10_000)
        curve = smallest_eigs_probability(2, 3, 2, b, [rho], policy=policy,
                                          master_seed=12)
        assert curve.points[0].p_out >= 0.5

    @pytest.mark.parametrize("estimator", [tail_sum_probability,
                                           smallest_eigs_probability])
    def test_worker_count_invariance(self, estimator):
        # targets reached mid-wave, so the two-worker run discards blocks
        policy = TrialPolicy(max_trials=40_000, target_events=50,
                             block_trials=3_000)
        rho_grid = [50.0, 500.0, 5000.0]
        one, two = (estimator(2, 2, 1, 1.0, rho_grid, policy=policy,
                              master_seed=14, workers=w) for w in (1, 2))
        assert one.points == two.points
        assert any(pt.converged and pt.trials // policy.block_trials % 2
                   for pt in one.points)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            tail_sum_probability(2, 2, 0, 1.0, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            tail_sum_probability(2, 2, 3, 1.0, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            smallest_eigs_probability(2, 2, 1, -1.0, [1.0, 2.0])

    def test_point_schema_matches_outage_schema(self):
        policy = TrialPolicy(max_trials=2000, target_events=10, block_trials=1000)
        curve = tail_sum_probability(1, 1, 1, 1.0, [5.0], policy=policy,
                                     master_seed=13)
        pt = curve.points[0]
        assert pt.outages <= pt.trials
        assert pt.p_out == pt.outages / pt.trials
        low, high = wilson_interval(pt.outages, pt.trials)
        assert pt.ci_low == low and pt.ci_high == high
