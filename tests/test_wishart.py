import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from mmsediv import (ConfigurationError, FitWindow, NumericalError, TrialPolicy,
                     derive_stream, fit_diversity_slope,
                     log_density_unnormalized, montecarlo,
                     sample_spectra, smallest_eigs_probability,
                     tail_sum_probability, wilson_interval, wishart)
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

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            sample_spectra(3, 2, rng_for(5), 10)

    @pytest.mark.parametrize("args", [(2.5, 3, 4), (2, 3.0, 4), (2, 3, 4.0),
                                      (2, 3, True)],
                             ids=["M", "N", "n_draws", "bool-n_draws"])
    def test_rejects_non_integer_sizes(self, args):
        with pytest.raises(ConfigurationError):
            sample_spectra(*args[:2], rng_for(5), args[2])

    def test_eigenvalues_below_the_slack_are_refused(self, monkeypatch):
        # roundoff within _EIG_SLACK lambda_max is clamped to zero; below it
        # the eigensolver is not trusted
        h = sample_complex_gaussian(3, 3, rng_for(43), size=2)
        lam = wishart._spectra(h)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda gram: lam.copy())
        lam[0, 0] = 0.5 * wishart._EIG_SLACK * lam[0, -1]
        assert wishart._spectra(h)[0, 0] == 0.0
        lam[0, 0] = 2.0 * wishart._EIG_SLACK * lam[0, -1]
        with pytest.raises(NumericalError, match="below"):
            wishart._spectra(h)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_non_finite_rows_are_refused(self, M, value):
        # eigvalsh gives NaN eigenvalues at M <= 2 and fails above
        h = sample_complex_gaussian(M, M, rng_for(44, M), size=3)
        h[1, 0, 0] = value
        with pytest.raises(NumericalError, match="eigen"):
            wishart._spectra(h)


def mp_spectrum(h):
    """Ascending eigenvalues of H^H H for one (N, 2) matrix, to 50 digits."""
    with mpmath.workdps(50):
        hm = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in h])
        return sorted(float(v) for v in mpmath.eigh(hm.H * hm, eigvals_only=True))


class TestTwoColumnSpectra:
    """M = 2 spectra from `wishart._spectra`: ordered, zero for H = 0, and
    close to their 50-digit values."""

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
        # within 1e-13 lambda_max of the 50-digit spectrum
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
        lam = wishart._spectra(h[None])[0]
        assert np.all(np.abs(lam - exact) <= 1e-13 * exact[1])


class TestTailKernel:
    """`_spectra` walks its chunks; the tail kernels count on its spectra."""

    @pytest.mark.parametrize("M, N, estimator", [
        (2, 2, tail_sum_probability), (2, 2, smallest_eigs_probability),
        (2, 3, tail_sum_probability), (2, 3, smallest_eigs_probability),
        (3, 3, smallest_eigs_probability),
    ], ids=["sum-N2", "mth-N2", "sum-N3", "mth-N3", "mth-M3-eigvalsh"])
    def test_count_spans_two_chunks(self, M, N, estimator, monkeypatch):
        chunk = wishart._spectrum_chunk(N, M)
        n = chunk + 4464  # 45,424 at M = N = 2
        assert chunk < n < 2 * chunk
        h = sample_complex_gaussian(N, M, rng_for(40, M, N), size=n)
        lam = wishart._spectra(h)
        parts = [wishart._spectra(h[lo:lo + chunk]) for lo in (0, chunk)]
        assert np.array_equal(lam, np.concatenate(parts))
        stat = (lam[:, :2].sum(axis=1) if estimator is tail_sum_probability
                else lam[:, 1])
        ranked = np.sort(stat)
        # the kernel the estimator hands to the block engine
        monkeypatch.setattr(wishart, "estimate_binomial_curve",
                            lambda kernel, *args, **kwargs: kernel)
        # thresholds halfway between two order statistics, so that no trial
        # lies within rounding of them: near the median, and near the 1 %
        # quantile, where the trace bound decides most m = M rows
        for k in (n // 2, n // 100):
            b = float(0.5 * (ranked[k] + ranked[k + 1]))
            kernel = estimator(M, N, 2, b, [1.0])
            assert kernel(1.0, rng_for(40, M, N), n) == np.count_nonzero(stat < b)

    @pytest.mark.parametrize("N, M, chunk", [
        (2, 2, 40_960),  # 64 B of Gram entries and 64 B of conjugate a row
        (8, 8, 2_560),
    ])
    def test_spectrum_chunk_size(self, N, M, chunk):
        assert wishart._spectrum_chunk(N, M) == chunk

    def test_spectra_memory_is_bounded(self):
        for M, n, limit_mib in [
            # 300,000 M = 2 draws: the result takes 4.6 MiB, and one
            # eigvalsh pass over the whole stack peaks near 37 MiB
            (2, 300_000, 12),
            # 10,000 M = N = 8 draws: the result takes 0.6 MiB, and one
            # 40,960-row chunk, sized for M = N = 2, would hold 2 kB a row
            (8, 10_000, 8),
        ]:
            h = sample_complex_gaussian(M, M, rng_for(41), size=n)
            tracemalloc.start()
            try:
                wishart._spectra(h)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit_mib * 2**20, (M, peak)


def _walk_ulps(x, ulps):
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.copysign(np.inf, ulps))
    return x


def _events(decide):
    """Event flags from ``decide()``, or the error type it raises.  NaN and
    infinite taps make both paths form inf - inf or 0 * inf; only the
    decisions are compared."""
    with np.errstate(invalid="ignore"):
        try:
            return decide().tolist()
        except NumericalError as err:
            return type(err)


class TestTraceScreen:
    """At m = M the trace bound decides most rows; every decision, and every
    error, is the one the spectra give."""

    @pytest.mark.parametrize("tail", ["sum", "mth"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["N=M", "N=M+1"])
    @pytest.mark.parametrize("M", [1, 2, 3])
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.integers(0, 30),
           log_rho=st.floats(-3.0, 3.0),
           shape=st.sampled_from(["generic", "zero-column", "equal-columns",
                                  "orthonormal", "nan", "inf"]),
           anchor=st.sampled_from(["bound", "exact"]), ulps=st.integers(-4, 4))
    def test_screened_decisions_are_the_spectrum_decisions(
            self, M, extra, tail, seed, log_scale, log_rho, shape, anchor, ulps):
        rng = np.random.default_rng(seed)
        n, N = 64, M + extra
        taps = sample_complex_gaussian(N, M, rng, size=(n, 1))
        # rows scaled by 10^k, |k| <= log_scale
        taps *= 10.0 ** rng.integers(-log_scale, log_scale + 1, size=(n, 1, 1, 1))
        if shape == "zero-column":
            taps[::2, ..., -1] = 0.0
        elif shape == "equal-columns":
            taps[::2, ..., -1] = taps[::2, ..., 0]
        elif shape == "orthonormal":
            # equal eigenvalues: lambda_M = t / M, the m-th eigenvalue bound
            taps[::2] = np.linalg.qr(taps[::2])[0]
        elif shape in ("nan", "inf"):
            taps[::5, 0, 0, 0] = float(shape)
        h, rho = taps[:, 0], 10.0 ** log_rho
        statistic, spectral = {
            "sum": (wishart._sum_statistic,
                    lambda: rho * wishart._spectra(h)[:, :M].sum(axis=1)),
            "mth": (wishart._mth_statistic,
                    lambda: rho * wishart._spectra(h)[:, M - 1]),
        }[tail]
        with np.errstate(invalid="ignore"):
            bound = rho * wishart._trace(h) / (M if tail == "mth" else 1)
            try:
                exact = spectral()
            except NumericalError:  # non-finite taps
                exact = bound
        # a threshold within a few ulps of one row's bound or exact statistic
        row = int(rng.integers(n))
        b = float(_walk_ulps({"bound": bound, "exact": exact}[anchor][row], ulps))
        assert (_events(lambda: statistic(taps, rho, b, M) < b)
                == _events(lambda: spectral() < b))


class TestLogDensity:
    def test_siso_value(self):
        assert abs(log_density_unnormalized(np.array([2.0]), 1) + 2.0) <= 1e-12

    def test_square_case_value(self):
        assert abs(log_density_unnormalized(np.array([1.0, 2.0]), 2) + 3.0) <= 1e-12

    def test_rectangular_value(self):
        # independent arithmetic: ln 4 + 2 ln 3 - 5
        expected = np.log(4.0) + 2.0 * np.log(3.0) - 5.0
        assert abs(expected - (-1.4164810615438898)) <= 1e-12
        assert abs(log_density_unnormalized(np.array([1.0, 4.0]), 3)
                   - expected) <= 1e-12

    def test_permutation_invariance(self):
        rng = rng_for(6)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            lam = np.sort(rng.gamma(2.0, 1.0, size=m))
            base = log_density_unnormalized(lam, m + 1)
            perm = log_density_unnormalized(rng.permutation(lam), m + 1)
            assert abs(perm - base) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_density_unnormalized(np.array([0.0, 1.0]), 2)
        with pytest.raises(ValueError):
            log_density_unnormalized(np.array([1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            log_density_unnormalized(np.array([np.nan, 1.0]), 2)
        with pytest.raises(ValueError):
            log_density_unnormalized(np.array([1.0, np.inf]), 2)

    @pytest.mark.parametrize("eigenvalues, N", [([1.0, 2.0, 3.0], 2), ([1.0, 2.0], 2.0),
                                                ([], 2)],
                             ids=["N<M", "non-integer-N", "empty"])
    def test_rejects_bad_dims(self, eigenvalues, N):
        with pytest.raises(ConfigurationError):
            log_density_unnormalized(np.array(eigenvalues), N)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            log_density_unnormalized(np.array([[1.0, 2.0]]), 2)

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
    def test_worker_count_invariance(self, estimator, monkeypatch):
        # one point, two workers: block 1 is launched beside block 0 before
        # any block returns, and dropped, as the point stops on block 0
        policy = TrialPolicy(max_trials=40_000, target_events=50,
                             block_trials=3_000)
        one = estimator(2, 2, 1, 1.0, [50.0], policy=policy, master_seed=14)
        next_run, launched = montecarlo._next_run, []

        def counting_next_run(*args):
            run = next_run(*args)
            launched.append(run is not None)
            return run

        monkeypatch.setattr(montecarlo, "_next_run", counting_next_run)
        two = estimator(2, 2, 1, 1.0, [50.0], policy=policy, master_seed=14,
                        workers=2)
        assert one.points == two.points
        consumed = -(-two.points[0].trials // policy.block_trials)
        assert sum(launched) > consumed

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            tail_sum_probability(2, 2, 0, 1.0, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            tail_sum_probability(2, 2, 3, 1.0, [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            smallest_eigs_probability(2, 2, 1, -1.0, [1.0, 2.0])

    @pytest.mark.parametrize("args", [(2.5, 3, 1, 1.0), (2, 3.0, 1, 1.0),
                                      (2, 3, 1.5, 1.0), (2, 3, 1, np.nan),
                                      (2, 3, 1, np.inf), (2, 3, True, 1.0)],
                             ids=["M", "N", "m", "b-nan", "b-inf", "bool-m"])
    def test_rejects_non_integer_dims_and_non_finite_threshold(self, args):
        for estimate in (tail_sum_probability, smallest_eigs_probability):
            with pytest.raises(ConfigurationError):
                estimate(*args, [1.0, 2.0])

    def test_point_schema_matches_outage_schema(self):
        policy = TrialPolicy(max_trials=2000, target_events=10, block_trials=1000)
        curve = tail_sum_probability(1, 1, 1, 1.0, [5.0], policy=policy,
                                     master_seed=13)
        pt = curve.points[0]
        assert pt.outages <= pt.trials
        assert pt.p_out == pt.outages / pt.trials
        low, high = wilson_interval(pt.outages, pt.trials)
        assert pt.ci_low == low and pt.ci_high == high
