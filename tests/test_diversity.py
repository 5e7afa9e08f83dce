import math

import numpy as np
import pytest

from mmsediv import (ApplicabilityError, BinomialCurve, BoundaryRateError,
                     ConfigurationError, CurvePoint, FitWindow,
                     InsufficientDataError, NumericalHealthWarning,
                     SystemConfig, TrialPolicy, estimate_binomial_curve,
                     estimate_outage, fit_diversity_slope,
                     resolve_rate_regime, resolve_rate_regime_flat,
                     resolve_rate_regime_selective, wilson_interval)
from mmsediv import mmse


def make_curve(rhos, ps, trials=10 ** 6, converged=True, scenario="synthetic"):
    points = [CurvePoint(rho=float(r), snr_db=float(10 * np.log10(r)),
                         trials=trials, outages=int(round(p * trials)),
                         p_out=float(p), ci_low=0.0, ci_high=1.0,
                         converged=converged)
              for r, p in zip(rhos, ps)]
    return BinomialCurve(scenario=scenario, points=points, master_seed=0)


class TestFlatRegimes:
    def test_high_rate_regime(self):
        regime = resolve_rate_regime_flat(2, 2, 3.0)
        assert regime.m == 1 and regime.tight
        assert regime.diversity_high == 1
        assert regime.rate_interval == (1.0, math.inf)

    def test_full_diversity_regime(self):
        regime = resolve_rate_regime_flat(2, 2, 1.2)
        assert regime.m == 2 and regime.tight
        assert regime.diversity_high == 4
        assert regime.rate_interval == (0.0, 1.0)

    def test_single_stream_any_rate(self):
        for rate in (0.1, 1.0, 17.3):
            regime = resolve_rate_regime_flat(1, 3, rate)
            assert regime.m == 1
            assert regime.diversity_high == 3
            assert regime.rate_interval == (0.0, math.inf)

    @pytest.mark.parametrize("m_streams", [1, 2, 3, 4])
    def test_full_regime_table(self, m_streams):
        # every interval midpoint must return exactly the m and diversity
        # forced by log2(M/m) < R/M < log2(M/(m-1))
        n_rx = m_streams + 1
        for m in range(1, m_streams + 1):
            low = math.log2(m_streams / m)
            high = math.log2(m_streams / (m - 1)) if m > 1 else low + 2.0
            x = 0.5 * (low + high)
            regime = resolve_rate_regime_flat(m_streams, n_rx, x * m_streams)
            assert regime.m == m
            assert regime.tight
            assert regime.diversity_low == regime.diversity_high == m * (n_rx - m_streams + m)

    @pytest.mark.parametrize("m_streams", [2, 3, 4])
    def test_boundary_rates_refused(self, m_streams):
        for m in range(1, m_streams):
            rate = m_streams * math.log2(m_streams / m)
            with pytest.raises(BoundaryRateError) as err:
                resolve_rate_regime_flat(m_streams, m_streams, rate)
            assert f"m={m}" in str(err.value) and f"m={m + 1}" in str(err.value)

    def test_diversity_nonincreasing_in_rate(self):
        m_streams, n_rx = 3, 4
        rates = np.linspace(0.01, 3 * math.log2(3) + 1.0, 997)
        last = math.inf
        for rate in rates:
            try:
                regime = resolve_rate_regime_flat(m_streams, n_rx, float(rate))
            except BoundaryRateError:
                continue
            assert regime.diversity_high <= last
            last = regime.diversity_high

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            resolve_rate_regime_flat(2, 1, 1.0)
        with pytest.raises(ConfigurationError):
            resolve_rate_regime_flat(2, 2, 0.0)
        with pytest.raises(ConfigurationError):
            resolve_rate_regime_flat(2, 2, -0.3)


class TestSelectiveRegimes:
    def test_reference_scenario(self):
        regime = resolve_rate_regime_selective(2, 2, 2, 64, 3.0)
        assert regime.m == 1 and regime.tight
        assert regime.diversity_high == 3  # L*N - M + 1

    def test_full_diversity_scenario(self):
        # independent evaluation of the tight upper bound:
        # -log2((m-1)/M + (L-1)(M-(m-1))/K) with m=2, M=2, L=2, K=64
        bound = -math.log2(1 / 2 + (1 * 1) / 64)
        assert abs(bound - 0.9556058806415466) <= 1e-12
        regime = resolve_rate_regime_selective(2, 2, 2, 64, 1.2)
        assert 0.6 < bound
        assert regime.m == 2 and regime.tight
        assert regime.diversity_high == 2 * (2 * 2 - 2 + 2)
        assert abs(regime.rate_interval[1] - bound) <= 1e-12

    def test_applicability_refused(self):
        with pytest.raises(ApplicabilityError) as err:
            resolve_rate_regime_selective(2, 2, 2, 4, 3.0)
        assert "K > M^2(L-1)" in str(err.value)

    def test_gap_region_reports_bracket(self):
        # M=2, L=2, K=8: tight bound for m=1 is -log2(2/8) = 2
        regime = resolve_rate_regime_selective(2, 2, 2, 8, 2 * 3.0)
        assert regime.m == 1
        assert not regime.tight
        assert regime.diversity_high == 1 * (2 * 2 - 2 + 1)
        assert regime.diversity_low == 0
        assert regime.rate_interval[0] == 2.0

    def test_gap_region_m2(self):
        # M=2, L=2, K=16: m=2 tight bound is -log2(1/2 + 1/16)
        bound = -math.log2(0.5 + 1 / 16)
        regime = resolve_rate_regime_selective(2, 2, 2, 16, 2 * 0.9)
        assert 0.9 > bound
        assert regime.m == 2 and not regime.tight
        assert regime.diversity_high == 2 * (4 - 2 + 2)
        assert regime.diversity_low == 1 * (4 - 2 + 1)

    def test_gap_boundary_is_inclusive(self):
        bound = -math.log2(0.5 + 1 / 16)
        regime = resolve_rate_regime_selective(2, 2, 2, 16, 2 * bound)
        assert not regime.tight

    def test_single_tap_matches_flat(self):
        # rates one ulp below every regime edge, in R/M and in R: the L = 1
        # tight interval must end at log2(M/(m-1)) itself, not at
        # -log2((m-1)/M), which can lie one ulp lower
        for m_streams in range(1, 9):
            edges = [math.log2(m_streams / j) for j in range(1, m_streams)]
            rates = list(np.linspace(0.05, m_streams * math.log2(m_streams) + 0.8, 41))
            rates += [m_streams * math.nextafter(e, -math.inf) for e in edges]
            rates += [math.nextafter(m_streams * e, -math.inf) for e in edges]
            for n_rx, k in [(m_streams, 1), (m_streams, 8), (m_streams + 1, 5),
                            (m_streams + 2, 64)]:
                for rate in map(float, rates):
                    try:
                        flat = resolve_rate_regime_flat(m_streams, n_rx, rate)
                    except BoundaryRateError:
                        with pytest.raises(BoundaryRateError):
                            resolve_rate_regime_selective(m_streams, n_rx, 1, k, rate)
                        continue
                    sel = resolve_rate_regime_selective(m_streams, n_rx, 1, k, rate)
                    assert sel == flat
                    assert sel.tight
                    assert sel.diversity_high == sel.m * (n_rx - m_streams + sel.m)
                    upper = (math.log2(m_streams / (sel.m - 1)) if sel.m > 1
                             else math.inf)
                    assert sel.rate_interval == (math.log2(m_streams / sel.m), upper)

    def test_boundary_rates_refused(self):
        with pytest.raises(BoundaryRateError):
            resolve_rate_regime_selective(2, 2, 2, 64, 2.0)

    def test_diversity_nonincreasing_in_rate(self):
        m_streams, n_rx, taps, k = 3, 3, 2, 32
        rates = np.linspace(0.01, 5.5, 499)
        last = math.inf
        for rate in rates:
            try:
                regime = resolve_rate_regime_selective(m_streams, n_rx, taps, k,
                                                       float(rate))
            except BoundaryRateError:
                continue
            assert regime.diversity_high <= last
            last = regime.diversity_high


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(M=2, N=1, R=1.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(M=2, N=2, R=-1.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(M=2, N=2, R=1.0, L=3, K=2)
        with pytest.raises(ConfigurationError):
            SystemConfig(M=2, N=2, R=1.0, scaling="nope")

    def test_selective_flag_and_labels(self):
        flat = SystemConfig(M=2, N=2, R=3.0)
        sel = SystemConfig(M=2, N=2, R=3.0, L=2, K=64)
        assert not flat.selective and sel.selective
        assert flat.label() != sel.label()

    def test_dispatch(self):
        sel = SystemConfig(M=2, N=2, R=3.0, L=2, K=64)
        assert resolve_rate_regime(sel).diversity_high == 3
        flat = SystemConfig(M=2, N=2, R=3.0)
        assert resolve_rate_regime(flat).diversity_high == 1


class TestWilsonInterval:
    def test_bounds_order(self):
        for k, n in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 7)]:
            low, high = wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(100, 1000))[0]
        assert w2 < w1


class TestEstimateOutage:
    def test_zero_rate_never_in_outage(self):
        cfg = SystemConfig(M=2, N=2, R=0.0)
        policy = TrialPolicy(max_trials=2000, target_events=5, block_trials=1000)
        curve = estimate_outage(cfg, [0.0, 10.0], policy=policy, master_seed=3)
        assert all(pt.outages == 0 for pt in curve.points)
        assert all(pt.p_out == 0.0 for pt in curve.points)
        assert not any(pt.converged for pt in curve.points)

    def test_deep_low_snr_is_certain_outage(self):
        cfg = SystemConfig(M=2, N=2, R=3.0)
        policy = TrialPolicy(max_trials=2000, target_events=100, block_trials=1000)
        curve = estimate_outage(cfg, [-30.0], policy=policy, master_seed=4)
        assert curve.points[0].p_out >= 0.99

    def test_seed_determinism(self):
        cfg = SystemConfig(M=2, N=2, R=2.5)
        policy = TrialPolicy(max_trials=5000, target_events=50, block_trials=1000)
        a = estimate_outage(cfg, [0.0, 5.0], policy=policy, master_seed=9)
        b = estimate_outage(cfg, [0.0, 5.0], policy=policy, master_seed=9)
        assert a.points == b.points
        c = estimate_outage(cfg, [0.0, 5.0], policy=policy, master_seed=10)
        assert a.points != c.points

    def test_worker_count_invariance(self):
        cfg = SystemConfig(M=2, N=2, R=3.0, L=2, K=8)
        policy = TrialPolicy(max_trials=6000, target_events=40, block_trials=1000)
        grid = [0.0, 7.5, 15.0]
        serial = estimate_outage(cfg, grid, policy=policy, master_seed=21, workers=1)
        dual = estimate_outage(cfg, grid, policy=policy, master_seed=21, workers=2)
        assert serial.points == dual.points

    def test_monotone_up_to_confidence(self):
        cfg = SystemConfig(M=2, N=2, R=2.0)
        policy = TrialPolicy(max_trials=40_000, target_events=200,
                             block_trials=10_000)
        curve = estimate_outage(cfg, np.arange(0.0, 15.1, 2.5), policy=policy,
                                master_seed=5)
        pts = [pt for pt in curve.points if pt.converged]
        for a, b in zip(pts, pts[1:]):
            assert b.p_out <= a.p_out + (a.ci_high - a.ci_low) + (b.ci_high - b.ci_low)

    def test_point_invariants(self):
        cfg = SystemConfig(M=2, N=3, R=2.0)
        policy = TrialPolicy(max_trials=3000, target_events=30, block_trials=1000)
        curve = estimate_outage(cfg, [0.0, 5.0, 10.0], policy=policy, master_seed=6)
        for pt in curve.points:
            assert pt.outages <= pt.trials
            assert pt.p_out == pt.outages / pt.trials
            assert pt.ci_low <= pt.p_out <= pt.ci_high
            assert pt.converged == (pt.outages >= policy.target_events)

    def test_rejects_bad_grid(self):
        cfg = SystemConfig(M=2, N=2, R=1.0)
        with pytest.raises(ConfigurationError):
            estimate_outage(cfg, [5.0, 5.0], master_seed=0)
        with pytest.raises(ConfigurationError):
            estimate_outage(cfg, [], master_seed=0)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            TrialPolicy(max_trials=0)
        with pytest.raises(ConfigurationError):
            TrialPolicy(target_events=0)


def _clamping_kernel(rho, rng, n_trials):
    """Every trial is an event; each block clamps one SINR beyond the slack."""
    mmse._sinrs_from_mse(np.array([1.0 + 1e-9, 0.5]))
    return n_trials


class TestSweepNumericalHealth:
    def _delta(self, run):
        before = mmse.numerical_health()
        result = run()
        after = mmse.numerical_health()
        return result, {key: after[key] - before[key] for key in after}

    def test_counts_do_not_depend_on_worker_count(self):
        cfg = SystemConfig(M=2, N=2, R=3.0, L=2, K=8)
        policy = TrialPolicy(max_trials=6000, target_events=40, block_trials=1000)
        grid = [0.0, 7.5, 15.0]
        deltas = {}
        for workers in (1, 2):
            curve, deltas[workers] = self._delta(lambda: estimate_outage(
                cfg, grid, policy=policy, master_seed=21, workers=workers))
        trials = sum(pt.trials for pt in curve.points)
        assert deltas[1] == deltas[2] == {"evaluations": 2 * trials,
                                          "clamped_beyond_slack": 0}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_clamps_are_counted_once_and_warned(self, workers):
        # three blocks reach the target; with two workers a fourth block runs
        # speculatively and its counts must be dropped
        policy = TrialPolicy(max_trials=40, target_events=25, block_trials=10)
        with pytest.warns(NumericalHealthWarning) as record:
            curve, delta = self._delta(lambda: estimate_binomial_curve(
                _clamping_kernel, [1.0], policy=policy, workers=workers))
        assert curve.points[0].trials == 30
        assert delta == {"evaluations": 6, "clamped_beyond_slack": 3}
        assert sum(issubclass(w.category, NumericalHealthWarning)
                   for w in record) == 3


class TestFitDiversitySlope:
    def test_exact_power_law(self):
        rhos = np.logspace(1, 4, 7)
        fit = fit_diversity_slope(make_curve(rhos, rhos ** -2.0),
                                  FitWindow(p_max=1.0))
        assert abs(fit.d_hat - 2.0) <= 1e-9
        assert abs(fit.intercept) <= 1e-9
        assert fit.residual <= 1e-12

    def test_constant_absorbed_by_intercept(self):
        rhos = np.logspace(1, 3, 5)
        fit = fit_diversity_slope(make_curve(rhos, 5.0 * rhos ** -3.0),
                                  FitWindow(p_max=1.0))
        assert abs(fit.d_hat - 3.0) <= 1e-9
        assert abs(fit.intercept - np.log10(5.0)) <= 1e-9

    def test_slope_invariant_under_snr_rescaling(self):
        rhos = np.logspace(1, 3, 5)
        ps = 2.0 * rhos ** -1.5
        d1 = fit_diversity_slope(make_curve(rhos, ps), FitWindow(p_max=1.0)).d_hat
        d2 = fit_diversity_slope(make_curve(7.3 * rhos, ps), FitWindow(p_max=1.0)).d_hat
        assert abs(d1 - d2) <= 1e-9

    def test_window_filters_points(self):
        rhos = np.logspace(0, 4, 9)
        ps = rhos ** -1.0
        curve = make_curve(rhos, ps)
        fit = fit_diversity_slope(curve)  # default p_max = 0.1
        assert fit.points_used == sum(1 for p in ps if p <= 0.1)

    def test_unconverged_points_excluded(self):
        rhos = np.logspace(1, 3, 5)
        curve = make_curve(rhos, rhos ** -2.0, converged=False)
        with pytest.raises(InsufficientDataError):
            fit_diversity_slope(curve, FitWindow(p_max=1.0))

    def test_needs_three_points(self):
        rhos = np.logspace(1, 2, 2)
        curve = make_curve(rhos, rhos ** -1.0)
        with pytest.raises(InsufficientDataError):
            fit_diversity_slope(curve, FitWindow(p_max=1.0))
