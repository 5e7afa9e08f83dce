import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mmsediv
from mmsediv import (ApplicabilityError, BinomialCurve, BoundaryRateError,
                     ConfigurationError, CurvePoint, FitWindow,
                     InsufficientDataError, NumericalHealthWarning,
                     SystemConfig, TrialPolicy, derive_stream,
                     estimate_binomial_curve, estimate_outage,
                     fit_diversity_slope, resolve_rate_regime,
                     sample_complex_gaussian, wilson_interval)
from mmsediv import diversity, mmse, montecarlo, wishart
from mmsediv.wishart import smallest_eigs_probability, tail_sum_probability


def make_curve(rhos, ps, trials=10 ** 6, converged=True, scenario="synthetic"):
    points = [CurvePoint(rho=float(r), snr_db=float(10 * np.log10(r)),
                         trials=trials, outages=int(round(p * trials)),
                         p_out=float(p), ci_low=0.0, ci_high=1.0,
                         converged=converged)
              for r, p in zip(rhos, ps)]
    return BinomialCurve(scenario=scenario, points=points, master_seed=0)


def resolve(M, N, R, L=1, K=1):
    return resolve_rate_regime(SystemConfig(M=M, N=N, R=R, L=L, K=K))


class TestFlatRegimes:
    def test_high_rate_regime(self):
        regime = resolve(2, 2, 3.0)
        assert regime.m == 1 and regime.tight
        assert regime.diversity_high == 1
        assert regime.rate_interval == (1.0, math.inf)

    def test_full_diversity_regime(self):
        regime = resolve(2, 2, 1.2)
        assert regime.m == 2 and regime.tight
        assert regime.diversity_high == 4
        assert regime.rate_interval == (0.0, 1.0)

    def test_single_stream_any_rate(self):
        for rate in (0.1, 1.0, 17.3):
            regime = resolve(1, 3, rate)
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
            regime = resolve(m_streams, n_rx, x * m_streams)
            assert regime.m == m
            assert regime.tight
            assert regime.diversity_low == regime.diversity_high == m * (n_rx - m_streams + m)

    @pytest.mark.parametrize("m_streams", [2, 3, 4, 5, 6, 7, 8])
    def test_boundary_rates_refused(self, m_streams):
        for m in range(1, m_streams):
            edge = math.log2(m_streams / m)
            rate = m_streams * edge
            with pytest.raises(BoundaryRateError) as err:
                resolve(m_streams, m_streams, rate)
            assert f"m={m}" in str(err.value) and f"m={m + 1}" in str(err.value)
            # one ulp off the edge, in R/M and in R: regime m above, m + 1
            # below, and refused where R/M rounds back onto the edge
            for way in (math.inf, -math.inf):
                for near in (m_streams * math.nextafter(edge, way),
                             math.nextafter(rate, way)):
                    x = near / m_streams
                    if x == edge:
                        with pytest.raises(BoundaryRateError):
                            resolve(m_streams, m_streams, near)
                    else:
                        regime = resolve(m_streams, m_streams, near)
                        assert regime.m == (m if x > edge else m + 1)

    def test_diversity_nonincreasing_in_rate(self):
        m_streams, n_rx = 3, 4
        rates = np.linspace(0.01, 3 * math.log2(3) + 1.0, 997)
        last = math.inf
        for rate in rates:
            try:
                regime = resolve(m_streams, n_rx, float(rate))
            except BoundaryRateError:
                continue
            assert regime.diversity_high <= last
            last = regime.diversity_high

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            resolve(2, 1, 1.0)
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            resolve(2, 2, 0.0)
        with pytest.raises(ConfigurationError):
            resolve(2, 2, -0.3)


class TestSelectiveRegimes:
    def test_reference_scenario(self):
        regime = resolve(2, 2, 3.0, L=2, K=64)
        assert regime.m == 1 and regime.tight
        assert regime.diversity_high == 3  # L*N - M + 1

    def test_full_diversity_scenario(self):
        # independent evaluation of the tight upper bound:
        # -log2((m-1)/M + (L-1)(M-(m-1))/K) with m=2, M=2, L=2, K=64
        bound = -math.log2(1 / 2 + (1 * 1) / 64)
        assert abs(bound - 0.9556058806415466) <= 1e-12
        regime = resolve(2, 2, 1.2, L=2, K=64)
        assert 0.6 < bound
        assert regime.m == 2 and regime.tight
        assert regime.diversity_high == 2 * (2 * 2 - 2 + 2)
        assert abs(regime.rate_interval[1] - bound) <= 1e-12

    def test_applicability_refused(self):
        with pytest.raises(ApplicabilityError) as err:
            resolve(2, 2, 3.0, L=2, K=4)
        assert "K > M^2(L-1)" in str(err.value)

    def test_gap_region_reports_bracket(self):
        # M=2, L=2, K=8: tight bound for m=1 is -log2(2/8) = 2
        regime = resolve(2, 2, 2 * 3.0, L=2, K=8)
        assert regime.m == 1
        assert not regime.tight
        assert regime.diversity_high == 1 * (2 * 2 - 2 + 1)
        assert regime.diversity_low == 0
        assert regime.rate_interval[0] == 2.0

    def test_gap_region_m2(self):
        # M=2, L=2, K=16: m=2 tight bound is -log2(1/2 + 1/16)
        bound = -math.log2(0.5 + 1 / 16)
        regime = resolve(2, 2, 2 * 0.9, L=2, K=16)
        assert 0.9 > bound
        assert regime.m == 2 and not regime.tight
        assert regime.diversity_high == 2 * (4 - 2 + 2)
        assert regime.diversity_low == 1 * (4 - 2 + 1)

    def test_gap_boundary_is_inclusive(self):
        bound = -math.log2(0.5 + 1 / 16)
        regime = resolve(2, 2, 2 * bound, L=2, K=16)
        assert not regime.tight

    def test_single_tap_matches_flat(self):
        # at L = 1 the block length K changes nothing, also at rates one ulp
        # below every regime edge, in R/M and in R; there the tight interval
        # must end at log2(M/(m-1)) itself, not at -log2((m-1)/M), which can
        # lie one ulp lower
        for m_streams in range(1, 9):
            edges = [math.log2(m_streams / j) for j in range(1, m_streams)]
            rates = list(np.linspace(0.05, m_streams * math.log2(m_streams) + 0.8, 41))
            rates += [m_streams * math.nextafter(e, -math.inf) for e in edges]
            rates += [math.nextafter(m_streams * e, -math.inf) for e in edges]
            for n_rx, k in [(m_streams, 1), (m_streams, 8), (m_streams + 1, 5),
                            (m_streams + 2, 64)]:
                for rate in map(float, rates):
                    try:
                        flat = resolve(m_streams, n_rx, rate)
                    except BoundaryRateError:
                        with pytest.raises(BoundaryRateError):
                            resolve(m_streams, n_rx, rate, L=1, K=k)
                        continue
                    sel = resolve(m_streams, n_rx, rate, L=1, K=k)
                    assert sel == flat
                    assert sel.tight
                    assert sel.diversity_high == sel.m * (n_rx - m_streams + sel.m)
                    upper = (math.log2(m_streams / (sel.m - 1)) if sel.m > 1
                             else math.inf)
                    assert sel.rate_interval == (math.log2(m_streams / sel.m), upper)

    def test_boundary_rates_refused(self):
        with pytest.raises(BoundaryRateError):
            resolve(2, 2, 2.0, L=2, K=64)

    def test_diversity_nonincreasing_in_rate(self):
        m_streams, n_rx, taps, k = 3, 3, 2, 32
        rates = np.linspace(0.01, 5.5, 499)
        last = math.inf
        for rate in rates:
            try:
                regime = resolve(m_streams, n_rx, float(rate), L=taps, K=k)
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
        for field in ("M", "L", "K"):
            with pytest.raises(ConfigurationError, match=f"{field} must be >= 1"):
                SystemConfig(**{"M": 2, "N": 2, "R": 1.0, field: 0})

    @pytest.mark.parametrize("field, value", [("M", 2.5), ("N", 3.5), ("L", 2.5),
                                              ("K", 8.5), ("M", 2.0), ("M", True)],
                             ids=["M", "N", "L", "K", "integral-float-M", "bool-M"])
    def test_rejects_non_integer_dimensions(self, field, value):
        dims = dict(M=2, N=3, L=2, K=8)
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            SystemConfig(R=3.0, **{**dims, field: value})

    def test_accepts_numpy_integers(self):
        cfg = SystemConfig(M=np.int64(2), N=np.int32(2), R=3.0, L=np.int64(2),
                           K=np.int64(64))
        assert cfg.label() == SystemConfig(M=2, N=2, R=3.0, L=2, K=64).label()

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

    @pytest.mark.parametrize("successes, trials", [
        (5, 3), (-1, 10), (0, -1), (2.5, 10), (1, 10.0)],
        ids=["above-trials", "negative-successes", "negative-trials",
             "non-integer-successes", "non-integer-trials"])
    def test_rejects_bad_counts(self, successes, trials):
        with pytest.raises(ConfigurationError):
            wilson_interval(successes, trials)

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

    def test_curve_columns_follow_points(self):
        curve = make_curve([10.0, 100.0], [0.1, 0.01])
        curve.points += make_curve([1000.0], [0.0], converged=False).points
        assert np.array_equal(curve.column("rho"), [10.0, 100.0, 1000.0])
        assert np.array_equal(curve.snr_db, [pt.snr_db for pt in curve.points])
        assert np.array_equal(curve.p_out, [0.1, 0.01, 0.0])
        assert curve.converged.tolist() == [True, True, False]

    def test_rejects_bad_grid(self):
        cfg = SystemConfig(M=2, N=2, R=1.0)
        with pytest.raises(ConfigurationError):
            estimate_outage(cfg, [5.0, 5.0], master_seed=0)
        with pytest.raises(ConfigurationError):
            estimate_outage(cfg, [], master_seed=0)
        for rho in ([0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                estimate_binomial_curve(_all_events_kernel, rho)
        with pytest.raises(ConfigurationError, match="snr_db grid must match"):
            estimate_binomial_curve(_all_events_kernel, [1.0, 2.0], snr_db_grid=[0.0])

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("estimate", [
        lambda seed: estimate_outage(SystemConfig(M=2, N=2, R=1.0), [0.0, 5.0],
                                     master_seed=seed, workers=2),
        lambda seed: tail_sum_probability(2, 2, 1, 1.0, [1.0, 2.0],
                                          master_seed=seed, workers=2),
        lambda seed: smallest_eigs_probability(2, 2, 1, 1.0, [1.0, 2.0],
                                               master_seed=seed, workers=2),
    ], ids=["outage", "tail-sum", "smallest-eigs"])
    def test_rejects_bad_master_seed_before_the_pool(self, monkeypatch,
                                                     estimate, seed):
        def no_pool(*args, **kwargs):
            pytest.fail("a worker pool opened for an invalid seed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError, match="master_seed"):
            estimate(seed)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            TrialPolicy(max_trials=0)
        with pytest.raises(ConfigurationError):
            TrialPolicy(target_events=0)
        with pytest.raises(ConfigurationError, match="block_trials must be >= 1"):
            TrialPolicy(block_trials=0)

    @pytest.mark.parametrize("workers", [2.5, 2.0, "2", True])
    def test_rejects_non_integer_worker_count(self, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            pytest.fail("a worker pool opened for an invalid worker count")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError, match="workers"):
            estimate_outage(SystemConfig(M=2, N=2, R=1.0), [0.0], workers=workers)

    def test_one_worker_never_imports_multiprocessing(self):
        # the pool module is imported only for a multi-worker sweep
        code = ("import sys, mmsediv\n"
                "loaded = lambda: 'multiprocessing' in sys.modules\n"
                "assert not loaded(), 'import'\n"
                # importing scipy.stats costs several times the whole of `import mmsediv`;
                # only `verify-haar` loads it
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy'\n"
                "mmsediv.tail_sum_probability(1, 1, 1, 1.0, [1.0], mmsediv.TrialPolicy(\n"
                "    max_trials=100, target_events=1, block_trials=100))\n"
                "assert not loaded(), 'one-worker sweep'\n")
        src = os.path.dirname(os.path.dirname(mmsediv.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_refused(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            montecarlo.resolve_workers(workers)

    @pytest.mark.parametrize("workers, count", [(1, 1), (np.int64(3), 3),
                                                (None, None), ("auto", None)])
    def test_worker_count_resolution(self, workers, count):
        resolved = montecarlo.resolve_workers(workers)
        assert type(resolved) is int and resolved >= 1
        assert count is None or resolved == count

    def test_auto_counts_the_cpus_the_process_may_use(self, monkeypatch):
        # `os.cpu_count()` ignores the affinity mask: under `taskset -c 0` it
        # still counts every CPU of the host
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert montecarlo.resolve_workers("auto") == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
        assert montecarlo.resolve_workers("auto") == 8

    @pytest.mark.parametrize("field", ["max_trials", "target_events", "block_trials"])
    def test_policy_rejects_non_integer_counts(self, field):
        for value in (2500.5, True):
            with pytest.raises(ConfigurationError, match=field):
                TrialPolicy(**{field: value})

    def test_policy_repr_is_unchanged(self):
        # benchmark count records are keyed on this repr
        policy = TrialPolicy(max_trials=500_000, target_events=100,
                             block_trials=20_000)
        assert repr(policy) == ("TrialPolicy(max_trials=500000, target_events=100, "
                                "block_trials=20000)")


def _float64_capacity(taps, rho, rate, cfg):
    """`diversity._capacity` without the float32 screen."""
    return mmse.selective_capacity_batch(taps, rho, cfg.K, cfg.scaling)


def _recording_mse(monkeypatch):
    """Patch `mmse._mse` to record the tap dtype of each call; return the list."""
    dtypes, mse = [], mmse._mse
    monkeypatch.setattr(mmse, "_mse",
                        lambda taps, *args: dtypes.append(taps.dtype) or mse(taps, *args))
    return dtypes


class TestFloat32Screen:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cfg, grid", [
        (SystemConfig(M=2, N=2, R=6.0), [0.0, 15.0, 20.0]),
        (SystemConfig(M=3, N=3, R=6.0, L=2, K=16), [5.0, 10.0, 15.0]),
    ], ids=["flat", "selective"])
    def test_counts_equal_float64_counts(self, monkeypatch, cfg, grid, workers):
        policy = TrialPolicy(max_trials=12_000, target_events=100, block_trials=4000)
        dtypes = _recording_mse(monkeypatch)
        screened = estimate_outage(cfg, grid, policy=policy, master_seed=31,
                                   workers=workers)
        if workers == 1:
            # the sweep both decided chunks in float32 and fell back to float64
            assert set(dtypes) == {np.dtype(np.complex64), np.dtype(np.complex128)}
        monkeypatch.setattr(diversity, "_capacity", _float64_capacity)
        plain = estimate_outage(cfg, grid, policy=policy, master_seed=31,
                                workers=workers)
        assert screened.points == plain.points


def _sliced_kernel(monkeypatch, kind, budget_trials):
    """A library kernel whose draw budget holds ``budget_trials`` trials, and
    ``count(rng, n)``, its events on one draw of n trials from ``rng``.

    At rho = 10 about half the trials of the outage and tail kernels are events.
    """
    module, estimate = {
        "outage": (diversity, lambda: estimate_outage(
            SystemConfig(M=2, N=2, R=4.0, L=2, K=8), [10.0])),
        "flat": (diversity, lambda: estimate_outage(SystemConfig(M=2, N=2, R=1.2),
                                                    [10.0])),
        "tail": (wishart, lambda: tail_sum_probability(2, 3, 1, 10.0, [1.0])),
    }[kind]
    monkeypatch.setattr(module, "estimate_binomial_curve",
                        lambda kernel, *args, **kwargs: kernel)
    kernel = estimate()
    statistic, threshold, (N, M, L) = kernel.args
    monkeypatch.setattr(diversity, "_BLOCK_DRAW_BYTES", budget_trials * 16 * L * N * M)

    def count(rng, n_trials):
        taps = sample_complex_gaussian(N, M, rng, size=(n_trials, L))
        return int(np.count_nonzero(statistic(taps, 10.0, threshold) < threshold))

    return kernel, count


class TestBlockDrawBound:
    def test_block_above_the_budget_draws_in_slices(self, monkeypatch):
        kernel, count = _sliced_kernel(monkeypatch, "outage", 1000)
        twin = derive_stream(5, 0, 0)
        sliced = sum(count(twin, n) for n in (1000, 1000, 500))
        assert kernel(10.0, derive_stream(5, 0, 0), 2500) == sliced

    @pytest.mark.parametrize("n_trials", [1000, 999])
    @pytest.mark.parametrize("kind", ["outage", "tail"])
    def test_block_within_the_budget_draws_once(self, monkeypatch, kind, n_trials):
        kernel, count = _sliced_kernel(monkeypatch, kind, 1000)
        assert (kernel(10.0, derive_stream(6, 1, 2), n_trials)
                == count(derive_stream(6, 1, 2), n_trials))

    def test_sliced_block_memory_follows_the_budget(self, monkeypatch):
        # a 1 MiB budget: 200,000 flat 2 x 2 trials are 12.2 MiB of taps
        kernel, _ = _sliced_kernel(monkeypatch, "flat", 2**20 // 64)
        tracemalloc.start()
        try:
            kernel(10.0, derive_stream(0, 0, 0), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _clamping_kernel(rho, rng, n_trials):
    """Every trial is an event; each block clamps one SINR beyond the slack."""
    mmse._sinrs_from_mse(np.array([1.0 + 1e-9, 0.5]))
    return n_trials


def _overcounting_kernel(rho, rng, n_trials):
    return n_trials + 1 if rho > 1.0 else 0


def _negative_kernel(rho, rng, n_trials):
    return -1 if rho > 1.0 else 0


def _float_kernel(rho, rng, n_trials):
    return 0.5 * n_trials if rho > 1.0 else 0


def _bool_kernel(rho, rng, n_trials):
    return True if rho > 1.0 else 0


class TestKernelCounts:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel", [_overcounting_kernel, _negative_kernel,
                                        _float_kernel, _bool_kernel],
                             ids=["n+1", "-1", "float", "bool"])
    def test_bad_count_names_point_and_block(self, kernel, workers):
        # the first grid point counts 0 events; the second a bad count
        policy = TrialPolicy(max_trials=20, target_events=5, block_trials=10)
        with pytest.raises(ConfigurationError, match="grid point 1, block 0"):
            estimate_binomial_curve(kernel, [1.0, 2.0], policy=policy,
                                    workers=workers)


def _all_events_kernel(rho, rng, n_trials):
    return n_trials


class TestBlockSchedule:
    def test_blocks_keep_their_indices_and_sizes(self):
        # 250 trials in blocks of 100: blocks 0, 1 and 2 of 100, 100 and 50
        calls = []

        def kernel(rho, rng, n_trials):
            calls.append((n_trials, int(rng.integers(2**62))))
            return 0

        policy = TrialPolicy(max_trials=250, target_events=1, block_trials=100)
        curve = estimate_binomial_curve(kernel, [1.0], policy=policy,
                                        master_seed=7)
        assert curve.points[0].trials == 250
        assert calls == [(n, int(derive_stream(7, 0, i).integers(2**62)))
                         for i, n in enumerate((100, 100, 50))]

    def test_huge_budget_builds_no_schedule(self):
        # 10**10 trials are 100,000 blocks; the point stops in block 0
        policy = TrialPolicy(max_trials=10**10, target_events=1)
        tracemalloc.start()
        try:
            curve = estimate_binomial_curve(_all_events_kernel, [1.0],
                                            policy=policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.points[0].trials == policy.block_trials
        assert peak < 2**20


def _later_blocks_raise_kernel(rho, rng, n_trials):
    """Meets any target in block 0; every later block raises."""
    if rng.bit_generator.seed_seq.spawn_key[1] > 0:
        raise RuntimeError("a block past the stopping block ran")
    return n_trials


def _skipped_blocks_raise_kernel(rho, rng, n_trials):
    """No event at rho = 1, which caps; at rho = 2 one event in block 0 and
    every later block raises."""
    if rho == 2.0 and rng.bit_generator.seed_seq.spawn_key[1] > 0:
        raise RuntimeError("a block past block 0 of a skipped point ran")
    return 0 if rho == 1.0 else 1


def _rising_rate_kernel(rho, rng, n_trials):
    """Event rate 1e-3, 1e-2, 1e-1 at rho = 1, 2, 3: the first point caps."""
    return int(np.count_nonzero(rng.random(n_trials) < 10.0 ** (rho - 4.0)))


def _last_block_kernel(rho, rng, n_trials):
    """Two events per block at rho = 1, so a target of 20 in 10 blocks is met
    in the last one; otherwise `_rising_rate_kernel`."""
    return 2 if rho == 1.0 else _rising_rate_kernel(rho, rng, n_trials)


def _scripted_kernel(rho, rng, n_trials):
    """No events at rho = 1 (caps), 3 per block at rho = 2, every trial at rho = 3."""
    return min({1.0: 0, 2.0: 3, 3.0: n_trials}[rho], n_trials)


def _on_course_kernel(rho, rng, n_trials):
    """2 events per block at rho = 1 (a target of 5 in block 2 of 4), 3 at
    rho = 2, every trial at rho = 3: no point caps or falls behind."""
    return min({1.0: 2, 2.0: 3, 3.0: n_trials}[rho], n_trials)


def _scripted_sweep(monkeypatch, kernel, rho, policy, workers, master_seed=0,
                    script=(2, 0, 1)):
    """`montecarlo._sweep` with blocks run inline at launch and completed in a
    scripted order: by default the third, first, second, ... pending block,
    counted in launch order.  Returns the launched ``(g, i)`` and the points."""
    completed, launched = [], []

    def submit(fn, *args):
        launched.append(args[3:5])  # (g, i)
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # held in the future, as a pool does
            future.set_exception(exc)
        return future

    def scripted_wait(futures, return_when):
        pending = list(futures)
        done = pending[script[len(completed) % len(script)] % len(pending)]
        completed.append(done)
        return {done}, set(pending) - {done}

    monkeypatch.setattr(montecarlo, "wait", scripted_wait)
    rho = np.asarray(rho, dtype=float)
    points = montecarlo._sweep(kernel, rho, 10.0 * np.log10(rho), policy,
                               master_seed, submit, workers)
    return launched, points


class TestSweepScheduler:
    @pytest.mark.parametrize("workers, launches", [
        (1, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]),
        # point 0 is behind from its block 0 on, so block 1 of point 1 waits
        (2, [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (0, 3)]),
        (3, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3)]),
    ])
    def test_launch_sequence_is_pinned(self, monkeypatch, workers, launches):
        policy = TrialPolicy(max_trials=40, target_events=5, block_trials=10)
        launched, points = _scripted_sweep(monkeypatch, _scripted_kernel,
                                           [1.0, 2.0, 3.0], policy, workers)
        assert launched == launches
        counts = [(pt.trials, pt.outages, pt.status) for pt in points]
        assert counts == [(40, 0, "capped"), (10, 3, "skipped"), (10, 10, "converged")]

    @pytest.mark.parametrize("workers, launches", [
        (1, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]),
        (2, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (0, 3)]),
        # block 3 of point 0 and block 2 of point 1 run speculatively and are dropped
        (3, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]),
    ])
    def test_launch_sequence_without_a_cap_is_unchanged(self, monkeypatch, workers,
                                                        launches):
        # the sequences of the scheduler before points past a cap were given up
        policy = TrialPolicy(max_trials=40, target_events=5, block_trials=10)
        launched, points = _scripted_sweep(monkeypatch, _on_course_kernel,
                                           [1.0, 2.0, 3.0], policy, workers)
        assert launched == launches
        assert [(pt.trials, pt.outages) for pt in points] == [(30, 6), (20, 6), (10, 10)]

    def test_discarded_block_errors_are_dropped(self):
        # with two workers block 1 runs speculatively and raises
        policy = TrialPolicy(max_trials=40, target_events=5, block_trials=10)
        curves = [estimate_binomial_curve(_later_blocks_raise_kernel, [1.0],
                                          policy=policy, workers=workers)
                  for workers in (1, 2)]
        assert curves[0].points == curves[1].points
        assert curves[0].points[0].trials == 10

    def test_errors_past_block_0_of_a_skipped_point_are_dropped(self, monkeypatch):
        # with more workers block 1 of point 1 can run, and finish, before
        # point 0 falls behind or caps
        policy = TrialPolicy(max_trials=40, target_events=5, block_trials=10)
        curves = [estimate_binomial_curve(_skipped_blocks_raise_kernel, [1.0, 2.0],
                                          policy=policy, workers=workers).points
                  for workers in (1, 2, 3)]
        # the last pending block first: block 1 of point 1 finishes before
        # block 0 of point 0
        curves += [_scripted_sweep(monkeypatch, _skipped_blocks_raise_kernel,
                                   [1.0, 2.0], policy, workers, script=script)[1]
                   for workers in (2, 3) for script in ((2, 0, 1), (-1,))]
        assert all(curve == curves[0] for curve in curves[1:])
        assert [(pt.trials, pt.outages, pt.status) for pt in curves[0]] == [
            (40, 0, "capped"), (10, 1, "skipped")]

    def test_points_finishing_out_of_order_keep_their_counts(self):
        # point 0 converges in its last block while points 1 and 2 converge
        # beside it
        policy = TrialPolicy(max_trials=5000, target_events=20, block_trials=500)
        curves = [estimate_binomial_curve(_last_block_kernel, [1.0, 2.0, 3.0],
                                          policy=policy, master_seed=11,
                                          workers=workers)
                  for workers in (1, 2, 3)]
        assert [pt.converged for pt in curves[0].points] == [True, True, True]
        assert (curves[0].points[0].trials, curves[0].points[0].outages) == (5000, 20)
        assert curves[0].points == curves[1].points == curves[2].points

    def test_points_past_the_first_cap_keep_block_0(self, monkeypatch):
        # point 0 caps; under a rising rate points 1 and 2 would converge in
        # later blocks and point 3 converges in its block 0
        policy = TrialPolicy(max_trials=5000, target_events=20, block_trials=500)
        grid = [1.0, 1.5, 2.0, 3.0]
        curves = [estimate_binomial_curve(_rising_rate_kernel, grid, policy=policy,
                                          master_seed=11, workers=workers).points
                  for workers in (1, 2, 3)]
        curves += [_scripted_sweep(monkeypatch, _rising_rate_kernel, grid, policy,
                                   workers, master_seed=11)[1]
                   for workers in (1, 2, 3)]
        points = curves[0]
        assert all(curve == points for curve in curves[1:])
        assert [pt.status for pt in points] == ["capped", "skipped", "skipped",
                                                "converged"]
        assert points[0].trials == policy.max_trials
        for g, pt in enumerate(points[1:], start=1):
            block_0 = montecarlo._block_events(_rising_rate_kernel, grid[g], 11, g, 0,
                                               policy.block_trials)[0]
            assert (pt.trials, pt.outages) == (policy.block_trials, block_0)
            assert (pt.ci_low, pt.ci_high) == wilson_interval(block_0, policy.block_trials)

    def test_sure_block_beats_speculative(self):
        run = montecarlo._PointRun
        busy = run(0, launched=2, consumed=1, events=1)    # block 1 in flight
        idle = run(1, launched=1, consumed=1)              # needs block 1
        full = run(0, launched=4, consumed=2, events=2)    # every block launched
        assert montecarlo._next_run([busy, idle], n_blocks=4, target=4) is idle
        assert montecarlo._next_run([busy], n_blocks=4, target=4) is busy
        assert montecarlo._next_run([full, busy], n_blocks=4, target=4) is busy
        assert montecarlo._next_run([full], n_blocks=4, target=4) is None

    def test_point_behind_holds_back_later_blocks(self):
        # on course: events * n_blocks >= target * consumed
        run = montecarlo._PointRun
        behind = run(0, launched=2, consumed=1)            # no event in block 0
        ahead = run(0, launched=2, consumed=1, events=1)   # 1 * 4 >= 4 * 1
        idle = run(1, launched=1, consumed=1)              # needs block 1
        fresh = run(2)                                     # needs block 0
        # the spare worker takes the next block of the lowest open point
        assert montecarlo._next_run([behind, idle], n_blocks=4, target=4) is behind
        assert montecarlo._next_run([behind, idle, fresh], n_blocks=4,
                                    target=4) is fresh
        assert montecarlo._next_run([ahead, idle], n_blocks=4, target=4) is idle
        # a point past a capped one needs its block 0 only
        assert montecarlo._next_run([run(1, launched=1, past_cap=True)], n_blocks=4,
                                    target=4) is None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_never_more_than_workers_blocks_in_flight(self, monkeypatch, workers):
        in_flight = []

        def counting_wait(futures, **kwargs):
            in_flight.append(len(futures))
            return concurrent.futures.wait(futures, **kwargs)

        monkeypatch.setattr(montecarlo, "wait", counting_wait)
        policy = TrialPolicy(max_trials=5000, target_events=20, block_trials=500)
        estimate_binomial_curve(_rising_rate_kernel, [1.0, 2.0, 3.0],
                                policy=policy, workers=workers)
        assert max(in_flight) == workers


def _clamping_give_up_kernel(rho, rng, n_trials):
    """Each block clamps one SINR beyond the slack.  Every trial is an event at
    rho = 1 and 4; none at rho = 2, which caps; 3 per block at rho = 3, which
    would meet a target of 5 in its block 1."""
    mmse._sinrs_from_mse(np.array([1.0 + 1e-9, 0.5]))
    return min({1.0: n_trials, 2.0: 0, 3.0: 3, 4.0: n_trials}[rho], n_trials)


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
            _, deltas[workers] = self._delta(lambda: estimate_outage(
                cfg, grid, policy=policy, master_seed=21, workers=workers))
        assert deltas[1] == deltas[2] == {"clamped_beyond_slack": 0}

    def test_float32_decided_trials_count_no_clamps(self, monkeypatch):
        # at high SNR most trials lie far above R and are decided in float32
        cfg = SystemConfig(M=3, N=3, R=3.0, L=2, K=8)
        policy = TrialPolicy(max_trials=6000, target_events=40, block_trials=1000)
        grid = [25.0, 30.0]
        deltas = {}
        dtypes = _recording_mse(monkeypatch)
        for workers in (1, 2):
            _, deltas[workers] = self._delta(lambda: estimate_outage(
                cfg, grid, policy=policy, master_seed=22, workers=workers))
        assert deltas[1] == deltas[2] == {"clamped_beyond_slack": 0}
        assert dtypes.count(np.complex128) < dtypes.count(np.complex64) / 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_clamps_are_counted_once_and_warned(self, workers):
        # three blocks reach the target; with two workers a fourth block runs
        # speculatively and its counts must be dropped
        policy = TrialPolicy(max_trials=40, target_events=25, block_trials=10)
        with pytest.warns(NumericalHealthWarning) as record:
            curve, delta = self._delta(lambda: estimate_binomial_curve(
                _clamping_kernel, [1.0], policy=policy, workers=workers))
        assert curve.points[0].trials == 30
        assert delta == {"clamped_beyond_slack": 3}
        assert sum(issubclass(w.category, NumericalHealthWarning)
                   for w in record) == 3

    @pytest.mark.filterwarnings("ignore::mmsediv.NumericalHealthWarning")
    def test_give_up_merges_only_kept_clamps(self, monkeypatch):
        # blocks >= 1 of point 2 may run and be consumed before point 1 caps; the
        # give-up drops them, and their clamps with them
        policy = TrialPolicy(max_trials=40, target_events=5, block_trials=10)
        grid = [1.0, 2.0, 3.0, 4.0]
        runs = [lambda workers=workers: estimate_binomial_curve(
                    _clamping_give_up_kernel, grid, policy=policy,
                    workers=workers).points
                for workers in (1, 2, 3)]
        runs += [lambda workers=workers: _scripted_sweep(
                     monkeypatch, _clamping_give_up_kernel, grid, policy, workers)[1]
                 for workers in (1, 2, 3)]
        # the scripted runs patch `montecarlo.wait`, so they come last
        results = [self._delta(run) for run in runs]
        assert all(result == results[0] for result in results[1:])
        points, delta = results[0]
        assert [(pt.trials, pt.outages, pt.status) for pt in points] == [
            (10, 10, "converged"), (40, 0, "capped"), (10, 3, "skipped"),
            (10, 10, "converged")]
        assert delta == {"clamped_beyond_slack": 7}  # one per kept block


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
