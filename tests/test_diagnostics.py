import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seirsde import (BASELINE_PARAMS, DegenerateSampleError, DomainError,
                     Path, SimConfig, TooFewPointsError, WindowViolatedError,
                     ZeroSigmaError, consistency_study, hypothesis_window,
                     normality_test, qq_points, residual_increments,
                     simulate_path)
from seirsde.diagnostics import consistency_to_csv, qq_to_csv
from seirsde.model import _window_ends
from seirsde.simulate import simulate_batch

from conftest import INTERIOR_INIT


def sim(params, init, n_steps=47, seed=0, dt=1e-3):
    return simulate_path(SimConfig(params=params, init=init, dt=dt,
                                   n_steps=n_steps, seed=seed))


def normal_cdf(x):
    # erfc keeps full precision in the tails, unlike 0.5 (1 + erf(.))
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def quantile_by_bisection(q, lo=-10.0, hi=10.0):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestResidualIncrements:
    def test_em_round_trip_is_exact(self, params, interior_init):
        for seed in range(20):
            path = sim(params, interior_init, seed=seed)
            res = residual_increments(path, params)
            assert np.abs(res.raw - path.wiener).max() <= 1e-12

    @settings(deadline=None)
    @given(sigma=st.floats(0.005, 0.05), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(1, 200))
    def test_em_round_trip_for_any_draw(self, sigma, seed, n_steps):
        noisy = BASELINE_PARAMS.replaced(sigma=sigma)
        path = sim(noisy, INTERIOR_INIT, n_steps=n_steps, seed=seed)
        res = residual_increments(path, noisy)
        assert np.abs(res.raw - path.wiener).max() <= 1e-12

    def test_em_round_trip_across_noise_levels(self, params, interior_init):
        worst = 0.0
        for i, sig in enumerate(np.linspace(0.005, 0.05, 50)):
            noisy = params.replaced(sigma=float(sig))
            path = sim(noisy, interior_init, seed=100 + i)
            res = residual_increments(path, noisy)
            worst = max(worst, np.abs(res.raw - path.wiener).max())
        assert worst <= 1e-5

    def test_paper_form_matches_to_discretisation_order(self, params,
                                                        interior_init):
        # the log-difference form differs from the generating increments by
        # the log-versus-linear update gap, around 1e-4 at this design
        worst = 0.0
        for seed in range(20):
            path = sim(params, interior_init, seed=seed)
            res = residual_increments(path, params, method="log")
            worst = max(worst, np.abs(res.raw - path.wiener).max())
        assert worst <= 2e-4
        assert worst > 1e-7  # genuinely inexact, unlike the em inversion

    def test_zero_noise_path(self, params, interior_init):
        path = sim(params, interior_init, seed=0)
        quiet = Path(0.0, path.dt, path.s, path.e, path.i_a, path.i_s,
                     path.r, wiener=np.zeros(len(path) - 1))
        # rebuild the path with dW = 0 by simulating at sigma=0 but keeping
        # sigma > 0 in the residual parameters
        flat = sim(params.replaced(sigma=0.0), interior_init, seed=0)
        res_em = residual_increments(flat, params)
        res_log = residual_increments(flat, params, method="log")
        assert np.abs(res_em.raw).max() <= 1e-12
        assert np.abs(res_log.raw).max() <= 1e-5

    def test_two_point_hand_value(self, params):
        path = Path(0.0, 1e-3, [0.88, 0.86], [0.05, 0.06], [0.03, 0.035],
                    [0.02, 0.022], [0.02, 0.023], require_simplex=False)
        res = residual_increments(path, params, method="log")
        assert res.raw[0] == pytest.approx(-15.403027434356988, rel=1e-12)
        assert res.standardized[0] == pytest.approx(-487.0864955462778,
                                                    rel=1e-12)
        res_em = residual_increments(path, params)
        assert res_em.raw[0] == pytest.approx(-16.65462111829783, rel=1e-12)

    def test_standardized_is_raw_over_sqrt_dt(self, params, interior_init):
        res = residual_increments(sim(params, interior_init), params)
        assert np.array_equal(res.standardized,
                              res.raw / math.sqrt(res.dt))

    def test_zero_sigma_rejected(self, params, interior_init):
        path = sim(params, interior_init)
        with pytest.raises(ZeroSigmaError):
            residual_increments(path, params.replaced(sigma=0.0))

    def test_saturated_susceptibles_rejected(self, params):
        path = Path(0.0, 1e-3, [1.0, 0.9], [0.0, 0.05], [0.0, 0.02],
                    [0.0, 0.02], [0.0, 0.01], require_simplex=False)
        with pytest.raises(DomainError):
            residual_increments(path, params)

    def test_misspecified_transmission_shifts_residual_mean(self, params,
                                                            interior_init):
        path = sim(params, interior_init, n_steps=10_000, seed=5)
        wrong = params.replaced(beta_s=10 * params.beta_s)
        res = residual_increments(path, wrong)
        z = res.standardized.mean() * math.sqrt(len(res))
        assert abs(z) > 3.0


class TestQqPoints:
    def test_theoretical_column_against_bisection_oracle(self):
        # at n = 500,000 the plotting positions run from 1e-6 to 1 - 1e-6;
        # rows from both tails and the centre are checked
        n = 500_000
        pts = qq_points(np.arange(n, dtype=float))
        rows = np.concatenate([[0, 49, 4_999, 12_124],
                               np.linspace(25_000, 475_000, 19, dtype=int),
                               [n - 5_000, n - 50, n - 1]])
        worst = max(abs(pts[k, 0] - quantile_by_bisection((k + 0.5) / n))
                    for k in rows.tolist())
        assert worst < 1.2e-9

    def test_three_point_quantiles(self):
        pts = qq_points([-1.0, 0.0, 1.0])
        expected = [quantile_by_bisection(q) for q in (1 / 6, 0.5, 5 / 6)]
        assert np.allclose(pts[:, 0], expected, atol=1.2e-9)
        assert pts[0, 0] == pytest.approx(-0.9674, abs=1e-4)
        assert pts[1, 0] == 0.0
        assert pts[2, 0] == pytest.approx(0.9674, abs=1e-4)
        assert np.array_equal(pts[:, 1], [-1.0, 0.0, 1.0])

    def test_median_is_zero(self):
        # an odd n puts the middle plotting position at exactly 0.5
        for n in (3, 5, 101, 10_001):
            pts = qq_points(np.arange(n, dtype=float))
            assert pts[n // 2, 0] == 0.0

    def test_symmetric_sample_symmetry(self):
        sample = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        pts = qq_points(sample)
        assert np.allclose(pts[:, 0], -pts[::-1, 0], atol=1e-12)
        assert np.allclose(pts[:, 1], -pts[::-1, 1])

    def test_gaussian_sample_slope_near_one(self):
        rng = np.random.default_rng(10)
        pts = qq_points(rng.standard_normal(10_000))
        slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
        assert 0.98 < slope < 1.02

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            qq_points([1.0, 2.0])


class TestNormalityTest:
    def test_critical_values_match_chi2_closed_form(self):
        v1 = normality_test(np.random.default_rng(0).standard_normal(100),
                            alpha=0.01)
        assert v1.threshold == pytest.approx(-2 * math.log(0.01), rel=1e-12)
        v5 = normality_test(np.random.default_rng(0).standard_normal(100),
                            alpha=0.05)
        assert v5.threshold == pytest.approx(-2 * math.log(0.05), rel=1e-12)

    def test_size_on_gaussian_samples(self):
        rng = np.random.default_rng(14)
        passed = sum(normality_test(rng.standard_normal(10_000), 0.01).passed
                     for _ in range(100))
        assert passed >= 98

    def test_power_on_uniform_samples(self):
        rng = np.random.default_rng(12)
        failed = sum(
            not normality_test(rng.uniform(-1, 1, 10_000), 0.01).passed
            for _ in range(100))
        assert failed >= 99

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            normality_test(np.full(100, 2.5))

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            normality_test(np.arange(7.0))

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            normality_test(np.arange(100.0), alpha=0.10)


class TestConsistencyStudy:
    def test_zero_noise_errors_track_dt_not_horizon(self, params,
                                                    interior_init):
        quiet = params.replaced(sigma=0.0)
        fine = consistency_study(quiet, interior_init, [0.04, 0.08], 1,
                                 dt=1e-3, seed=0, sigma=0.0)
        coarse = consistency_study(quiet, interior_init, [0.04, 0.08], 1,
                                   dt=2e-3, seed=0, sigma=0.0)
        # halving dt roughly halves the pure discretisation error
        assert coarse[0].abs_err_p > 1.5 * fine[0].abs_err_p
        # growing the horizon does not blow the error up
        assert fine[1].abs_err_p < 4 * fine[0].abs_err_p

    def test_all_replicates_violating_raises(self, params, interior_init):
        dying = params.replaced(beta_s=0.0, beta_a=0.0)  # E decays from t0
        with pytest.raises(WindowViolatedError):
            consistency_study(dying, interior_init, [0.04], 5, dt=1e-3,
                              seed=0, sigma=0.01)

    def test_failed_replicates_violate_the_window(self, params,
                                                  interior_init):
        # at sigma = 8, 38 of 400 replicates leave [0, 1]; some of their
        # frozen rows keep the window, and every surviving row breaks it
        loud = params.replaced(sigma=8.0)
        seeds = [np.random.SeedSequence(5, spawn_key=(0, i))
                 for i in range(400)]
        x, _, failures = simulate_batch(loud, interior_init, 1e-3, 100,
                                        seeds)
        kept = _window_ends(x[:, :, 0], x[:, :, 1], x[:, :, 2],
                            x[:, :, 3]) == 100
        assert len(failures) == 38
        assert kept.any() and set(np.flatnonzero(kept).tolist()) <= set(
            failures)
        with pytest.raises(WindowViolatedError):
            consistency_study(loud, interior_init, [0.1], 400, dt=1e-3,
                              seed=5)

    def test_negative_known_sigma_rejected(self, params, interior_init,
                                           monkeypatch):
        def simulate_nothing(*args, **kwargs):
            raise AssertionError("simulated before checking sigma")

        monkeypatch.setattr("seirsde.diagnostics.simulate_batch",
                            simulate_nothing)
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            consistency_study(params, interior_init, [0.02], 20, dt=1e-3,
                              seed=3, sigma=-0.01)

    def test_rows_report_violation_rates(self, params, interior_init):
        horizons, n_rep, dt = [0.02, 0.04], 20, 1e-3
        rows = consistency_study(params, interior_init, horizons, n_rep,
                                 dt=dt, seed=3)
        assert len(rows) == 2
        for h, (horizon, row) in enumerate(zip(horizons, rows)):
            assert 0.0 <= row.window_violation_rate < 1.0
            assert row.flagged == (row.window_violation_rate > 0.20)
            # the same replicate paths, judged one at a time
            seeds = [np.random.SeedSequence(3, spawn_key=(h, i))
                     for i in range(n_rep)]
            x, _, _ = simulate_batch(params, interior_init, dt,
                                     int(round(horizon / dt)), seeds)
            violated = []
            for row_x in x:
                path = Path(0.0, dt, *row_x.T, require_simplex=False)
                window = hypothesis_window(path)
                violated.append(not (window.satisfied
                                     and window.t_end == path.times[-1]))
            assert row.window_violation_rate == np.mean(violated)

    def test_a_horizon_frees_its_paths_before_the_next(self, params,
                                                       interior_init):
        # two horizons of nearly the same length: holding the first one's
        # states and increments while the second simulates would double
        # the peak, so the bound is one and a half of the second's arrays
        horizons, n_rep, dt = [0.15, 0.16], 2000, 1e-3
        n_steps = int(round(horizons[-1] / dt))
        arrays = (5 * (n_steps + 1) + n_steps) * n_rep * 8
        tracemalloc.start()
        try:
            consistency_study(params, interior_init, horizons, n_rep, dt=dt,
                              seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * arrays

    @pytest.mark.parametrize("horizons,n_rep", [([0.04, 0.02], 5),
                                                ([], 5), ([0.02], 0),
                                                ([0.001], 5)],
                             ids=["decreasing", "no-horizon", "no-replicate",
                                  "one-step-horizon"])
    def test_horizons_must_increase(self, params, interior_init, horizons,
                                    n_rep):
        with pytest.raises(ValueError):
            consistency_study(params, interior_init, horizons, n_rep,
                              dt=1e-3, seed=0)

    def test_csv_headers(self, params, interior_init, tmp_path):
        rows = consistency_study(params, interior_init, [0.02], 20, dt=1e-3,
                                 seed=3)
        target = tmp_path / "consistency.csv"
        consistency_to_csv(rows, str(target))
        header = target.read_text().splitlines()[0]
        assert header == ("T,abs_err_beta_s,abs_err_beta_a,abs_err_p,"
                          "window_violation_rate")

    def test_qq_csv_headers(self, tmp_path):
        pts = qq_points([-1.0, 0.0, 1.0])
        target = tmp_path / "qq.csv"
        qq_to_csv(pts, str(target))
        assert target.read_text().splitlines()[0] == "theoretical,empirical"
