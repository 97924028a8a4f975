import warnings

import numpy as np
import pytest

from seirsde import (EmptySeriesError, IncidenceSeries, LengthMismatchError,
                     NegativeCountError, ReconstructConfig, ReplicateError,
                     SimConfig, normalize, replicate_reconstructions,
                     simulate_path)
from seirsde.model import INITIAL_POOL_PRIOR
from seirsde.reconstruct import reconstruct_replicate_arrays
from seirsde.simulate import _ELEMENT_BUDGET, _step_s_e_ia

from conftest import as_matrix


def rec_cfg(params, interior_init, **kw):
    kw.setdefault("dt", 1e-3)
    kw.setdefault("seed", 3)
    return ReconstructConfig(params=params, init_e=interior_init.e,
                             init_ia=interior_init.i_a,
                             init_r=interior_init.r, **kw)


@pytest.fixture
def synthetic_obs(params, interior_init):
    cfg = SimConfig(params=params, init=interior_init, dt=1e-3, n_steps=46,
                    seed=3)
    return simulate_path(cfg).i_s.copy()


class TestIncidenceSeries:
    def test_rejects_negative_counts(self):
        with pytest.raises(NegativeCountError):
            IncidenceSeries(("a", "b"), (3, -1), 100)

    @pytest.mark.parametrize("counts", [(2.7, 1), (2, True), (2, 1.0)])
    def test_rejects_counts_that_are_not_integers(self, counts):
        # int() would read these as 2 and 1
        with pytest.raises(ValueError, match="a count must be an integer"):
            IncidenceSeries(("a", "b"), counts, 10)

    def test_keeps_numpy_integer_counts(self):
        series = IncidenceSeries(("a", "b"), tuple(np.array([3, 4])), 10)
        assert series.counts == (3, 4)
        assert all(type(c) is int for c in series.counts)

    def test_rejects_population_below_counts(self):
        with pytest.raises(ValueError):
            IncidenceSeries(("a",), (101,), 100)

    def test_rejects_empty(self):
        with pytest.raises(EmptySeriesError):
            IncidenceSeries((), (), 100)

    @pytest.mark.parametrize("population_n", [0, -5])
    def test_rejects_population_below_one(self, population_n):
        # all-zero counts: the largest-count bound alone lets these through
        # and normalize would divide by a population of zero
        with pytest.raises(ValueError, match="at least 1"):
            IncidenceSeries(("a", "b", "c"), (0, 0, 0), population_n)

    @pytest.mark.parametrize("population_n", [2.5, True])
    def test_rejects_population_that_is_not_an_integer(self, population_n):
        # both clear the count bounds; normalize would divide by 2.5 or 1
        with pytest.raises(ValueError, match="population_n must be an "
                                             "integer"):
            IncidenceSeries(("a", "b"), (1, 1), population_n)


class TestReconstructConfig:
    @pytest.mark.parametrize("population_n", [0, -5, 2.5, True])
    def test_population_must_be_a_positive_integer(self, params,
                                                   interior_init,
                                                   population_n):
        with pytest.raises(ValueError, match="population_n"):
            rec_cfg(params, interior_init, resample_initials=True,
                    population_n=population_n)

    def test_resampling_requires_a_population(self, params, interior_init):
        with pytest.raises(ValueError, match="population_n"):
            rec_cfg(params, interior_init, resample_initials=True)

    def test_resampled_pools_must_fit_under_one(self, params, interior_init):
        # counts 1, 2, 3: the prior's largest pools, 2 * 2100 / N, with
        # init_r and the first observation fit from N = 4437 on
        assert interior_init.r == 0.053
        cfg = rec_cfg(params, interior_init, resample_initials=True,
                      population_n=4436)
        with pytest.raises(ValueError, match="population_n = 4436"):
            reconstruct_replicate_arrays(np.array([1.0, 2.0, 3.0]) / 4436,
                                         cfg, 2)
        cfg = rec_cfg(params, interior_init, resample_initials=True,
                      population_n=4437)
        x, _, _ = reconstruct_replicate_arrays(
            np.array([1.0, 2.0, 3.0]) / 4437, cfg, 200)
        assert np.all(x[:, 0] >= 0.0)


class TestNormalize:
    def test_zero_counts(self):
        series = IncidenceSeries(("a", "b"), (0, 0), 100)
        assert np.array_equal(normalize(series), [0.0, 0.0])

    def test_first_reported_case_count(self):
        # 74 cases over the metropolitan population of 26 446 435
        series = IncidenceSeries(("2020-03-10",), (74,), 26_446_435)
        out = normalize(series)
        assert out[0] == pytest.approx(74 / 26_446_435, rel=1e-15)
        assert out[0] == pytest.approx(2.798e-6, rel=1e-3)

    def test_simple_fractions(self):
        series = IncidenceSeries(("a", "b", "c"), (1, 2, 3), 10)
        assert np.allclose(normalize(series), [0.1, 0.2, 0.3], rtol=1e-15)


class TestReconstructLatent:
    def test_short_series_rejected(self, params, interior_init):
        with pytest.raises(LengthMismatchError):
            replicate_reconstructions([0.01], rec_cfg(params, interior_init),
                                      1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_observations_rejected(self, params, interior_init,
                                              bad):
        with pytest.raises(ValueError, match="finite fractions"):
            replicate_reconstructions([0.02, bad, 0.02],
                                      rec_cfg(params, interior_init), 1)

    def test_zero_dynamics_stays_frozen(self, params):
        # no transmission, no noise, empty latent pools: S has nothing to
        # decay into and every latent coordinate stays exactly zero
        cfg = ReconstructConfig(
            params=params.replaced(beta_s=0.0, beta_a=0.0, sigma=0.0),
            init_e=0.0, init_ia=0.0, init_r=0.0, dt=1e-3, seed=0)
        [path] = replicate_reconstructions(np.zeros(5), cfg, 1)
        assert np.array_equal(path.s, np.ones(5))
        assert np.array_equal(path.e, np.zeros(5))
        assert np.array_equal(path.i_a, np.zeros(5))
        assert np.array_equal(path.r, np.zeros(5))

    def test_observations_pinned_bitwise(self, params, interior_init,
                                         synthetic_obs):
        [path] = replicate_reconstructions(
            synthetic_obs, rec_cfg(params, interior_init), 1)
        assert np.array_equal(path.i_s, synthetic_obs)

    def test_rows_sum_to_one(self, params, interior_init, synthetic_obs):
        [path] = replicate_reconstructions(
            synthetic_obs, rec_cfg(params, interior_init), 1)
        assert np.abs(as_matrix(path).sum(axis=1) - 1.0).max() <= 1e-15

    def test_zero_sigma_is_seed_independent(self, params, interior_init,
                                            synthetic_obs):
        quiet = params.replaced(sigma=0.0)
        [a] = replicate_reconstructions(
            synthetic_obs, rec_cfg(quiet, interior_init, seed=1), 1)
        [b] = replicate_reconstructions(
            synthetic_obs, rec_cfg(quiet, interior_init, seed=2), 1)
        assert np.array_equal(as_matrix(a), as_matrix(b))

    def test_recurrence_replay_oracle(self, params, interior_init,
                                      synthetic_obs):
        cfg = rec_cfg(params, interior_init)
        [path] = replicate_reconstructions(synthetic_obs, cfg, 1)
        # independent replay of the update recurrence, plain floats
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        dw = rng.standard_normal(len(synthetic_obs) - 1) * np.sqrt(cfg.dt)
        s, e, ia = (1.0 - cfg.init_e - cfg.init_ia - cfg.init_r
                    - synthetic_obs[0]), cfg.init_e, cfg.init_ia
        r = cfg.init_r
        pr = params
        for n in range(len(synthetic_obs) - 1):
            fb = pr.beta_s * synthetic_obs[n] + pr.beta_a * ia
            s1 = s + (pr.mu - pr.mu * s - fb * s + pr.gamma * r) * cfg.dt \
                + pr.sigma * (1 - s) * dw[n]
            e1 = e + (fb * s - (pr.kappa + pr.mu) * e) * cfg.dt \
                - pr.sigma * e * dw[n]
            ia1 = ia + (pr.p * pr.kappa * e - (pr.alpha_a + pr.mu) * ia) \
                * cfg.dt - pr.sigma * ia * dw[n]
            s, e, ia = s1, e1, ia1
            r = 1.0 - s - e - ia - synthetic_obs[n + 1]
            assert path.s[n + 1] == pytest.approx(s, rel=1e-14)
            assert path.e[n + 1] == pytest.approx(e, rel=1e-14)
            assert path.i_a[n + 1] == pytest.approx(ia, rel=1e-14)
            assert path.r[n + 1] == pytest.approx(r, rel=1e-12)

    def test_same_seed_reproduces_the_generating_latents(
            self, params, interior_init, synthetic_obs):
        # the observation path was simulated with the base stream of seed 3;
        # reconstructing with the same seed replays the same increments, so
        # the latent coordinates land on the simulated ones
        cfg = rec_cfg(params, interior_init, seed=3)
        sim = simulate_path(SimConfig(params=params, init=interior_init,
                                      dt=1e-3, n_steps=46, seed=3))
        [rec] = replicate_reconstructions(synthetic_obs, cfg, 1)
        assert np.allclose(rec.e, sim.e, rtol=1e-12)
        assert np.allclose(rec.s, sim.s, rtol=1e-12)
        assert np.allclose(rec.i_a, sim.i_a, rtol=1e-12)


class TestReplicates:
    @pytest.mark.parametrize("resample", [False, True],
                             ids=["fixed-plain", "resampled-plain"])
    def test_single_replicate_equals_base_call(self, params, interior_init,
                                               synthetic_obs, resample):
        cfg = rec_cfg(params, interior_init, resample_initials=resample,
                      population_n=26_446_435)
        # replicate 0 runs on the base stream whatever the batch size
        single = replicate_reconstructions(synthetic_obs, cfg, 1)
        base = replicate_reconstructions(synthetic_obs, cfg, 3)[0]
        assert len(single) == 1
        assert np.array_equal(as_matrix(single[0]), as_matrix(base))
        assert np.array_equal(single[0].wiener, base.wiener)

    def test_reruns_are_identical(self, params, interior_init, synthetic_obs):
        cfg = rec_cfg(params, interior_init)
        a = replicate_reconstructions(synthetic_obs, cfg, 2)
        b = replicate_reconstructions(synthetic_obs, cfg, 2)
        for pa, pb in zip(a, b):
            assert np.array_equal(as_matrix(pa), as_matrix(pb))

    def test_replicates_differ_from_each_other(self, params, interior_init,
                                               synthetic_obs):
        paths = replicate_reconstructions(synthetic_obs,
                                          rec_cfg(params, interior_init), 3)
        assert not np.array_equal(paths[0].e, paths[1].e)
        assert not np.array_equal(paths[1].e, paths[2].e)

    def test_mean_exposed_matches_larger_oracle_run(self, params,
                                                    interior_init,
                                                    synthetic_obs):
        # 1000-replicate per-time mean of E against a 10x larger run
        cfg = rec_cfg(params, interior_init, seed=11)
        x_small, _, f1 = reconstruct_replicate_arrays(synthetic_obs, cfg, 1000)
        x_big, _, f2 = reconstruct_replicate_arrays(synthetic_obs, cfg, 10_000)
        assert not f1 and not f2
        e_small = x_small[:, :, 1]
        e_big = x_big[:, :, 1]
        se = np.sqrt(e_small.var(axis=0) / 1000 + e_big.var(axis=0) / 10_000)
        gap = np.abs(e_small.mean(axis=0) - e_big.mean(axis=0))
        assert np.all(gap[1:] <= 3 * se[1:])

    def test_resampled_initials_vary_per_replicate(self, params, interior_init,
                                                   synthetic_obs):
        cfg = ReconstructConfig(params=params, init_e=interior_init.e,
                                init_ia=interior_init.i_a,
                                init_r=interior_init.r, dt=1e-3, seed=4,
                                resample_initials=True,
                                population_n=26_446_435)
        paths = replicate_reconstructions(synthetic_obs, cfg, 3)
        e0 = {p.e[0] for p in paths}
        assert len(e0) == 3
        lo, hi = INITIAL_POOL_PRIOR
        for v in e0:
            assert lo / cfg.population_n <= v <= hi / cfg.population_n

    def test_failed_rows_are_frozen_at_their_failing_step(
            self, params, interior_init, synthetic_obs):
        wild = params.replaced(sigma=30.0)
        x, _, failures = reconstruct_replicate_arrays(
            synthetic_obs, rec_cfg(wild, interior_init), 8)
        assert sorted(failures) == list(range(8))
        for i, exc in failures.items():
            assert exc.component in ("s", "e", "i_a")
            assert np.all(x[i, exc.step + 1:] == x[i, exc.step])
            assert np.array_equal(x[i, :exc.step + 1, 3],
                                  synthetic_obs[:exc.step + 1])

    def test_failures_across_time_blocks(self, params, interior_init,
                                         synthetic_obs):
        # enough rows for blocks of 16 steps over the 46 observed steps, so
        # that rows fail in a block after the first and stay frozen after
        block = 16
        n_rep = _ELEMENT_BUDGET // block
        wild = params.replaced(sigma=30.0)
        cfg = rec_cfg(wild, interior_init)
        x, dw, failures = reconstruct_replicate_arrays(synthetic_obs, cfg,
                                                       n_rep)
        assert any(exc.step >= block for exc in failures.values())
        for i in range(n_rep):
            if i not in failures:
                assert np.array_equal(x[i, :, 3], synthetic_obs)
                continue
            k, exc = failures[i].step, failures[i]
            # step k is the first whose S, E or I_a left [0, 1], and the
            # error names the first of them with its value
            before = x[i, :k + 1, :3]
            assert np.all((before >= 0.0) & (before <= 1.0))
            after = _step_s_e_ia(*x[i, k], dw[i, k], cfg.dt, wild)
            comp = next(c for c, v in enumerate(after) if not 0.0 <= v <= 1.0)
            assert (exc.component, exc.value) == (("s", "e", "i_a")[comp],
                                                  after[comp])
            assert np.all(x[i, k + 1:] == x[i, k])
            assert np.array_equal(x[i, :k + 1, 3], synthetic_obs[:k + 1])

    def test_diverging_frozen_rows_leak_no_warning(self, params,
                                                   interior_init):
        # at dt = 0.01 a failed row stepped on through its block overflows
        obs = simulate_path(SimConfig(params=params, init=interior_init,
                                      dt=0.01, n_steps=500, seed=3)).i_s
        cfg = rec_cfg(params.replaced(sigma=30.0), interior_init, dt=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _, failures = reconstruct_replicate_arrays(obs, cfg, 8)
        assert sorted(failures) == list(range(8))
        for i, exc in failures.items():
            assert exc.component in ("s", "e", "i_a")
            assert np.all(x[i, exc.step + 1:] == x[i, exc.step])
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("n_rep", [1, 4])
    def test_returned_shapes(self, params, interior_init, synthetic_obs,
                             n_rep):
        x, dw, _ = reconstruct_replicate_arrays(
            synthetic_obs, rec_cfg(params, interior_init), n_rep)
        assert x.shape == (n_rep, len(synthetic_obs), 5)
        assert dw.shape == (n_rep, len(synthetic_obs) - 1)

    def test_failures_reported_with_indices(self, params, interior_init,
                                            synthetic_obs):
        wild = params.replaced(sigma=30.0)
        with pytest.raises(ReplicateError) as err:
            replicate_reconstructions(synthetic_obs,
                                      rec_cfg(wild, interior_init), 8)
        assert err.value.failures
        assert all(0 <= i < 8 for i in err.value.failures)
