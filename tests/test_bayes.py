import hashlib
import io
import math

import numpy as np
import pytest

from seirsde import (BASELINE_INIT, BASELINE_PARAMS, DomainError,
                     LengthMismatchError, McmcConfig, Path, PriorSpec,
                     StateVec, cumulative_incidence, metropolis, ode_rk4,
                     poisson_loglik)
from seirsde.bayes import samples_to_csv
from seirsde.reconstruct import IncidenceSeries

from conftest import accept_probability, as_matrix


def make_series(counts, n=26_446_435):
    return IncidenceSeries(tuple(str(i) for i in range(len(counts))),
                           tuple(counts), n)


def synthetic_series(params, init, seed=5, n_days=46, n=26_446_435):
    path = ode_rk4(params, init, 1.0, n_days)
    lam = cumulative_incidence(path, params, n)
    rng = np.random.Generator(np.random.PCG64(seed))
    daily = rng.poisson(np.diff(lam))
    return make_series([int(path.i_s[0] * n)] + [int(c) for c in daily], n)


class TestPriors:
    def test_uniform_bounds_must_order(self):
        with pytest.raises(ValueError):
            PriorSpec(p_lo=0.8, p_hi=0.3)

    @pytest.mark.parametrize("p_lo, p_hi", [(0.5, 1.5), (-0.1, 0.5)])
    def test_uniform_bounds_must_lie_in_the_unit_interval(self, p_lo, p_hi):
        # p is a proportion: a chain on [0.5, 1.5] would keep draws above 1
        with pytest.raises(ValueError, match="0 <= p_lo < p_hi <= 1"):
            PriorSpec(p_lo=p_lo, p_hi=p_hi)

    def test_gamma_prior_mean_matches_incubation_rate(self, params):
        # the gamma(10, 50) prior is centred on the calibrated kappa
        prior = PriorSpec()
        assert prior.kappa_mean == pytest.approx(0.2)
        assert prior.kappa_mean == pytest.approx(params.kappa, rel=0.021)

    def test_out_of_support_density(self):
        prior = PriorSpec()
        assert prior.log_density(0.9, 0.2) == -math.inf
        assert prior.log_density(0.5, -0.1) == -math.inf
        assert math.isfinite(prior.log_density(0.5, 0.2))


class TestOdeRk4:
    def test_matches_two_exponential_closed_form(self, params):
        # transmission off and no infectious pools: S and R decouple into a
        # linear system with an explicit solution
        quiet = params.replaced(beta_s=0.0, beta_a=0.0)
        init = StateVec(0.8, 0.0, 0.0, 0.0, 0.2)
        dt, n = 0.05, 2000
        path = ode_rk4(quiet, init, dt, n)
        t = path.times
        mu, gm = quiet.mu, quiet.gamma
        r_exact = 0.2 * np.exp(-(mu + gm) * t)
        s_exact = 1.0 + (0.8 - 1.0) * np.exp(-mu * t) \
            - 0.2 * (np.exp(-(mu + gm) * t) - np.exp(-mu * t))
        assert np.abs(path.r - r_exact).max() <= 1e-10
        assert np.abs(path.s - s_exact).max() <= 1e-10

    def test_fourth_order_step_halving(self, params, interior_init):
        # error against a dt/16 reference shrinks ~16x per halving
        ref = ode_rk4(params, interior_init, 0.5 / 16, 320)
        errs = []
        for fac in (1, 2):
            path = ode_rk4(params, interior_init, 0.5 / fac, 20 * fac)
            errs.append(abs(path.e[-1] - ref.e[-1]))
        ratio = errs[0] / errs[1]
        assert 8 < ratio < 32

    def test_theta_zero_conserves_simplex(self, params, interior_init):
        path = ode_rk4(params.replaced(theta=0.0), interior_init, 1e-3, 1000)
        total = path.s + path.e + path.i_a + path.i_s + path.r
        assert np.abs(total - 1.0).max() <= 1e-10

    def test_fatality_drains_the_simplex(self, params, interior_init):
        path = ode_rk4(params, interior_init, 0.1, 100)
        total = path.s + path.e + path.i_a + path.i_s + path.r
        assert total[-1] < 1.0

    def test_symptomatic_growth_phase_over_baseline_window(self, params,
                                                           baseline_init):
        path = ode_rk4(params, baseline_init, 1.0, 46)
        assert np.all(np.diff(path.i_s) > 0)

    def test_baseline_columns_are_pinned(self):
        # the likelihood's grid: one step a day over the 47 baseline days;
        # samples.csv reaches these columns only through E and the chain
        path = ode_rk4(BASELINE_PARAMS, BASELINE_INIT, 1.0, 46)
        digest = hashlib.sha256(as_matrix(path).tobytes()).hexdigest()
        assert digest == ("744935b76f3bccaeb1199c4cb0b1ee22"
                          "dfaa1eae4b37a24d99859d7fc5dd8627")


class TestCumulativeIncidence:
    def test_zero_exposed(self, params):
        path = Path(0.0, 1.0, np.full(4, 0.9), np.zeros(4), np.zeros(4),
                    np.zeros(4), np.full(4, 0.1), require_simplex=False)
        assert np.array_equal(cumulative_incidence(path, params, 1000),
                              np.zeros(4))

    def test_fully_asymptomatic_split(self, params, interior_init):
        path = ode_rk4(params.replaced(p=1.0), interior_init, 1.0, 5)
        lam = cumulative_incidence(path, params.replaced(p=1.0), 1000)
        assert np.array_equal(lam, np.zeros(6))

    def test_constant_exposed_closed_form(self, params):
        c, n_pop, dt, n = 0.03, 10_000, 0.25, 8
        path = Path(0.0, dt, np.full(n, 0.9), np.full(n, c), np.zeros(n),
                    np.zeros(n), np.full(n, 0.07), require_simplex=False)
        lam = cumulative_incidence(path, params, n_pop)
        want = (1 - params.p) * params.kappa * c * dt * (n - 1) * n_pop
        assert lam[-1] == pytest.approx(want, rel=1e-12)
        assert np.all(np.diff(lam) >= 0)


class TestPoissonLoglik:
    def test_zero_entries_contribute_nothing(self):
        assert poisson_loglik([0, 0], [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert poisson_loglik([2], [2.0]) == pytest.approx(
            -1.3068528194400544, rel=1e-14)

    def test_zero_mean_with_count_rejected(self):
        with pytest.raises(DomainError):
            poisson_loglik([1], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            poisson_loglik([1, 2], [1.0])

    def test_maximised_at_sample_mean(self):
        y = [3, 5, 4, 6, 2]
        grid = np.linspace(1.0, 8.0, 141)
        vals = [poisson_loglik(y, np.full(5, lam)) for lam in grid]
        assert grid[int(np.argmax(vals))] == pytest.approx(np.mean(y),
                                                           abs=0.05)


class TestMetropolis:
    def test_zero_proposal_scale_never_moves(self, params, baseline_init):
        cfg = McmcConfig(iterations=500, burn_in=0, proposal_sd=(0.0, 0.0),
                         seed=1)
        res = metropolis(None, PriorSpec(), params, baseline_init, cfg)
        assert res.acceptance_rate == 1.0
        assert np.all(res.p == res.p[0])
        assert np.all(res.kappa == res.kappa[0])

    def test_deterministic_given_seed(self, params, baseline_init):
        cfg = McmcConfig(iterations=300, burn_in=50, proposal_sd=(0.05, 0.02),
                         seed=21)
        a = metropolis(None, PriorSpec(), params, baseline_init, cfg)
        b = metropolis(None, PriorSpec(), params, baseline_init, cfg)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.kappa, b.kappa)

    def test_prior_recovery_smoke(self, params, baseline_init):
        cfg = McmcConfig(iterations=20_000, burn_in=2_000,
                         proposal_sd=(0.05, 0.02), seed=3)
        res = metropolis(None, PriorSpec(), params, baseline_init, cfg)
        for values, mean in ((res.p, 0.55), (res.kappa, 0.2)):
            batches = values[: 18 * (len(values) // 18)].reshape(18, -1)
            se = batches.mean(axis=1).std(ddof=1) / math.sqrt(18)
            assert abs(values.mean() - mean) <= 3 * se

    def test_synthetic_recovery_smoke(self, params, baseline_init):
        series = synthetic_series(params, baseline_init)
        cfg = McmcConfig(iterations=8_000, burn_in=2_000,
                         proposal_sd=(0.004, 0.002), seed=7)
        res = metropolis(series, PriorSpec(), params, baseline_init, cfg)
        assert 0.05 < res.acceptance_rate < 0.6
        assert abs(np.median(res.p) - params.p) / params.p < 0.10
        assert abs(np.median(res.kappa) - params.kappa) / params.kappa < 0.10

    def test_zero_likelihood_everywhere_never_moves(self, params):
        # E = 0 leaves the day-1 mean at 0 against a positive count, so the
        # start and every proposal have zero likelihood; comparing two
        # -inf posteriors must not warn (warnings are errors here)
        init = StateVec(0.97, 0.0, 0.01, 0.01, 0.01)
        cfg = McmcConfig(iterations=50, burn_in=0, proposal_sd=(0.05, 0.02),
                         seed=4)
        res = metropolis(make_series([5, 8, 12]), PriorSpec(), params, init,
                         cfg)
        assert res.acceptance_rate == 0.0
        assert np.all(res.loglik == -math.inf)
        assert np.all(res.p == PriorSpec().p_mean)

    def test_accept_probability_detailed_balance(self):
        # two-state toy chain driven by the same acceptance rule
        target = np.array([0.3, 0.7])
        logpi = np.log(target)
        rng = np.random.Generator(np.random.PCG64(9))
        u = rng.uniform(size=1_000_000)
        state, visits = 0, np.zeros(2)
        for i in range(len(u)):
            other = 1 - state
            if u[i] < accept_probability(logpi[other], logpi[state]):
                state = other
            visits[state] += 1
        freq = visits / visits.sum()
        assert np.abs(freq - target).max() < 0.01


class TestSamplesCsv:
    def test_header_and_rows(self, params, baseline_init):
        cfg = McmcConfig(iterations=50, burn_in=10, proposal_sd=(0.05, 0.02),
                         seed=2)
        res = metropolis(None, PriorSpec(), params, baseline_init, cfg)
        buf = io.StringIO()
        samples_to_csv(res, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "iter,p,kappa,loglik"
        assert len(lines) == 1 + 40
