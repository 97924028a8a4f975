import math

import numpy as np
import pytest

from seirsde import (DegenerateDenominatorError, DomainError,
                     LengthMismatchError, MissingIncrementsError, Path,
                     PositivityError, ReconstructConfig, SimConfig,
                     SingularSystemError, estimate_betas, estimate_p,
                     estimate_path, estimate_sigma, girsanov_loglik,
                     replicate_estimates, simulate_path)
from seirsde.estimate import (_CHUNK_ELEMENTS, _columns, _estimate_replicates,
                              _j_terms, _kernel)
from seirsde.simulate import simulate_batch

from conftest import (closed_form_betas, ito_log_integral, left_riemann,
                      quadratic_variation)


def sim(params, init, n_steps=47, seed=0, dt=1e-3, **kw):
    return simulate_path(SimConfig(params=params, init=init, dt=dt,
                                   n_steps=n_steps, seed=seed, **kw))


def hand_path(rows, dt=0.5):
    arr = np.asarray(rows, dtype=float)
    return Path(0.0, dt, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                arr[:, 4], require_simplex=False)


TWO_POINT = [(0.88, 0.05, 0.03, 0.02, 0.02),
             (0.86, 0.06, 0.035, 0.022, 0.023)]
THREE_POINT = TWO_POINT + [(0.84, 0.07, 0.038, 0.027, 0.025)]


class TestLeftRiemann:
    def test_constant_integrand(self):
        assert left_riemann(np.ones(10), 0.1) == pytest.approx(1.0)

    def test_single_interval(self):
        assert left_riemann([2.0], 0.5) == pytest.approx(1.0)

    def test_linear_integrand_closed_form(self):
        dt = 1e-3
        vals = np.arange(1000) * dt
        approx = left_riemann(vals, dt)
        assert abs(approx - 0.5) / 0.5 <= 1.1e-3  # O(dt) error

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to integrate"):
            left_riemann([], 0.1)


class TestItoLogIntegral:
    def test_constant_x(self):
        assert ito_log_integral(np.arange(1.0, 6.0), np.ones(5)) == 0.0

    def test_telescoping_with_unit_weight(self):
        x = np.array([1.0, 1.7, 0.9, 2.4])
        out = ito_log_integral(np.ones(4), x)
        assert out == pytest.approx(math.log(x[-1] / x[0]), rel=1e-12)

    def test_brute_force_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = np.exp(np.cumsum(rng.normal(0, 0.03, 1000)))
        out = ito_log_integral(x, x)
        expected = sum(x[k] * (math.log(x[k + 1]) - math.log(x[k]))
                       for k in range(len(x) - 1))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_x_rejected(self):
        with pytest.raises(DomainError):
            ito_log_integral([1.0, 1.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ito_log_integral([1.0, 2.0], [1.0, 2.0, 3.0])


class TestQuadraticVariation:
    def test_constant(self):
        assert quadratic_variation(np.full(10, 3.3)) == 0.0

    def test_two_unit_jumps(self):
        assert quadratic_variation([0.0, 1.0, 0.0]) == 2.0

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            quadratic_variation([1.0])

    def test_matches_integrated_square_law(self, params, interior_init):
        # <E, E>_T concentrates on sigma^2 int E^2 dt as dt -> 0
        x, _, failures = simulate_batch(params, interior_init, 1e-3, 10_000,
                                        range(100))
        assert not failures
        e = x[:, :, 1]
        qv = np.sum(np.diff(e, axis=1) ** 2, axis=1)
        target = params.sigma**2 * np.sum(e[:, :-1] ** 2, axis=1) * 1e-3
        assert abs(qv.mean() / target.mean() - 1.0) < 0.10


class TestEstimateSigma:
    def test_constant_path_gives_zero(self):
        path = hand_path([(0.6, 0.1, 0.1, 0.1, 0.1)] * 5)
        est = estimate_sigma(path)
        assert est.sigma == 0.0

    def test_deterministic_path_sits_at_discretisation_floor(
            self, params, interior_init):
        # with sigma = 0 the quadratic variation is pure squared drift,
        # which vanishes like dt; it is small but not exactly zero
        path = sim(params.replaced(sigma=0.0), interior_init)
        est = estimate_sigma(path)
        assert 0.0 < est.sigma < 5e-3

    def test_equal_components_mean(self):
        # two-point path built so every component variance is exactly c
        c, dt = 0.01, 0.1
        x0 = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        denom = np.array([1 - x0[0], *x0[1:]])
        delta = denom * math.sqrt(c * dt)
        x1 = x0 + delta * np.array([-1, 1, 1, 1, 1])
        path = hand_path([tuple(x0), tuple(x1)], dt=dt)
        est = estimate_sigma(path)
        assert np.allclose(est.components, c, rtol=1e-12)
        assert est.sigma == pytest.approx(math.sqrt(c), rel=1e-12)

    def test_invariant_mean_of_components(self, params, interior_init):
        est = estimate_sigma(sim(params, interior_init, seed=9))
        assert est.sigma**2 == pytest.approx(est.components.mean(), rel=1e-14)

    def test_degenerate_denominator(self):
        path = hand_path([(0.6, 0.0, 0.2, 0.1, 0.1),
                          (0.59, 0.0, 0.21, 0.1, 0.1)])
        with pytest.raises(DegenerateDenominatorError):
            estimate_sigma(path)

    def test_r_component_degenerates_when_r_starts_at_zero(
            self, params, baseline_init):
        # with R(0) = 0 the recovered row of the estimator is dominated by
        # squared drift over a vanishing denominator; the study fixtures use
        # an interior start for exactly this reason
        est = estimate_sigma(sim(params, baseline_init, seed=1))
        assert est.components[4] > 100 * params.sigma**2
        assert est.components[:4] == pytest.approx(
            np.full(4, params.sigma**2), rel=0.9)


class TestJFunctionals:
    # one interval gives a singular normal-equations system, so the hand
    # values come from the J kernel itself rather than from estimate_path
    def test_two_point_hand_values(self, params):
        path = hand_path(TWO_POINT)
        (j_s, j_a, j_sa, j_2), _ = _j_terms(_columns(path), path.dt,
                                            params.kappa)
        assert j_s == pytest.approx(0.07270755555555555, rel=1e-13)
        assert j_a == pytest.approx(0.163592, rel=1e-13)
        assert j_sa == pytest.approx(0.10906133333333333, rel=1e-13)
        assert j_2 == pytest.approx(0.17354359968472222, rel=1e-13)

    def test_equal_branches_collapse(self, params):
        path = hand_path([(0.88, 0.05, 0.02, 0.02, 0.03),
                          (0.86, 0.06, 0.025, 0.025, 0.03)])
        (j_s, j_a, j_sa, _), _ = _j_terms(_columns(path), path.dt,
                                          params.kappa)
        assert j_s == j_a
        assert j_sa == pytest.approx(j_s, rel=1e-15)

    def test_cauchy_schwarz_on_simulated_paths(self, params, interior_init):
        for seed in range(10):
            j = estimate_path(sim(params, interior_init, seed=seed), params).j
            assert j.j_sa**2 <= j.j_s * j.j_a * (1 + 1e-12)

    def test_domain_error_names_the_row(self, params):
        rows = [list(TWO_POINT[0]), list(TWO_POINT[1])]
        rows[1][3] = 0.0  # zero symptomatic fraction in row 1
        with pytest.raises(DomainError) as err:
            estimate_path(hand_path(rows), params)
        assert err.value.index == 1


class TestEstimateBetas:
    def test_collinear_branches_raise(self, params):
        path = hand_path([(0.88, 0.05, 0.02, 0.02, 0.03),
                          (0.86, 0.06, 0.025, 0.025, 0.03)])
        with pytest.raises(SingularSystemError):
            estimate_betas(path, params, sigma=0.01)

    def test_three_point_hand_values(self, params):
        est = estimate_betas(hand_path(THREE_POINT), params, sigma=0.01)
        assert est.beta_s == pytest.approx(1.8376696004922575, rel=1e-10)
        assert est.beta_a == pytest.approx(-0.11242363337655621, rel=1e-9)
        assert est.condition_number >= 1.0

    def test_closed_form_identity(self, params, interior_init):
        for seed in range(5):
            path = sim(params, interior_init, n_steps=2000, seed=seed)
            solved = estimate_betas(path, params, sigma=0.01)
            expanded = closed_form_betas(path, params, sigma=0.01)
            assert solved.beta_s == pytest.approx(expanded[0], rel=1e-10)
            assert solved.beta_a == pytest.approx(expanded[1], rel=1e-10)

    def test_equivariance_under_joint_shift(self, params, interior_init):
        # shifting both true rates by delta moves both estimates by about
        # delta when the same increments drive the two simulations
        delta = 0.1
        shifted = params.replaced(beta_s=params.beta_s + delta,
                                  beta_a=params.beta_a + delta)
        seeds = range(100)
        x_base, _, f1 = simulate_batch(params, interior_init, 1e-3, 4000,
                                       seeds)
        x_shift, _, f2 = simulate_batch(shifted, interior_init, 1e-3, 4000,
                                        seeds)
        assert not f1 and not f2
        diffs = []
        for i in range(100):
            base = estimate_betas(
                Path(0.0, 1e-3, *x_base[i].T, require_simplex=False),
                params, sigma=0.01)
            shift = estimate_betas(
                Path(0.0, 1e-3, *x_shift[i].T, require_simplex=False),
                shifted, sigma=0.01)
            diffs.append([shift.beta_s - base.beta_s,
                          shift.beta_a - base.beta_a])
        diffs = np.array(diffs)
        se = diffs.std(axis=0) / 10.0
        assert abs(diffs[:, 0].mean() - delta) <= 4 * se[0] + 0.01
        assert abs(diffs[:, 1].mean() - delta) <= 4 * se[1] + 0.01


class TestEstimateP:
    def test_symmetric_construction_gives_half(self, params):
        sym = params.replaced(alpha_a=params.alpha_s)
        path = hand_path([(0.88, 0.05, 0.02, 0.02, 0.03),
                          (0.86, 0.06, 0.025, 0.025, 0.03),
                          (0.85, 0.065, 0.027, 0.027, 0.031)])
        est = estimate_p(path, sym, sigma=0.01)
        assert est.value == pytest.approx(0.5, abs=1e-15)
        assert not est.out_of_range

    def test_two_point_hand_value(self, params):
        est = estimate_p(hand_path(TWO_POINT), params, sigma=0.01)
        assert est.value == pytest.approx(0.7403920738951627, rel=1e-10)

    def test_three_point_hand_value(self, params):
        est = estimate_p(hand_path(THREE_POINT), params, sigma=0.01)
        assert est.value == pytest.approx(0.5174246369135592, rel=1e-10)

    def test_out_of_range_is_flagged_not_truncated(self, params):
        rows = [(0.88, 0.05, 0.03, 0.02, 0.02),
                (0.885, 0.055, 0.035, 0.005, 0.02)]  # symptomatic crash
        est = estimate_p(hand_path(rows), params, sigma=0.01)
        assert est.out_of_range and est.value > 1.0 and est.clamped == 1.0

    def test_degenerate_j2(self, params):
        rows = [(0.6, 1e-20, 0.2, 0.1, 0.1), (0.59, 1e-20, 0.21, 0.1, 0.1)]
        with pytest.raises(DegenerateDenominatorError):
            estimate_p(hand_path(rows), params, sigma=0.01)


class TestGirsanov:
    def test_identity_ratio(self, params, interior_init):
        path = sim(params, interior_init, seed=3)
        truth = (params.beta_s, params.beta_a, params.p)
        assert girsanov_loglik(path, truth, truth, params.kappa, 0.01) == 0.0

    # one offset per entry of b and diagonal of M, then all three together
    # for the off-diagonal J_sa
    @pytest.mark.parametrize("offset", [(0.01, 0.0, 0.0), (0.0, 0.02, 0.0),
                                        (0.0, 0.0, 0.03),
                                        (0.01, -0.02, 0.03)],
                             ids=["beta_s", "beta_a", "p", "all"])
    def test_brute_force_summation_oracle(self, params, interior_init,
                                          offset):
        path = sim(params, interior_init, seed=3)
        th0 = (params.beta_s, params.beta_a, params.p)
        th = tuple(t + d for t, d in zip(th0, offset))
        out = girsanov_loglik(path, th, th0, params.kappa, 0.01)
        total = 0.0
        sig, k_ = 0.01, params.kappa
        d_bs, d_ba, d_p = offset
        for k in range(len(path) - 1):
            s, e = path.s[k], path.e[k]
            ia, is_ = path.i_a[k], path.i_s[k]
            dfb = d_bs * is_ + d_ba * ia
            g = np.array([-dfb * s / (sig * (1 - s)), -dfb * s / (sig * e),
                          -d_p * k_ * e / (sig * ia),
                          d_p * k_ * e / (sig * is_)])
            total += g.sum() * path.wiener[k] - 0.5 * (g @ g) * path.dt
        assert out == pytest.approx(total, rel=1e-10)

    def test_loglik_concave_with_interior_maximum(self, params, interior_init):
        path = sim(params, interior_init, n_steps=4000, seed=8)
        est = estimate_betas(path, params, sigma=0.01)
        p_est = estimate_p(path, params, sigma=0.01)
        th0 = (params.beta_s, params.beta_a, params.p)
        grid = est.beta_s + np.linspace(-0.5, 0.5, 21)
        vals = [girsanov_loglik(path, (b, est.beta_a, p_est.value), th0,
                                params.kappa, 0.01) for b in grid]
        diffs = np.sign(np.diff(vals))
        # rises then falls exactly once: concave quadratic in beta_s
        assert np.all(np.diff(diffs) <= 0)
        assert max(vals) == vals[int(np.argmax(vals))]
        assert 0 < int(np.argmax(vals)) < len(grid) - 1

    def test_recovered_increments_feed_the_likelihood(self, params,
                                                      interior_init):
        # a reconstructed path has its own increments; recovering them from
        # the susceptible equation gives the same likelihood values
        from seirsde import ReconstructConfig, replicate_reconstructions, \
            residual_increments
        obs = sim(params, interior_init, n_steps=100, seed=6).i_s
        cfg = ReconstructConfig(params=params, init_e=interior_init.e,
                                init_ia=interior_init.i_a,
                                init_r=interior_init.r, dt=1e-3, seed=9)
        [path] = replicate_reconstructions(obs, cfg, 1)
        th0 = (params.beta_s, params.beta_a, params.p)
        th = (params.beta_s + 0.02, params.beta_a, params.p + 0.01)
        direct = girsanov_loglik(path, th, th0, params.kappa, 0.01)
        recovered = residual_increments(path, params)
        via_residuals = girsanov_loglik(path, th, th0, params.kappa, 0.01,
                                        increments=recovered.raw)
        assert via_residuals == pytest.approx(direct, rel=1e-10)

    def test_missing_increments(self, params):
        path = hand_path(THREE_POINT)
        th = (0.1, 0.5, 0.5)
        with pytest.raises(MissingIncrementsError):
            girsanov_loglik(path, th, th, params.kappa, 0.01)
        # supplying increments explicitly fills the gap
        val = girsanov_loglik(path, th, th, params.kappa, 0.01,
                              increments=np.zeros(2))
        assert val == 0.0


def longdouble_estimates(path, params):
    """sigma, J_s, J_a, J_sa, J_2, beta_s, beta_a and p of one path in
    np.longdouble, each integrand written out as the closed forms state
    it rather than through the kernel's shared ratio rows."""
    ld = np.longdouble
    s, e, ia, is_, r = (np.asarray(x, dtype=ld) for x in _columns(path))
    dt = ld(path.dt)
    mu, gamma, kappa, alpha_a, alpha_s = (ld(getattr(params, name)) for name
                                          in ("mu", "gamma", "kappa",
                                              "alpha_a", "alpha_s"))
    oms = 1 - s
    sigma = np.sqrt(np.mean([np.sum(np.diff(x) ** 2) / (np.sum(x[:-1] ** 2)
                                                        * dt)
                             for x in (oms, e, ia, is_, r)]))
    hv = sigma**2 / 2
    s_, e_, oms_, r_ = s[:-1], e[:-1], oms[:-1], r[:-1]
    weight = s_**2 / oms_**2 + s_**2 / e_**2
    j_s = np.sum(weight * is_[:-1] ** 2) * dt
    j_a = np.sum(weight * ia[:-1] ** 2) * dt
    j_sa = np.sum(weight * ia[:-1] * is_[:-1]) * dt
    j_2 = np.sum(kappa**2 * e_**2 / is_[:-1] ** 2
                 + kappa**2 * e_**2 / ia[:-1] ** 2) * dt

    def a_functional(istar):
        f = s_ * istar[:-1] / oms_
        g = s_ * istar[:-1] / e_
        return (np.sum(f * np.diff(np.log(oms)))
                + np.sum(f * (mu + gamma * r_ / oms_ + hv)) * dt
                + np.sum(g * np.diff(np.log(e)))
                + np.sum(g * (mu + hv + kappa)) * dt)

    a_s, a_a = a_functional(is_), a_functional(ia)
    det = j_s * j_a - j_sa**2
    a_rate, c_rate = e_ / is_[:-1], e_ / ia[:-1]
    p = (np.sum(kappa**2 * a_rate**2) * dt
         - kappa * np.sum(a_rate * np.diff(np.log(is_)))
         + kappa * np.sum(c_rate * np.diff(np.log(ia)))
         - np.sum(kappa * (alpha_s + mu + hv) * a_rate) * dt
         + np.sum(kappa * (alpha_a + mu + hv) * c_rate) * dt) / j_2
    return {"sigma": sigma, "j_s": j_s, "j_a": j_a, "j_sa": j_sa,
            "j_2": j_2, "beta_s": (j_a * a_s - j_sa * a_a) / det,
            "beta_a": (j_s * a_a - j_sa * a_s) / det, "p": p}


class TestKernelPrecision:
    # bounds fixed before the first run: the J's and sigma are sums of
    # positive terms; the betas and p come from signed Ito sums that
    # nearly cancel, which costs them a few digits
    BOUNDS = {"sigma": 1e-12, "j_s": 1e-12, "j_a": 1e-12, "j_sa": 1e-12,
              "j_2": 1e-12, "beta_s": 1e-9, "beta_a": 1e-9, "p": 1e-9}

    @pytest.mark.skipif(np.finfo(np.longdouble).eps
                        >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    def test_kernel_matches_long_double(self, params, interior_init):
        worst = dict.fromkeys(self.BOUNDS, 0.0)
        for seed in range(24):
            path = sim(params, interior_init, n_steps=2000, seed=seed)
            est = _kernel(_columns(path), path.dt, params, None)
            for name, exact in longdouble_estimates(path, params).items():
                gap = abs((np.longdouble(getattr(est, name)) - exact)
                          / exact)
                worst[name] = max(worst[name], float(gap))
        print("kernel against long double, worst relative gap over 24 "
              "paths: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
        for name, bound in self.BOUNDS.items():
            assert worst[name] <= bound, name


class TestBatchScalarAgreement:
    def test_batch_estimates_match_single_path_functions(self, params,
                                                         interior_init):
        # enough rows for three chunks, with a domain failure in the first,
        # a failure handed in by the caller in the second and a singular
        # system in the third
        n_steps, dt = 300, 1e-3
        per_chunk = _CHUNK_ELEMENTS // (n_steps + 1)
        n_rep = 2 * per_chunk + 7
        x, _, failures = simulate_batch(params, interior_init, dt, n_steps,
                                        range(n_rep))
        assert not failures
        domain_row, given_row, singular_row = 3, per_chunk + 1, n_rep - 2
        x[domain_row, 17, 3] = 0.0
        x[singular_row, :, 2] = x[singular_row, :, 3]
        given = PositivityError(5, "e", -1.0)
        est, ok, failures = _estimate_replicates(x, dt, params, None,
                                                 {given_row: given})

        assert sorted(failures) == [domain_row, given_row, singular_row]
        assert isinstance(failures[domain_row], DomainError)
        assert failures[domain_row].index == 17
        assert failures[given_row] is given
        assert isinstance(failures[singular_row], SingularSystemError)
        assert list(ok) == [i for i in range(n_rep) if i not in failures]
        for row, kind in ((domain_row, DomainError),
                          (singular_row, SingularSystemError)):
            with pytest.raises(kind) as err:
                estimate_path(Path(0.0, dt, *x[row].T,
                                   require_simplex=False), params)
            assert str(err.value) == str(failures[row])

        for k, i in enumerate(ok):
            alone = _kernel(tuple(x[i].T), dt, params, None)
            for name, batch_value, row_value in zip(est._fields, est, alone):
                assert np.array_equal(batch_value[k], row_value), (i, name)
            path = Path(0.0, dt, *x[i].T, require_simplex=False)
            sig = estimate_sigma(path)
            betas = estimate_betas(path, params)
            j = estimate_path(path, params).j
            for batch_value, scalar in (
                    (est.sigma[k], sig.sigma),
                    (est.beta_s[k], betas.beta_s),
                    (est.beta_a[k], betas.beta_a),
                    (est.condition_number[k], betas.condition_number),
                    (est.p[k], estimate_p(path, params).value),
                    (est.j_s[k], j.j_s), (est.j_a[k], j.j_a),
                    (est.j_sa[k], j.j_sa), (est.j_2[k], j.j_2)):
                assert batch_value == pytest.approx(scalar, rel=1e-10)
            assert np.allclose(est.sigma_components[k], sig.components,
                               rtol=1e-10, atol=0.0)


class TestEstimatePathReport:
    def test_report_fields_and_json_keys(self, params, interior_init):
        path = sim(params, interior_init, seed=12)
        report = estimate_path(path, params)
        payload = report.to_json_dict()
        assert sorted(payload) == ["beta_a", "beta_s", "ci",
                                   "condition_number", "j_functionals", "p",
                                   "sigma", "window"]
        assert payload["ci"] is None
        assert sorted(payload["j_functionals"]) == ["j_2", "j_a", "j_s", "j_sa"]
        assert sorted(payload["window"]) == ["satisfied", "t_end", "t_start"]


class TestReplicateEstimates:
    @staticmethod
    def cfg(params, interior_init, **kw):
        kw.setdefault("dt", 1e-3)
        kw.setdefault("seed", 3)
        return ReconstructConfig(params=params, init_e=interior_init.e,
                                 init_ia=interior_init.i_a,
                                 init_r=interior_init.r, **kw)

    def test_zero_noise_gives_zero_width_intervals(self, params,
                                                   interior_init):
        quiet = params.replaced(sigma=0.0)
        obs = sim(quiet, interior_init, n_steps=46).i_s
        report = replicate_estimates(obs, self.cfg(quiet, interior_init), 2)
        for block in report.ci.values():
            assert block["hi"] == pytest.approx(block["lo"], abs=0.0)
        assert report.n_replicates == 2

    def test_report_json_schema(self, params, interior_init):
        obs = sim(params, interior_init, n_steps=200, seed=21).i_s
        report = replicate_estimates(obs, self.cfg(params, interior_init), 8)
        payload = report.to_json_dict()
        assert sorted(payload["ci"]) == ["beta_a", "beta_s", "p", "sigma"]
        for block in payload["ci"].values():
            assert block["lo"] <= block["hi"]

    def test_negative_known_sigma_rejected(self, params, interior_init,
                                           monkeypatch):
        def reconstruct_nothing(*args, **kwargs):
            raise AssertionError("reconstructed before checking sigma")

        monkeypatch.setattr("seirsde.estimate.reconstruct_replicate_arrays",
                            reconstruct_nothing)
        obs = sim(params, interior_init, n_steps=200, seed=21).i_s
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            replicate_estimates(obs, self.cfg(params, interior_init), 4,
                                sigma=-0.01)

    def test_aggregates_replicate_failures(self, params, interior_init):
        obs = sim(params, interior_init, n_steps=46, seed=3).i_s
        wild = params.replaced(sigma=30.0)
        with pytest.raises(Exception) as err:
            replicate_estimates(obs, self.cfg(wild, interior_init), 10)
        assert "replicate" in str(err.value).lower()

    def test_confidence_intervals_cover_truth(self, params, interior_init):
        # nested Monte Carlo: fresh synthetic data outside, 400 inner
        # reconstructions each; the percentile intervals should catch the
        # generating values most of the time
        n_outer, covered = 25, {"beta_s": 0, "beta_a": 0, "p": 0}
        truth = {"beta_s": params.beta_s, "beta_a": params.beta_a,
                 "p": params.p}
        sigma_means = []
        for outer in range(n_outer):
            obs = sim(params, interior_init, n_steps=1500,
                      seed=1000 + outer).i_s
            report = replicate_estimates(
                obs, self.cfg(params, interior_init, seed=2000 + outer), 400)
            for name in covered:
                block = report.ci[name]
                if block["lo"] <= truth[name] <= block["hi"]:
                    covered[name] += 1
            sigma_means.append(report.sigma)
        assert covered["beta_s"] >= 0.9 * n_outer, covered
        assert covered["beta_a"] >= 0.9 * n_outer, covered
        # the symptomatic-split interval is data-conditioned and much
        # narrower; it still catches the truth most of the time here
        assert covered["p"] >= 0.8 * n_outer, covered
        # sigma on reconstructed paths is structurally a few percent high:
        # the complement-closed recovered row mixes the observation noise
        # with the fresh reconstruction noise, so its replicate interval is
        # tight around an inflated centre rather than around the truth
        assert np.mean(sigma_means) == pytest.approx(params.sigma, rel=0.15)
