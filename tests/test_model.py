import numpy as np
import pytest

from seirsde import (BASELINE_PARAMS, DomainError, HypothesisWindow,
                     IncidenceSeries, JFunctionals, LengthMismatchError,
                     McmcConfig, Path, PriorSpec, ReconstructConfig,
                     SimConfig, SimplexError, StateVec, TooFewPointsError,
                     ZeroSigmaError, consistency_study, draw_increments,
                     estimate_path, hypothesis_window, ode_rk4, r0,
                     replicate_estimates, residual_increments, simulate_path)
from seirsde.model import _window_ends
from seirsde.reconstruct import reconstruct_replicate_arrays

from conftest import (deterministic_drift, lamperti_drift, one_step,
                      sde_drift, stochastic_diffusion)

def random_simplex_state(rng):
    w = rng.dirichlet(np.ones(5))
    return StateVec(*w)

class TestModelParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            BASELINE_PARAMS.replaced(kappa=0.0)
        with pytest.raises(ValueError):
            BASELINE_PARAMS.replaced(mu=-1e-5)

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            BASELINE_PARAMS.replaced(p=1.2)
        with pytest.raises(ValueError):
            BASELINE_PARAMS.replaced(sigma=-0.01)

    def test_zero_transmission_is_allowed(self):
        BASELINE_PARAMS.replaced(beta_s=0.0, beta_a=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("build", [
    lambda v: BASELINE_PARAMS.replaced(mu=v),
    lambda v: BASELINE_PARAMS.replaced(beta_s=v),
    lambda v: BASELINE_PARAMS.replaced(sigma=v),
    lambda v: StateVec(v, 0.05, 0.02, 0.02, 0.01),
    lambda v: SimConfig(params=BASELINE_PARAMS,
                        init=StateVec(0.9, 0.05, 0.02, 0.02, 0.01), dt=v,
                        n_steps=1),
    lambda v: Path(0.0, v, [1.0], [0.0], [0.0], [0.0], [0.0]),
    lambda v: Path(0.0, 0.1, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                   [0.0, 0.0], wiener=[v]),
    lambda v: ReconstructConfig(params=BASELINE_PARAMS, init_e=0.04,
                                init_ia=0.027, init_r=0.053, dt=v),
    lambda v: McmcConfig(iterations=10, burn_in=0, proposal_sd=(v, 0.01)),
    lambda v: PriorSpec(p_lo=v),
    lambda v: PriorSpec(kappa_shape=v),
    lambda v: estimate_path(
        Path(0.0, 1e-3, [0.9, 0.89], [0.05, 0.055], [0.02, 0.022],
             [0.02, 0.023], [0.01, 0.01]), BASELINE_PARAMS, sigma=v),
    lambda v: consistency_study(BASELINE_PARAMS, _INIT, [v], n_rep=2,
                                dt=1e-3, seed=0),
    lambda v: consistency_study(BASELINE_PARAMS, _INIT, [0.02], n_rep=2,
                                dt=v, seed=0),
], ids=["params-mu", "params-beta_s", "params-sigma", "state-s",
        "simconfig-dt", "path-dt", "path-wiener",
        "reconstructconfig-dt", "mcmcconfig-proposal_sd", "priorspec-p_lo",
        "priorspec-kappa_shape", "estimate_path-sigma",
        "consistency_study-horizon", "consistency_study-dt"])
def test_non_finite_values_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


@pytest.mark.parametrize("dt", [0.0, -1e-3])
def test_consistency_study_rejects_a_nonpositive_step(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        consistency_study(BASELINE_PARAMS, _INIT, [0.02], n_rep=2, dt=dt,
                          seed=0)


_INIT = StateVec(0.9, 0.05, 0.02, 0.02, 0.01)


@pytest.mark.parametrize("build", [
    lambda: SimConfig(BASELINE_PARAMS, _INIT, 1e-3, n_steps=10.5),
    lambda: SimConfig(BASELINE_PARAMS, _INIT, 1e-3, n_steps=True),
    lambda: draw_increments(0, 10.0, 1e-3),
    lambda: ode_rk4(BASELINE_PARAMS, _INIT, 1.0, 4.5),
    lambda: McmcConfig(10.5, 0, (0.02, 0.01)),
    lambda: McmcConfig(10, 0.5, (0.02, 0.01)),
    lambda: reconstruct_replicate_arrays([0.02, 0.021], _REC, 2.5),
    lambda: reconstruct_replicate_arrays([0.02, 0.021], _REC, True),
    lambda: replicate_estimates([0.02, 0.021], _REC, 2.5),
    lambda: replicate_estimates([0.02, 0.021], _REC, True),
    lambda: consistency_study(BASELINE_PARAMS, _INIT, [0.02], n_rep=2.5,
                              dt=1e-3, seed=0),
    lambda: consistency_study(BASELINE_PARAMS, _INIT, [0.02], n_rep=True,
                              dt=1e-3, seed=0),
], ids=["simconfig-fraction", "simconfig-bool", "draw_increments",
        "ode_rk4", "mcmcconfig-iterations", "mcmcconfig-burn_in",
        "reconstruct-n_rep-fraction", "reconstruct-n_rep-bool",
        "replicate_estimates-n_rep-fraction",
        "replicate_estimates-n_rep-bool",
        "consistency_study-n_rep-fraction", "consistency_study-n_rep-bool"])
def test_non_integral_counts_rejected(build):
    with pytest.raises(ValueError, match="integer"):
        build()


_REC = ReconstructConfig(BASELINE_PARAMS, init_e=0.05, init_ia=0.02,
                         init_r=0.01, dt=1e-3)
_ONE_POINT = ([0.9], [0.05], [0.02], [0.02], [0.01])


@pytest.mark.parametrize("build,error,said", [
    (lambda: BASELINE_PARAMS.replaced(beta_a=-0.1), ValueError,
     "beta_a must be nonnegative"),
    (lambda: HypothesisWindow(1.0, 0.0, False), ValueError,
     "t_start must not exceed t_end"),
    (lambda: Path(0.0, 0.1, [], [], [], [], []), ValueError,
     "at least one grid point"),
    (lambda: Path(0.0, 0.1, *_ONE_POINT, wiener=[0.0]), ValueError,
     "wiener has shape"),
    (lambda: Path(0.0, 0.1, [0.9], [0.1], [0.1], [0.0], [0.0]),
     SimplexError, "exceeds"),
    (lambda: PriorSpec(kappa_rate=0.0), ValueError, "positive shape"),
    (lambda: McmcConfig(10, 10, (0.02, 0.01)), ValueError,
     "burn_in < iterations"),
    (lambda: JFunctionals(-1.0, 1.0, 0.0, 1.0), ValueError,
     "j_s must be nonnegative"),
    (lambda: JFunctionals(1.0, 1.0, 2.0, 1.0), ValueError,
     "j_sa\\^2 exceeds"),
    (lambda: IncidenceSeries(("a",), (1, 2), 10), LengthMismatchError,
     "differ in length"),
    (lambda: ReconstructConfig(BASELINE_PARAMS, init_e=1.0, init_ia=0.0,
                               init_r=0.0, dt=1e-3), ValueError,
     "init_e must lie in"),
    (lambda: simulate_path(SimConfig(BASELINE_PARAMS, _INIT, 1e-3, 3),
                           increments=np.zeros(2)), ValueError,
     "increment count"),
    (lambda: residual_increments(Path(0.0, 0.1, *_ONE_POINT),
                                 BASELINE_PARAMS), TooFewPointsError,
     "two grid points"),
], ids=["params-beta_a", "window-order", "path-empty", "path-wiener-shape",
        "path-off-simplex", "priorspec-kappa_rate", "mcmcconfig-burn_in",
        "jfunctionals-negative", "jfunctionals-cauchy-schwarz",
        "incidence-lengths", "reconstructconfig-init_e",
        "simulate_path-increments", "residuals-one-point"])
def test_out_of_range_values_rejected(build, error, said):
    with pytest.raises(error, match=said):
        build()


class TestStateVec:
    def test_rejects_off_simplex(self):
        with pytest.raises(SimplexError):
            StateVec(0.9, 0.05, 0.02, 0.02, 0.02)

    def test_rejects_out_of_bounds_coordinate(self):
        with pytest.raises(SimplexError):
            StateVec(1.1, -0.1, 0.0, 0.0, 0.0)

    def test_accepts_rounding_level_error(self):
        StateVec(0.9, 0.05, 0.02, 0.02, 0.01 + 5e-13)

class TestDeterministicDrift:
    def test_disease_free_equilibrium(self, params):
        d = deterministic_drift(StateVec(1.0, 0.0, 0.0, 0.0, 0.0), params)
        assert (d.s, d.e, d.i_a, d.i_s, d.r) == (0.0,) * 5

    def test_simplex_cancellation_with_theta_zero(self, params, baseline_init):
        d = deterministic_drift(baseline_init, params.replaced(theta=0.0))
        assert abs(d.s + d.e + d.i_a + d.i_s + d.r) <= 1e-14

    def test_hand_expanded_values(self, params):
        # frozen from an independent term-by-term evaluation of each line
        # in 40-digit decimal arithmetic
        d = deterministic_drift(StateVec(0.9, 0.05, 0.02, 0.02, 0.01), params)
        expected = {
            "s": -0.010213991624003658,
            "e": 0.0004394458314400574,
            "i_a": 0.0023893696906350293,
            "i_s": 0.002212746751635029,
            "r": 0.004968914170293542,
        }
        for name, want in expected.items():
            assert getattr(d, name) == pytest.approx(want, rel=1e-13)

    def test_sde_drift_matches_theta_zero_field(self, params):
        rng = np.random.default_rng(0)
        p0 = params.replaced(theta=0.0)
        for _ in range(50):
            x = random_simplex_state(rng)
            det = deterministic_drift(x, p0)
            sde = sde_drift(x, params)  # theta is ignored by the SDE field
            assert np.allclose(
                sde, [det.s, det.e, det.i_a, det.i_s, det.r], rtol=1e-14)
            assert abs(sde.sum()) <= 1e-14

class TestStochasticDiffusion:
    def test_zero_sigma(self):
        x = StateVec(0.9, 0.05, 0.02, 0.02, 0.01)
        assert np.array_equal(stochastic_diffusion(x, 0.0), np.zeros(5))

    def test_disease_free_is_silent(self):
        g = stochastic_diffusion(StateVec(1.0, 0.0, 0.0, 0.0, 0.0), 0.01)
        assert np.array_equal(g, np.zeros(5))

    def test_direct_multiplication(self):
        g = stochastic_diffusion(StateVec(0.9, 0.05, 0.02, 0.02, 0.01), 0.01)
        assert np.allclose(g, [0.001, -0.0005, -0.0002, -0.0002, -0.0001],
                           rtol=1e-15)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = stochastic_diffusion(random_simplex_state(rng), 0.05)
            assert abs(g.sum()) <= 1e-16

class TestLampertiDrift:
    def test_boundary_raises(self, params):
        with pytest.raises(DomainError):
            lamperti_drift(StateVec(1.0, 0.0, 0.0, 0.0, 0.0), params)

    def test_zero_sigma_raises(self, params):
        x = StateVec(0.9, 0.05, 0.02, 0.02, 0.01)
        with pytest.raises(ZeroSigmaError):
            lamperti_drift(x, params.replaced(sigma=0.0))

    def test_lower_components_depend_only_on_ratios(self, params):
        x = StateVec(0.9, 0.05, 0.02, 0.02, 0.01)
        c = 0.5
        scaled = StateVec(1.0 - c * (x.e + x.i_a + x.i_s + x.r),
                          c * x.e, c * x.i_a, c * x.i_s, c * x.r)
        f1 = lamperti_drift(x, params)
        f2 = lamperti_drift(scaled, params)
        assert np.allclose(f1[2:], f2[2:], rtol=1e-12)
        assert not np.isclose(f1[0], f2[0])

    def test_one_step_log_difference(self, params, interior_init):
        # one Euler step in the original coordinates, diffed in log space,
        # must reproduce drift*dt + dW to second order in the step
        cfg = SimConfig(params=params, init=interior_init, dt=1e-3, n_steps=1)
        dw = 0.005
        x1 = one_step(interior_init, dw, cfg)
        before = np.log([1.0 - interior_init.s, interior_init.e,
                         interior_init.i_a, interior_init.i_s,
                         interior_init.r])
        after = np.log([1.0 - x1.s, x1.e, x1.i_a, x1.i_s, x1.r])
        lhs = -(after - before) / params.sigma
        rhs = lamperti_drift(interior_init, params) * cfg.dt + dw
        assert np.max(np.abs(lhs - rhs)) <= 1e-5

    def test_raises_exactly_on_boundary_states(self, params):
        rng = np.random.default_rng(8)
        for coord in range(5):
            w = rng.dirichlet(np.ones(4))
            vals = np.insert(w, coord, 0.0)
            if coord == 0:
                # a zero goes to s itself: log(1-s) fine, but some other
                # coordinate is the boundary one; force s = 1 instead
                vals = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
            with pytest.raises(DomainError):
                lamperti_drift(StateVec(*vals), params)

    def test_interior_is_finite(self, params):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = random_simplex_state(rng)
            if min(1.0 - x.s, x.e, x.i_a, x.i_s, x.r) > 0:
                assert np.all(np.isfinite(lamperti_drift(x, params)))

class TestR0:
    def test_zero_transmission(self, params):
        assert r0(params.replaced(beta_s=0.0, beta_a=0.0)) == 0.0

    def test_pure_symptomatic_pairing(self, params):
        p1 = params.replaced(p=1.0)
        only_s = p1.kappa * p1.beta_s / ((p1.mu + p1.kappa)
                                         * (p1.mu + p1.alpha_s))
        assert r0(p1) == pytest.approx(only_s, rel=1e-15)

    def test_baseline_values(self, params):
        # frozen from a pre-build plug-in evaluation in 40-digit decimals
        assert r0(params) == pytest.approx(1.6320960391417831, rel=1e-13)
        assert r0(params) > 1.0
        assert r0(params, convention="consistent") == pytest.approx(
            2.0459822900028404, rel=1e-13)

    def test_unknown_convention(self, params):
        with pytest.raises(ValueError):
            r0(params, convention="folk")

    def test_monotone_in_transmission_rates(self, params):
        rng = np.random.default_rng(3)
        for _ in range(100):
            base = params.replaced(beta_s=float(rng.uniform(0.01, 1.0)),
                                   beta_a=float(rng.uniform(0.01, 1.0)))
            bump = float(rng.uniform(0.01, 0.5))
            assert r0(base.replaced(beta_s=base.beta_s + bump)) > r0(base)
            assert r0(base.replaced(beta_a=base.beta_a + bump)) > r0(base)

def brute_force_window(path):
    """Check every candidate end index against every inequality."""
    n = len(path)
    for end in range(n - 1, 0, -1):
        ok = True
        for k in range(1, end + 1):
            if not (path.s[k] < path.s[0] and path.e[k] > path.e[0]
                    and path.i_a[k] > path.i_a[0]
                    and path.i_s[k] > path.i_s[0]
                    and path.s[end] <= path.s[k]):
                ok = False
                break
        if ok:
            return end, True
    return 0, False

def make_path(s, e, ia, is_, dt=1e-3):
    s, e, ia, is_ = map(np.asarray, (s, e, ia, is_))
    r = 1.0 - s - e - ia - is_
    return Path(0.0, dt, s, e, ia, is_, r)

class TestHypothesisWindow:
    def test_monotone_path_full_window(self):
        n = 10
        path = make_path(np.linspace(0.9, 0.8, n), np.linspace(0.02, 0.04, n),
                         np.linspace(0.01, 0.02, n), np.linspace(0.01, 0.02, n))
        w = hypothesis_window(path)
        assert w.satisfied and w.t_end == pytest.approx(path.times[-1])

    def test_e_dip_truncates(self):
        s = np.array([0.9, 0.89, 0.88, 0.87, 0.86])
        e = np.array([0.02, 0.03, 0.04, 0.019, 0.05])  # dips at step 3
        path = make_path(s, e, np.full(5, 0.011) + np.arange(5) * 1e-3,
                         np.full(5, 0.011) + np.arange(5) * 1e-3)
        w = hypothesis_window(path)
        assert w.satisfied
        assert w.t_end == pytest.approx(path.t0 + 2 * path.dt)

    def test_first_step_violation(self):
        s = np.array([0.9, 0.91, 0.89])  # S rises immediately
        path = make_path(s, [0.02, 0.03, 0.04], [0.01, 0.02, 0.03],
                         [0.01, 0.02, 0.03])
        w = hypothesis_window(path)
        assert not w.satisfied and w.t_end == w.t_start

    def test_single_point_path(self):
        path = make_path([0.9], [0.05], [0.02], [0.02])
        assert not hypothesis_window(path).satisfied

    def test_window_end_sits_at_running_minimum_of_s(self):
        # S wiggles back up after its minimum; the window must stop there
        s = np.array([0.90, 0.88, 0.86, 0.87, 0.88])
        path = make_path(s, np.linspace(0.02, 0.03, 5),
                         np.linspace(0.01, 0.02, 5), np.linspace(0.01, 0.02, 5))
        w = hypothesis_window(path)
        end, ok = brute_force_window(path)
        assert ok == w.satisfied
        assert w.t_end == pytest.approx(path.t0 + end * path.dt)

    def test_tied_minimum_of_s_ends_at_the_later_point(self):
        s = np.array([0.90, 0.88, 0.87, 0.87, 0.88])
        path = make_path(s, np.linspace(0.02, 0.03, 5),
                         np.linspace(0.01, 0.02, 5), np.linspace(0.01, 0.02, 5))
        w = hypothesis_window(path)
        assert brute_force_window(path) == (3, True)
        assert w.satisfied
        assert w.t_end == pytest.approx(path.t0 + 3 * path.dt)

    def test_agrees_with_exhaustive_scan_on_simulated_paths(
            self, params, baseline_init):
        paths = [simulate_path(SimConfig(params=params, init=baseline_init,
                                         dt=1e-3, n_steps=47, seed=seed))
                 for seed in range(12)]
        for path in paths:
            end, ok = brute_force_window(path)
            w = hypothesis_window(path)
            assert w.satisfied == ok
            assert w.t_end == pytest.approx(path.t0 + end * path.dt)
        # the same rule on all paths at once, one row each
        ends = _window_ends(*(np.stack([getattr(p, c) for p in paths])
                              for c in ("s", "e", "i_a", "i_s")))
        assert ends.shape == (12,)
        assert [int(k) for k in ends] == \
            [brute_force_window(p)[0] for p in paths]
