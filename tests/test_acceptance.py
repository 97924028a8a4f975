"""Acceptance suite: one test per criterion, each printing a verdict line.

The Monte Carlo studies run from an interior growth-phase state (see
conftest) because the published outbreak-start state has R(0) = 0, which
makes the recovered-compartment row of the noise estimator drift-dominated;
the parameter truth is always the baseline calibrated set. All tolerances
are pinned here, none are tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from seirsde import (BASELINE_INIT, BASELINE_PARAMS, McmcConfig, Path,
                     PriorSpec, ReconstructConfig, SimConfig,
                     consistency_study, cumulative_incidence,
                     estimate_betas, estimate_p, estimate_sigma,
                     girsanov_loglik, metropolis, normality_test, ode_rk4,
                     replicate_estimates, residual_increments, simulate_path)
from seirsde.reconstruct import IncidenceSeries
from seirsde.simulate import SCHEME_MILSTEIN, simulate_batch

from conftest import INTERIOR_INIT, closed_form_betas

PARAMS = BASELINE_PARAMS
TRUTH = dict(beta_s=PARAMS.beta_s, beta_a=PARAMS.beta_a, p=PARAMS.p,
             sigma=PARAMS.sigma)


def report(name, passed, elapsed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.1f} s) {detail}")


def test_criterion_1_simplex_conservation():
    t0 = time.time()
    worst = 0.0
    for scheme in ("euler-maruyama", SCHEME_MILSTEIN):
        x, _, failures = simulate_batch(PARAMS, BASELINE_INIT, 1e-3, 1000,
                                        range(100), scheme=scheme)
        assert not failures
        worst = max(worst, float(np.abs(x.sum(axis=-1) - 1.0).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report("1 simplex conservation", ok, elapsed,
           f"max |sum-1| = {worst:.2e} over 100 EM + 100 Milstein paths")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_sigma_recovery():
    t0 = time.time()
    x, _, failures = simulate_batch(PARAMS, INTERIOR_INIT, 1e-3, 47,
                                    range(200))
    assert not failures
    sigmas = np.array([
        estimate_sigma(Path(0.0, 1e-3, *x[i].T, require_simplex=False)).sigma
        for i in range(200)])
    mean = float(sigmas.mean())
    lo, hi = np.percentile(sigmas, [2.5, 97.5])
    elapsed = time.time() - t0
    ok = abs(mean - 0.01) / 0.01 <= 0.10 and lo <= 0.01 <= hi \
        and elapsed < 30.0
    report("2 sigma recovery", ok, elapsed,
           f"mean = {mean:.5f}, CI = ({lo:.5f}, {hi:.5f})")
    assert abs(mean - 0.01) / 0.01 <= 0.10
    assert lo <= 0.01 <= hi
    assert elapsed < 30.0


def test_criterion_3_mle_recovery():
    t0 = time.time()
    obs = simulate_path(SimConfig(params=PARAMS, init=INTERIOR_INIT, dt=1e-3,
                                  n_steps=12_000, seed=3)).i_s
    cfg = ReconstructConfig(params=PARAMS, init_e=INTERIOR_INIT.e,
                            init_ia=INTERIOR_INIT.i_a,
                            init_r=INTERIOR_INIT.r, dt=1e-3, seed=50_000)
    rep = replicate_estimates(obs, cfg, 1000)
    elapsed = time.time() - t0
    gaps = (abs(rep.beta_s - TRUTH["beta_s"]), abs(rep.beta_a - TRUTH["beta_a"]),
            abs(rep.p - TRUTH["p"]))
    ok = gaps[0] <= 0.057 and gaps[1] <= 0.132 and gaps[2] <= 0.01 \
        and elapsed < 300.0
    report("3 MLE recovery", ok, elapsed,
           f"means = ({rep.beta_s:.4f}, {rep.beta_a:.4f}, {rep.p:.4f}), "
           f"gaps = ({gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.4f})")
    assert gaps[0] <= 0.057
    assert gaps[1] <= 0.132
    assert gaps[2] <= 0.01
    assert elapsed < 300.0


def test_criterion_4_consistency():
    t0 = time.time()
    horizons = [0.02, 0.04, 0.08]
    rows = consistency_study(PARAMS, INTERIOR_INIT, horizons, 200, dt=1e-3,
                             seed=77)
    # growth-phase premise: the noise-free path keeps the growth
    # inequalities over the largest horizon
    quiet = simulate_path(SimConfig(params=PARAMS.replaced(sigma=0.0),
                                    init=INTERIOR_INIT, dt=1e-3, n_steps=80,
                                    seed=0))
    from seirsde import hypothesis_window
    w = hypothesis_window(quiet)
    elapsed = time.time() - t0
    med = np.array([[r.abs_err_beta_s, r.abs_err_beta_a, r.abs_err_p]
                    for r in rows])
    monotone = bool(np.all(np.diff(med, axis=0) <= 0.0))
    window_ok = w.satisfied and w.t_end == pytest.approx(quiet.times[-1])
    ok = monotone and window_ok and elapsed < 300.0
    report("4 consistency", ok, elapsed,
           "median errors per horizon: "
           + "; ".join(f"T={r.horizon:g}: ({r.abs_err_beta_s:.3g}, "
                       f"{r.abs_err_beta_a:.3g}, {r.abs_err_p:.3g}) "
                       f"viol={r.window_violation_rate:.2f}" for r in rows))
    assert monotone
    assert window_ok
    assert elapsed < 300.0


def test_criterion_5_closed_form_identity():
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        path = simulate_path(SimConfig(params=PARAMS, init=INTERIOR_INIT,
                                       dt=1e-3, n_steps=2000, seed=seed))
        solved = estimate_betas(path, PARAMS, sigma=0.01)
        expanded = closed_form_betas(path, PARAMS, sigma=0.01)
        worst = max(worst,
                    abs(solved.beta_s - expanded[0]) / abs(expanded[0]),
                    abs(solved.beta_a - expanded[1]) / abs(expanded[1]))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    report("5 closed-form identity", ok, elapsed,
           f"worst relative gap = {worst:.2e} over 50 paths")
    assert worst <= 1e-10


def _quadratic_maximiser(f, center, h):
    """Stationary point of f from its gradient and Hessian at ``center`` by
    central differences of step h; exact for a quadratic up to rounding."""
    steps = h * np.eye(3)
    f0 = f(center)
    grad = np.empty(3)
    hess = np.empty((3, 3))
    for i in range(3):
        fp, fm = f(center + steps[i]), f(center - steps[i])
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp - 2 * f0 + fm) / h**2
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                f(center + steps[i] + steps[j])
                - f(center + steps[i] - steps[j])
                - f(center - steps[i] + steps[j])
                + f(center - steps[i] - steps[j])) / (4 * h**2)
    return center - np.linalg.solve(hess, grad)


def test_criterion_6_likelihood_maximality():
    t0 = time.time()
    hits = 0
    n_paths = 50
    th0 = (PARAMS.beta_s, PARAMS.beta_a, PARAMS.p)
    worst_gap = np.zeros(3)  # |exact maximiser - closed form| per parameter
    for seed in range(900, 900 + n_paths):
        path = simulate_path(SimConfig(params=PARAMS, init=INTERIOR_INIT,
                                       dt=1e-3, n_steps=4000, seed=seed))
        betas = estimate_betas(path, PARAMS, sigma=0.01)
        p_hat = estimate_p(path, PARAMS, sigma=0.01).value
        center = np.array([betas.beta_s, betas.beta_a, p_hat])

        def loglik(theta):
            return girsanov_loglik(path, theta, th0, PARAMS.kappa, 0.01)

        spacing = 0.05 * np.maximum(np.abs(center), 0.01)
        best, best_idx = -np.inf, None
        for i in range(-2, 3):
            for j in range(-2, 3):
                for k in range(-2, 3):
                    val = loglik(center + spacing * np.array([i, j, k]))
                    if val > best:
                        best, best_idx = val, (i, j, k)
        center_val = loglik(center)
        if best_idx == (0, 0, 0) or best <= center_val + 1e-6:
            hits += 1
        gap = np.abs(_quadratic_maximiser(loglik, center, 0.01) - center)
        worst_gap = np.maximum(worst_gap, gap)
    elapsed = time.time() - t0
    ok = hits >= 0.95 * n_paths and np.all(worst_gap <= 1e-3)
    report("6 likelihood maximality", ok, elapsed,
           f"centre cell attains the grid maximum on {hits}/{n_paths} paths; "
           f"exact maximiser within (beta_s, beta_a, p) = "
           f"({worst_gap[0]:.1e}, {worst_gap[1]:.1e}, {worst_gap[2]:.1e}) "
           f"of the closed form")
    assert hits >= 0.95 * n_paths
    assert np.all(worst_gap <= 1e-3)


def test_criterion_7_residual_gaussianity_and_round_trip():
    t0 = time.time()
    passed = 0
    for seed in range(100):
        path = simulate_path(SimConfig(params=PARAMS, init=INTERIOR_INIT,
                                       dt=1e-3, n_steps=1000, seed=seed))
        res = residual_increments(path, PARAMS)
        if normality_test(res.standardized, alpha=0.01).passed:
            passed += 1
    worst = 0.0
    for i, sig in enumerate(np.linspace(0.005, 0.05, 50)):
        noisy = PARAMS.replaced(sigma=float(sig))
        path = simulate_path(SimConfig(params=noisy, init=INTERIOR_INIT,
                                       dt=1e-3, n_steps=47, seed=300 + i))
        res = residual_increments(path, noisy)
        worst = max(worst, float(np.abs(res.raw - path.wiener).max()))
    elapsed = time.time() - t0
    ok = passed >= 95 and worst <= 1e-5
    report("7 residual gaussianity", ok, elapsed,
           f"normality passes = {passed}/100, round-trip max err = {worst:.2e}")
    assert passed >= 95
    assert worst <= 1e-5


def test_criterion_8_r0_above_threshold():
    t0 = time.time()
    from seirsde import r0
    value = r0(PARAMS)
    elapsed = time.time() - t0
    ok = value > 1.0 and abs(value - 1.63) < 0.01
    report("8 reproduction number", ok, elapsed, f"R0 = {value:.6f}")
    assert value > 1.0
    assert abs(value - 1.63) < 0.01


def test_criterion_9_bayesian_baseline():
    t0 = time.time()
    # prior recovery: flat likelihood reproduces the prior means
    prior_cfg = McmcConfig(iterations=100_000, burn_in=10_000,
                           proposal_sd=(0.05, 0.02), seed=3)
    res = metropolis(None, PriorSpec(), PARAMS, BASELINE_INIT, prior_cfg)
    prior_ok = True
    for values, mean in ((res.p, 0.55), (res.kappa, 0.2)):
        batches = values[: 30 * (len(values) // 30)].reshape(30, -1)
        se = batches.mean(axis=1).std(ddof=1) / math.sqrt(30)
        prior_ok &= abs(values.mean() - mean) <= 3 * se

    # synthetic recovery on counts generated from the integrated system
    path = ode_rk4(PARAMS, BASELINE_INIT, 1.0, 46)
    lam = cumulative_incidence(path, PARAMS, 26_446_435)
    rng = np.random.Generator(np.random.PCG64(5))
    counts = [74] + [int(c) for c in rng.poisson(np.diff(lam))]
    series = IncidenceSeries(tuple(str(i) for i in range(47)), tuple(counts),
                             26_446_435)
    syn_cfg = McmcConfig(iterations=100_000, burn_in=20_000,
                         proposal_sd=(0.004, 0.002), seed=7)
    syn = metropolis(series, PriorSpec(), PARAMS, BASELINE_INIT, syn_cfg)
    p_gap = abs(np.median(syn.p) - PARAMS.p) / PARAMS.p
    k_gap = abs(np.median(syn.kappa) - PARAMS.kappa) / PARAMS.kappa
    elapsed = time.time() - t0
    ok = prior_ok and p_gap < 0.10 and k_gap < 0.10 and elapsed < 60.0
    report("9 bayesian baseline", ok, elapsed,
           f"prior means ok = {prior_ok}, posterior medians off truth by "
           f"({100 * p_gap:.1f}%, {100 * k_gap:.1f}%)")
    assert prior_ok
    assert p_gap < 0.10
    assert k_gap < 0.10
    assert elapsed < 60.0
