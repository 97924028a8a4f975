"""Deterministic-model Bayesian calibration baseline.

Classical fourth-order Runge-Kutta integrates the five-compartment
deterministic system, cumulative symptomatic incidence gets a Poisson
likelihood, and a random-walk Metropolis chain samples the
symptomatic-split proportion and the incubation rate under a
uniform/gamma prior pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, LengthMismatchError
from .model import (ModelParams, Path, StateVec, _require_count,
                    _require_finite, _require_positive_step)
from .reconstruct import IncidenceSeries
from .simulate import _write_rows


@dataclass(frozen=True)
class PriorSpec:
    """Uniform prior on p, gamma prior (shape, rate) on kappa."""

    p_lo: float = 0.3
    p_hi: float = 0.8
    kappa_shape: float = 10.0
    kappa_rate: float = 50.0

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 <= self.p_lo < self.p_hi <= 1.0:
            raise ValueError(f"p prior needs 0 <= p_lo < p_hi <= 1, got "
                             f"[{self.p_lo!r}, {self.p_hi!r}]")
        if self.kappa_shape <= 0 or self.kappa_rate <= 0:
            raise ValueError("gamma prior needs positive shape and rate")

    def log_density(self, p: float, kappa: float) -> float:
        if not self.p_lo < p < self.p_hi or kappa <= 0:
            return -math.inf
        return (self.kappa_shape - 1.0) * math.log(kappa) \
            - self.kappa_rate * kappa

    @property
    def p_mean(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)

    @property
    def kappa_mean(self) -> float:
        return self.kappa_shape / self.kappa_rate


@dataclass(frozen=True)
class McmcConfig:
    iterations: int
    burn_in: int
    proposal_sd: tuple  # (p scale, kappa scale)
    seed: int = 0

    def __post_init__(self):
        _require_count("iterations", self.iterations)
        _require_count("burn_in", self.burn_in)
        if not self.burn_in < self.iterations:
            raise ValueError("need 0 <= burn_in < iterations")
        if len(self.proposal_sd) != 2 or not all(
                math.isfinite(s) and s >= 0 for s in self.proposal_sd):
            raise ValueError(f"proposal_sd must be two finite nonnegative "
                             f"scales, got {self.proposal_sd!r}")


def _ode_core(params: ModelParams, p_: float, kp: float, init5, dt: float,
              n_steps: int):
    """RK4 on the five-equation deterministic system, plain floats.

    p and kappa come apart from the other rates of ``params``, so the
    Metropolis likelihood, which calls this once per proposal, builds no
    ``ModelParams`` per proposal. Unrolled for the same reason; tuple
    comprehensions would dominate the chain's runtime.
    """
    mu, bs, ba = params.mu, params.beta_s, params.beta_a
    th = params.theta
    aa, as_, gm = params.alpha_a, params.alpha_s, params.gamma
    ke = kp + mu
    qa = aa + mu
    qs = as_ + mu
    qr = mu + gm
    ps = (1.0 - p_) * kp
    pa = p_ * kp
    surv = as_ * (1.0 - th)

    def f(s, e, ia, is_, r):
        fb = bs * is_ + ba * ia
        return (mu + gm * r - (mu + fb) * s,
                fb * s - ke * e,
                pa * e - qa * ia,
                ps * e - qs * is_,
                aa * ia + surv * is_ - qr * r)

    s, e, ia, is_, r = (float(v) for v in init5)
    out = [(s, e, ia, is_, r)]
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for _ in range(n_steps):
        a0, a1, a2, a3, a4 = f(s, e, ia, is_, r)
        b0, b1, b2, b3, b4 = f(s + h2 * a0, e + h2 * a1, ia + h2 * a2,
                               is_ + h2 * a3, r + h2 * a4)
        c0, c1, c2, c3, c4 = f(s + h2 * b0, e + h2 * b1, ia + h2 * b2,
                               is_ + h2 * b3, r + h2 * b4)
        d0, d1, d2, d3, d4 = f(s + dt * c0, e + dt * c1, ia + dt * c2,
                               is_ + dt * c3, r + dt * c4)
        s += h6 * (a0 + 2.0 * (b0 + c0) + d0)
        e += h6 * (a1 + 2.0 * (b1 + c1) + d1)
        ia += h6 * (a2 + 2.0 * (b2 + c2) + d2)
        is_ += h6 * (a3 + 2.0 * (b3 + c3) + d3)
        r += h6 * (a4 + 2.0 * (b4 + c4) + d4)
        out.append((s, e, ia, is_, r))
    return out


def ode_rk4(params: ModelParams, init: StateVec, dt: float,
            n_steps: int) -> Path:
    """Integrate the deterministic system with classical RK4.

    With theta > 0 the recovered compartment receives only the surviving
    share (1 - theta) alpha_s I_s, so the five fractions lose mass and the
    simplex check is skipped; with theta = 0 the sum is conserved to
    integrator accuracy.
    """
    _require_positive_step("dt", dt)
    _require_count("n_steps", n_steps)
    arr = np.array(_ode_core(params, params.p, params.kappa, init.as_array(),
                             dt, n_steps))
    return Path(0.0, dt, *arr.T, require_simplex=False)


def _running_sums(p: float, kappa: float, population_n: float, dt: float,
                  e) -> list:
    """Expected cumulative symptomatic counts after each step: the
    left-rectangle running sum of the incidence (1 - p) kappa N dt e."""
    rate = (1.0 - p) * kappa * population_n * dt
    lam, sums = 0.0, []
    for e_j in e[:-1]:
        lam += rate * e_j
        sums.append(lam)
    return sums


def cumulative_incidence(path: Path, params: ModelParams,
                         population_n: float) -> np.ndarray:
    """Expected cumulative symptomatic counts at each grid point.

    Left-rectangle integral of (1 - p) kappa E scaled back to counts;
    nondecreasing, zero at the first point.
    """
    sums = _running_sums(params.p, params.kappa, population_n, path.dt,
                         path.e.tolist())
    return np.array([0.0] + sums)


def _log_factorials(counts) -> list:
    """log(y!) of each count, the constant part of its Poisson log mass."""
    return [math.lgamma(y + 1.0) for y in counts]


def _poisson_sum(counts, lam, log_fact) -> float:
    """``poisson_loglik`` over (count, mean, log count!) triples, without
    the checks."""
    total = 0.0
    for y, mean, lf in zip(counts, lam, log_fact):
        if mean <= 0.0:
            if y > 0.0:
                raise DomainError(f"zero mean with positive count {y!r}")
            continue
        total += y * math.log(mean) - mean - lf
    return total


def poisson_loglik(counts: Sequence[int], lam: Sequence[float]) -> float:
    """Sum of Poisson log masses; zero-count/zero-mean entries contribute 0."""
    y = np.asarray(counts, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    if y.shape != lam_arr.shape:
        raise LengthMismatchError("counts and means must have equal length")
    return _poisson_sum(y, lam_arr, _log_factorials(y))


@dataclass(frozen=True)
class McmcResult:
    iters: np.ndarray
    p: np.ndarray
    kappa: np.ndarray
    loglik: np.ndarray
    acceptance_rate: float


def metropolis(series: Optional[IncidenceSeries], priors: PriorSpec,
               fixed: ModelParams, init: StateVec,
               cfg: McmcConfig) -> McmcResult:
    """Random-walk Metropolis over (p, kappa).

    The target is prior times Poisson likelihood of the cumulative counts
    observed after day zero (the day-zero count is absorbed by the initial
    condition). ``series=None`` runs on the priors alone. Out-of-support
    proposals are rejected and counted. Deterministic given cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    n_days = 0 if series is None else len(series) - 1
    y_days = None
    if series is not None and n_days > 0:
        counts = np.asarray(series.counts, dtype=float)
        y_days = (np.cumsum(counts) - counts[0])[1:].tolist()  # day >= 1
        log_fact = _log_factorials(y_days)
    init5 = init.as_array()

    def loglik(p_, kappa_):
        if y_days is None:
            return 0.0
        # the proposals are numpy scalars; the pure-Python RK4 runs 2-4x
        # faster on floats, with bit-identical results
        p_, kappa_ = float(p_), float(kappa_)
        # one step a day
        states = _ode_core(fixed, p_, kappa_, init5, 1.0, n_days)
        lam = _running_sums(p_, kappa_, series.population_n, 1.0,
                            [x[1] for x in states])
        try:
            return _poisson_sum(y_days, lam, log_fact)
        except DomainError:  # a zero mean under a positive count
            return -math.inf

    cur = np.array([priors.p_mean, priors.kappa_mean])
    cur_ll = loglik(*cur)
    cur_post = cur_ll + priors.log_density(*cur)
    sd = np.asarray(cfg.proposal_sd, dtype=float)
    n_accept = 0
    kept_p, kept_k, kept_ll = [], [], []
    for it in range(cfg.iterations):
        prop = cur + sd * rng.standard_normal(2)
        lp = priors.log_density(*prop)
        if math.isfinite(lp):
            ll = loglik(*prop)
            post = ll + lp
            # -inf, not -inf - -inf = NaN, when both have zero likelihood;
            # the decision and the draw are the same either way
            log_ratio = post - cur_post if post > -math.inf else -math.inf
            if log_ratio >= 0 or math.log(rng.uniform()) < log_ratio:
                cur, cur_ll, cur_post = prop, ll, post
                n_accept += 1
        if it >= cfg.burn_in:
            kept_p.append(cur[0])
            kept_k.append(cur[1])
            kept_ll.append(cur_ll)
    return McmcResult(np.arange(cfg.burn_in, cfg.iterations),
                      np.array(kept_p), np.array(kept_k), np.array(kept_ll),
                      n_accept / cfg.iterations)


def samples_to_csv(result: McmcResult, target) -> None:
    _write_rows(target, ["iter", "p", "kappa", "loglik"],
                [result.iters, result.p, result.kappa, result.loglik])
