"""Residual recovery, Gaussianity checks and the consistency study.

Wiener increments are recovered from the susceptible equation only. The
default method inverts the Euler update algebraically, so increments of a
simulated path come back exactly up to rounding; the log-difference form
is available as ``method="log"`` and agrees with it to O(dt^1.5) per step.
QQ points take their theoretical quantiles from the standard library's
``statistics.NormalDist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateSampleError, DomainError, TooFewPointsError,
                     WindowViolatedError, ZeroSigmaError)
from .estimate import _check_known_sigma, _estimate_replicates
from .model import (ModelParams, Path, StateVec, _require_count,
                    _require_positive_step, _window_ends)
from .simulate import _GRID_TOL, _gains, _step_s, _write_rows, simulate_batch

# chi-squared(2) upper quantiles: -2 ln(alpha)
_CHI2_2_CRITICAL = {0.01: 9.21034037197618, 0.05: 5.991464547107979}
# a consistency-study horizon is flagged above this window-violation rate
_FLAG_RATE = 0.20


@dataclass(frozen=True)
class ResidualSeries:
    """Recovered increments, raw and standardised by sqrt(dt)."""

    raw: np.ndarray
    standardized: np.ndarray
    dt: float

    def __post_init__(self):
        raw = np.ascontiguousarray(self.raw, dtype=float)
        std = np.ascontiguousarray(self.standardized, dtype=float)
        raw.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "standardized", std)

    def __len__(self) -> int:
        return len(self.raw)


@dataclass(frozen=True)
class NormalityVerdict:
    statistic: float
    threshold: float
    passed: bool
    test_name: str = "jarque-bera"

    def to_json_dict(self) -> dict:
        return {"statistic": self.statistic, "threshold": self.threshold,
                "pass": self.passed, "test_name": self.test_name}


def residual_increments(path: Path, params: ModelParams,
                        method: str = "em") -> ResidualSeries:
    """Recover the driving increments from the susceptible coordinate.

    ``method="em"`` solves the simulator's own S update for the increment;
    on a path it produced with the same parameters this is exact to rounding.
    ``method="log"`` evaluates the log-difference form with the drift
    taken at the left grid point.
    """
    if params.sigma == 0:
        raise ZeroSigmaError("cannot recover increments with sigma = 0")
    if len(path) < 2:
        raise TooFewPointsError("need at least two grid points")
    s, r = path.s, path.r
    ia, is_ = path.i_a, path.i_s
    one_minus_s = 1.0 - s
    if np.any(one_minus_s <= 0.0):
        idx = int(np.argmax(one_minus_s <= 0.0))
        raise DomainError("S reaches 1", index=idx)
    sig = params.sigma
    dt = path.dt
    if method == "em":
        _, s_hat = _step_s(s[:-1], ia[:-1], is_[:-1], r[:-1],
                           _gains(0.0, dt, params), dt, params)
        raw = (s[1:] - s_hat) / (sig * one_minus_s[:-1])
    elif method == "log":
        fb = params.beta_s * is_ + params.beta_a * ia
        raw = (-np.diff(np.log(one_minus_s)) / sig
               - (params.mu / sig + 0.5 * sig) * dt
               + (dt / sig) * (s[:-1] * fb[:-1] / one_minus_s[:-1]
                               - params.gamma * r[:-1] / one_minus_s[:-1]))
    else:
        raise ValueError(f"unknown residual method {method!r}")
    return ResidualSeries(raw, raw / math.sqrt(dt), dt)


_STANDARD_NORMAL = NormalDist()


def qq_points(sample: Sequence[float]) -> np.ndarray:
    """(theoretical, empirical) quantile pairs at plotting positions
    (i - 0.5)/n against the standard normal."""
    arr = np.sort(np.asarray(sample, dtype=float))
    n = arr.size
    if n < 3:
        raise TooFewPointsError("need at least three points for a QQ set")
    levels = (np.arange(1, n + 1) - 0.5) / n
    theoretical = [_STANDARD_NORMAL.inv_cdf(q) for q in levels.tolist()]
    return np.column_stack([theoretical, arr])


def normality_test(sample: Sequence[float], alpha: float = 0.01) -> NormalityVerdict:
    """Jarque-Bera test against the chi-squared(2) critical value."""
    if alpha not in _CHI2_2_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(_CHI2_2_CRITICAL)}")
    arr = np.asarray(sample, dtype=float)
    n = arr.size
    if n < 8:
        raise TooFewPointsError("Jarque-Bera needs at least 8 observations")
    centred = arr - arr.mean()
    m2 = float(np.mean(centred**2))
    if m2 == 0.0:
        raise DegenerateSampleError("zero-variance sample")
    skew = float(np.mean(centred**3)) / m2**1.5
    kurt = float(np.mean(centred**4)) / m2**2
    stat = n * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
    threshold = _CHI2_2_CRITICAL[alpha]
    return NormalityVerdict(stat, threshold, stat <= threshold)


@dataclass(frozen=True)
class ConsistencyRow:
    horizon: float
    abs_err_beta_s: float
    abs_err_beta_a: float
    abs_err_p: float
    window_violation_rate: float
    flagged: bool
    n_failed: int


def consistency_study(truth: ModelParams, init: StateVec,
                      horizons: Sequence[float], n_rep: int, dt: float,
                      seed: int, sigma: Optional[float] = None) -> list:
    """Median absolute estimation errors across growing horizons.

    Simulates ``n_rep`` paths under ``truth`` once, over the longest
    horizon, replicate r from the stream ``SeedSequence(seed,
    spawn_key=(0, r))``. A horizon of n steps studies the prefix of each
    path up to grid point n: the n-step path of the same stream, so each
    row equals the one-horizon study of its horizon. A row reports the
    median absolute error of (beta_s, beta_a, p) estimated on every
    prefix, and the fraction of replicates whose growth window fails to
    cover the horizon. A replicate that left [0, 1] at step k (the step to
    grid point k + 1) fails at every horizon of more than k steps, and
    there counts as violating the window, whatever its frozen row shows.
    A horizon is flagged when that fraction exceeds ``_FLAG_RATE``; if
    every replicate violates the window the study aborts. ``n_rep`` is an
    integer of at least 1. Each horizon lies within ``_GRID_TOL * dt`` of
    a grid length k * dt, k at least 2, and no two horizons share one;
    any other horizon is a ValueError raised before any path is
    simulated.
    """
    horizons = list(horizons)
    if not horizons:
        raise ValueError("a study needs a horizon")
    _require_count("n_rep", n_rep, 1)
    if not all(math.isfinite(h) for h in horizons):
        raise ValueError(f"horizons must be finite, got {horizons!r}")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    _check_known_sigma(sigma)
    _require_positive_step("dt", dt)
    steps = [int(round(horizon / dt)) for horizon in horizons]
    for horizon, n_steps in zip(horizons, steps):
        if abs(horizon - n_steps * dt) > _GRID_TOL * dt:
            raise ValueError(f"horizon {horizon} is off the grid k*dt with "
                             f"dt = {dt}")
    if steps[0] < 2:  # horizons increase, so the first is the shortest
        raise ValueError(f"horizon {horizons[0]} too short for dt = {dt}")
    if any(b == a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"horizons {horizons!r} share a step count at "
                         f"dt = {dt}")
    seeds = [np.random.SeedSequence(seed, spawn_key=(0, i))
             for i in range(n_rep)]
    x, _, sim_failures = simulate_batch(truth, init, dt, steps[-1], seeds)
    rows = []
    for horizon, n_steps in zip(horizons, steps):
        prefix = x[:, :n_steps + 1]
        failures = {i: err for i, err in sim_failures.items()
                    if err.step < n_steps}
        violated = _window_ends(prefix[:, :, 0], prefix[:, :, 1],
                                prefix[:, :, 2], prefix[:, :, 3]) != n_steps
        violated[list(failures)] = True
        rate = float(np.mean(violated))
        if np.all(violated):
            raise WindowViolatedError(
                f"all {n_rep} replicates violate the growth window at "
                f"horizon {horizon}")
        est, ok, _ = _estimate_replicates(prefix, dt, truth, sigma, failures)
        rows.append(ConsistencyRow(
            horizon=horizon,
            abs_err_beta_s=float(np.median(np.abs(est.beta_s - truth.beta_s))),
            abs_err_beta_a=float(np.median(np.abs(est.beta_a - truth.beta_a))),
            abs_err_p=float(np.median(np.abs(est.p - truth.p))),
            window_violation_rate=rate,
            flagged=rate > _FLAG_RATE,
            n_failed=n_rep - int(ok.size)))
    return rows


def qq_to_csv(points: np.ndarray, target) -> None:
    _write_rows(target, ["theoretical", "empirical"], points.T)


def consistency_to_csv(rows: Sequence[ConsistencyRow], target) -> None:
    _write_rows(target, ["T", "abs_err_beta_s", "abs_err_beta_a",
                         "abs_err_p", "window_violation_rate"],
                [[getattr(r, f) for r in rows]
                 for f in ("horizon", "abs_err_beta_s", "abs_err_beta_a",
                           "abs_err_p", "window_violation_rate")])
