"""Residual recovery, Gaussianity checks and the consistency study.

Wiener increments are recovered from the susceptible equation only. The
default method inverts the Euler update algebraically, so increments of a
simulated path come back exactly up to rounding; the log-difference form
is available as ``method="log"`` and agrees with it to O(dt^1.5) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateSampleError, DomainError, TooFewPointsError,
                     WindowViolatedError, ZeroSigmaError)
from .estimate import _check_known_sigma, _estimate_replicates
from .model import ModelParams, Path, StateVec, _growth_pointwise
from .simulate import _write_rows, simulate_batch

# chi-squared(2) upper quantiles: -2 ln(alpha)
_CHI2_2_CRITICAL = {0.01: 9.21034037197618, 0.05: 5.991464547107979}


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

    ``method="em"`` solves the Euler update for the increment; on a path the
    simulator produced with the same parameters this is exact to rounding.
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
    fb = params.beta_s * is_ + params.beta_a * ia
    sig = params.sigma
    dt = path.dt
    if method == "em":
        drift = (params.mu * one_minus_s[:-1] - fb[:-1] * s[:-1]
                 + params.gamma * r[:-1])
        raw = (np.diff(s) - drift * dt) / (sig * one_minus_s[:-1])
    elif method == "log":
        raw = (-np.diff(np.log(one_minus_s)) / sig
               - (params.mu / sig + 0.5 * sig) * dt
               + (dt / sig) * (s[:-1] * fb[:-1] / one_minus_s[:-1]
                               - params.gamma * r[:-1] / one_minus_s[:-1]))
    else:
        raise ValueError(f"unknown residual method {method!r}")
    return ResidualSeries(raw, raw / math.sqrt(dt), dt)


# Rational approximation of the standard normal quantile function
# (Acklam's coefficients; absolute error below 1.2e-9 on (0, 1)).
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02,
           -2.759285104469687e+02, 1.383577518672690e+02,
           -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02,
           -1.556989798598866e+02, 6.680131188771972e+01,
           -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01,
           -2.400758277161838e+00, -2.549732539343734e+00,
           4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01,
           2.445134137142996e+00, 3.754408661907416e+00)
_ICDF_SPLIT = 0.02425


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def inverse_normal_cdf(q):
    """Standard normal quantiles for q in (0, 1), scalar or array.

    The rational approximation above is accurate to 1.15e-9 relative; one
    Halley step against the complementary-error-function CDF brings the
    absolute error to rounding level across the whole domain.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any((q_arr <= 0.0) | (q_arr >= 1.0)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    out = np.empty_like(q_arr)

    lo = q_arr < _ICDF_SPLIT
    hi = q_arr > 1.0 - _ICDF_SPLIT
    mid = ~(lo | hi)

    if np.any(mid):
        p = q_arr[mid] - 0.5
        t = p * p
        num = ((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]
        den = ((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0
        out[mid] = p * num / den

    def tail(p_tail):
        t = np.sqrt(-2.0 * np.log(p_tail))
        num = ((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]
        den = (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
        return num / den

    if np.any(lo):
        out[lo] = tail(q_arr[lo])
    if np.any(hi):
        out[hi] = -tail(1.0 - q_arr[hi])

    cdf = 0.5 * np.asarray(_ERFC(-out / math.sqrt(2.0)), dtype=float)
    u = (cdf - q_arr) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * out * out)
    out -= u / (1.0 + 0.5 * out * u)
    return float(out) if np.isscalar(q) or np.ndim(q) == 0 else out


def qq_points(sample: Sequence[float]) -> np.ndarray:
    """(theoretical, empirical) quantile pairs at plotting positions
    (i - 0.5)/n against the standard normal."""
    arr = np.sort(np.asarray(sample, dtype=float))
    n = arr.size
    if n < 3:
        raise TooFewPointsError("need at least three points for a QQ set")
    levels = (np.arange(1, n + 1) - 0.5) / n
    return np.column_stack([inverse_normal_cdf(levels), arr])


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


def _full_window_mask(x: np.ndarray) -> np.ndarray:
    """Per-replicate: does the growth window cover the whole horizon?"""
    s, e, ia, is_ = x[:, :, 0], x[:, :, 1], x[:, :, 2], x[:, :, 3]
    pointwise = np.all(_growth_pointwise(s, e, ia, is_), axis=1)
    end_is_min = np.all(s[:, [-1]] <= s[:, 1:], axis=1)
    return pointwise & end_is_min


def consistency_study(truth: ModelParams, init: StateVec,
                      horizons: Sequence[float], n_rep: int, dt: float,
                      seed: int, sigma: Optional[float] = None,
                      flag_rate: float = 0.20) -> list:
    """Median absolute estimation errors across growing horizons.

    Simulates ``n_rep`` paths per horizon under ``truth`` (replicate r of
    horizon h uses the stream ``SeedSequence(seed, spawn_key=(h, r))``),
    estimates (beta_s, beta_a, p) on each full path, and reports the median
    absolute error per parameter together with the fraction of replicates
    whose growth window fails to cover the horizon. A horizon is flagged
    when that fraction exceeds ``flag_rate``; if every replicate violates
    the window the study aborts.
    """
    horizons = list(horizons)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    _check_known_sigma(sigma)
    rows = []
    for h, horizon in enumerate(horizons):
        n_steps = int(round(horizon / dt))
        if n_steps < 2:
            raise ValueError(f"horizon {horizon} too short for dt = {dt}")
        seeds = [np.random.SeedSequence(seed, spawn_key=(h, i))
                 for i in range(n_rep)]
        x, _, sim_failures = simulate_batch(truth, init, dt, n_steps, seeds)
        violated = ~_full_window_mask(x)
        rate = float(np.mean(violated))
        if np.all(violated):
            raise WindowViolatedError(
                f"all {n_rep} replicates violate the growth window at "
                f"horizon {horizon}")
        est, ok, _ = _estimate_replicates(x, dt, truth, sigma, sim_failures)
        rows.append(ConsistencyRow(
            horizon=horizon,
            abs_err_beta_s=float(np.median(np.abs(est.beta_s
                                                  - truth.beta_s))),
            abs_err_beta_a=float(np.median(np.abs(est.beta_a
                                                  - truth.beta_a))),
            abs_err_p=float(np.median(np.abs(est.p - truth.p))),
            window_violation_rate=rate,
            flagged=rate > flag_rate,
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
