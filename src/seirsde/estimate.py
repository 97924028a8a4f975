"""Closed-form estimators and the likelihood-ratio evaluator.

Every time integral is a left-point rectangle sum and every integral
against increments of a martingale (Wiener or log-coordinate) is a
left-point Ito sum; trapezoids would bias the stochastic integrals. The
noise intensity comes first from quadratic variation, then the two
transmission rates solve a 2x2 normal-equations system and the symptomatic
proportion has its own closed form; all three accept a known sigma instead.
The J's, the A functionals, p and the likelihood ratio weight their sums by
four left-point rows, S/(1-S), S/E, E/I_s and E/I_a, formed once by
``_j_terms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (DegenerateDenominatorError, DomainError,
                     LengthMismatchError, MissingIncrementsError,
                     ReplicateError, SingularSystemError)
from .model import HypothesisWindow, ModelParams, Path, hypothesis_window
from .reconstruct import (ReconstructConfig, _row_path,
                          reconstruct_replicate_arrays)
from .simulate import _ELEMENT_BUDGET as _CHUNK_ELEMENTS

DENOMINATOR_GUARD = 1e-30
SINGULARITY_GUARD = 1e-12


class SigmaEstimate(NamedTuple):
    sigma: float
    components: np.ndarray  # the five per-equation variance estimates


@dataclass(frozen=True)
class JFunctionals:
    """Path functionals that build the normal-equations system."""

    j_s: float
    j_a: float
    j_sa: float
    j_2: float

    def __post_init__(self):
        for name in ("j_s", "j_a", "j_sa", "j_2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # Cauchy-Schwarz on the discretised sums, with rounding headroom
        if self.j_sa**2 > self.j_s * self.j_a * (1.0 + 1e-9) + 1e-300:
            raise ValueError("j_sa^2 exceeds j_s * j_a")


class BetaEstimate(NamedTuple):
    beta_s: float
    beta_a: float
    condition_number: float


class PEstimate(NamedTuple):
    value: float
    clamped: float
    out_of_range: bool


def _columns(path: Path):
    return path.s, path.e, path.i_a, path.i_s, path.r


class _Estimates(NamedTuple):
    """Kernel output: scalars for one path, one entry per row for a block."""

    sigma_denominators: np.ndarray  # (..., 5) time integrals of squares
    sigma_components: np.ndarray    # (..., 5)
    sigma: np.ndarray
    j_s: np.ndarray
    j_a: np.ndarray
    j_sa: np.ndarray
    j_2: np.ndarray
    det: np.ndarray
    beta_s: np.ndarray
    beta_a: np.ndarray
    p: np.ndarray
    condition_number: np.ndarray


# Every kernel stage takes the five columns (s, e, i_a, i_s, r) with time as
# the trailing axis: 1-D for one path, 2-D for a block of replicate rows.
# Sums run over that axis only, so a row of a block gives the same bits as
# the 1-D path. Guards are checked afterwards, so the stages compute
# through zeros and non-positive logs silently.

@np.errstate(all="ignore")
def _sigma_terms(cols, dt: float):
    """Quadratic variation of each of 1 - S, E, I_a, I_s, R over the time
    integral of its square; sigma is the root of the component mean."""
    s, e, ia, is_, r = cols
    series = (1.0 - s, e, ia, is_, r)
    denoms = np.stack([np.sum(x[..., :-1] ** 2, axis=-1) * dt
                       for x in series], axis=-1)
    comps = np.stack([np.sum(np.diff(x, axis=-1) ** 2, axis=-1)
                      for x in series], axis=-1) / denoms
    return denoms, comps, np.sqrt(comps.mean(axis=-1))


@np.errstate(all="ignore")
def _j_terms(cols, dt: float, kappa: float):
    """J_s, J_a, J_sa and J_2 by left-point rectangles, and the left-point
    rows u = S/(1-S), v = S/E, a = E/I_s and c = E/I_a that weight them."""
    s, e, ia, is_ = (x[..., :-1] for x in cols[:4])
    u, v, a, c = s / (1.0 - s), s / e, e / is_, e / ia
    q = u**2 + v**2
    j_s = np.sum(is_**2 * q, axis=-1) * dt
    j_a = np.sum(ia**2 * q, axis=-1) * dt
    j_sa = np.sum(ia * is_ * q, axis=-1) * dt
    j_2 = kappa**2 * np.sum(a**2 + c**2, axis=-1) * dt
    return (j_s, j_a, j_sa, j_2), (u, v, a, c)


@np.errstate(all="ignore")
def _kernel(cols, dt: float, params: ModelParams,
            sigma: Optional[float]) -> _Estimates:
    """sigma, the J's, both betas, p and the condition number.

    mu, gamma, kappa and the alphas are known from ``params``; a known
    ``sigma`` replaces the quadratic-variation estimate in the A functionals
    and in p. Every sum is weighted by the rows of ``_j_terms``.
    """
    s, e, ia, is_, r = cols
    denoms, comps, sig = _sigma_terms(cols, dt)
    if sigma is not None:
        sig = np.full(sig.shape, float(sigma))
    (j_s, j_a, j_sa, j_2), (u, v, a, c) = _j_terms(cols, dt, params.kappa)
    # j_sa * j_sa, not j_sa**2: on a 0-d value ** calls C pow, on an array
    # numpy squares, and the two can round apart
    det = j_s * j_a - j_sa * j_sa
    half_var = 0.5 * sig * sig
    hv = half_var[..., None]  # broadcast along time
    dlog_oms = np.diff(np.log(1.0 - s), axis=-1)
    dlog_e = np.diff(np.log(e), axis=-1)
    rate_u = params.mu + params.gamma * r[..., :-1] / (1.0 - s[..., :-1]) + hv
    rate_v = params.mu + hv

    # One left-point sum per integral: the grouping of the paper's closed
    # forms and of the tests' expanded oracle. Merging a branch's dt sums
    # into one sum moves beta about 1e-10 relative away from that oracle.
    def a_functional(istar):
        """Right-hand side of the normal equations for one branch."""
        iu, iv = istar[..., :-1] * u, istar[..., :-1] * v
        return (np.sum(iu * dlog_oms, axis=-1)
                + np.sum(iu * rate_u, axis=-1) * dt
                + np.sum(iv * dlog_e, axis=-1)
                + np.sum(iv * rate_v, axis=-1) * dt
                + params.kappa * (np.sum(iv, axis=-1) * dt))

    a_s = a_functional(is_)
    a_a = a_functional(ia)
    beta_s = (j_a * a_s - j_sa * a_a) / det
    beta_a = (j_s * a_a - j_sa * a_s) / det
    half_gap = np.hypot(j_s - j_a, 2.0 * j_sa)
    lam_max = 0.5 * (j_s + j_a + half_gap)
    lam_min = 0.5 * (j_s + j_a - half_gap)
    cond = np.where(lam_min <= 0, np.inf, lam_max / lam_min)

    k = params.kappa
    p_hat = (k**2 * (np.sum(a**2, axis=-1) * dt)
             - k * np.sum(a * np.diff(np.log(is_), axis=-1), axis=-1)
             + k * np.sum(c * np.diff(np.log(ia), axis=-1), axis=-1)
             - k * (params.alpha_s + params.mu + half_var)
             * (np.sum(a, axis=-1) * dt)
             + k * (params.alpha_a + params.mu + half_var)
             * (np.sum(c, axis=-1) * dt)) / j_2
    return _Estimates(denoms, comps, sig, j_s, j_a, j_sa, j_2, det,
                      beta_s, beta_a, p_hat, cond)


def _require_sigma_denominators(denoms: np.ndarray) -> None:
    low = denoms < DENOMINATOR_GUARD
    if np.any(low):
        i = int(np.argmax(low))
        raise DegenerateDenominatorError(
            f"component {i} denominator {float(denoms[i])!r} below guard")


def _failures(cols, est: Optional[_Estimates] = None, singular: bool = False,
              j_2: bool = False) -> dict:
    """Row index -> the first guard that row fails.

    In order: 1-S, E, I_a and I_s positive (the error carries the first
    offending grid index), then on request the normal equations nonsingular
    and J_2 above its guard. A 1-D path is row 0.
    """
    failures = {}
    s, e, ia, is_, _ = (np.atleast_2d(c) for c in cols)
    for name, arr in (("1-S", 1.0 - s), ("E", e), ("I_a", ia), ("I_s", is_)):
        for i in np.flatnonzero(np.any(arr <= 0.0, axis=-1)):
            k = int(np.argmax(arr[i] <= 0.0))
            failures.setdefault(int(i), DomainError(
                f"{name} must stay positive for this estimator, got "
                f"{arr[i, k]!r}", index=k))
    if singular:
        det, jj = np.atleast_1d(est.det), np.atleast_1d(est.j_s * est.j_a)
        for i in np.flatnonzero(det <= SINGULARITY_GUARD * jj):
            failures.setdefault(int(i), SingularSystemError(
                f"normal equations singular: det = {float(det[i])!r} with "
                f"j_s j_a = {float(jj[i])!r}"))
    if j_2:
        j2 = np.atleast_1d(est.j_2)
        for i in np.flatnonzero(j2 <= DENOMINATOR_GUARD):
            failures.setdefault(int(i), DegenerateDenominatorError(
                f"J_2 = {float(j2[i])!r} below guard"))
    return failures


def _raise_first(failures: dict) -> None:
    if failures:
        raise failures[0]


def _need_two_points(path: Path) -> None:
    if len(path) < 2:
        raise LengthMismatchError("need at least two grid points")


def _check_known_sigma(sigma: Optional[float]) -> None:
    if sigma is not None and not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be nonnegative and finite, got "
                         f"{sigma!r}")


def _clamp_p(p: float) -> tuple:
    """``p`` clamped to [0, 1], and whether it lay outside."""
    return min(max(p, 0.0), 1.0), not 0.0 <= p <= 1.0


def _path_estimates(path: Path, params: ModelParams, sigma: Optional[float],
                    singular: bool, j_2: bool) -> _Estimates:
    """The kernel on one path; raises the first guard it fails, the sigma
    denominators first when sigma is estimated."""
    _check_known_sigma(sigma)
    _need_two_points(path)
    cols = _columns(path)
    est = _kernel(cols, path.dt, params, sigma)
    if sigma is None:
        _require_sigma_denominators(est.sigma_denominators)
    _raise_first(_failures(cols, est, singular, j_2))
    return est


def estimate_sigma(path: Path) -> SigmaEstimate:
    """Noise intensity from the quadratic variation of all five coordinates.

    Component i is the quadratic variation of X_i over the time integral of
    X_i squared (with 1 - S in place of S); the point estimate is the root
    of the component mean.
    """
    _need_two_points(path)
    denoms, comps, sig = _sigma_terms(_columns(path), path.dt)
    _require_sigma_denominators(denoms)
    return SigmaEstimate(float(sig), comps)


def estimate_betas(path: Path, params: ModelParams,
                   sigma: Optional[float] = None) -> BetaEstimate:
    """Transmission rates from the 2x2 normal-equations solve.

    mu, gamma, kappa are taken as known from ``params``; sigma defaults to
    the quadratic-variation estimate on the same path.
    """
    est = _path_estimates(path, params, sigma, singular=True, j_2=False)
    return BetaEstimate(float(est.beta_s), float(est.beta_a),
                        float(est.condition_number))


def estimate_p(path: Path, params: ModelParams,
               sigma: Optional[float] = None) -> PEstimate:
    """Closed form for the asymptomatic proportion.

    Out-of-range values are returned raw with a flagged clamped copy; no
    silent truncation, since an excursion outside [0, 1] usually signals a
    growth-window violation.
    """
    est = _path_estimates(path, params, sigma, singular=False, j_2=True)
    value = float(est.p)
    return PEstimate(value, *_clamp_p(value))


def girsanov_loglik(path: Path, theta: Sequence[float],
                    theta0: Sequence[float], kappa: float, sigma: float,
                    increments=None) -> float:
    """Log likelihood ratio of theta against theta0 along the path.

    theta and theta0 are (beta_s, beta_a, p) triples. The ratio is the
    quadratic form d.b / sigma - d'M d / (2 sigma^2) in d = theta - theta0:
    M is the normal-equations matrix, J_s, J_sa and J_a in the beta block
    and J_2 for p, and b holds the left-point Ito sums of the drift
    derivatives against the increments. The closed-form (beta_s, beta_a,
    p) maximises it up to discretisation. The stochastic integral uses the
    path's own Wiener increments unless ``increments`` supplies recovered
    ones (e.g. from the residual diagnostics); the recovered-compartment
    row of the drift difference is identically zero, so only four rows
    contribute.
    """
    if increments is None:
        increments = path.wiener
    if increments is None:
        raise MissingIncrementsError(
            "path has no Wiener increments and none were supplied")
    dw = np.asarray(increments, dtype=float)
    if dw.shape != (len(path) - 1,):
        raise LengthMismatchError("increments must hold one value per step")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    beta_s, beta_a, p = (float(t) for t in theta)
    beta_s0, beta_a0, p0 = (float(t) for t in theta0)
    d = np.array([beta_s - beta_s0, beta_a - beta_a0, p - p0])
    cols = _columns(path)
    _raise_first(_failures(cols))
    _, _, ia, is_, _ = cols
    (j_s, j_a, j_sa, j_2), (u, v, a, c) = _j_terms(cols, path.dt, kappa)
    m = np.array([[j_s, j_sa, 0.0], [j_sa, j_a, 0.0], [0.0, 0.0, j_2]])
    w = (u + v) * dw
    b = np.array([-is_[:-1] @ w, -ia[:-1] @ w, kappa * ((a - c) @ dw)])
    return float(d @ b / sigma - 0.5 * (d @ m @ d) / (sigma * sigma))


def estimate_path(path: Path, params: ModelParams,
                  sigma: Optional[float] = None) -> "EstimateReport":
    """Full single-path report: sigma, both betas, p, J's and the window."""
    window = hypothesis_window(path)
    est = _path_estimates(path, params, sigma, singular=True, j_2=True)
    p = float(est.p)
    p_clamped, p_out_of_range = _clamp_p(p)
    return EstimateReport(
        beta_s=float(est.beta_s), beta_a=float(est.beta_a), p=p,
        p_clamped=p_clamped, p_out_of_range=p_out_of_range,
        sigma=float(est.sigma),
        sigma_components=est.sigma_components if sigma is None else None,
        j=JFunctionals(float(est.j_s), float(est.j_a), float(est.j_sa),
                       float(est.j_2)),
        condition_number=float(est.condition_number), window=window,
        ci=None, n_replicates=None)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimates plus everything needed to judge them."""

    beta_s: float
    beta_a: float
    p: float
    p_clamped: float
    p_out_of_range: bool
    sigma: float
    sigma_components: Optional[np.ndarray]
    j: JFunctionals
    condition_number: float
    window: HypothesisWindow
    ci: Optional[dict]
    n_replicates: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "beta_s": self.beta_s,
            "beta_a": self.beta_a,
            "p": self.p,
            "sigma": self.sigma,
            "ci": self.ci,
            "j_functionals": {"j_s": self.j.j_s, "j_a": self.j.j_a,
                              "j_sa": self.j.j_sa, "j_2": self.j.j_2},
            "condition_number": self.condition_number,
            "window": {"t_start": self.window.t_start,
                       "t_end": self.window.t_end,
                       "satisfied": self.window.satisfied},
        }


def _estimate_replicates(x: np.ndarray, dt: float, params: ModelParams,
                         sigma: Optional[float], failures: dict):
    """The kernel over an (n_rep, n, 5) state array, a chunk of rows at a
    time.

    Rows already in ``failures`` are not estimated; a row failing the
    positivity or singularity guard joins them. Returns the estimates of
    the kept rows, their indices and all failures. Callers check a known
    ``sigma`` before producing ``x``.
    """
    n_rep, n, _ = x.shape
    per_chunk = max(1, _CHUNK_ELEMENTS // n)
    failures = dict(failures)
    parts = []
    for lo in range(0, n_rep, per_chunk):
        cols = tuple(np.ascontiguousarray(x[lo:lo + per_chunk, :, c])
                     for c in range(5))
        est = _kernel(cols, dt, params, sigma)
        for i, exc in _failures(cols, est, singular=True).items():
            failures.setdefault(lo + i, exc)
        parts.append(est)
    ok = np.array([i for i in range(n_rep) if i not in failures], dtype=int)
    est = _Estimates(*(np.concatenate(field)[ok] for field in zip(*parts)))
    return est, ok, failures


def replicate_estimates(obs_is, cfg: ReconstructConfig, n_rep: int,
                        sigma: Optional[float] = None) -> EstimateReport:
    """Reconstruct n_rep latent paths and estimate each one.

    Reports replicate means as point values with 2.5/97.5 percentile
    confidence intervals; fails when more than 10% of replicates error.
    """
    if n_rep < 2:
        raise ValueError("n_rep must be at least 2")
    _check_known_sigma(sigma)
    x, dw, failures = reconstruct_replicate_arrays(obs_is, cfg, n_rep)
    est, ok, failures = _estimate_replicates(x, cfg.dt, cfg.params, sigma,
                                             failures)
    if len(failures) > 0.10 * n_rep or ok.size < 2:
        raise ReplicateError(failures)

    def summary(v):
        return float(np.mean(v)), {"lo": float(np.percentile(v, 2.5)),
                                   "hi": float(np.percentile(v, 97.5))}

    bs_mean, bs_ci = summary(est.beta_s)
    ba_mean, ba_ci = summary(est.beta_a)
    p_mean, p_ci = summary(est.p)
    sg_mean, sg_ci = summary(est.sigma)
    window = hypothesis_window(_row_path(x, dw, int(ok[0]), cfg.dt))
    j_mean = JFunctionals(*(float(np.mean(j))
                            for j in (est.j_s, est.j_a, est.j_sa, est.j_2)))
    p_clamped, p_out_of_range = _clamp_p(p_mean)
    return EstimateReport(
        beta_s=bs_mean, beta_a=ba_mean, p=p_mean,
        p_clamped=p_clamped, p_out_of_range=p_out_of_range,
        sigma=sg_mean,
        sigma_components=np.mean(est.sigma_components, axis=0),
        j=j_mean,
        condition_number=float(np.mean(est.condition_number)),
        window=window,
        ci={"beta_s": bs_ci, "beta_a": ba_ci, "p": p_ci, "sigma": sg_ci},
        n_replicates=int(ok.size))
