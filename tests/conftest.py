import csv
import dataclasses
import io
import math
from typing import Sequence

import numpy as np
import pytest

from seirsde import (BASELINE_INIT, BASELINE_PARAMS, DomainError,
                     LengthMismatchError, ModelParams, SingularSystemError,
                     StateVec, ZeroSigmaError, estimate_path, simulate_path)
from seirsde.estimate import SINGULARITY_GUARD


@pytest.fixture
def params():
    """Baseline calibrated rates with sigma = 0.01."""
    return BASELINE_PARAMS


@pytest.fixture
def baseline_init():
    """Outbreak-start state: tiny infectious pools, R(0) = 0."""
    return BASELINE_INIT


# Interior growth-phase state used by the synthetic Monte Carlo studies.
# All five coordinates sit far from the boundary, so the quadratic
# variation of every equation is noise-dominated; with R(0) = 0 the
# recovered-compartment row of the sigma estimator is drift-dominated and
# meaningless (see test_estimate for the characterisation).
INTERIOR_INIT = StateVec(s=0.86, e=0.04, i_a=0.027, i_s=0.02, r=0.053)


@pytest.fixture
def interior_init():
    return INTERIOR_INIT


def as_matrix(path):
    """Path coordinates as an (n, 5) array for quick assertions."""
    return np.column_stack([path.s, path.e, path.i_a, path.i_s, path.r])


def one_step(x, dw, cfg, step_index=0):
    """State after step ``step_index`` of ``simulate_path`` from ``x``.

    Every earlier step is driven by a zero increment and that step by
    ``dw``, under the scheme of ``cfg``; a step that leaves [0, 1] raises
    PositivityError as ``simulate_path`` does.
    """
    increments = np.zeros(step_index + 1)
    increments[-1] = dw
    path = simulate_path(dataclasses.replace(cfg, init=x,
                                             n_steps=step_index + 1),
                         increments)
    return StateVec(*as_matrix(path)[step_index + 1].tolist())


def closed_form_betas(path, params, sigma):
    """The fully expanded closed forms, accumulated term by term.

    Algebraically identical to ``estimate_betas`` but grouped the way the
    expansion distributes the J factors into each integral; the two
    evaluations agree to rounding, which the tests assert.
    """
    sig = float(sigma)
    j = estimate_path(path, params, sig).j
    det = j.j_s * j.j_a - j.j_sa**2
    if det <= SINGULARITY_GUARD * j.j_s * j.j_a:
        raise SingularSystemError("normal equations singular")
    s, e, r = path.s, path.e, path.r
    one_minus_s = 1.0 - s
    dt = path.dt
    half_var = 0.5 * sig * sig

    def pieces(istar):
        u = s * istar / one_minus_s
        v = s * istar / e
        return (
            float(np.sum(u[:-1] * np.diff(np.log(one_minus_s)))),
            float(np.sum((u * (params.mu + params.gamma * r / one_minus_s
                               + half_var))[:-1]) * dt),
            float(np.sum(v[:-1] * np.diff(np.log(e)))),
            float(np.sum((v * (params.mu + half_var))[:-1]) * dt),
            float(np.sum(v[:-1]) * dt),
        )

    t1s, t2s, t3s, t4s, t5s = pieces(path.i_s)
    t1a, t2a, t3a, t4a, t5a = pieces(path.i_a)
    beta_s = (j.j_a * t1s + j.j_a * t2s + j.j_a * t3s + j.j_a * t4s
              + params.kappa * j.j_a * t5s
              - j.j_sa * t1a - j.j_sa * t2a - j.j_sa * t3a - j.j_sa * t4a
              - params.kappa * j.j_sa * t5a) / det
    beta_a = (-j.j_sa * t1s - j.j_sa * t2s - j.j_sa * t3s - j.j_sa * t4s
              - params.kappa * j.j_sa * t5s
              + j.j_s * t1a + j.j_s * t2a + j.j_s * t3a + j.j_s * t4a
              + params.kappa * j.j_s * t5a) / det
    return beta_s, beta_a


def reference_path_csv(path):
    """The path CSV as ``csv.writer`` writes it from f-string fields.

    The oracle for the byte format of ``path_to_csv``: header
    t,S,E,Ia,Is,R[,dW], 17 significant digits, CRLF line ends and an
    empty dW on the final row.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    has_w = path.wiener is not None
    writer.writerow(["t", "S", "E", "Ia", "Is", "R"] + ["dW"] * has_w)
    times = path.times
    for k in range(len(path)):
        row = [f"{times[k]:.17g}", f"{path.s[k]:.17g}", f"{path.e[k]:.17g}",
               f"{path.i_a[k]:.17g}", f"{path.i_s[k]:.17g}",
               f"{path.r[k]:.17g}"]
        if has_w:
            row.append(f"{path.wiener[k]:.17g}" if k < len(path) - 1 else "")
        writer.writerow(row)
    return buf.getvalue()


# Test oracles: the vector fields, integrals and acceptance rule written
# out one formula at a time. The pipeline computes the same quantities
# inside its simulator, RK4 integrator, estimator kernel and Metropolis
# loop.

def force_of_infection(i_a: float, i_s: float, params: ModelParams) -> float:
    """f_beta = beta_s * I_s + beta_a * I_a."""
    return params.beta_s * i_s + params.beta_a * i_a


def deterministic_drift(x: StateVec, params: ModelParams) -> StateVec:
    """Right-hand side of the deterministic system, returned per day.

    The recovered equation keeps the (1 - theta) survival factor, so with
    theta = 0 the five compartment rates cancel exactly on the simplex.
    """
    fb = force_of_infection(x.i_a, x.i_s, params)
    ds = params.mu + params.gamma * x.r - (params.mu + fb) * x.s
    de = fb * x.s - (params.kappa + params.mu) * x.e
    dia = params.p * params.kappa * x.e - (params.alpha_a + params.mu) * x.i_a
    dis = (1.0 - params.p) * params.kappa * x.e - (params.alpha_s + params.mu) * x.i_s
    dr = (params.alpha_a * x.i_a + params.alpha_s * (1.0 - params.theta) * x.i_s
          - (params.mu + params.gamma) * x.r)
    out = object.__new__(StateVec)
    for name, val in (("s", ds), ("e", de), ("i_a", dia), ("i_s", dis),
                      ("r", dr)):
        object.__setattr__(out, name, val)
    return out


def sde_drift(x: StateVec, params: ModelParams) -> np.ndarray:
    """Drift of the five-equation stochastic system.

    This is the deterministic field with theta dropped from the recovered
    equation, exactly as the stochastic system is written; the components
    sum to mu * (1 - sum(x)), zero on the simplex.
    """
    fb = force_of_infection(x.i_a, x.i_s, params)
    return np.array([
        params.mu - params.mu * x.s - fb * x.s + params.gamma * x.r,
        fb * x.s - (params.kappa + params.mu) * x.e,
        params.p * params.kappa * x.e - (params.alpha_a + params.mu) * x.i_a,
        (1.0 - params.p) * params.kappa * x.e
        - (params.alpha_s + params.mu) * x.i_s,
        params.alpha_a * x.i_a + params.alpha_s * x.i_s
        - (params.mu + params.gamma) * x.r,
    ])


def stochastic_diffusion(x: StateVec, sigma: float) -> np.ndarray:
    """Diffusion vector sigma * (1 - S, -E, -I_a, -I_s, -R).

    One shared Wiener increment multiplies all five entries; they sum to
    sigma * (1 - sum(x)), zero on the simplex.
    """
    return sigma * np.array([1.0 - x.s, -x.e, -x.i_a, -x.i_s, -x.r])


def lamperti_drift(x: StateVec, params: ModelParams) -> np.ndarray:
    """Drift of the log-transformed system with unit diffusion.

    Component i is the drift of -(1/sigma) d log(X_i) for
    X = (1-S, E, I_a, I_s, R). Requires an interior state (all log
    arguments positive) and sigma > 0.
    """
    sig = params.sigma
    if sig == 0:
        raise ZeroSigmaError("lamperti drift divides by sigma")
    one_minus_s = 1.0 - x.s
    for name, v in (("1-S", one_minus_s), ("E", x.e), ("I_a", x.i_a),
                    ("I_s", x.i_s), ("R", x.r)):
        if v <= 0:
            raise DomainError(f"log argument {name} = {v!r} is not positive")
    fb = force_of_infection(x.i_a, x.i_s, params)
    half = 0.5 * sig
    return np.array([
        params.mu / sig - fb * x.s / (sig * one_minus_s)
        + params.gamma * x.r / (sig * one_minus_s) + half,
        -fb * x.s / (sig * x.e) + (params.kappa + params.mu) / sig + half,
        -params.p * params.kappa * x.e / (sig * x.i_a)
        + (params.alpha_a + params.mu) / sig + half,
        -(1.0 - params.p) * params.kappa * x.e / (sig * x.i_s)
        + (params.alpha_s + params.mu) / sig + half,
        -(params.alpha_a * x.i_a + params.alpha_s * x.i_s) / (sig * x.r)
        + (params.mu + params.gamma) / sig + half,
    ])


def left_riemann(values: Sequence[float], dt: float) -> float:
    """Left-point rectangle sum: every supplied value times dt.

    Callers integrating over a path grid pass the integrand without its
    terminal point.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("nothing to integrate")
    if dt <= 0:
        raise ValueError("dt must be positive")
    return float(vals.sum() * dt)


def ito_log_integral(f: Sequence[float], x: Sequence[float]) -> float:
    """Left-point Ito sum of f against the increments of log x."""
    f_arr = np.asarray(f, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if f_arr.shape != x_arr.shape:
        raise LengthMismatchError("f and x must have equal length")
    if f_arr.size < 2:
        raise LengthMismatchError("need at least two points")
    if np.any(x_arr <= 0.0):
        idx = int(np.argmax(x_arr <= 0.0))
        raise DomainError(f"x must be strictly positive, got {x_arr[idx]!r}",
                          index=idx)
    return float(np.sum(f_arr[:-1] * np.diff(np.log(x_arr))))


def quadratic_variation(x: Sequence[float]) -> float:
    """Sum of squared increments of x."""
    arr = np.asarray(x, dtype=float)
    if arr.size < 2:
        raise LengthMismatchError("need at least two points")
    return float(np.sum(np.diff(arr) ** 2))


def accept_probability(log_post_new: float, log_post_old: float) -> float:
    """Metropolis acceptance probability min(1, ratio)."""
    if log_post_new >= log_post_old:
        return 1.0
    return math.exp(log_post_new - log_post_old)
