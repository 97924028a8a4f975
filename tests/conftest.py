import csv
import dataclasses
import io

import numpy as np
import pytest

from seirsde import (BASELINE_INIT, BASELINE_PARAMS, SingularSystemError,
                     StateVec, WienerIncrements, j_functionals, simulate_path)
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
    ``dw``, under the scheme and positivity policy of ``cfg``.
    """
    increments = np.zeros(step_index + 1)
    increments[-1] = dw
    path = simulate_path(dataclasses.replace(cfg, init=x,
                                             n_steps=step_index + 1),
                         WienerIncrements(increments, cfg.dt))
    return path.state(step_index + 1, tol=float("inf"))


def closed_form_betas(path, params, sigma):
    """The fully expanded closed forms, accumulated term by term.

    Algebraically identical to ``estimate_betas`` but grouped the way the
    expansion distributes the J factors into each integral; the two
    evaluations agree to rounding, which the tests assert.
    """
    sig = float(sigma)
    j = j_functionals(path, params.kappa)
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
