"""Latent-path construction from an observed symptomatic series.

The symptomatic coordinate is pinned to the observations at every grid
point; S, E and I_a advance by the Euler-Maruyama discretisation of the
stochastic system driven by one fresh Wiener increment per step, and R
closes each row through the simplex identity. With erratic data R may dip
slightly negative; the row sum is exactly one by construction either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (EmptySeriesError, LengthMismatchError,
                     NegativeCountError, ReplicateError)
from .model import INITIAL_POOL_PRIOR, ModelParams, Path
from .simulate import (RNG_ALGORITHM, _generator, _reject_and_freeze,
                       _step_s_e_ia, replicate_seed)


@dataclass(frozen=True)
class IncidenceSeries:
    """Daily reported symptomatic case counts plus the population size."""

    dates: tuple
    counts: tuple
    population_n: int

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.dates) != len(self.counts):
            raise LengthMismatchError("dates and counts differ in length")
        if len(self.counts) < 1:
            raise EmptySeriesError("an incidence series needs records")
        if any(c < 0 for c in self.counts):
            raise NegativeCountError("counts must be nonnegative")
        if self.population_n < max(self.counts):
            raise ValueError("population_n must be at least the largest count")

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class ReconstructConfig:
    """Latent initial pools, grid step and seeding for one reconstruction.

    ``resample_initials`` draws E(0) and I_a(0) from the uniform
    person-count prior divided by ``population_n`` instead of using the
    fixed values; each replicate then draws its own initials before its
    Wiener stream.
    """

    params: ModelParams
    init_e: float
    init_ia: float
    init_r: float
    dt: float
    seed: int = 0
    pedantic_paper: bool = False
    resample_initials: bool = False
    population_n: Optional[int] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        for name in ("init_e", "init_ia", "init_r"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.resample_initials and not self.population_n:
            raise ValueError("resample_initials requires population_n")


def normalize(series: IncidenceSeries) -> np.ndarray:
    """Counts divided by the population size, as fractions in [0, 1]."""
    return np.asarray(series.counts, dtype=float) / float(series.population_n)


def _draw_initials(cfg: ReconstructConfig, rng) -> tuple:
    lo, hi = INITIAL_POOL_PRIOR
    e0 = rng.uniform(lo, hi) / cfg.population_n
    ia0 = rng.uniform(lo, hi) / cfg.population_n
    return e0, ia0


def _check_obs(obs_is: np.ndarray) -> np.ndarray:
    obs = np.ascontiguousarray(obs_is, dtype=float)
    if obs.ndim != 1 or len(obs) < 2:
        raise LengthMismatchError("need at least two observed values")
    if np.any(obs < 0.0) or np.any(obs > 1.0):
        raise ValueError("observations must be fractions in [0, 1]")
    return obs


def _row_path(x: np.ndarray, dW: np.ndarray, i: int, dt: float) -> Path:
    """Replicate ``i`` of the engine's output as a path.

    Every step of a row that did not fail writes the observation into its
    symptomatic column, so that coordinate equals the observed series
    bitwise.
    """
    return Path(0.0, dt, x[i, :, 0], x[i, :, 1], x[i, :, 2], x[i, :, 3],
                x[i, :, 4], wiener=dW[i], rng_algorithm=RNG_ALGORITHM,
                require_simplex=False)


def reconstruct_latent(obs_is: Sequence[float], cfg: ReconstructConfig) -> Path:
    """Build one latent path conditioned on the observed symptomatic series.

    The engine's replicate 0: the returned path's symptomatic coordinate
    equals ``obs_is`` bitwise and every row sums to one exactly. Raises
    PositivityError when an updated latent coordinate leaves [0, 1].
    """
    x, dW, failures = reconstruct_replicate_arrays(obs_is, cfg, 1)
    if failures:
        raise failures[0]
    return _row_path(x, dW, 0, cfg.dt)


def reconstruct_replicate_arrays(obs_is, cfg: ReconstructConfig, n_rep: int):
    """Vectorised engine behind the replicate runs.

    Returns ``(states, increments, failures)`` with states of shape
    (n_rep, len(obs), 5). Replicate i draws its initials (when resampled)
    and then its increments from the stream ``replicate_seed(cfg.seed, i)``;
    failures map replicate index to the PositivityError met first, and
    those rows are frozen at the failing step.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    obs = _check_obs(obs_is)
    n_steps = len(obs) - 1
    dW = np.empty((n_rep, n_steps))
    e0 = np.full(n_rep, cfg.init_e)
    ia0 = np.full(n_rep, cfg.init_ia)
    for i in range(n_rep):
        rng = _generator(replicate_seed(cfg.seed, i))
        if cfg.resample_initials:
            e0[i], ia0[i] = _draw_initials(cfg, rng)
        dW[i] = rng.standard_normal(n_steps)
    dt = cfg.dt
    dW *= np.sqrt(dt)
    x = np.empty((n_rep, n_steps + 1, 5))
    x[:, 0, 0] = 1.0 - e0 - ia0 - cfg.init_r - obs[0]
    x[:, 0, 1] = e0
    x[:, 0, 2] = ia0
    x[:, 0, 3] = obs[0]
    x[:, 0, 4] = cfg.init_r
    alive = np.ones(n_rep, dtype=bool)
    failures = {}
    pr = cfg.params
    for n in range(n_steps):
        s, e, ia = x[:, n, 0], x[:, n, 1], x[:, n, 2]
        r = x[:, n, 4]
        is_n = obs[n]
        w = dW[:, n]
        if cfg.pedantic_paper:
            # verbatim published recurrence, typos included: the S noise is
            # sign-flipped, the I_a line multiplies the E inflow by I_a and
            # replaces its Wiener increment by dt
            fb = pr.beta_s * is_n + pr.beta_a * ia
            s1 = s - (pr.mu + fb) * dt * s + (pr.mu + pr.gamma * r) * dt \
                - pr.sigma * (1.0 - s) * w
            e1 = e - (pr.kappa + pr.mu) * dt * e + dt * fb * s - pr.sigma * e * w
            ia1 = ia - pr.p * pr.kappa * e * dt * ia \
                - (pr.alpha_a + pr.mu) * ia * dt - pr.sigma * ia * dt
        else:
            s1, e1, ia1 = _step_s_e_ia(s, e, ia, is_n, r, w, dt, pr)
        is1 = obs[n + 1]
        r1 = 1.0 - s1 - e1 - ia1 - is1
        nxt = np.stack([s1, e1, ia1, np.full(n_rep, is1), r1], axis=-1)
        _reject_and_freeze(nxt, x[:, n], alive, failures, n, 3)
        x[:, n + 1] = nxt
    return x, dW, failures


def replicate_reconstructions(obs_is, cfg: ReconstructConfig,
                              n_rep: int) -> list:
    """n_rep reconstructions with stream-split seeds; raises ReplicateError
    naming the failing replicate indices when any of them errors."""
    x, dW, failures = reconstruct_replicate_arrays(obs_is, cfg, n_rep)
    if failures:
        raise ReplicateError(failures)
    return [_row_path(x, dW, i, cfg.dt) for i in range(n_rep)]
