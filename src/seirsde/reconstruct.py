"""Latent-path construction from an observed symptomatic series.

The symptomatic coordinate is pinned to the observations at every grid
point; S, E and I_a advance by the Euler-Maruyama discretisation of the
stochastic system driven by one fresh Wiener increment per step, and R
closes each row through the simplex identity. With erratic data R may dip
slightly negative; the row sum is exactly one by construction either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EmptySeriesError, LengthMismatchError,
                     NegativeCountError, ReplicateError)
from .model import (INITIAL_POOL_PRIOR, ModelParams, Path,
                    _require_positive_step)
from .simulate import _run_batch, _step_s_e_ia, replicate_seed


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
        if self.population_n < 1:
            raise ValueError("population_n must be at least 1")
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
    resample_initials: bool = False
    population_n: Optional[int] = None

    def __post_init__(self):
        _require_positive_step("dt", self.dt)
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
    if not np.all((obs >= 0.0) & (obs <= 1.0)):
        raise ValueError("observations must be finite fractions in [0, 1]")
    return obs


def _row_path(x: np.ndarray, dW: np.ndarray, i: int, dt: float) -> Path:
    """Replicate ``i`` of the engine's output as a path.

    Every step of a row that did not fail writes the observation into its
    symptomatic column, so that coordinate equals the observed series
    bitwise.
    """
    return Path(0.0, dt, x[i, :, 0], x[i, :, 1], x[i, :, 2], x[i, :, 3],
                x[i, :, 4], wiener=dW[i], require_simplex=False)


def reconstruct_replicate_arrays(obs_is, cfg: ReconstructConfig, n_rep: int):
    """Vectorised engine behind the replicate runs.

    Returns ``(states, increments, failures)`` with states of shape
    (n_rep, len(obs), 5) and increments (n_rep, len(obs) - 1). Replicate i
    draws its initials (when resampled) and then its increments from the
    stream ``replicate_seed(cfg.seed, i)``; failures map replicate index to
    the PositivityError met first, and those rows are frozen at the
    failing step. Storage is time-major, so both arrays are transposed
    views of it.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    obs = _check_obs(obs_is)
    rngs = [np.random.default_rng(replicate_seed(cfg.seed, i))
            for i in range(n_rep)]
    e0 = np.full(n_rep, cfg.init_e)
    ia0 = np.full(n_rep, cfg.init_ia)
    if cfg.resample_initials:
        for i, rng in enumerate(rngs):
            e0[i], ia0[i] = _draw_initials(cfg, rng)
    init = np.broadcast_arrays(1.0 - e0 - ia0 - cfg.init_r - obs[0], e0,
                               ia0, obs[0], cfg.init_r)
    dt, pr = cfg.dt, cfg.params

    def step(k, prev, w, nxt):
        nxt[0], nxt[1], nxt[2] = _step_s_e_ia(*prev, w, dt, pr)
        nxt[3] = obs[k + 1]
        nxt[4] = 1.0 - nxt[0] - nxt[1] - nxt[2] - nxt[3]

    return _run_batch(init, rngs, len(obs) - 1, dt, step, 3)


def replicate_reconstructions(obs_is, cfg: ReconstructConfig,
                              n_rep: int) -> list:
    """n_rep latent paths conditioned on the observed symptomatic series.

    Each path's symptomatic coordinate equals ``obs_is`` bitwise and every
    row sums to one exactly. Raises ReplicateError naming the replicates
    whose latent coordinates left [0, 1]."""
    x, dW, failures = reconstruct_replicate_arrays(obs_is, cfg, n_rep)
    if failures:
        raise ReplicateError(failures)
    return [_row_path(x, dW, i, cfg.dt) for i in range(n_rep)]
