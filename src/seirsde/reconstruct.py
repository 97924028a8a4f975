"""Latent-path construction from an observed symptomatic series.

The symptomatic coordinate is pinned to the observations at every grid
point; S, E and I_a advance by the Euler-Maruyama discretisation of the
stochastic system driven by one fresh Wiener increment per step, and R
closes each row through the simplex identity. With erratic data R may dip
slightly negative; either way R = 1 - S - E - I_a - I_s, so the row sums
to one up to rounding (a few 1e-16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (EmptySeriesError, LengthMismatchError,
                     NegativeCountError, ReplicateError)
from .model import (INITIAL_POOL_PRIOR, ModelParams, Path, _require_count,
                    _require_integer, _require_positive_step)
from .simulate import _run_batch, _step_s_e_ia, replicate_seed


@dataclass(frozen=True)
class IncidenceSeries:
    """Daily reported symptomatic case counts, nonnegative integers, plus
    the population size, an integer of at least 1 and of the largest
    count."""

    dates: tuple
    counts: tuple
    population_n: int

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        counts = tuple(self.counts)
        for c in counts:
            _require_integer("a count", c)
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))
        if len(self.dates) != len(self.counts):
            raise LengthMismatchError("dates and counts differ in length")
        if len(self.counts) < 1:
            raise EmptySeriesError("an incidence series needs records")
        if any(c < 0 for c in self.counts):
            raise NegativeCountError("counts must be nonnegative")
        _require_count("population_n", self.population_n, 1)
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
    Wiener stream. ``population_n``, when given, is an integer of at
    least 1.
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
        if self.population_n is not None:
            _require_count("population_n", self.population_n, 1)
        elif self.resample_initials:
            raise ValueError("resample_initials requires population_n")


def normalize(series: IncidenceSeries) -> np.ndarray:
    """Counts divided by the population size, as fractions in [0, 1]."""
    return np.asarray(series.counts, dtype=float) / float(series.population_n)


def _draw_initials(cfg: ReconstructConfig, rng) -> tuple:
    lo, hi = INITIAL_POOL_PRIOR
    e0 = rng.uniform(lo, hi) / cfg.population_n
    ia0 = rng.uniform(lo, hi) / cfg.population_n
    return e0, ia0


def _check_pools_fit(cfg: ReconstructConfig, obs0: float) -> None:
    """Reject a population too small for the largest pools the prior draws
    to fit beside ``init_r`` and the first observation."""
    largest = 2.0 * INITIAL_POOL_PRIOR[1] / cfg.population_n
    if largest + cfg.init_r + obs0 > 1.0:
        raise ValueError(
            f"population_n = {cfg.population_n} is too small for resampled "
            f"initials: E(0) + I_a(0) may reach {largest:.6g}, which with "
            f"init_r and the first observation does not fit under 1")


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
    stream ``replicate_seed(cfg.seed, i)``. Positivity of S, E and I_a is
    checked once per time block of ``simulate._run_batch``; failures map
    replicate index to the PositivityError of the first step that left
    [0, 1], and that row is frozen from its failing step on, its I_s equal
    to the observations up to that step. With ``resample_initials``, a
    ``population_n`` too small for the prior's largest pools to fit beside
    ``init_r`` and the first observation is a ValueError. Storage is
    time-major, so both arrays are transposed views of it.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    obs = _check_obs(obs_is)
    if cfg.resample_initials:
        _check_pools_fit(cfg, obs[0])
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
    is_ = obs.tolist()

    def step(k, prev, w, nxt):
        # a live row holds is_[k] in prev[3]; a frozen one is reset after
        # its block whatever it steps to
        s, e, ia, _, r = prev
        nxt[0], nxt[1], nxt[2] = _step_s_e_ia(s, e, ia, is_[k], r, w, dt, pr)
        nxt[3] = is_[k + 1]
        r1 = nxt[4]
        np.subtract(1.0, nxt[0], out=r1)
        r1 -= nxt[1]
        r1 -= nxt[2]
        r1 -= is_[k + 1]

    return _run_batch(init, rngs, len(obs) - 1, dt, step, 3)


def replicate_reconstructions(obs_is, cfg: ReconstructConfig,
                              n_rep: int) -> list:
    """n_rep latent paths conditioned on the observed symptomatic series.

    Each path's symptomatic coordinate equals ``obs_is`` bitwise and every
    row sums to one up to rounding. Raises ReplicateError naming the
    replicates whose latent coordinates left [0, 1]."""
    x, dW, failures = reconstruct_replicate_arrays(obs_is, cfg, n_rep)
    if failures:
        raise ReplicateError(failures)
    return [_row_path(x, dW, i, cfg.dt) for i in range(n_rep)]
