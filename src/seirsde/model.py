"""Core model vocabulary: parameters, states, paths, R0, growth window.

The dynamics split a closed population into susceptible (S), exposed (E),
asymptomatic infectious (I_a), symptomatic infectious (I_s) and recovered (R)
fractions. The stochastic system perturbs the natural mortality rate with
one shared Wiener process, so every compartment is driven by the same
increments and the fractions always sum to one.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import SimplexError

SIMPLEX_TOL = 1e-12
PATH_SIMPLEX_TOL = 1e-9


def _require_finite(obj) -> None:
    for f in fields(obj):
        v = getattr(obj, f.name)
        if not math.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v!r}")


def _require_positive_step(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_integer(name: str, value) -> None:
    """A Python or numpy integer; booleans are not counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_count(name: str, value, least: int = 0) -> None:
    """An integer, as ``_require_integer`` has it, of at least ``least``."""
    _require_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """The nine epidemiological rates plus the noise intensity sigma.

    Rates are per day; ``p`` is the asymptomatic-branch proportion of newly
    infectious individuals, and ``sigma`` scales the shared Wiener
    perturbation (per sqrt(day)). ``theta`` is the symptomatic case
    fatality: the deterministic RK4 sends only (1 - theta) alpha_s I_s into
    R, and the stochastic system ignores it.
    """

    mu: float
    beta_s: float
    beta_a: float
    kappa: float
    p: float
    theta: float
    alpha_a: float
    alpha_s: float
    gamma: float
    sigma: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("mu", "kappa", "alpha_a", "alpha_s", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("beta_s", "beta_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("p", "theta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def replaced(self, **changes) -> "ModelParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class StateVec:
    """One point on the compartment simplex.

    Construction rejects states off the simplex (|sum - 1| > SIMPLEX_TOL)
    rather than renormalising, so data errors surface early.
    """

    s: float
    e: float
    i_a: float
    i_s: float
    r: float

    def __post_init__(self):
        _require_finite(self)
        for name in ("s", "e", "i_a", "i_s", "r"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SimplexError(f"{name} = {v!r} outside [0, 1]")
        total = self.s + self.e + self.i_a + self.i_s + self.r
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise SimplexError(f"components sum to {total!r}, not 1 within "
                               f"{SIMPLEX_TOL}")

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.e, self.i_a, self.i_s, self.r])


@dataclass(frozen=True)
class HypothesisWindow:
    """Largest prefix [t_start, t_end] of a path on which the growth-phase
    inequalities hold: S below its start (with the window end the minimum)
    and E, I_a, I_s strictly above their start values."""

    t_start: float
    t_end: float
    satisfied: bool

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ValueError("t_start must not exceed t_end")


@dataclass(frozen=True)
class Path:
    """Uniform-grid trajectory of the five compartments.

    Arrays are one value per grid point; ``wiener`` holds the generating
    increments (one per step) when the path came from the simulator.
    Arrays are made read-only so paths can be shared freely between
    threads. Values derived from them alone, such as the likelihood
    ratio's sums, are memoised on the path, so its arrays must not be made
    writable and changed after construction.
    """

    t0: float
    dt: float
    s: np.ndarray
    e: np.ndarray
    i_a: np.ndarray
    i_s: np.ndarray
    r: np.ndarray
    wiener: Optional[np.ndarray] = None
    require_simplex: InitVar[bool] = True
    # values derived from the read-only arrays above; freed with the path
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self, require_simplex):
        _require_positive_step("dt", self.dt)
        n = len(self.s)
        if n < 1:
            raise ValueError("a path needs at least one grid point")
        for name, size in (("s", n), ("e", n), ("i_a", n), ("i_s", n),
                           ("r", n), ("wiener", n - 1)):
            if getattr(self, name) is None:  # wiener is optional
                continue
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            if a.shape != (size,):
                raise ValueError(f"{name} has shape {a.shape}, expected "
                                 f"({size},)")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if require_simplex:
            total = self.s + self.e + self.i_a + self.i_s + self.r
            worst = float(np.abs(total - 1.0).max())
            if worst > PATH_SIMPLEX_TOL:
                raise SimplexError(
                    f"max |sum - 1| = {worst:.3e} exceeds {PATH_SIMPLEX_TOL}"
                )

    def __len__(self) -> int:
        return len(self.s)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))


def r0(params: ModelParams, convention: str = "paper") -> float:
    """Basic reproduction number of the deterministic system.

    ``convention="paper"`` reproduces the published pairing, which couples p
    with the symptomatic term even though the symptomatic inflow carries
    (1 - p); ``convention="consistent"`` pairs each branch with its own
    inflow fraction.
    """
    denom_exposed = params.mu + params.kappa
    term_s = params.kappa * params.beta_s / (denom_exposed * (params.mu + params.alpha_s))
    term_a = params.kappa * params.beta_a / (denom_exposed * (params.mu + params.alpha_a))
    if convention == "paper":
        return params.p * term_s + (1.0 - params.p) * term_a
    if convention == "consistent":
        return (1.0 - params.p) * term_s + params.p * term_a
    raise ValueError(f"unknown r0 convention {convention!r}")


def _window_ends(s, e, ia, is_) -> np.ndarray:
    """Grid index at which each row's growth window ends.

    Arrays of shape (..., n) with time last. Steps 1..k are admissible
    while S stays below its start and E, I_a, I_s above theirs; the window
    ends at the last admissible index where S attains its minimum over
    them, or at 0 when step 1 already breaks the inequalities.
    """
    admissible = np.logical_and.accumulate(
        (s[..., 1:] < s[..., :1]) & (e[..., 1:] > e[..., :1])
        & (ia[..., 1:] > ia[..., :1]) & (is_[..., 1:] > is_[..., :1]),
        axis=-1)
    s_min = np.min(s[..., 1:], axis=-1, keepdims=True, where=admissible,
                   initial=np.inf)
    at_min = admissible & (s[..., 1:] == s_min)
    steps = np.broadcast_to(np.arange(1, s.shape[-1]), at_min.shape)
    return np.max(steps, axis=-1, where=at_min, initial=0)


def hypothesis_window(path: Path) -> HypothesisWindow:
    """Largest prefix window on which the growth-phase inequalities hold.

    For every grid point t in (t0, T*]: S(t) < S(t0), E(t) > E(t0),
    I_a(t) > I_a(t0), I_s(t) > I_s(t0), and S(T*) <= S(t). When the first
    step already violates them the window degenerates to [t0, t0].
    """
    k_end = int(_window_ends(path.s, path.e, path.i_a, path.i_s))
    return HypothesisWindow(path.t0, path.t0 + path.dt * k_end, k_end > 0)


# Baseline calibration for the Mexico City COVID-19 outbreak of spring 2020
# (population 26 446 435, 47 daily records from March 10).
MEXICO_CITY_POPULATION = 26_446_435

BASELINE_PARAMS = ModelParams(
    mu=1.0 / (70 * 365),
    beta_s=0.058215322606755,
    beta_a=0.510968165093383,
    kappa=0.196078,
    p=0.585505,
    theta=0.11,
    alpha_a=0.167504,
    alpha_s=0.0925069,
    gamma=1.0 / 365,
    sigma=0.01,
)

_E0 = 198.504524717486 / MEXICO_CITY_POPULATION
_IA0 = 99.174034301964 / MEXICO_CITY_POPULATION
_IS0 = 74.0 / MEXICO_CITY_POPULATION

BASELINE_INIT = StateVec(
    s=1.0 - (_E0 + _IA0 + _IS0),
    e=_E0,
    i_a=_IA0,
    i_s=_IS0,
    r=0.0,
)

# Uniform prior bounds (in persons, divided by N on use) for the latent
# initial exposed and asymptomatic pools.
INITIAL_POOL_PRIOR = (47.0, 2100.0)
