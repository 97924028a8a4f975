"""Sample-path generation for the stochastic system.

Euler-Maruyama and Milstein steps share one Wiener stream per path; the same
increment enters all five equations. The Euler-Maruyama line is evaluated in
coefficient form: each coordinate steps as x ((1 - q dt) - sigma dW) plus its
inflow times dt, q its outflow rate; S adds mu dt + sigma dW - fb + gamma dt R,
fb being the infection flow. sigma dW and fb are formed once per step, and the
Milstein correction is added after the Euler part. This agrees with the
expanded line x + drift dt + diffusion dW to rounding, a few 1e-16 per step,
not bitwise; the scalar and batch simulators evaluate the same function, so
their rows stay bitwise equal. Increments come from numpy's PCG64
generator (normal draws via the ziggurat method), and replicate streams
derive from a base seed through ``replicate_seed`` so any Monte Carlo run
is reproducible end to end.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError, PositivityError
from .model import (ModelParams, Path, StateVec, _require_count,
                    _require_positive_step)

RNG_ALGORITHM = "pcg64-ziggurat"

SCHEME_EULER = "euler-maruyama"
SCHEME_MILSTEIN = "milstein"

_COMPONENTS = ("s", "e", "i_a", "i_s", "r")

# Grid values per compartment that batch work takes at a time. The batch
# engine steps every replicate through a block of about this many values
# before it scans them, so the positivity check costs a few numpy calls per
# block, not per step. The estimator kernel takes rows in chunks of this
# size: a whole (n_rep, n, 5) set at once needs dozens of temporaries of its
# own size (86 MB at 100 x 12,001); in chunks they take a few MB and the
# estimates come 2-4x faster, and rows of a few points still make chunks of
# hundreds of rows, which keeps numpy's per-call overhead small.
_ELEMENT_BUDGET = 1 << 15


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one path bit for bit."""

    params: ModelParams
    init: StateVec
    dt: float
    n_steps: int
    scheme: str = SCHEME_EULER
    seed: int = 0

    def __post_init__(self):
        _require_positive_step("dt", self.dt)
        _require_count("n_steps", self.n_steps)
        if self.scheme not in (SCHEME_EULER, SCHEME_MILSTEIN):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def replicate_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Stream-split seed for replicate ``index`` of a Monte Carlo run.

    Replicate 0 is the base stream itself, so a single-replicate run
    reproduces the plain seeded call; further replicates split off by
    spawn key.
    """
    if index == 0:
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(seed, spawn_key=(index,))


def draw_increments(seed, n_steps: int, dt: float) -> np.ndarray:
    """The path's N(0, dt) Wiener increments, one per step, as a read-only
    array; deterministic given the seed (an int or a SeedSequence)."""
    _require_positive_step("dt", dt)
    _require_count("n_steps", n_steps)
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal(n_steps) * np.sqrt(dt)
    dw.setflags(write=False)
    return dw


def _step_s(s, ia, is_, r, sdw, dt, params):
    """The infection flow fb = (beta_s dt I_s + beta_a dt I_a) S of one
    Euler-Maruyama step and S after it, with sdw = sigma dW; floats or
    arrays."""
    mu_dt = params.mu * dt
    fb = (params.beta_s * dt * is_ + params.beta_a * dt * ia) * s
    return fb, (s * ((1.0 - mu_dt) - sdw) + (mu_dt + sdw) - fb
                + params.gamma * dt * r)


def _step_e_ia(e, ia, fb, sdw, dt, params):
    """E and I_a after the step whose infection flow ``_step_s`` gave."""
    e1 = e * ((1.0 - (params.kappa + params.mu) * dt) - sdw) + fb
    ia1 = (ia * ((1.0 - (params.alpha_a + params.mu) * dt) - sdw)
           + params.p * params.kappa * dt * e)
    return e1, ia1


def _step_s_e_ia(s, e, ia, is_, r, dw, dt, params):
    """S, E and I_a after one Euler-Maruyama step; floats or arrays."""
    sdw = params.sigma * dw
    fb, s1 = _step_s(s, ia, is_, r, sdw, dt, params)
    return (s1, *_step_e_ia(e, ia, fb, sdw, dt, params))


def _step_values(x, dw, dt, params, milstein):
    """One step of all five coordinates, x = (s, e, i_a, i_s, r); floats or
    arrays."""
    s, e, ia, is_, r = x
    sig = params.sigma
    sdw = sig * dw
    fb, s1 = _step_s(s, ia, is_, r, sdw, dt, params)
    e1, ia1 = _step_e_ia(e, ia, fb, sdw, dt, params)
    is1 = (is_ * ((1.0 - (params.alpha_s + params.mu) * dt) - sdw)
           + (1.0 - params.p) * params.kappa * dt * e)
    r1 = (r * ((1.0 - (params.mu + params.gamma) * dt) - sdw)
          + (params.alpha_a * dt * ia + params.alpha_s * dt * is_))
    if milstein:
        # diffusion b_i is affine with b_i' = -sigma except for S where
        # b(S) = sigma (1 - S), b' = -sigma; correction = 0.5 b b' (dW^2 - dt)
        c = 0.5 * sig * sig * (dw * dw - dt)
        s1 -= c * (1.0 - s)
        e1 += c * e
        ia1 += c * ia
        is1 += c * is_
        r1 += c * r
    return s1, e1, ia1, is1, r1


def simulate_path(cfg: SimConfig,
                  increments: Optional[np.ndarray] = None) -> Path:
    """Integrate the stochastic system over n_steps from cfg.init.

    Deterministic given cfg; pass ``increments`` to reuse an externally
    drawn Wiener stream, one increment per step. Steps the whole path, then
    scans it once as the batch engine scans a block: raises PositivityError
    naming the first step and component that left [0, 1] (NaN included).
    """
    if increments is None:
        increments = draw_increments(cfg.seed, cfg.n_steps, cfg.dt)
    dw = np.asarray(increments, dtype=float)
    if dw.shape != (cfg.n_steps,):
        raise ValueError("increment count does not match n_steps")
    milstein = cfg.scheme == SCHEME_MILSTEIN
    n = cfg.n_steps
    cols = np.empty((5, n + 1))
    x = (cfg.init.s, cfg.init.e, cfg.init.i_a, cfg.init.i_s, cfg.init.r)
    cols[:, 0] = x
    # past a failing step the state may overflow; the scan reports the step.
    # Python floats step faster than numpy scalars, and round the same.
    with np.errstate(all="ignore"):
        for k, w in enumerate(dw.tolist()):
            x = _step_values(x, w, cfg.dt, cfg.params, milstein)
            cols[:, k + 1] = x
    failures = {}
    _scan_block(cols[:, :, None], 0, n, 5, failures)
    if failures:
        raise failures[0]
    return Path(0.0, cfg.dt, cols[0], cols[1], cols[2], cols[3], cols[4],
                wiener=dw.copy())


def simulate_batch(params: ModelParams, init: StateVec, dt: float,
                   n_steps: int, seeds: Sequence, scheme: str = SCHEME_EULER):
    """Vectorised engine for Monte Carlo studies.

    Integrates one path per seed simultaneously; per-replicate results are
    identical to ``simulate_path`` with the same seed, and the arguments
    are checked as ``SimConfig`` checks them. Returns ``(states,
    increments, failures)`` where states has shape (n_rep, n_steps + 1, 5)
    and increments (n_rep, n_steps). Positivity is checked once per time
    block of ``_run_batch``, not per step; failures maps replicate index to
    the PositivityError of the first step that left [0, 1], the same one
    ``simulate_path`` raises, and that row holds its state before the
    failing step from then on. Storage is time-major, so both arrays are
    transposed views of it. ``seeds`` must hold at least one seed.
    """
    SimConfig(params, init, dt, n_steps, scheme)
    _require_count("the seed count", len(seeds), 1)
    milstein = scheme == SCHEME_MILSTEIN

    def step(k, prev, w, nxt):
        nxt[0], nxt[1], nxt[2], nxt[3], nxt[4] = _step_values(
            prev, w, dt, params, milstein)

    return _run_batch(init.as_array()[:, None],
                      [np.random.default_rng(sd) for sd in seeds], n_steps,
                      dt, step, 5)


def _run_batch(init, rngs, n_steps, dt, step, n_check):
    """The batch engine behind ``simulate_batch`` and the reconstruction.

    Replicate i starts from column i of ``init`` and draws its increments
    from ``rngs[i]`` as ``draw_increments`` would. State is time-major,
    (5, n_steps + 1, n_rep): step k calls ``step(k, prev, w, nxt)``, which
    writes the next state into the replicate rows ``nxt`` in place. Steps
    run in blocks of ``_ELEMENT_BUDGET // n_rep`` (at least one) with no
    check inside; each block is then scanned once. A replicate whose first
    ``n_check`` coordinates left [0, 1] (NaN included) at step k gets the
    PositivityError of its first offending component at step k in
    failures, and after the run is frozen at its state before that step.
    Replicates never mix, so each row does the same float operations as it
    would alone. Returns ``(states, increments, failures)``, the arrays as
    replicate-major views.
    """
    n_rep = len(rngs)
    dw = np.empty((n_steps, n_rep))
    for i, rng in enumerate(rngs):
        dw[:, i] = rng.standard_normal(n_steps)
    dw *= np.sqrt(dt)
    x = np.empty((5, n_steps + 1, n_rep))
    x[:, 0] = init
    failures = {}
    block = max(1, _ELEMENT_BUDGET // n_rep)
    # a failed row may overflow or turn NaN after its failing step
    with np.errstate(all="ignore"):
        for lo in range(0, n_steps, block):
            hi = min(lo + block, n_steps)
            for k in range(lo, hi):
                step(k, x[:, k], dw[k], x[:, k + 1])
            _scan_block(x, lo, hi, n_check, failures)
    for i, err in failures.items():
        x[:, err.step + 1:, i] = x[:, err.step:err.step + 1, i]
    return x.transpose(2, 1, 0), dw.T, failures


def _scan_block(x, lo, hi, n_check, failures):
    """Add to ``failures`` the first exit from [0, 1] in steps lo..hi-1 of
    each row not in it yet; ``x`` is only read."""
    head = x[:n_check, lo + 1:hi + 1]  # (n_check, hi - lo, n_rep)
    ok = (head >= 0.0) & (head <= 1.0)
    for i in np.flatnonzero(~ok.all(axis=(0, 1))).tolist():
        if i not in failures:
            k = lo + int(np.argmin(ok[:, :, i].all(axis=0)))
            comp = int(np.argmin(ok[:, k - lo, i]))
            failures[i] = PositivityError(k, _COMPONENTS[comp],
                                          float(x[comp, k + 1, i]))


# ---------------------------------------------------------------------------
# Files. ``_opened`` opens every file the package reads or writes, and
# ``_write_rows`` writes every CSV; README "Artifact formats" has the formats.

_PATH_HEADER = ["t", "S", "E", "Ia", "Is", "R"]
# rows formatted per write; bounds the Python floats alive at once
_ROWS_PER_WRITE = 4096
# largest distance of a read time from t0 + k*dt, as a fraction of dt
_GRID_TOL = 1e-6


def _opened(target, mode):
    """``target`` if it is an open text file, else the file that the str,
    bytes or os.PathLike ``target`` names, as UTF-8 with line ends kept;
    a read skips a leading byte-order mark, and a write writes none."""
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode, newline="",
                    encoding="utf-8-sig" if mode == "r" else "utf-8")
    return contextlib.nullcontext(target)


def _read_text(source) -> str:
    """The whole text of ``source``, opened by ``_opened``; a byte that does
    not decode is a ParseError naming its line."""
    with _opened(source, "r") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object[:exc.start].count(b"\n") + 1
            raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not "
                             f"{exc.encoding}", line=line) from None


def _write_rows(target, header, columns) -> None:
    """Write ``header`` and one row per value of the first column; a column
    one value shorter leaves its field of the final row empty."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"
    with _opened(target, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _ROWS_PER_WRITE):
            fh.writelines(row % r for r in zip(
                *(c[lo:lo + _ROWS_PER_WRITE].tolist() for c in cols)))
        if any(len(c) < n for c in cols):  # zip stopped a row short
            fh.write(",".join("%.17g" % c[-1] if len(c) == n else ""
                              for c in cols) + "\r\n")


def path_to_csv(path: Path, target) -> None:
    """Write ``path`` to an open text file, or as UTF-8 to the file that a
    str, bytes or os.PathLike ``target`` names."""
    header = _PATH_HEADER
    cols = [path.times, path.s, path.e, path.i_a, path.i_s, path.r]
    if path.wiener is not None:
        header, cols = header + ["dW"], cols + [path.wiener]
    _write_rows(target, header, cols)


def _raise_first_bad_line(body: list, n_fields: int) -> None:
    """Raise ``ParseError`` naming the first malformed line of a path CSV
    body (from line 2), each line parsed as ``path_from_csv`` parses all."""
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ParseError(f"expected {n_fields} fields", line=lineno)
        if fields[6:] == [""]:
            raise ParseError("missing dW value before the final row",
                             line=lineno)
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise ParseError(f"could not parse {line!r}",
                             line=lineno) from None


def path_from_csv(source, require_simplex: bool = True) -> Path:
    """Read a path written by ``path_to_csv``; exact round trip.

    ``source`` is an open text file, or a str, bytes or os.PathLike file
    name, read as UTF-8 past a leading byte-order mark. Blank lines are
    skipped. The body is parsed in one numpy pass; only when that fails is
    it read line by line, to name the first bad line. A byte that is not
    UTF-8, a non-finite value, a second time not after the first, or a
    time off the grid that the first two times set, is a ParseError naming
    its line.
    """
    lines = _read_text(source).splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if header[:6] != _PATH_HEADER or header[6:] not in ([], ["dW"]):
        raise ParseError(f"unexpected header {header!r}", line=1)
    body = lines[1:]
    while body and not body[-1]:
        body.pop()
    if not body:
        raise ParseError("no data rows", line=2)
    if len(header) == 7 and body[-1].endswith(","):
        body[-1] += "nan"  # the final row closes no step, so has no dW
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"expected {len(header)} fields")
    except ValueError as exc:
        _raise_first_bad_line(body, len(header))
        raise ParseError(str(exc)) from None
    if len(data) == 1:
        raise ParseError("cannot recover dt from a single grid point", line=2)
    t = data[:, 0]
    t0, dt = float(t[0]), float(t[1] - t[0])
    finite = np.isfinite(data)
    finite[-1, 6:] = True  # the final row's dW is dropped
    off_grid = np.abs(t - (t0 + dt * np.arange(len(t)))) > _GRID_TOL * abs(dt)
    off_grid[1] = not dt > 0  # the second time sets dt, which must be positive
    bad = np.flatnonzero(~finite.all(axis=1) | off_grid)
    if bad.size:
        k = int(bad[0])
        lineno = [i for i, line in enumerate(body, start=2) if line][k]
        if not finite[k].all():
            j = int(np.argmin(finite[k]))
            raise ParseError(f"non-finite {header[j]} value "
                             f"{float(data[k, j])!r}", line=lineno)
        if k == 1:
            raise ParseError(f"time {float(t[1])!r} is not after the first "
                             f"time {t0!r}", line=lineno)
        raise ParseError(f"time {float(t[k])!r} is off the grid t0 + k*dt "
                         f"with t0 = {t0!r}, dt = {dt!r}", line=lineno)
    wiener = data[:-1, 6] if len(header) == 7 else None
    return Path(t0, dt, data[:, 1], data[:, 2], data[:, 3], data[:, 4],
                data[:, 5], wiener=wiener, require_simplex=require_simplex)
