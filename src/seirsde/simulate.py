"""Sample-path generation for the stochastic system.

Euler-Maruyama and Milstein steps share one Wiener stream per path; the same
increment enters all five equations. The Euler-Maruyama line is evaluated in
coefficient form: each coordinate steps as x ((1 - q dt) - sigma dW) plus its
inflow times dt, q its outflow rate; S adds mu dt + sigma dW - fb + gamma dt R,
fb being the infection flow. The factors that depend on dW alone come from
``_gains``, formed ahead of the steps for a whole block of increments; fb is
formed once per step, and the Milstein correction is added after the Euler
part. This agrees with the expanded line x + drift dt + diffusion dW to
rounding, a few 1e-16 per step, not bitwise; the scalar and batch simulators
evaluate the same functions, so their rows stay bitwise equal. Increments
come from numpy's PCG64 generator (normal draws via the ziggurat method),
and replicate streams derive from a base seed through ``replicate_seed`` so
any Monte Carlo run is reproducible end to end.
"""

from __future__ import annotations

import contextlib
import math
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

# Rows that the scalar path takes at a time: steps that ``simulate_path``
# turns into Python floats, rows that ``_write_rows`` formats and lines that
# ``path_from_csv`` parses. Bounds the Python objects alive at once, so a
# path's transient memory does not grow with its length.
_ROWS_PER_BLOCK = 4096


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


def _gains(dw, dt, params, milstein=False):
    """The factors of an Euler-Maruyama step that depend on the increment
    dw alone, for a float or an array of increments: (1 - q dt) - sigma dW
    for S, E, I_a, I_s and R in that order, q each one's outflow rate, then
    mu dt + sigma dW, S's inflow, then with ``milstein`` the Milstein
    correction 0.5 sigma^2 (dW^2 - dt)."""
    sig, mu = params.sigma, params.mu
    sdw = sig * dw
    g = [(1.0 - q * dt) - sdw
         for q in (mu, params.kappa + mu, params.alpha_a + mu,
                   params.alpha_s + mu, mu + params.gamma)]
    g.append(mu * dt + sdw)
    if milstein:
        # diffusion b_i is affine with b_i' = -sigma except for S where
        # b(S) = sigma (1 - S), b' = -sigma; correction = 0.5 b b' (dW^2 - dt)
        g.append(0.5 * sig * sig * (dw * dw - dt))
    return g


def _step_s(s, ia, is_, r, g, dt, params):
    """The infection flow fb = (beta_s dt I_s + beta_a dt I_a) S of one
    Euler-Maruyama step and S after it, g the step's ``_gains``; floats or
    arrays."""
    fb = (params.beta_s * dt * is_ + params.beta_a * dt * ia) * s
    return fb, s * g[0] + g[5] - fb + params.gamma * dt * r


def _step_s_e_ia(s, e, ia, is_, r, g, dt, params):
    """S, E and I_a after one Euler-Maruyama step, g the step's ``_gains``;
    floats or arrays."""
    fb, s1 = _step_s(s, ia, is_, r, g, dt, params)
    return s1, e * g[1] + fb, ia * g[2] + params.p * params.kappa * dt * e


def _step_values(x, g, dt, params, milstein):
    """One step of all five coordinates, x = (s, e, i_a, i_s, r), g the
    step's ``_gains``; floats or arrays."""
    s, e, ia, is_, r = x
    s1, e1, ia1 = _step_s_e_ia(s, e, ia, is_, r, g, dt, params)
    is1 = is_ * g[3] + (1.0 - params.p) * params.kappa * dt * e
    r1 = r * g[4] + (params.alpha_a * dt * ia + params.alpha_s * dt * is_)
    if milstein:
        c = g[6]
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
    drawn Wiener stream, one increment per step, which the path keeps a
    copy of. Steps one block of ``_ROWS_PER_BLOCK`` steps at a time, its
    ``_gains`` as Python floats, so only the path's arrays grow with its
    length. Scans the whole path
    once after the last step, as the batch engine scans a block: raises
    PositivityError naming the first step and component that left [0, 1]
    (NaN included).
    """
    drawn = increments is None
    if drawn:
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
        for lo in range(0, n, _ROWS_PER_BLOCK):
            gains = [a.tolist() for a in _gains(dw[lo:lo + _ROWS_PER_BLOCK],
                                                cfg.dt, cfg.params, milstein)]
            for k, g in enumerate(zip(*gains), lo + 1):
                x = _step_values(x, g, cfg.dt, cfg.params, milstein)
                cols[:, k] = x
    failures = {}
    _scan_block(cols[:, :, None], 0, n, 5, failures)
    if failures:
        raise failures[0]
    # Path makes its arrays read-only, so a caller's increments are copied
    return Path(0.0, cfg.dt, cols[0], cols[1], cols[2], cols[3], cols[4],
                wiener=dw if drawn else dw.copy())


def simulate_batch(params: ModelParams, init: StateVec, dt: float,
                   n_steps: int, seeds: Sequence, scheme: str = SCHEME_EULER,
                   *, storage=None):
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
    transposed views of it: fresh arrays by default, or the front of a
    ``storage`` from ``_batch_storage`` at least this run's size, which the
    run overwrites in full. Arrays from a given storage are views, valid
    until that storage is used again. A caller running batches of several
    sizes passes one storage sized for the largest, since glibc keeps the
    heap that freed arrays of a few MB to 32 MB leave behind. ``seeds``
    must hold at least one seed.
    """
    SimConfig(params, init, dt, n_steps, scheme)
    _require_count("the seed count", len(seeds), 1)
    milstein = scheme == SCHEME_MILSTEIN

    def step(k, prev, g):
        return _step_values(prev, g, dt, params, milstein)

    return _run_batch(init.as_array()[:, None],
                      [np.random.default_rng(sd) for sd in seeds], n_steps,
                      dt, params, milstein, step, 5, storage)


def _batch_shapes(n_steps, n_rep):
    """The batch engine's time-major increment and state shapes."""
    return (n_steps, n_rep), (5, n_steps + 1, n_rep)


def _batch_storage(n_steps, n_rep):
    """Flat increment and state storage for batch runs of n_rep replicates
    and up to n_steps steps, sized by the shapes that ``_run_batch`` views
    its front as."""
    return tuple(np.empty(math.prod(shape))
                 for shape in _batch_shapes(n_steps, n_rep))


def _run_batch(init, rngs, n_steps, dt, params, milstein, step, n_check,
               storage=None):
    """The batch engine behind ``simulate_batch`` and the reconstruction.

    Replicate i starts from column i of ``init`` and draws its increments
    from ``rngs[i]`` as ``draw_increments`` would. State is time-major,
    (5, n_steps + 1, n_rep). Steps run in blocks of ``_ELEMENT_BUDGET //
    n_rep`` (at least one) with no check inside. The ``_gains`` under
    ``params`` and ``milstein`` are formed once per block, over (block,
    n_rep). Step k calls ``prev = step(k, prev, g)``, g the step's rows of
    them and prev the five replicate rows of state k (``init`` at first),
    and stores the returned rows as state k + 1. Each block is then scanned
    once. A replicate whose first ``n_check`` coordinates left [0, 1] (NaN
    included) at step k gets the PositivityError of its first offending
    component at step k in failures, and after the run is frozen at its
    state before that step. Replicates never mix, so each row does the
    same float operations as it would alone. Returns ``(states,
    increments, failures)``, the arrays as replicate-major views of fresh
    storage, or of the front of ``storage`` (from ``_batch_storage``),
    which the run overwrites in full; those views are valid until that
    storage is used again.
    """
    n_rep = len(rngs)
    shapes = _batch_shapes(n_steps, n_rep)
    if storage is None:
        storage = _batch_storage(n_steps, n_rep)
    dw, x = (flat[:math.prod(shape)].reshape(shape)
             for flat, shape in zip(storage, shapes))
    for i, rng in enumerate(rngs):
        dw[:, i] = rng.standard_normal(n_steps)
    dw *= np.sqrt(dt)
    x[:, 0] = init
    failures = {}
    block = max(1, _ELEMENT_BUDGET // n_rep)
    prev = x[:, 0]
    # a failed row may overflow or turn NaN after its failing step
    with np.errstate(all="ignore"):
        for lo in range(0, n_steps, block):
            hi = min(lo + block, n_steps)
            gains = _gains(dw[lo:hi], dt, params, milstein)
            for k, g in enumerate(zip(*gains), lo):
                prev = step(k, prev, g)
                x[:, k + 1] = prev
            del gains, g  # free this block's factors before the next's
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


def _line_blocks(source):
    """The lines of ``source``, opened by ``_opened``, as ``str.splitlines``
    splits its text: lists of at most ``_ROWS_PER_BLOCK`` lines, each with
    the number of its first line. A named file is read about a block of
    path rows at a time. An open file is read whole, since only a read from
    its start names the line of a byte that does not decode; for the same
    reason a named file with such a byte is read again whole, and the
    ParseError names the byte's line."""
    with _opened(source, "r") as fh:
        named = fh is not source
        lineno, tail, text = 1, "", None
        while text != "":
            try:
                # a path row is about 130 characters
                text = (fh.read(_ROWS_PER_BLOCK * 128) if named
                        else _read_text(fh))
            except UnicodeDecodeError:  # in a named file: read it again
                _read_text(source)
                raise
            # a line feed always ends a line; what follows the last one may
            # go on in the next read
            buf = tail + text
            cut = buf.rfind("\n") + 1 if text else len(buf)
            lines, tail = buf[:cut].splitlines(), buf[cut:]
            for lo in range(0, len(lines), _ROWS_PER_BLOCK):
                yield lineno + lo, lines[lo:lo + _ROWS_PER_BLOCK]
            lineno += len(lines)


def _write_rows(target, header, columns) -> None:
    """Write ``header`` and one row per value of the first column; a column
    one value shorter leaves its field of the final row empty."""
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"
    with _opened(target, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _ROWS_PER_BLOCK):
            fh.writelines(row % r for r in zip(
                *(c[lo:lo + _ROWS_PER_BLOCK].tolist() for c in cols)))
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


def _raise_first_bad_line(lines: list, n_fields: int, first: int) -> None:
    """Raise ``ParseError`` naming the first malformed line of a block of a
    path CSV body, ``first`` the number of its first line, each line parsed
    as ``_parse_rows`` parses them all."""
    for lineno, line in enumerate(lines, start=first):
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


def _parse_rows(lines: list, n_fields: int, first: int):
    """The rows of a block of a path CSV body as an (n_fields, rows) array,
    and the numbers of its blank lines, which it skips; ``first`` is the
    number of its first line."""
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != n_fields:
            raise ValueError(f"expected {n_fields} fields")
    except ValueError as exc:
        _raise_first_bad_line(lines, n_fields, first)
        raise ParseError(str(exc)) from None
    blank = [] if len(data) == len(lines) else [
        i for i, line in enumerate(lines, first) if not line]
    return data.T, blank


def path_from_csv(source, require_simplex: bool = True) -> Path:
    """Read a path written by ``path_to_csv``; exact round trip.

    ``source`` is an open text file, or a str, bytes or os.PathLike file
    name, read as UTF-8 past a leading byte-order mark. Blank lines are
    skipped. A named file is read and parsed a block of
    ``_ROWS_PER_BLOCK`` lines at a time, so beyond the path's arrays it
    holds one block of lines; an open file is read whole, then parsed by
    blocks. A block that numpy cannot parse is read line by line to name
    its first bad line. A byte that is not UTF-8, a non-finite value, a
    second
    time not after the first, or a time off the grid that the first two
    times set, is a ParseError naming its line.
    """
    blocks = _line_blocks(source)
    _, lines = next(blocks, (1, []))
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if header[:6] != _PATH_HEADER or header[6:] not in ([], ["dW"]):
        raise ParseError(f"unexpected header {header!r}", line=1)
    n_fields = len(header)
    parsed = []
    # body lines not parsed yet, and the number of the first: a block is
    # parsed once a later block shows that it holds no final row
    body, first = lines[1:], 2
    for lineno, lines in blocks:
        if any(lines) and any(body):
            parsed.append(_parse_rows(body, n_fields, first))
            body, first = lines, lineno
        else:
            body += lines
    while body and not body[-1]:
        body.pop()
    if not body:
        raise ParseError("no data rows", line=2)
    if n_fields == 7 and body[-1].endswith(","):
        body[-1] += "nan"  # the final row closes no step, so has no dW
    parsed.append(_parse_rows(body, n_fields, first))
    blanks = [i for _, blank in parsed for i in blank]
    # rows of a C-ordered array, so Path keeps them without a copy
    data = np.empty((n_fields, sum(rows.shape[1] for rows, _ in parsed)))
    np.concatenate([rows for rows, _ in parsed], axis=1, out=data)
    del parsed  # free the blocks before the checks take their temporaries
    if data.shape[1] == 1:
        raise ParseError("cannot recover dt from a single grid point", line=2)
    t = data[0]
    t0, dt = float(t[0]), float(t[1] - t[0])
    finite = np.isfinite(data)
    finite[6:, -1] = True  # the final row's dW is dropped
    off_grid = np.abs(t - (t0 + dt * np.arange(len(t)))) > _GRID_TOL * abs(dt)
    off_grid[1] = not dt > 0  # the second time sets dt, which must be positive
    bad = np.flatnonzero(~finite.all(axis=0) | off_grid)
    if bad.size:
        k = int(bad[0])
        lineno = k + 2
        for blank in blanks:  # row k is on the (k + 1)-th line not blank
            if blank > lineno:
                break
            lineno += 1
        if not finite[:, k].all():
            j = int(np.argmin(finite[:, k]))
            raise ParseError(f"non-finite {header[j]} value "
                             f"{float(data[j, k])!r}", line=lineno)
        if k == 1:
            raise ParseError(f"time {float(t[1])!r} is not after the first "
                             f"time {t0!r}", line=lineno)
        raise ParseError(f"time {float(t[k])!r} is off the grid t0 + k*dt "
                         f"with t0 = {t0!r}, dt = {dt!r}", line=lineno)
    wiener = data[6, :-1] if n_fields == 7 else None
    return Path(t0, dt, data[1], data[2], data[3], data[4], data[5],
                wiener=wiener, require_simplex=require_simplex)
