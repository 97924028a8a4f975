"""Command-line surface binding the pipeline together.

Subcommands: simulate, reconstruct, estimate, validate, mc-study, mcmc, r0.
Runs are configured by a JSON file whose top level carries the model
parameter fields verbatim plus one block per subcommand; every stochastic
subcommand requires an explicit --seed so artifacts are bit-reproducible.
Each error class maps to its own exit code (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from pathlib import Path as FilePath

from . import bayes, diagnostics, errors, estimate, model, reconstruct, simulate

EXIT_CODES = {
    errors.ConfigError: 2,
    errors.ParseError: 3,
    errors.NegativeCountError: 4,
    errors.EmptySeriesError: 5,
    errors.LengthMismatchError: 7,
    errors.SimplexError: 8,
    errors.DomainError: 9,
    errors.PositivityError: 10,
    errors.ZeroSigmaError: 11,
    errors.DegenerateDenominatorError: 12,
    errors.SingularSystemError: 13,
    errors.MissingIncrementsError: 14,
    errors.TooFewPointsError: 15,
    errors.DegenerateSampleError: 16,
    errors.WindowViolatedError: 17,
    errors.ReplicateError: 18,
}

# grid step in days for the simulate and mc-study blocks that do not give one
_DEFAULT_DT = 1e-3

# the default of a key that a config object must give
_REQUIRED = object()

# an incidence count: ASCII digits, optionally after a minus sign
_COUNT = re.compile(r"-?[0-9]+")


def load_incidence(path, population_n: int) -> reconstruct.IncidenceSeries:
    """Read a date,count CSV into an incidence series.

    ``path`` is an open text file, or a str, bytes or os.PathLike file
    name, read as UTF-8 past a leading byte-order mark. A count is ASCII
    digits, optionally after a minus sign, with no other sign, separator or
    digit. A byte that is not UTF-8 or a count of another form is a
    ParseError naming its line, and a negative count a NegativeCountError.
    """
    dates, counts = [], []
    reader = csv.reader(io.StringIO(simulate._read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise errors.ParseError("empty file", line=1) from None
    if [h.strip() for h in header] != ["date", "count"]:
        raise errors.ParseError(f"expected header date,count, got "
                                f"{header!r}", line=1)
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num  # a quoted field may span lines
        if len(row) != 2:
            raise errors.ParseError("expected two fields", line=lineno)
        raw = row[1].strip()
        if not _COUNT.fullmatch(raw):
            raise errors.ParseError(f"count {raw!r} is not an integer",
                                    line=lineno)
        count = int(raw)
        if count < 0:
            raise errors.NegativeCountError(
                f"line {lineno}: negative count {count}")
        dates.append(row[0].strip())
        counts.append(count)
    if not counts:
        raise errors.ParseError("no records")
    return reconstruct.IncidenceSeries(tuple(dates), tuple(counts),
                                       population_n)


def _converted(convert, value, what: str):
    """``convert(value)`` for a config value; a value it cannot convert,
    such as a JSON null or list where a number belongs, is a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ConfigError(f"bad {what} value {value!r}: {exc}") \
            from None


def _real(value) -> float:
    """A finite JSON number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def _integer(value) -> int:
    """A JSON number with an integral value; booleans are not integers."""
    if not _real(value).is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _of_type(kind: type, what: str):
    """A converter that passes a value of type ``kind`` and rejects others."""
    def check(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected {what}")
        return value
    return check


_flag = _of_type(bool, "true or false")
_file_name = _of_type(str, "a file name string")
_name = _of_type(str, "a name string")


def _floats(values) -> tuple:
    """A JSON list of finite numbers."""
    if not isinstance(values, list):
        raise ValueError("expected a JSON list of numbers")
    return tuple(_real(v) for v in values)


def _read(obj, table: dict, what: str, prefix: str = "",
          strict: bool = True) -> dict:
    """The value of each key of ``table`` in the config object ``obj``.

    ``table`` maps each key to ``(convert, default)``; a key whose default
    is ``_REQUIRED`` must be given. Each of these is a ConfigError: ``obj``
    not a JSON object, a key outside the table (unless ``strict`` is
    false), a missing required key, and a value that ``convert`` rejects.
    ``what`` names the object in the message, and ``prefix`` + key a value.
    """
    if not isinstance(obj, dict):
        raise errors.ConfigError(f"bad {what} value {obj!r}: expected a "
                                 f"JSON object")
    unknown = sorted(set(obj) - set(table)) if strict else []
    if unknown:
        raise errors.ConfigError(f"unknown {what} keys: {unknown}")
    missing = [key for key, (_, default) in table.items()
               if default is _REQUIRED and key not in obj]
    if missing:
        raise errors.ConfigError(f"{what} needs {missing}")
    return {key: default if key not in obj
            else _converted(convert, obj[key], prefix + key)
            for key, (convert, default) in table.items()}


_PARAMS = {f.name: (_real, _REQUIRED)
           for f in dataclasses.fields(model.ModelParams)}
_INIT = {name: (_real, _REQUIRED) for name in ("s", "e", "i_a", "i_s", "r")}
_PRIORS = {f.name: (_real, f.default)
           for f in dataclasses.fields(bayes.PriorSpec)}


def _state(value) -> model.StateVec:
    """An ``init`` object: the five fractions of a state."""
    return model.StateVec(**_read(value, _INIT, "init", "init "))


def _priors(value) -> bayes.PriorSpec:
    """A ``priors`` object: any of the ``PriorSpec`` fields."""
    return bayes.PriorSpec(**_read(value, _PRIORS, "priors", "prior "))


# the key table of each subcommand block; estimate and mcmc have two forms
_SIMULATE = {
    "n_steps": (_integer, _REQUIRED), "dt": (_real, _DEFAULT_DT),
    "init": (_state, model.BASELINE_INIT),
    "scheme": (_name, simulate.SCHEME_EULER),
    "output": (_file_name, "path.csv")}
_SERIES = {"incidence": (_file_name, _REQUIRED),
           "population_n": (_integer, _REQUIRED)}
# the keys of a block that reconstructs from an incidence series, n_rep
# aside; the records of a series are daily counts, so one day apart
_RECONSTRUCTION = {
    **_SERIES, "init_e": (_real, model.BASELINE_INIT.e),
    "init_ia": (_real, model.BASELINE_INIT.i_a),
    "init_r": (_real, model.BASELINE_INIT.r), "dt": (_real, 1.0),
    "resample_initials": (_flag, False)}
_RECONSTRUCT = {**_RECONSTRUCTION, "n_rep": (_integer, 1)}
_ESTIMATE = {"known_sigma": (_real, None),
             "output": (_file_name, "estimate.json")}
_ESTIMATE_ON_PATH = {**_ESTIMATE, "path_csv": (_file_name, _REQUIRED)}
_ESTIMATE_REPLICATED = {**_ESTIMATE, **_RECONSTRUCTION,
                        "n_rep": (_integer, 2)}
_VALIDATE = {"path_csv": (_file_name, _REQUIRED), "method": (_name, "em"),
             "alpha": (_real, 0.01)}
_MC_STUDY = {
    "horizons": (_floats, _REQUIRED), "n_rep": (_integer, 200),
    "dt": (_real, _DEFAULT_DT), "init": (_state, model.BASELINE_INIT),
    "known_sigma": (_real, None), "output": (_file_name, "consistency.csv")}
_MCMC = {
    "iterations": (_integer, _REQUIRED), "burn_in": (_integer, 0),
    "proposal_sd": (_floats, (0.02, 0.01)),
    "priors": (_priors, bayes.PriorSpec()),
    "init": (_state, model.BASELINE_INIT),
    "output": (_file_name, "samples.csv")}
_MCMC_ON_SERIES = {**_MCMC, **_SERIES}


def _load_config(path) -> tuple:
    """The config object of the file and the model parameters at its top
    level, which may hold other keys: the blocks of the subcommands."""
    if path is None:
        raise errors.ConfigError("this subcommand needs --config")
    try:
        cfg = json.loads(simulate._read_text(path))
    except FileNotFoundError:
        raise errors.ConfigError(f"config file {path!r} not found") from None
    except (json.JSONDecodeError, errors.ParseError) as exc:
        raise errors.ConfigError(f"config is not valid JSON: {exc}") from None
    params = _read(cfg, _PARAMS, "config", strict=False)
    return cfg, model.ModelParams(**params)


def _block(cfg: dict, name: str, table: dict) -> dict:
    """The values of the config's ``name`` block, read by ``table``."""
    if name not in cfg:
        raise errors.ConfigError(f"config has no {name!r} block")
    return _read(cfg[name], table, f"{name!r} block")


def _has(cfg: dict, name: str, key: str) -> bool:
    """Does the config's ``name`` block hold ``key``? The answer picks the
    form of a block that has two."""
    block = cfg.get(name)
    return isinstance(block, dict) and key in block


def _need_seed(args):
    if args.seed is None:
        raise errors.ConfigError(
            f"--seed is required for the {args.command} subcommand")
    return args.seed


def _write_json(target, obj) -> None:
    with simulate._opened(target, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _outdir(args) -> FilePath:
    out = FilePath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_r0(args):
    _, params = _load_config(args.config)
    value = model.r0(params, convention=args.r0_convention)
    print(f"{value:#.6g}")
    return 0


def _cmd_simulate(args):
    cfg, params = _load_config(args.config)
    block = _block(cfg, "simulate", _SIMULATE)
    sim_cfg = simulate.SimConfig(
        params=params, init=block["init"], dt=block["dt"],
        n_steps=block["n_steps"], scheme=block["scheme"],
        seed=_need_seed(args))
    path = simulate.simulate_path(sim_cfg)
    target = _outdir(args) / block["output"]
    simulate.path_to_csv(path, target)
    print(f"wrote {target}")
    return 0


def _replicated(args, params, block: dict):
    """The observed fractions and the reconstruction settings of a block
    read by a table that holds ``_RECONSTRUCTION``."""
    rec_cfg = reconstruct.ReconstructConfig(
        params=params, init_e=block["init_e"], init_ia=block["init_ia"],
        init_r=block["init_r"], dt=block["dt"], seed=_need_seed(args),
        resample_initials=block["resample_initials"],
        population_n=block["population_n"])
    series = load_incidence(block["incidence"], block["population_n"])
    return reconstruct.normalize(series), rec_cfg


def _cmd_reconstruct(args):
    cfg, params = _load_config(args.config)
    block = _block(cfg, "reconstruct", _RECONSTRUCT)
    obs, rec_cfg = _replicated(args, params, block)
    n_rep = block["n_rep"]
    paths = reconstruct.replicate_reconstructions(obs, rec_cfg, n_rep)
    out = _outdir(args)
    files = []
    for i, p in enumerate(paths):
        name = f"reconstruction_{i:04d}.csv"
        simulate.path_to_csv(p, out / name)
        files.append(name)
    manifest = {"n_rep": n_rep, "seed": rec_cfg.seed,
                "rng_algorithm": simulate.RNG_ALGORITHM, "files": files}
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {n_rep} reconstruction(s) and manifest to {out}")
    return 0


def _cmd_estimate(args):
    cfg, params = _load_config(args.config)
    if _has(cfg, "estimate", "path_csv"):
        block = _block(cfg, "estimate", _ESTIMATE_ON_PATH)
        path = simulate.path_from_csv(block["path_csv"],
                                      require_simplex=False)
        report = estimate.estimate_path(path, params,
                                        sigma=block["known_sigma"])
    else:
        block = _block(cfg, "estimate", _ESTIMATE_REPLICATED)
        obs, rec_cfg = _replicated(args, params, block)
        report = estimate.replicate_estimates(obs, rec_cfg, block["n_rep"],
                                              sigma=block["known_sigma"])
    target = _outdir(args) / block["output"]
    _write_json(target, report.to_json_dict())
    print(f"wrote {target}")
    return 0


def _cmd_validate(args):
    cfg, params = _load_config(args.config)
    block = _block(cfg, "validate", _VALIDATE)
    path = simulate.path_from_csv(block["path_csv"], require_simplex=False)
    res = diagnostics.residual_increments(path, params,
                                          method=block["method"])
    verdict = diagnostics.normality_test(res.standardized,
                                         alpha=block["alpha"])
    out = _outdir(args)
    simulate._write_rows(out / "residuals.csv", ["t", "raw", "standardized"],
                         [path.times[1:], res.raw, res.standardized])
    diagnostics.qq_to_csv(diagnostics.qq_points(res.standardized),
                          out / "qq.csv")
    _write_json(out / "normality.json", verdict.to_json_dict())
    print(f"wrote residuals.csv, qq.csv, normality.json to {out}; "
          f"normality pass = {verdict.passed}")
    return 0


def _cmd_mc_study(args):
    cfg, params = _load_config(args.config)
    block = _block(cfg, "mc_study", _MC_STUDY)
    rows = diagnostics.consistency_study(
        params, block["init"], block["horizons"], n_rep=block["n_rep"],
        dt=block["dt"], seed=_need_seed(args), sigma=block["known_sigma"])
    target = _outdir(args) / block["output"]
    diagnostics.consistency_to_csv(rows, target)
    print(f"wrote {target}")
    return 0


def _cmd_mcmc(args):
    cfg, params = _load_config(args.config)
    on_series = _has(cfg, "mcmc", "incidence")
    block = _block(cfg, "mcmc", _MCMC_ON_SERIES if on_series else _MCMC)
    series = (load_incidence(block["incidence"], block["population_n"])
              if on_series else None)
    mcfg = bayes.McmcConfig(
        iterations=block["iterations"], burn_in=block["burn_in"],
        proposal_sd=block["proposal_sd"], seed=_need_seed(args))
    result = bayes.metropolis(series, block["priors"], params, block["init"],
                              mcfg)
    target = _outdir(args) / block["output"]
    bayes.samples_to_csv(result, target)
    print(f"wrote {target}; acceptance rate = {result.acceptance_rate:.3f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "reconstruct": _cmd_reconstruct,
    "estimate": _cmd_estimate,
    "validate": _cmd_validate,
    "mc-study": _cmd_mc_study,
    "mcmc": _cmd_mcmc,
    "r0": _cmd_r0,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seirsde",
        description="Stochastic SEIR simulation and inference pipeline")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="pipeline stage to run")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed; mandatory for stochastic commands")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--r0-convention", choices=("paper", "consistent"),
                        default="paper",
                        help="pairing of the branch proportions in R0")
    return parser


def run(args) -> int:
    """Dispatch one parsed invocation; returns the process exit status."""
    try:
        return _COMMANDS[args.command](args)
    except errors.SeirSdeError as exc:
        code = next((c for cls, c in EXIT_CODES.items()
                     if isinstance(exc, cls)), 1)
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:
        # bad values rejected by the domain types, unreadable files
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_CODES[errors.ConfigError]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
