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
import json
import sys
from pathlib import Path as FilePath

from . import bayes, diagnostics, errors, estimate, model, reconstruct, simulate

EXIT_CODES = {
    errors.ConfigError: 2,
    errors.ParseError: 3,
    errors.NegativeCountError: 4,
    errors.EmptySeriesError: 5,
    errors.EmptyInputError: 6,
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

_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(model.ModelParams))

# grid step in days for the simulate, reconstruct, estimate and mc-study
# blocks that do not give one
_DEFAULT_DT = 1e-3


def load_incidence(path, population_n: int) -> reconstruct.IncidenceSeries:
    """Read a date,count CSV into an incidence series."""
    dates, counts = [], []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise errors.ParseError("empty file", line=1) from None
        if [h.strip() for h in header] != ["date", "count"]:
            raise errors.ParseError(f"expected header date,count, got "
                                    f"{header!r}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise errors.ParseError("expected two fields", line=lineno)
            raw = row[1].strip()
            try:
                count = int(raw)
            except ValueError:
                raise errors.ParseError(f"count {raw!r} is not an integer",
                                        line=lineno) from None
            if count < 0:
                raise errors.NegativeCountError(
                    f"line {lineno}: negative count {count}")
            dates.append(row[0].strip())
            counts.append(count)
    if not counts:
        raise errors.ParseError("no records")
    return reconstruct.IncidenceSeries(tuple(dates), tuple(counts),
                                       population_n)


def _load_config(path) -> dict:
    if path is None:
        raise errors.ConfigError("this subcommand needs --config")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise errors.ConfigError(f"config file {path!r} not found") from None
    except json.JSONDecodeError as exc:
        raise errors.ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise errors.ConfigError("config must be a JSON object")
    return cfg


def _converted(convert, value, what: str):
    """``convert(value)`` for a config value; a value it cannot convert,
    such as a JSON null or list where a number belongs, is a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise errors.ConfigError(f"bad {what} value {value!r}: {exc}") \
            from None


def _integer(value) -> int:
    """A JSON number with an integral value; booleans are not integers."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
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
_object = _of_type(dict, "a JSON object")


def _params_from_config(cfg: dict) -> model.ModelParams:
    missing = [f for f in _PARAM_FIELDS if f not in cfg]
    if missing:
        raise errors.ConfigError(f"missing parameter fields: {missing}")
    values = {f: _converted(float, cfg[f], f) for f in _PARAM_FIELDS}
    try:
        return model.ModelParams(**values)
    except ValueError as exc:
        raise errors.ConfigError(f"bad parameter value: {exc}") from None


def _state_from_config(block, default: model.StateVec) -> model.StateVec:
    if block is None:
        return default
    if not isinstance(block, dict):
        raise errors.ConfigError("init block must be a JSON object")
    try:
        return model.StateVec(**{f: _converted(float, block[f], f"init {f}")
                                 for f in ("s", "e", "i_a", "i_s", "r")})
    except KeyError as exc:
        raise errors.ConfigError(f"init block missing {exc}") from None


def _reject_unknown(block: dict, known, what: str) -> None:
    """A ConfigError naming the keys of ``block`` outside ``known``."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise errors.ConfigError(f"unknown {what} keys: {unknown}")


def _block(cfg: dict, name: str, known) -> dict:
    block = cfg.get(name)
    if block is None:
        raise errors.ConfigError(f"config has no {name!r} block")
    if not isinstance(block, dict):
        raise errors.ConfigError(f"{name!r} block must be a JSON object")
    _reject_unknown(block, known, f"{name!r} block")
    return block


def _value(block: dict, key: str, convert, default=None):
    """``convert`` of the block's ``key``, or ``default`` when it has none."""
    if key not in block:
        return default
    return _converted(convert, block[key], key)


def _required(block: dict, name: str, key: str, convert):
    """``convert`` of the ``name`` block's ``key``, which it must have."""
    if key not in block:
        raise errors.ConfigError(f"{name!r} block needs {key!r}")
    return _converted(convert, block[key], key)


def _need_seed(args):
    if args.seed is None:
        raise errors.ConfigError(
            f"--seed is required for the {args.command} subcommand")
    return args.seed


def _write_json(target, obj) -> None:
    with open(target, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _outdir(args) -> FilePath:
    out = FilePath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _target(args, block: dict, default: str) -> FilePath:
    """The block's ``output`` file, by default ``default``, in --out."""
    return _outdir(args) / _value(block, "output", _file_name, default)


def _cmd_r0(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    value = model.r0(params, convention=args.r0_convention)
    print(f"{value:#.6g}")
    return 0


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    block = _block(cfg, "simulate",
                   {"n_steps", "dt", "init", "scheme", "output"})
    init = _state_from_config(block.get("init"), model.BASELINE_INIT)
    sim_cfg = simulate.SimConfig(
        params=params, init=init,
        dt=_value(block, "dt", float, _DEFAULT_DT),
        n_steps=_required(block, "simulate", "n_steps", _integer),
        scheme=block.get("scheme", simulate.SCHEME_EULER),
        seed=_need_seed(args))
    path = simulate.simulate_path(sim_cfg)
    target = _target(args, block, "path.csv")
    simulate.path_to_csv(path, str(target))
    print(f"wrote {target}")
    return 0


# the keys of a block that reconstructs from an incidence series
_RECONSTRUCT_KEYS = {"incidence", "population_n", "n_rep", "init_e",
                     "init_ia", "init_r", "dt", "resample_initials"}


def _reconstruct_config(cfg, block, seed, pedantic) -> reconstruct.ReconstructConfig:
    params = _params_from_config(cfg)
    return reconstruct.ReconstructConfig(
        params=params,
        init_e=_value(block, "init_e", float, model.BASELINE_INIT.e),
        init_ia=_value(block, "init_ia", float, model.BASELINE_INIT.i_a),
        init_r=_value(block, "init_r", float, model.BASELINE_INIT.r),
        dt=_value(block, "dt", float, _DEFAULT_DT),
        seed=seed,
        pedantic_paper=pedantic,
        resample_initials=_value(block, "resample_initials", _flag, False),
        population_n=_value(block, "population_n", _integer))


def _incidence(block: dict, name: str) -> reconstruct.IncidenceSeries:
    """The series of the block's ``incidence`` file and ``population_n``."""
    return load_incidence(_required(block, name, "incidence", _file_name),
                          _required(block, name, "population_n", _integer))


def _cmd_reconstruct(args):
    cfg = _load_config(args.config)
    block = _block(cfg, "reconstruct", _RECONSTRUCT_KEYS)
    seed = _need_seed(args)
    rec_cfg = _reconstruct_config(cfg, block, seed, args.pedantic_paper)
    obs = reconstruct.normalize(_incidence(block, "reconstruct"))
    n_rep = _value(block, "n_rep", _integer, 1)
    paths = reconstruct.replicate_reconstructions(obs, rec_cfg, n_rep)
    out = _outdir(args)
    files = []
    for i, p in enumerate(paths):
        name = f"reconstruction_{i:04d}.csv"
        simulate.path_to_csv(p, str(out / name))
        files.append(name)
    manifest = {"n_rep": n_rep, "seed": seed,
                "rng_algorithm": simulate.RNG_ALGORITHM,
                "pedantic_paper": args.pedantic_paper, "files": files}
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {n_rep} reconstruction(s) and manifest to {out}")
    return 0


def _cmd_estimate(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    block = _block(cfg, "estimate", {"path_csv", "restrict_to_window",
                                     "known_sigma", "output",
                                     *_RECONSTRUCT_KEYS})
    sigma = _value(block, "known_sigma", float)
    restrict = _value(block, "restrict_to_window", _flag, False)
    if "path_csv" in block:
        path = simulate.path_from_csv(_value(block, "path_csv", _file_name),
                                      require_simplex=False)
        report = estimate.estimate_path(path, params, sigma=sigma,
                                        restrict_to_window=restrict)
    else:
        seed = _need_seed(args)
        rec_cfg = _reconstruct_config(cfg, block, seed, args.pedantic_paper)
        obs = reconstruct.normalize(_incidence(block, "estimate"))
        n_rep = _value(block, "n_rep", _integer, 2)
        report = estimate.replicate_estimates(obs, rec_cfg, n_rep,
                                              sigma=sigma)
    target = _target(args, block, "estimate.json")
    _write_json(target, report.to_json_dict())
    print(f"wrote {target}")
    return 0


def _cmd_validate(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    block = _block(cfg, "validate", {"path_csv", "method", "alpha"})
    path = simulate.path_from_csv(
        _required(block, "validate", "path_csv", _file_name),
        require_simplex=False)
    res = diagnostics.residual_increments(path, params,
                                          method=block.get("method", "em"))
    alpha = _value(block, "alpha", float, 0.01)
    verdict = diagnostics.normality_test(res.standardized, alpha=alpha)
    out = _outdir(args)
    simulate._write_rows(str(out / "residuals.csv"),
                         ["t", "raw", "standardized"],
                         [path.times[1:], res.raw, res.standardized])
    diagnostics.qq_to_csv(diagnostics.qq_points(res.standardized),
                          str(out / "qq.csv"))
    _write_json(out / "normality.json", verdict.to_json_dict())
    print(f"wrote residuals.csv, qq.csv, normality.json to {out}; "
          f"normality pass = {verdict.passed}")
    return 0


def _cmd_mc_study(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    block = _block(cfg, "mc_study", {"horizons", "n_rep", "dt", "init",
                                     "known_sigma", "output"})
    init = _state_from_config(block.get("init"), model.BASELINE_INIT)
    rows = diagnostics.consistency_study(
        params, init,
        _required(block, "mc_study", "horizons",
                  lambda hs: [float(t) for t in hs]),
        n_rep=_value(block, "n_rep", _integer, 200),
        dt=_value(block, "dt", float, _DEFAULT_DT),
        seed=_need_seed(args),
        sigma=_value(block, "known_sigma", float))
    target = _target(args, block, "consistency.csv")
    diagnostics.consistency_to_csv(rows, str(target))
    print(f"wrote {target}")
    return 0


def _cmd_mcmc(args):
    cfg = _load_config(args.config)
    params = _params_from_config(cfg)
    block = _block(cfg, "mcmc", {"iterations", "burn_in", "proposal_sd",
                                 "ode_dt", "incidence", "population_n",
                                 "priors", "init", "output"})
    series = _incidence(block, "mcmc") if "incidence" in block else None
    priors_block = _value(block, "priors", _object, {})
    _reject_unknown(priors_block,
                    [f.name for f in dataclasses.fields(bayes.PriorSpec)],
                    "prior")
    priors = bayes.PriorSpec(**{k: _converted(float, v, f"prior {k}")
                                for k, v in priors_block.items()})
    init = _state_from_config(block.get("init"), model.BASELINE_INIT)
    mcfg = bayes.McmcConfig(
        iterations=_required(block, "mcmc", "iterations", _integer),
        burn_in=_value(block, "burn_in", _integer, 0),
        proposal_sd=_value(block, "proposal_sd",
                           lambda sds: tuple(float(v) for v in sds),
                           (0.02, 0.01)),
        seed=_need_seed(args),
        ode_dt=_value(block, "ode_dt", float, bayes.McmcConfig.ode_dt))
    result = bayes.metropolis(series, priors, params, init, mcfg)
    target = _target(args, block, "samples.csv")
    bayes.samples_to_csv(result, str(target))
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
    parser.add_argument("--pedantic-paper", action="store_true",
                        help="reproduce the published reconstruction "
                             "recurrence verbatim, typos included")
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
