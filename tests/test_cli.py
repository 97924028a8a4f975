import json
import os
import re
import subprocess
import sys
from pathlib import Path as FilePath

import numpy as np
import pytest

import seirsde
from seirsde import BASELINE_PARAMS, SimConfig, path_to_csv, simulate_path
from seirsde import cli
from seirsde.cli import EXIT_CODES, load_incidence, main
from seirsde.errors import (ConfigError, DomainError, NegativeCountError,
                            ParseError)

from conftest import INTERIOR_INIT

PARAM_FIELDS = {
    "mu": BASELINE_PARAMS.mu, "beta_s": BASELINE_PARAMS.beta_s,
    "beta_a": BASELINE_PARAMS.beta_a, "kappa": BASELINE_PARAMS.kappa,
    "p": BASELINE_PARAMS.p, "theta": BASELINE_PARAMS.theta,
    "alpha_a": BASELINE_PARAMS.alpha_a, "alpha_s": BASELINE_PARAMS.alpha_s,
    "gamma": BASELINE_PARAMS.gamma, "sigma": BASELINE_PARAMS.sigma,
}

INTERIOR_BLOCK = {"s": 0.86, "e": 0.04, "i_a": 0.027, "i_s": 0.02,
                  "r": 0.053}


def write_config(tmp_path, name="config.json", **blocks):
    cfg = dict(PARAM_FIELDS)
    cfg.update(blocks)
    target = tmp_path / name
    target.write_text(json.dumps(cfg))
    return str(target)


class TestLoadIncidence:
    def test_reads_counts(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,count\n2020-03-10,74\n2020-03-11,80\n")
        series = load_incidence(str(f), 26_446_435)
        assert series.counts == (74, 80)
        assert series.dates[0] == "2020-03-10"

    @pytest.mark.parametrize("name", [str, FilePath], ids=["str", "pathlib"])
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        text = b"date,count\r\n2020-03-10,74\r\n2020-03-11,80\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        series = load_incidence(name(plain), 1000)
        assert series.counts == (74, 80)
        assert load_incidence(name(marked), 1000) == series

    def test_empty_data_section(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,count\n")
        with pytest.raises(ParseError) as err:
            load_incidence(str(f), 100)
        assert "no records" in str(err.value)

    def test_non_integer_count_names_line(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,count\n2020-03-10,74\n2020-03-11,80.5\n")
        with pytest.raises(ParseError) as err:
            load_incidence(str(f), 100)
        assert err.value.line == 3

    def test_negative_count(self, tmp_path):
        f = tmp_path / "cases.csv"
        f.write_text("date,count\n2020-03-10,-4\n")
        with pytest.raises(NegativeCountError):
            load_incidence(str(f), 100)


class TestR0Command:
    def test_prints_six_significant_digits(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["r0", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == "1.63210"

    def test_consistent_convention(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["r0", "--config", cfg, "--r0-convention",
                     "consistent"]) == 0
        assert capsys.readouterr().out.strip() == "2.04598"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        cfg = FilePath(write_config(tmp_path))
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["r0", "--config", str(cfg)]) == 0
        plain = capsys.readouterr()
        assert main(["r0", "--config", str(marked)]) == 0
        assert capsys.readouterr() == plain


class TestSimulateCommand:
    def test_writes_path_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"n_steps": 20, "dt": 1e-3,
                                               "init": INTERIOR_BLOCK})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "7",
                     "--out", str(out)]) == 0
        text = (out / "path.csv").read_text()
        assert text.splitlines()[0] == "t,S,E,Ia,Is,R,dW"
        assert len(text.splitlines()) == 22

    def test_requires_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"n_steps": 5})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]

    def test_artifacts_bit_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"n_steps": 30,
                                               "init": INTERIOR_BLOCK})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out_a)])
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out_b)])
        assert (out_a / "path.csv").read_bytes() == \
            (out_b / "path.csv").read_bytes()


class TestPipelineRoundTrip:
    def test_simulate_then_estimate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"n_steps": 200,
                                               "init": INTERIOR_BLOCK})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        cfg2 = write_config(tmp_path, name="est.json",
                            estimate={"path_csv": str(out / "path.csv")})
        assert main(["estimate", "--config", cfg2, "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert sorted(payload) == ["beta_a", "beta_s", "ci",
                                   "condition_number", "j_functionals", "p",
                                   "sigma", "window"]
        assert payload["sigma"] == pytest.approx(0.01, rel=0.5)

    def test_estimate_on_zero_symptomatic_row(self, tmp_path, capsys):
        # a path containing a zero I_s entry maps to the DomainError exit
        # code and the diagnostic names the offending row
        path = simulate_path(SimConfig(params=BASELINE_PARAMS,
                                       init=INTERIOR_INIT, dt=1e-3,
                                       n_steps=10, seed=1))
        rows = np.column_stack([path.s, path.e, path.i_a,
                                path.i_s.copy(), path.r])
        rows[4, 3] = 0.0
        from seirsde import Path
        broken = Path(0.0, 1e-3, rows[:, 0], rows[:, 1], rows[:, 2],
                      rows[:, 3], rows[:, 4], require_simplex=False)
        target = tmp_path / "broken.csv"
        path_to_csv(broken, str(target))
        cfg = write_config(tmp_path, estimate={"path_csv": str(target)})
        code = main(["estimate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[DomainError]
        assert "row 4" in capsys.readouterr().err


class TestReconstructCommand:
    def test_writes_replicates_and_manifest(self, tmp_path):
        series = tmp_path / "cases.csv"
        rows = ["date,count"] + [f"2020-03-{10 + k},{70 + 3 * k}"
                                 for k in range(10)]
        series.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 26_446_435,
            "n_rep": 3, "dt": 1e-3})
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--seed", "11",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"n_rep", "seed", "rng_algorithm", "files"}
        assert manifest["n_rep"] == 3
        assert len(manifest["files"]) == 3
        for name in manifest["files"]:
            assert (out / name).exists()

    def test_daily_counts_step_one_day_by_default(self, tmp_path):
        # an incidence file holds daily counts, so without a dt its records
        # sit one day apart, as the mcmc block reads them
        series = tmp_path / "cases.csv"
        rows = ["date,count"] + [f"2020-03-{10 + k},{70 + 3 * k}"
                                 for k in range(10)]
        series.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 26_446_435,
            "n_rep": 3})
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--seed", "11",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["files"]:
            lines = (out / name).read_text().splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == \
                [str(k) for k in range(10)]


class TestValidateCommand:
    def test_emits_residuals_qq_and_verdict(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"n_steps": 100,
                                               "init": INTERIOR_BLOCK})
        out = tmp_path / "v"
        main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out)])
        cfg2 = write_config(tmp_path, name="val.json",
                            validate={"path_csv": str(out / "path.csv"),
                                      "alpha": 0.01})
        assert main(["validate", "--config", cfg2, "--out", str(out)]) == 0
        assert (out / "residuals.csv").read_text().splitlines()[0] == \
            "t,raw,standardized"
        assert (out / "qq.csv").read_text().splitlines()[0] == \
            "theoretical,empirical"
        verdict = json.loads((out / "normality.json").read_text())
        assert set(verdict) == {"statistic", "threshold", "pass", "test_name"}
        assert verdict["pass"] is True


class TestMcStudyCommand:
    def test_writes_consistency_table(self, tmp_path):
        cfg = write_config(tmp_path, mc_study={
            "horizons": [0.02, 0.04], "n_rep": 20, "dt": 1e-3,
            "init": INTERIOR_BLOCK})
        out = tmp_path / "mc"
        assert main(["mc-study", "--config", cfg, "--seed", "4",
                     "--out", str(out)]) == 0
        lines = (out / "consistency.csv").read_text().splitlines()
        assert lines[0] == ("T,abs_err_beta_s,abs_err_beta_a,abs_err_p,"
                            "window_violation_rate")
        assert len(lines) == 3


class TestMcmcCommand:
    def test_writes_samples(self, tmp_path):
        cfg = write_config(tmp_path, mcmc={"iterations": 200, "burn_in": 50,
                                           "proposal_sd": [0.05, 0.02]})
        out = tmp_path / "chain"
        assert main(["mcmc", "--config", cfg, "--seed", "8",
                     "--out", str(out)]) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "iter,p,kappa,loglik"
        assert len(lines) == 151


class TestMcStudyDeterminism:
    def test_consistency_artifact_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, mc_study={
            "horizons": [0.02], "n_rep": 10, "dt": 1e-3,
            "init": INTERIOR_BLOCK})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["mc-study", "--config", cfg, "--seed", "4", "--out", str(out_a)])
        main(["mc-study", "--config", cfg, "--seed", "4", "--out", str(out_b)])
        assert (out_a / "consistency.csv").read_bytes() == \
            (out_b / "consistency.csv").read_bytes()


class TestReplicatedEstimateCommand:
    def test_estimate_from_incidence(self, tmp_path):
        series = tmp_path / "cases.csv"
        rows = ["date,count"] + [f"d{k},{500000 + 2000 * k}"
                                 for k in range(40)]
        series.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, estimate={
            "incidence": str(series), "population_n": 26_446_435,
            "n_rep": 4, "dt": 1e-3,
            "init_e": 0.04, "init_ia": 0.027, "init_r": 0.053})
        out = tmp_path / "est"
        assert main(["estimate", "--config", cfg, "--seed", "9",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["ci"] is not None
        assert payload["ci"]["sigma"]["lo"] <= payload["ci"]["sigma"]["hi"]


class TestErrorMapping:
    def test_bad_incidence_maps_to_parse_exit(self, tmp_path, capsys):
        series = tmp_path / "cases.csv"
        series.write_text("date,count\nx,notanumber\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 1000})
        code = main(["reconstruct", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ParseError]

    @pytest.mark.parametrize("text,line", [
        ("", 1), ("day,count\na,1\n", 1), ("date,count\na,1,2\n", 2),
        ("date,count\na,1\n\nb,x\n", 4), ("date,count\na,1\nb,1_0\n", 3),
        ("date,count\na,+12\n", 2), ("date,count\na,1\nb,\u0663\n", 3),
        (b"date,count\na,1\nb,\xe91\n", 3)],
        ids=["empty", "bad-header", "three-fields", "after-blank",
             "underscore", "plus-sign", "arabic-indic-digit", "not-utf-8"])
    def test_malformed_incidence_names_its_line(self, tmp_path, capsys, text,
                                                line):
        series = tmp_path / "cases.csv"
        series.write_bytes(text if isinstance(text, bytes) else text.encode())
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 1000})
        code = main(["reconstruct", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ParseError]
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("config,said", [
        (None, "needs --config"), ("absent.json", "not found"),
        (b"{", "not valid JSON"), (b'{\n"mu": "\xe9"}', "line 2: byte 0xe9")],
        ids=["no-config", "missing-file", "invalid-json", "not-utf-8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys,
                                                 config, said):
        argv = ["simulate", "--seed", "1", "--out", str(tmp_path)]
        if isinstance(config, bytes):  # the content of the config file
            (tmp_path / "bad.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "bad.json")]
        elif config is not None:
            argv += ["--config", str(tmp_path / config)]
        assert main(argv) == EXIT_CODES[ConfigError]
        assert said in capsys.readouterr().err

    def test_unknown_residual_method_is_a_config_error(self, tmp_path,
                                                       capsys):
        path_to_csv(simulate_path(SimConfig(BASELINE_PARAMS, INTERIOR_INIT,
                                            1e-3, 50)),
                    str(tmp_path / "path.csv"))
        cfg = write_config(tmp_path, validate={
            "path_csv": str(tmp_path / "path.csv"), "method": "midpoint"})
        code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "unknown residual method 'midpoint'" in capsys.readouterr().err

    def test_missing_config_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["simulate", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]

    def test_population_below_counts_is_a_config_error(self, tmp_path):
        series = tmp_path / "cases.csv"
        series.write_text("date,count\na,500\nb,600\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 100})
        code = main(["reconstruct", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]

    def test_zero_population_is_a_config_error(self, tmp_path, capsys):
        series = tmp_path / "cases.csv"
        series.write_text("date,count\na,0\nb,0\nc,0\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 0})
        code = main(["reconstruct", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "population_n must be at least 1" in capsys.readouterr().err

    def test_population_too_small_for_resampled_pools_is_a_config_error(
            self, tmp_path, capsys):
        # E(0) and I_a(0) up to 2100 persons each cannot fit in 1,000
        series = tmp_path / "cases.csv"
        series.write_text("date,count\na,1\nb,2\nc,3\n")
        cfg = write_config(tmp_path, reconstruct={
            "incidence": str(series), "population_n": 1000,
            "resample_initials": True})
        code = main(["reconstruct", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "population_n = 1000 is too small" in capsys.readouterr().err

    def test_p_prior_beyond_one_is_a_config_error(self, tmp_path, capsys,
                                                   monkeypatch):
        def run_nothing(*args, **kwargs):
            raise AssertionError("ran the chain before checking the prior")

        monkeypatch.setattr("seirsde.bayes.metropolis", run_nothing)
        cfg = write_config(tmp_path, mcmc={
            "iterations": 2000, "proposal_sd": [0.2, 0.01],
            "priors": {"p_lo": 0.5, "p_hi": 1.5}})
        code = main(["mcmc", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "p_hi <= 1" in capsys.readouterr().err

    def test_negative_known_sigma_on_replicates_is_a_config_error(
            self, tmp_path, capsys, monkeypatch):
        def reconstruct_nothing(*args, **kwargs):
            raise AssertionError("reconstructed before checking sigma")

        monkeypatch.setattr("seirsde.estimate.reconstruct_replicate_arrays",
                            reconstruct_nothing)
        series = tmp_path / "cases.csv"
        series.write_text("date,count\n" + "".join(
            f"d{k},{500000 + 2000 * k}\n" for k in range(40)))
        cfg = write_config(tmp_path, estimate={
            "incidence": str(series), "population_n": 26_446_435,
            "n_rep": 4, "dt": 1e-3, "known_sigma": -0.01,
            "init_e": 0.04, "init_ia": 0.027, "init_r": 0.053})
        code = main(["estimate", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "sigma must be nonnegative" in capsys.readouterr().err

    def test_non_finite_path_value_is_a_parse_error(self, tmp_path, capsys):
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("t,S,E,Ia,Is,R\n0,0.9,0.05,0.02,0.02,0.01\n"
                            "0.1,inf,0.05,0.02,0.02,0.01\n")
        cfg = write_config(tmp_path, validate={"path_csv": str(path_csv)})
        code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[ParseError]
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"],
                             ids=["plain", "marked"])
    def test_undecodable_path_byte_is_a_parse_error(self, tmp_path, capsys,
                                                    mark):
        path_csv = tmp_path / "path.csv"
        path_csv.write_bytes(mark + b"t,S,E,Ia,Is,R\n0,0.9,0.05,0.02,0.02,"
                             b"0.01\n0.1,0.9,0.05,0.02,0.02,0.01\xe9\n")
        cfg = write_config(tmp_path, validate={"path_csv": str(path_csv)})
        code = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[ParseError]
        assert "line 3: byte 0xe9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "estimate"])
    @pytest.mark.parametrize("times,blank,line", [
        ((0.0, -0.001, -0.002), False, 3), ((0.0, 0.0), False, 3),
        ((0.0, 0.0, 0.001), True, 4)])
    def test_second_time_not_after_the_first_is_a_parse_error(
            self, tmp_path, capsys, command, times, blank, line):
        rows = [f"{t!r},0.9,0.05,0.02,0.02,0.01" for t in times]
        if blank:
            rows.insert(1, "")
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("\n".join(["t,S,E,Ia,Is,R"] + rows) + "\n")
        cfg = write_config(tmp_path, **{command: {"path_csv": str(path_csv)}})
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_CODES[ParseError]
        err = capsys.readouterr().err
        assert f"line {line}: time {times[1]!r} is not after" in err

    def test_unknown_prior_key_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mcmc={"iterations": 10,
                                           "priors": {"p_low": 0.2}})
        code = main(["mcmc", "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert "p_low" in capsys.readouterr().err

    @pytest.mark.parametrize("command,block,key", [
        ("simulate", {"n_steps": 50, "positivity": "reflect"}, "positivity"),
        ("simulate", {"n_steps": 50, "positivity": "reject"}, "positivity"),
        ("simulate", {"n_steps": 50, "dtt": 0.5}, "dtt"),
        ("estimate", {"path_csv": "path.csv", "know_sigma": 0.01},
         "know_sigma"),
        ("estimate", {"path_csv": "path.csv", "n_rep": 50,
                      "incidence": "nope.csv"}, "incidence"),
        ("simulate", {"n_steps": 50, "init": {**INTERIOR_BLOCK, "d": 0.5,
                                              "zz": 1}}, "zz"),
        ("mcmc", {"iterations": 10, "init": {**INTERIOR_BLOCK, "d": "x"}},
         "d"),
        ("mcmc", {"iterations": 10, "population_n": 5}, "population_n"),
        ("mcmc", {"iterations": 10, "ode_dt": 0.5}, "ode_dt"),
    ], ids=["simulate-positivity", "simulate-positivity-reject",
            "simulate-dtt", "estimate-know_sigma", "estimate-mixed-forms",
            "simulate-init-extra", "mcmc-init-d", "mcmc-population_n",
            "mcmc-ode_dt"])
    def test_unknown_block_key_is_a_config_error(self, tmp_path, capsys,
                                                 command, block, key):
        cfg = write_config(tmp_path, **{command: block})
        code = main([command, "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "path.csv").exists()

    def test_unknown_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["r0", "--config", cfg, "--pedantic-paper"])
        assert exc.value.code == 2
        assert "--pedantic-paper" in capsys.readouterr().err

    def test_non_finite_parameter_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mu="NaN")
        assert main(["r0", "--config", cfg]) == EXIT_CODES[ConfigError]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command,block,key", [
        ("simulate", {"simulate": {"dt": 1e-3}}, "n_steps"),
        ("mc-study", {"mc_study": {"n_rep": 10}}, "horizons"),
        ("mcmc", {"mcmc": {"burn_in": 0}}, "iterations"),
        ("mcmc", {"mcmc": {"iterations": 10, "incidence": "cases.csv"}},
         "population_n"),
    ])
    def test_missing_required_key_is_a_config_error(self, tmp_path, capsys,
                                                    command, block, key):
        cfg = write_config(tmp_path, **block)
        code = main([command, "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command,blocks,key", [
        ("simulate", {"simulate": {"n_steps": 10, "dt": None}}, "dt"),
        ("simulate", {"simulate": {"n_steps": 10, "init": {
            **INTERIOR_BLOCK, "s": [1]}}}, "init s"),
        ("simulate", {"simulate": {"n_steps": 10.9}}, "n_steps"),
        ("simulate", {"simulate": {"n_steps": True}}, "n_steps"),
        ("simulate", {"simulate": {"n_steps": 10, "output": 5}}, "output"),
        ("reconstruct", {"reconstruct": {
            "incidence": "cases.csv", "population_n": 1000,
            "resample_initials": "no"}}, "resample_initials"),
        ("validate", {"validate": {"path_csv": 5}}, "path_csv"),
        ("mcmc", {"mcmc": {"iterations": 10, "priors": None}}, "priors"),
        ("simulate", {"simulate": {"n_steps": 10, "init": None}}, "init"),
        ("mc-study", {"mc_study": {"horizons": "24", "dt": 1}}, "horizons"),
        ("simulate", {"simulate": {"n_steps": 5, "dt": True}}, "dt"),
        ("simulate", {"sigma": "0.01", "simulate": {"n_steps": 5}},
         "sigma"),
        ("estimate", {"estimate": {"path_csv": "path.csv",
                                   "known_sigma": float("inf")}},
         "known_sigma"),
        ("mc-study", {"mc_study": {"horizons": [0.02, float("inf")]}},
         "horizons"),
        ("mcmc", {"mcmc": {"iterations": 10, "proposal_sd": "12"}},
         "proposal_sd"),
    ], ids=["null-dt", "list-init", "fractional-n_steps", "boolean-n_steps",
            "numeric-output", "string-flag", "numeric-path_csv",
            "null-priors", "null-init", "string-horizons", "boolean-dt",
            "string-sigma", "infinite-known_sigma", "infinite-horizon",
            "string-proposal_sd"])
    def test_non_numeric_config_value_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, blocks, key):
        monkeypatch.chdir(tmp_path)
        path_to_csv(simulate_path(SimConfig(BASELINE_PARAMS, INTERIOR_INIT,
                                            1e-3, 50)), "path.csv")
        cfg = write_config(tmp_path, **blocks)
        code = main([command, "--config", cfg, "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CODES[ConfigError]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"bad {key} value" in err

    def test_readme_lists_the_keys_of_each_table(self):
        readme = (FilePath(__file__).resolve().parents[1]
                  / "README.md").read_text()
        # the rows of the one table headed "| object | ...", up to the
        # first line that is not a table row
        table = re.search(r"^\| object \|.*\n\|---\|---\|\n((?:\|.*\n)+)",
                          readme, re.M)[1]
        rows = dict(re.findall(r"^\| (.+?) \| (.+) \|$", table, re.M))
        tables = {
            "top level": cli._PARAMS, "`simulate`": cli._SIMULATE,
            "`reconstruct`": cli._RECONSTRUCT,
            "`estimate` with `path_csv`": cli._ESTIMATE_ON_PATH,
            "`estimate` without `path_csv`": cli._ESTIMATE_REPLICATED,
            "`validate`": cli._VALIDATE, "`mc_study`": cli._MC_STUDY,
            "`mcmc`": cli._MCMC_ON_SERIES, "`init`": cli._INIT,
            "`priors`": cli._PRIORS}
        assert {row: set(re.findall(r"`([a-z_]+)`", keys))
                for row, keys in rows.items()} == \
            {row: set(table) for row, table in tables.items()}
        # a group of keys, then what the README says of them in parentheses
        group = re.compile(r"((?:`[a-z_]+`(?:, | and )?)+)"
                           r"(?: \(((?:[^()]|\(\))*)\))?")
        for row, keys in rows.items():
            for names, said in group.findall(keys):
                for key in re.findall(r"`([a-z_]+)`", names):
                    default = tables[row][key][1]
                    if default is cli._REQUIRED:
                        continue
                    assert said, f"{row}: {key} shows no default"
                    first = re.match(r"`([^`]*)`|[^,;]*", said)
                    try:
                        shown = json.loads(first[1] or first[0])
                    except ValueError:  # prose, such as "estimated"
                        continue
                    assert shown == json.loads(json.dumps(default)), \
                        f"{row}: {key} shows {shown!r}, not {default!r}"

    def test_distinct_exit_codes(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = os.path.dirname(os.path.dirname(seirsde.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "seirsde", "r0", "--config",
             write_config(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1.63210"
