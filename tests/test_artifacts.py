"""Golden artifacts: the CLI's pinned outputs, byte for byte.

Each artifact is written by ``seirsde.cli.main`` on a small fixed config
and compared by sha256 with the value recorded when the artifact format
was last changed on purpose. A refactor that moves a single bit of one of
these files fails here; a deliberate change updates the hash and says in
CHANGES.md which artifact moved and by how much.

The hashes assume numpy's PCG64 bit generator and its ziggurat normal
sampler as shipped with numpy 2.x; another stream changes every one of
them.
"""

import hashlib
import json

import numpy as np
import pytest

from seirsde import (BASELINE_PARAMS, MEXICO_CITY_POPULATION, SimConfig,
                     simulate_path)
from seirsde.cli import main

from conftest import INTERIOR_INIT

PARAM_FIELDS = {f: getattr(BASELINE_PARAMS, f) for f in (
    "mu", "beta_s", "beta_a", "kappa", "p", "theta", "alpha_a", "alpha_s",
    "gamma", "sigma")}
INTERIOR_BLOCK = {"s": INTERIOR_INIT.s, "e": INTERIOR_INIT.e,
                  "i_a": INTERIOR_INIT.i_a, "i_s": INTERIOR_INIT.i_s,
                  "r": INTERIOR_INIT.r}
PATH_BLOCK = {"n_steps": 3000, "dt": 1e-3, "init": INTERIOR_BLOCK}
N = MEXICO_CITY_POPULATION

# (output directory, subcommand, seed, config block); file names in the
# block are relative to the run directory
RUNS = [
    ("euler", "simulate", 3, PATH_BLOCK),
    ("milstein", "simulate", 5, {**PATH_BLOCK, "scheme": "milstein"}),
    ("estimate_path", "estimate", None, {"path_csv": "euler/path.csv"}),
    ("estimate_replicated", "estimate", 9, {
        "incidence": "cases.csv", "population_n": N, "n_rep": 6, "dt": 0.01,
        "init_e": INTERIOR_INIT.e, "init_ia": INTERIOR_INIT.i_a,
        "init_r": INTERIOR_INIT.r}),
    ("validate_em", "validate", None, {"path_csv": "euler/path.csv"}),
    ("validate_log", "validate", None, {"path_csv": "milstein/path.csv",
                                        "method": "log"}),
    ("mc_study", "mc-study", 4, {"horizons": [0.02, 0.04, 0.08],
                                 "n_rep": 300, "init": INTERIOR_BLOCK}),
    ("mcmc_incidence", "mcmc", 8, {"iterations": 400, "burn_in": 100,
                                   "incidence": "daily.csv",
                                   "population_n": N}),
    ("mcmc_prior", "mcmc", 8, {"iterations": 400, "burn_in": 100}),
]

GOLDEN = {
    "euler/path.csv":
        "041fae510853b37d4dff05d576adc1e91ac2cb3437cf1152aad5c5232393e9d3",
    "milstein/path.csv":
        "3daa3929e13b3483149874b10484aafd7cb4cf240f7abca7dfa3dbb8cd161117",
    "estimate_path/estimate.json":
        "9d04f1bbdb1fa8acb6b6afb7623ef885ca4f40bdbcd38930733d1e1082fdc23b",
    "estimate_replicated/estimate.json":
        "b77ef651404e17f57091cefebb0fdd6a0ee1e1553d6b4d8cc7a655b871035a19",
    "validate_em/normality.json":
        "04cf28407aacb3aaf76f000c81e19121227170c80b38e0372b1101defd73de42",
    "validate_em/residuals.csv":
        "02b7bc00879ca501253afe0a3415f6a158ee79f9918edde82b9359bf773afcbc",
    "validate_log/normality.json":
        "6b0ce1b94a6d4ce90d5939233387c789d90fd1687cfe5060c6d58969f6b75cec",
    "validate_log/residuals.csv":
        "66b1c6a27b0d479af8584f54cf2a6dce233f7e90e7906ebb067f56270b0023cb",
    "mc_study/consistency.csv":
        "0953a6f2de63449913eed3acd86f2c3eb61d30d27312f455c76b403d0a5f61f0",
    "mcmc_incidence/samples.csv":
        "1438bdf9c4955b7162e1d8682a100ed81fa304f9ce3fd19d600f1ebad0b684cd",
    "mcmc_prior/samples.csv":
        "00fcd432295a901d4c60606e2c1ab2ef6635edd671528e61190d4f958b3efec0",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run every config of RUNS once, in order, in one directory."""
    root = tmp_path_factory.mktemp("artifacts")
    # observed symptomatic counts: round(N * I_s) of a 1,200-step path
    obs = simulate_path(SimConfig(BASELINE_PARAMS, INTERIOR_INIT, 0.01, 1200,
                                  seed=2))
    counts = np.round(N * obs.i_s).astype(int)
    for name, rows in (("cases.csv", counts), ("daily.csv", counts[::100])):
        (root / name).write_text("date,count\n" + "".join(
            f"d{k},{c}\n" for k, c in enumerate(rows)))
    for out, command, seed, block in RUNS:
        block = {k: str(root / v) if k in ("path_csv", "incidence") else v
                 for k, v in block.items()}
        cfg = {**PARAM_FIELDS, command.replace("-", "_"): block}
        (root / "config.json").write_text(json.dumps(cfg))
        argv = [command, "--config", str(root / "config.json"),
                "--out", str(root / out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0, (command, out)
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_are_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
