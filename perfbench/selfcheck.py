"""Quick self-check of the benchmark runner at small sizes.

    python3 perfbench/selfcheck.py

Runs every workload with ``--size small`` untraced and traced, and checks
that each run exits 0, passes its own correctness checks, fails no
operation, prints exactly the metrics ``BENCHMARK.json`` names, and, when
traced, reports every metric of the workload's own layers
as non-zero (the ``failed_replicates`` counts excepted, which are 0 when
all goes well). It then checks that the runner refuses to run, without
printing a result, in a directory that holds only ``BENCHMARK.json`` and
the benchmark. Takes about a minute; it is not part of the test suite.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(spec, name, trace):
    proc = run(ROOT, "--workload", name, "--seed", "11", "--seconds", "1",
               "--trace", str(trace), "--size", "small")
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        errors.append(f"checks failed: {proc.stderr.strip()}")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{result['failed']} of {result['attempted']} failed")
    declared = {m["name"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        errors.append(f"metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ declared)}")
    layers = workloads.WORKLOADS[name].layers
    for metric, value in result["metrics"].items():
        must_move = not trace or (metric.rsplit(".", 1)[0] in layers and
                                  not metric.endswith(".failed_replicates"))
        if must_move and not value["value"]:
            errors.append(f"{metric} reads {value['value']}")
    return errors


def check_bare_directory():
    """The runner must fail in a directory without the package sources."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "mcmc_baseline", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit {proc.returncode} with output {proc.stdout!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            for error in check_run(spec, name, trace):
                failures.append(f"{name} --trace {trace}: {error}")
    failures += [f"bare directory: {e}" for e in check_bare_directory()]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
