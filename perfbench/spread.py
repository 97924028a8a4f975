"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
                                [--out FILE] [--against FILE]

Runs ``perfbench/run.py`` untraced ``--runs`` times per workload, one run
at a time with seeds ``first-seed``, ``first-seed + 1``, ..., for the
``run_seconds`` of ``BENCHMARK.json``. For each workload and end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, over the median) next to the metric's bound, and the share of
failed operations, then the metric and workload whose spread is the
largest share of its bound. For ``setup_s`` and ``pass_s`` it also prints
the spread of the same medians in wall time, before ``run.py`` rescales
them by its reference samples. ``--out`` saves every run's result as JSON;
``--against`` reads such a file from an earlier set and prints how far each
median moved from it, as a share of the earlier median, beside the bound.
Ten runs of all four workloads take about 19 minutes.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


WALL = "perfbench: wall "   # run.py's stderr line of wall-time medians


def quartiles(runs, metric):
    values = [r["metrics"][metric]["value"] for r in runs]
    return statistics.quantiles(values, n=4)


def wall_spread(runs, metric):
    q1, med, q3 = statistics.quantiles([r["wall"][metric] for r in runs],
                                       n=4)
    return f"{(q3 - q1) / med:.3f}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    earlier = json.loads(Path(args.against).read_text()) if args.against \
        else {}

    raw = {}
    worst = (0.0, None)
    for name in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            result["wall"] = json.loads(next(
                line[len(WALL):] for line in proc.stderr.splitlines()
                if line.startswith(WALL)))
            runs.append(result)
            print(f"{name} seed {seed}: {wall:.1f} s, correct "
                  f"{result['correct']}, " + ", ".join(
                      f"{k} {v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
        raw[name] = runs
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{name}: all correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted {sorted(shares)}, wall per run "
              f"{statistics.median(r['wall_s'] for r in runs):.1f} s")
        print("| metric | median | Q1 | Q3 | spread | bound | "
              "median moved | wall-time spread |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            q1, med, q3 = quartiles(runs, metric["name"])
            spread = (q3 - q1) / med
            worst = max(worst, (spread / metric["bound"],
                                f"{metric['name']} on {name}"))
            moved = ""
            if name in earlier:
                before = quartiles(earlier[name], metric["name"])[1]
                moved = f"{(med - before) / before:+.3f}"
            unscaled = (wall_spread(runs, metric["name"])
                        if metric["name"] in runs[0]["wall"] else "")
            print(f"| {metric['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {metric['bound']} | {moved} | {unscaled} |")
        print(flush=True)
    print(f"largest spread as a share of its bound: {worst[0]:.2f} "
          f"({worst[1]})")
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
