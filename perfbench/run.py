"""Run one workload of the seirsde benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src/``. The run builds the workload's inputs from the seed,
runs one untimed warm-up pass, then repeats the workload's fixed pass for
about ``--seconds`` seconds, checks the outputs, and prints one JSON object
as its last line of standard output.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``pass_s`` and
``peak_rss_mb``. The timings are rescaled to one machine speed: the host
this runs on shifts its speed by tens of percent between runs, so the runner
times a fixed reference computation (``reference.py``) before every pass and
after the last, and divides each pass by the reference's slowdown over the
two samples around it. ``pass_s`` is the median of these rescaled passes.
``setup_s`` is the median of ``SETUP_SAMPLES`` cold set-ups, each timed from
the first statement of a fresh process to the inputs built, so it includes
importing numpy and seirsde: the run's own, and one in a child process
started with ``--setup-only`` before each of the first timed passes; each
is rescaled by the reference sample taken right after it. Standard error
gets the raw wall times and the reference samples. ``--trace 1`` alternates
untraced and traced passes and reports the ``per_layer`` metrics of
``BENCHMARK.json``, the median over traced passes, plus
``trace.overhead_s``: the median traced pass minus the median untraced
pass, in wall time. One more traced pass with ``tracemalloc`` on gives the
``peak_alloc_mb`` metrics. A traced run fails when a layer its workload
must reach recorded no call, and writes every span to
``.perfbench/spans-<workload>-seed<seed>.json``. ``--size small`` shrinks
the work for the self-check and is not used for measurements.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: pin the BLAS pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 9     # cold set-ups whose median is setup_s
OVERHEAD = "trace.overhead_s"   # the per-layer metric not read from spans


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"))
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed(work):
    start = time.perf_counter()
    result = work.run_pass()
    return result, time.perf_counter() - start


def cold_setup(argv):
    """The set-up time of a fresh process running ``run.py --setup-only``."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *argv, "--setup-only"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_untraced(work, seconds, argv):
    """Timed passes, each after a reference sample, with one more sample
    after the last pass; before each of the first passes, one cold set-up
    in a child process, so the set-ups sample the same stretch of time.
    Returns the outputs and the wall times of passes, references and
    child set-ups."""
    results, times, refs, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_SAMPLES - 1:
            setups.append(cold_setup(argv))
        refs.append(reference.measure())
        result, elapsed = timed(work)
        results.append(result)
        times.append(elapsed)
        if (len(setups) == SETUP_SAMPLES - 1 and len(times) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(times)
                + 2 * statistics.median(refs) > seconds):
            refs.append(reference.measure())
            return results, times, refs, setups


def run_traced(work, seconds, recorder):
    """Alternate untraced and traced passes; returns both pass times."""
    results, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        result, elapsed = timed(work)
        results.append(result)
        plain.append(elapsed)
        recorder.install(len(traced))
        try:
            result, elapsed = timed(work)
        finally:
            recorder.uninstall()
        results.append(result)
        traced.append(elapsed)
        if (len(traced) >= MIN_PASSES and time.perf_counter() - start
                + statistics.median(plain) + statistics.median(traced)
                > seconds):
            return results, plain, traced


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "seirsde" / "__init__.py").is_file():
        print(f"perfbench: no seirsde sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        work = workloads.WORKLOADS[args.workload](
            args.seed, workdir, small=args.size == "small")
        setups = [time.perf_counter() - T0]
        if args.setup_only:
            print(setups[0])
            return 0
        if not args.trace:
            reference.measure()   # warm-up
            setup_refs = [reference.measure()]
        results = [work.run_pass()]   # warm-up
        if args.trace:
            recorder = spans.Recorder()
            timed_results, plain, traced = run_traced(work, args.seconds,
                                                      recorder)
        else:
            timed_results, plain, refs, children = run_untraced(
                work, args.seconds, argv)
            setups += children
            setup_refs += refs[:len(children)]
        results += timed_results
        if args.trace:
            memory_pass = len(traced)
            recorder.install(memory_pass, memory=True)
            try:
                results.append(work.run_pass())
            finally:
                recorder.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = work.check(results[-1].output)
    if len({r.fingerprint for r in results}) != 1:
        errors.append("passes of the same work gave different outputs")
    for error in errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)

    if args.trace:
        pass_ids = range(len(traced))
        silent = recorder.silent_layers(range(memory_pass + 1), work.layers)
        if silent:
            print(f"perfbench: {args.workload}: no call reached "
                  f"{', '.join(silent)}", file=sys.stderr)
            return 3
        metrics = recorder.metrics(
            [m["name"] for m in spec["per_layer"] if m["name"] != OVERHEAD],
            pass_ids, memory_pass)
        metrics[OVERHEAD] = (statistics.median(traced)
                             - statistics.median(plain))
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(recorder.to_json()))
    else:
        metrics = {
            "setup_s": statistics.median(
                t / reference.speed(r) for t, r in zip(setups, setup_refs)),
            "pass_s": statistics.median(
                t / reference.speed((before + after) / 2)
                for t, before, after in zip(plain, refs, refs[1:])),
            "peak_rss_mb": peak_rss_mb}
    print(f"perfbench: {args.workload}: set-ups "
          f"{' '.join(f'{t:.3f}' for t in setups)} s, untimed warm-up, "
          f"passes {' '.join(f'{t:.3f}' for t in plain)} s"
          + (f", traced {' '.join(f'{t:.3f}' for t in traced)} s"
             if args.trace else
             f", reference {' '.join(f'{t:.3f}' for t in refs)} s"),
          file=sys.stderr)
    if not args.trace:
        # The same medians before rescaling, for spread.py to compare.
        print("perfbench: wall " + json.dumps({
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(plain),
            "reference_s": statistics.median(refs)}), file=sys.stderr)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
