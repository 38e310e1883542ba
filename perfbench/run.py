"""Benchmark for markovscope.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports markovscope from ./src and
nowhere else.  Workloads: qubit-sample, jc-scan and qudit-check (see
perfbench/README.md).  Each run is one process with the BLAS and OpenMP pools
pinned to one thread.  It builds its inputs from the seed, measures whole
rounds of operations for at least S seconds, checks the outputs, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (channels_per_s,
latency_ms_p50, setup_s, peak_rss_mb).  With --trace 1 the run measures an
untraced phase and then a traced phase, and reports per-layer self times and
kernel counts together with the tracing overhead.  A copy of the result, and
of the spans of a traced run, goes to perfbench/results/.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 7
MODULES = ("channels", "cli", "decision", "qubit", "spectral", "zoo")


def import_program() -> dict:
    """markovscope from this checkout's src/; exits with an error and no result
    when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "markovscope", "__init__.py")):
        sys.exit(f"error: no markovscope sources under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("markovscope")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "markovscope"):
        sys.exit(f"error: markovscope was imported from {pkg.__file__}, not {SRC}")
    return {m: importlib.import_module(f"markovscope.{m}") for m in MODULES}


def warm_call(ms: dict, workload: str) -> None:
    """One small call down the workload's entry point."""
    from workloads import run_cli

    cli = ms["cli"]
    if workload == "qubit-sample":
        cli.sample_fractions(2, 1, 0)
    elif workload == "jc-scan":
        run_cli(cli, ["scan", "--model", "jc", "--start", "0.5", "--stop", "0.5", "--step", "0.1"])
    else:
        run_cli(cli, ["check", "--model", "figure2a", "--json"])


def measure_setup(workload: str, probes: int) -> float:
    """Median wall time of fresh interpreters that import markovscope and make
    one warm call: start-up cost that every user invocation pays."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload],
                       check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_rounds(workload, seconds: float, first_round: int = 0):
    """Whole rounds until `seconds` have passed.  Returns (op, output,
    latency) for every operation, the time taken and the next round index."""
    results = []
    index = first_round
    start = time.perf_counter()
    while index == first_round or time.perf_counter() - start < seconds:
        for op in workload.round(index):
            t0 = time.perf_counter()
            out = op.call()
            results.append((op, out, time.perf_counter() - t0))
        index += 1
    return results, time.perf_counter() - start, index


def channels_per_s(results, elapsed: float) -> float:
    return sum(op.channels for op, _, _ in results) / elapsed


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one set-up probe, for tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ms = import_program()
    if args.probe:
        warm_call(ms, args.workload)
        return 0

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"inputs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](ms, args.seed, workdir, args.quick)
        warm_call(ms, args.workload)
        if args.trace:
            from spans import Tracer

            plain, plain_s, next_round = timed_rounds(workload, args.seconds / 2)
            with Tracer(ms) as tracer:
                traced, traced_s, _ = timed_rounds(workload, args.seconds / 2, next_round)
            overhead = 100.0 * (channels_per_s(plain, plain_s) / channels_per_s(traced, traced_s) - 1.0)
            channels = sum(op.channels for op, _, _ in traced)
            results = plain + traced
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in tracer.layer_metrics(channels).items()}
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        else:
            setup_s = measure_setup(args.workload, 1 if args.quick else SETUP_PROBES)
            results, elapsed, _ = timed_rounds(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            latencies = [lat for _, _, lat in results]
            metrics = {
                "channels_per_s": {"value": channels_per_s(results, elapsed), "unit": "1/s"},
                "latency_ms_p50": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        check = workload.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in check.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not check.problems,
        "attempted": len(results),
        "failed": check.failed,
        "metrics": metrics,
    }
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": check.problems,
                   "latencies_s": [[op.label, lat] for op, _, lat in results]}, fh)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
