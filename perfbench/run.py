"""entrocut benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  BLAS is pinned to one thread.  With --trace 0 the run
times its ops untraced and prints the end-to-end metrics; with --trace 1 it
wraps the calls into each module (tracer.py), prints the per-layer metrics
and writes the spans to perfbench/out/.  Every op output is checked after
the timed loop.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3        # fresh processes timed for setup_s; the median is reported
TAIL_MIN_OPS = 100       # fewest successful ops a run needs before a p90 is printed

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="entrocut benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up the workload in this fresh process, print 'ready' and exit")
    return parser.parse_args(argv)


def _import_program(entry: str):
    importlib.import_module(entry)
    return sys.modules["entrocut"]


def setup_seconds(workload: str) -> float:
    """Median wall time from spawning a fresh interpreter to its first op being ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                 "--probe"], stdout=subprocess.PIPE, cwd=ROOT)
        with proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return statistics.median(samples)


def measure(wl, seconds: float, rng: random.Random, tracer) -> tuple[list, float, int]:
    """Whole rounds of ops until `seconds` have passed.

    Returns [(op, seconds, why failed or None, output)], the time measured
    and the number of rounds.
    """
    results = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        for op in wl.round(rng):
            idx = tracer.open("op") if tracer else None
            s = time.perf_counter()
            try:
                out, failed = wl.run_op(op), None
            except Exception as exc:      # an op that raises is counted, the run goes on
                out, failed = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - s
            if tracer:
                tracer.close(idx)
            if failed is None:
                failed = wl.failed(op, out)
            results.append((op, dt, failed, out))
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            return results, time.perf_counter() - t0, rounds


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "entrocut", "__init__.py")):
        print(f"perfbench: no entrocut sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)
    import workloads
    from tracer import LAYER_UNITS, Tracer, layer_metrics, span_cost_s, write_spans
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, trace=bool(args.trace))

    if args.probe:
        wl.prepare(_import_program(wl.entry))
        print("ready", flush=True)
        return 0

    os.makedirs(workloads.OUT, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args.workload)
    tracer = Tracer() if args.trace and wl.in_process else None
    if tracer:
        idx = tracer.open("cli.import")
        ec = _import_program(wl.entry)
        tracer.close(idx)
        tracer.install()
        idx = tracer.open("setup")
        wl.prepare(ec)
        tracer.close(idx)
    else:
        ec = _import_program(wl.entry)
        wl.prepare(ec)

    results, elapsed, rounds = measure(wl, args.seconds, random.Random(args.seed), tracer)
    peak_rss_mb = wl.peak_rss_mb()
    if tracer:
        tracer.uninstall()

    counts, window = workloads.Counts(), workloads.Windows(ec, wl.windows)
    problems = []
    for op, _, failed, out in results:
        if not failed:
            problems += wl.check(op, out, counts, window)
    ok_times = [dt for _, dt, failed, _ in results if not failed]
    failures = [(op, failed) for op, _, failed, _ in results if failed]

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {len(results)}  failed {len(failures)}  measured {elapsed:.2f} s")
    for op, why in failures[: len(failures) // rounds]:
        print(f"  failed op {op!r}: {why}")
    for p in problems[:20]:
        print(f"  CHECK FAILED {p}", file=sys.stderr)
    if not ok_times:
        print("perfbench: no op succeeded, nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        processes = [tracer.spans] if wl.in_process else wl.processes
        cost = span_cost_s()
        metrics = layer_metrics(processes, len(results), cost)
        units = LAYER_UNITS
        spans_path = os.path.join(workloads.OUT, f"spans-{args.workload}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for p, spans in enumerate(processes):
                write_spans(fh, spans, p)
        print(f"  traced op_s_p50 {statistics.median(ok_times):.6g} s; "
              f"{sum(map(len, processes))} spans written to {os.path.relpath(spans_path, ROOT)}; "
              f"one span costs {cost * 1e6:.2f} us")
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(ok_times) / elapsed,
            "op_s_p50": statistics.median(ok_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:24s} {value:.6g} {units[name]}")
    if not args.trace and args.workload == "oracle_sweep" and len(ok_times) >= TAIL_MIN_OPS:
        p90 = statistics.quantiles(ok_times, n=10)[-1]
        print(f"  {'op_s_p90':24s} {p90:.6g} s (over {len(ok_times)} ops; not in BENCHMARK.json)")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
