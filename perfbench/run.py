"""Benchmark of the mhfie solver: one closed-loop caller drives the public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 20 --trace 0

The workloads and metrics are declared in BENCHMARK.json.  A run repeats whole
passes over the workload's operations, in an order drawn from the seed, until
the next pass would end after --seconds; it checks the output of every
operation, prints a table with each metric's unit and sample count, and ends
with one JSON line.  With --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead instead.

Timings come from each distinct operation's fastest latency in the run (every
operation occurs once per pass): pass_s is their sum, op_ms_p50 their median.
On a shared two-core host the program's speed switches between phases up to
40% apart, for seconds to minutes at a time, while a small cache-resident
kernel keeps its speed, so the phases cannot be divided out.  In one batch of
six 30-second sweep-1d runs the spread (quartile distance over median) was
0.100 for the median pass, 0.207 for the fastest pass and 0.086 for the sum of
fastest latencies; in earlier batches the median pass spread up to 0.21.
Medians of the raw times are printed alongside for reference.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Pin the BLAS pools before numpy loads them: at most two threads, never more
# than the cores this process may use.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # set-ups in fresh interpreters; the run's own set-up is one more
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-1d", "newton-2d", "rule-hi"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def load_metrics() -> tuple:
    """End-to-end and per-layer metric declarations from BENCHMARK.json, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, {m["name"]: m for m in spec["per_layer"]}


def timed_setup(args, bound: float, tracer_wanted: bool):
    """Import mhfie and build the workload's inputs; return them with the seconds taken."""
    start = time.perf_counter()
    import perf_workloads  # imports mhfie, numpy and scipy

    module = Path(perf_workloads.mhfie.__file__).resolve()
    if SRC not in module.parents:
        raise SystemExit(f"imported mhfie from {module}, not from {SRC}")
    tracer = None
    if tracer_wanted:
        import perf_trace

        tracer = perf_trace.Tracer()
        tracer.install(perf_trace.SETUP)
    try:
        workload = perf_workloads.make(args.workload, args.seed, bound)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload, tracer, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, from before `import mhfie`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole passes; time each operation and each pass; check every output."""
    passes, traced_passes, untraced_s = 0, [], []
    latencies, failures, examples = [], Counter(), {}
    fastest, traced_fastest = {}, {}  # key -> fastest latency, untraced / traced
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        ops = workload.pass_ops(passes)
        if not ops:
            break
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install(passes)
            traced_passes.append(passes)
        try:
            pass_start = time.perf_counter()
            outputs, reasons = {}, {}
            for i, op in enumerate(ops):
                if traced:
                    tracer.begin_op(i, op)
                op_start = time.perf_counter()
                try:
                    out = workload.run(op)
                except Exception as exc:  # a failed op is counted, never dropped
                    out = None
                    reasons[op] = [type(exc).__name__]
                    examples.setdefault(type(exc).__name__, f"{op}: {exc}")
                latency = time.perf_counter() - op_start
                latencies.append(latency)
                best = traced_fastest if traced else fastest
                key = workload.key(op)
                best[key] = min(best.get(key, math.inf), latency)
                if out is not None:
                    outputs[op] = out
                    reasons[op] = workload.check(op, out)
            for op, why in workload.check_pass(outputs).items():
                reasons[op] = reasons[op] + why
            elapsed = time.perf_counter() - pass_start
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            untraced_s.append(elapsed)
        for op, why in reasons.items():
            attempted += 1
            if why:
                failed += 1
                failures.update(why)
                for reason in why:
                    examples.setdefault(reason, str(op))
        passes += 1
        total = time.perf_counter() - start
        if passes >= MIN_PASSES and total + statistics.median(untraced_s) > seconds:
            break
    return {
        "passes": passes, "pass_s": untraced_s,
        "traced_passes": traced_passes, "latencies": latencies, "fastest": fastest,
        "traced_fastest": traced_fastest,
        "attempted": attempted, "failed": failed, "failures": failures,
        "examples": examples, "seconds": time.perf_counter() - start,
    }


def openblas_info() -> list:
    """(library, version string, threads in use) for each loaded OpenBLAS."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    found.append((pkg.__name__, config().decode(), threads()))
                    break
    return found


def environment_lines(args) -> list:
    import numpy
    import scipy

    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"nproc {NPROC}  blas threads pinned {BLAS_THREADS}  python {platform.python_version()}"
        f"  numpy {numpy.__version__}  scipy {scipy.__version__}",
    ]
    for name, config, threads in openblas_info():
        lines.append(f"{name} BLAS: {config}  threads {threads}")
    return lines


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, run: dict, setups: list, spec: dict) -> list:
    """(name, value, samples) for every end-to-end metric."""
    digits, digits_true, problems = workload.accuracy()
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (sum(run["fastest"].values()), len(run["pass_s"])),
        "op_ms_p50": (1e3 * statistics.median(run["fastest"].values()), len(run["fastest"])),
        "ok_frac": ((run["attempted"] - run["failed"]) / run["attempted"], run["attempted"]),
        "digits": (digits, problems),
        "digits_true": (digits_true, problems),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return [(name, values[name][0], values[name][1]) for name in spec]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mhfie" / "__init__.py").is_file():
        print(f"error: the mhfie sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    e2e_spec, layer_spec = load_metrics()
    bound = e2e_spec["digits"]["bound"]
    if args.setup_probe:
        _, _, seconds = timed_setup(args, bound, False)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, tracer, seconds = timed_setup(args, bound, bool(args.trace))
    setups.append(seconds)
    run = measure(workload, args.seconds, tracer)

    for line in environment_lines(args):
        print(line)
    print(f"{run['passes']} passes, {run['attempted']} ops in {run['seconds']:.1f} s, "
          f"one closed-loop caller")
    for reason, count in sorted(run["failures"].items()):
        print(f"FAILED {reason}: {count} (e.g. {run['examples'][reason]})")

    if args.trace:
        metrics = tracer.layer_metrics(run["traced_passes"])
        untraced = sum(run["fastest"].values())
        metrics["trace.overhead_s"] = sum(run["traced_fastest"].values()) - untraced
        samples = {name: 1 if name.startswith("problem.") else len(run["traced_passes"])
                   for name in layer_spec}
        rows = [(name, metrics[name], samples[name]) for name in layer_spec]
        units = {name: m["unit"] for name, m in layer_spec.items()}
        print(f"untraced pass_s {untraced:.6g} s over {len(run['pass_s'])} passes; per-layer "
              "values are medians over traced passes, problem.* come from set-up")
    else:
        rows = end_to_end(workload, run, setups, e2e_spec)
        units = {name: m["unit"] for name, m in e2e_spec.items()}
        lat = sorted(1e3 * t for t in run["latencies"])
        print(f"for reference: median pass {statistics.median(run['pass_s']):.6g} s, "
              f"median op {statistics.median(lat):.6g} ms over {len(lat)} ops")
        beyond = len(lat) - math.ceil(0.9 * len(lat))
        if beyond >= 10:
            print(f"for reference: op p90 {percentile(lat, 90):.6g} ms ({beyond} ops beyond)")
    for name, value, samples in rows:
        print(f"{name:28s} {value:14.6g} {units[name]:8s} samples {samples}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
