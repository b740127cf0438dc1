"""Fixed-ladder timings of the mhfie public API, written to a BENCH_<tag>.json file.

Run from the repository root:

    python3 tools/bench_ladder.py --tag change --out BENCH_numpy_runtime.json

It imports mhfie from the ``src`` directory next to this file, so a copy of
the script placed in a checkout of another commit measures that commit.  One
run records, under its tag:

- the cold ``import mhfie``: the median over fresh interpreters of the time
  the import statement takes, and whether any scipy module was loaded;
- ``hermite_gauss_rule`` at RULE_DEGREES, best of RULE_REPEATS cold builds:
  where the checkout memoizes the rule, the memo is emptied before every
  repetition;
- ``forcing_s``: the best of FORCING_REPEATS timings of manufacturing the
  true forcing (``manufactured_forcing``, the tanh-sinh reference
  integrator) at the collocation nodes of the sweep-1d benchmark set:
  FORCING_PROBLEMS at FORCING_N and alpha FORCING_ALPHA.  Each repetition
  takes fresh registry instances, whose kernel-action caches are empty;
  the rules are built before the timing starts;
- ``solve``, ``verify_residual`` and ``error_norms`` at every LADDER point
  (the registry problem at its default alpha): the first call, and the best
  and the median of POINT_REPEATS calls, the first included, with
  ``err_inf`` and the solution's ``newton_iters`` and ``krylov_iters`` (the
  GMRES iterations of each Newton step, empty in 1D).  The best is the
  floor a call can reach; the median is the typical call, which shows a
  stall the best hides.  A point that fails records the stage, the error
  type and its message instead;
- ``memo``: after the ladder, the bytes the package's byte-bounded memo is
  charged and its entry count per key tag.

The first call of a point builds the rules and the cardinal matrix unless
an earlier point at the same (alpha, N) built them: ex1-log, ex1-alg and
ex2-sqrt share them, so only the first of the three pays for them cold.
Where the rules are memoized, the first ``verify_residual`` and
``error_norms`` calls of a point also find the rules that earlier calls
built.  An existing --out file keeps its other runs; the run with the same
tag is replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

# main pins the BLAS pools before numpy loads them, as perfbench/run.py does:
# at most two threads, never more than the cores this process may use.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_PROBES = 5
RULE_DEGREES = (16, 64, 200, 1000, 2000)
RULE_REPEATS = 5
POINT_REPEATS = 5
FORCING_PROBLEMS = ("ex1-log", "ex1-alg")
FORCING_N = (16, 32, 48, 64, 80)
FORCING_ALPHA = 0.5
FORCING_REPEATS = 3
LADDER = {
    "ex1-log": (32, 64, 128, 256, 400),
    "ex1-alg": (32, 64, 128, 256, 400),
    "ex2-sqrt": (32, 64, 128, 256, 400),
    "ex3-log": (16, 32, 48, 80),
    "ex3-alg": (16, 32, 48, 80),
}
NOTE = (
    "Times are wall seconds.  Runs compared with each other are taken back to "
    "back on one machine, whose core count and BLAS threads each run's "
    "environment records.  Stage times below the "
    "API level (rule, plan, assembly, factorization, Newton) and peak matrix "
    "bytes are not recorded yet: they wait for the Diagnostics record of "
    "ROADMAP item 6."
)

IMPORT_PROBE = """
import json, sys, time
start = time.perf_counter()
import mhfie
seconds = time.perf_counter() - start
scipy = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(json.dumps({"seconds": seconds, "scipy_modules": len(scipy)}))
"""


def cold_import(probes: int = IMPORT_PROBES) -> dict:
    """Median `import mhfie` time over fresh interpreters, and any scipy it loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        runs.append(json.loads(done.stdout))
    return {
        "median_s": statistics.median(r["seconds"] for r in runs),
        "probes": probes,
        "scipy_loaded": any(r["scipy_modules"] for r in runs),
    }


def timed(fn, repeats: int):
    """(first-call, best and median seconds, result) over repeats calls of fn."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times[0], min(times), statistics.median(times), result


def rule_times(mhfie, degrees=RULE_DEGREES) -> dict:
    """Best of RULE_REPEATS cold builds of the rule at each degree."""
    memo = getattr(mhfie.hermite, "_memoized_rule", None)  # absent before the memo

    def cold(degree: int) -> float:
        if memo is not None:
            memo.cache_clear()
        return timed(lambda: mhfie.hermite_gauss_rule(degree), 1)[1]

    return {str(d): min(cold(d) for _ in range(RULE_REPEATS)) for d in degrees}


def forcing_time(mhfie, n_list=FORCING_N, repeats: int = FORCING_REPEATS) -> float:
    """Best of repeats timings of the true forcing at the sweep-1d collocation nodes."""
    nodes = []
    for n in n_list:
        rule = mhfie.mhf_gauss_rule(mhfie.MhfBasis(alpha=FORCING_ALPHA, degree=n))
        nodes += zip(rule.nodes.tolist(), rule.nodes_complement.tolist())

    def manufacture():
        for name in FORCING_PROBLEMS:
            problem = mhfie.get_problem(name)
            for x, xc in nodes:
                mhfie.manufactured_forcing(problem, x, x_comp=xc)

    return min(timed(manufacture, 1)[1] for _ in range(repeats))


def ladder_point(mhfie, name: str, n: int, repeats: int = POINT_REPEATS) -> dict:
    """Times of solve, verify_residual and error_norms at one point with the
    solve's Newton and Krylov counts, or its failure."""
    problem = mhfie.get_problem(name)
    # alpha and the error norms' scales stay explicit: a copy of this script
    # run in an older checkout meets a SolverConfig whose own alpha default
    # is 1.0 and an error_norms that takes only a pair in 2D
    alpha = problem.default_alpha
    config = mhfie.SolverConfig(n=n, alpha=alpha)
    scales = alpha if problem.dimension == 1 else (alpha, alpha)
    point, record = {}, {"problem": name, "n": n, "alpha": alpha}
    stages = {
        "solve": lambda: mhfie.solve(problem, config),
        "verify_residual": lambda: mhfie.verify_residual(problem, config, point["solution"]),
        "error_norms": lambda: mhfie.error_norms(
            point["solution"].interpolant, problem.exact_solution, scales,
            dim=problem.dimension, degree=n,
        ),
    }
    for stage, fn in stages.items():
        try:
            first, best, median, result = timed(fn, repeats)
        except Exception as exc:  # a failing point is recorded, not dropped
            record["failed"] = {"stage": stage, "error": type(exc).__name__,
                                "message": str(exc)}
            return record
        point["solution" if stage == "solve" else stage] = result
        record[f"{stage}_first_s"], record[f"{stage}_s"] = first, best
        record[f"{stage}_median_s"] = median
    record["certificate"] = point["verify_residual"]
    record["err_inf"] = point["error_norms"].err_inf
    record["newton_iters"] = point["solution"].newton_iters
    record["krylov_iters"] = list(point["solution"].krylov_iters)
    return record


def memo_charge(mhfie) -> dict:
    """The bytes the package's memo is charged and its entries per key tag."""
    memo = mhfie._memo.memo
    return {"nbytes": memo.nbytes, "entries": dict(Counter(key[0] for key in memo.entries))}


def run(tag: str) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy

    environment = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": NPROC, "blas_threads": BLAS_THREADS,
        "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    cold = cold_import()
    import mhfie

    return {
        "tag": tag,
        "environment": environment,
        "import": cold,
        "rule_s": rule_times(mhfie),
        "forcing_s": forcing_time(mhfie),
        "ladder": [ladder_point(mhfie, name, n) for name, ns in LADDER.items() for n in ns],
        "memo": memo_charge(mhfie),  # after the ladder: entries are evaluated in order
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["note"] = NOTE
    data.setdefault("runs", {})[args.tag] = run(args.tag)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
