"""The package runs on numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import math
    import sys

    sys.modules["scipy"] = None  # any scipy import now raises ImportError

    import mhfie
    from mhfie.cli import main

    for name, n in (("ex1-log", 16), ("ex3-alg", 8)):
        problem = mhfie.get_problem(name)
        alpha = problem.default_alpha
        config = mhfie.SolverConfig(n=n, alpha=alpha)
        solution = mhfie.solve(problem, config)
        assert mhfie.verify_residual(problem, config, solution) <= config.newton_tol
        scales = alpha if problem.dimension == 1 else (alpha, alpha)
        norms = mhfie.error_norms(
            solution.interpolant, problem.exact_solution, scales,
            dim=problem.dimension, degree=n,
        )
        assert math.isfinite(norms.err_inf) and math.isfinite(norms.err_l2chi)
    assert main(["solve", "--problem", "ex1-log", "--n", "16"]) == 0
    loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
    assert not loaded, loaded
    """
)


def test_package_runs_without_scipy():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "ex1-log" in result.stdout


def test_import_loads_no_masked_arrays():
    # numpy.ma costs 10-17 ms per process; the package needs none of it
    result = subprocess.run(
        [sys.executable, "-c", "import sys, mhfie; assert 'numpy.ma' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
