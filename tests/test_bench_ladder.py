"""Smoke test of the fixed-ladder timing tool that writes the BENCH files."""

import importlib.util
from pathlib import Path

import mhfie
import mhfie._memo
import mhfie.hermite
import mhfie.problem

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ladder.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_points_record_times_or_the_failure():
    tool = _tool()
    # a linear 1D problem takes one dense step; ex3-alg three GMRES steps
    counts = {"ex1-log": (1, []), "ex3-alg": (3, [2, 3, 3])}
    for name, (newton, krylov) in counts.items():
        point = tool.ladder_point(mhfie, name, 8, repeats=1)
        assert "failed" not in point, point
        assert (point["newton_iters"], point["krylov_iters"]) == (newton, krylov)
        for stage in ("solve", "verify_residual", "error_norms"):
            assert point[f"{stage}_s"] > 0.0
            assert point[f"{stage}_median_s"] == point[f"{stage}_s"]  # one call
        assert point["certificate"] <= mhfie.SolverConfig(n=8).newton_tol
        assert point["err_inf"] >= 0.0
    # ex1-log at N=92 and alpha 0.5 fails to assemble (ROADMAP item 4)
    failed = tool.ladder_point(mhfie, "ex1-log", 92, repeats=1)["failed"]
    assert failed["stage"] == "solve" and failed["error"] == "AssemblyError"
    assert "lower n or raise alpha" in failed["message"]


def test_timed_reports_the_first_the_best_and_the_median_call(monkeypatch):
    tool = _tool()
    clock = iter([0.0, 4.0, 10.0, 11.0, 20.0, 22.0, 30.0, 39.0])  # calls of 4, 1, 2, 9 s
    monkeypatch.setattr(tool.time, "perf_counter", lambda: next(clock))
    calls = []
    first, best, median, result = tool.timed(lambda: calls.append(1) or len(calls), 4)
    assert (first, best, median, result) == (4.0, 1.0, 3.0, 4)


def test_rule_times_build_every_repetition_cold(monkeypatch):
    tool = _tool()
    built = []
    build = mhfie.hermite._build_rule
    monkeypatch.setattr(mhfie.hermite, "_build_rule",
                        lambda degree: built.append(degree) or build(degree))
    times = tool.rule_times(mhfie, degrees=(8, 12))
    assert set(times) == {"8", "12"} and min(times.values()) > 0.0
    assert built == [8] * tool.RULE_REPEATS + [12] * tool.RULE_REPEATS


def test_forcing_time_manufactures_every_node_on_fresh_instances(monkeypatch):
    tool = _tool()
    fresh, actions = [], []
    get_problem, action = mhfie.get_problem, mhfie.problem._kernel_action_1d
    monkeypatch.setattr(mhfie, "get_problem",
                        lambda name: fresh.append(name) or get_problem(name))
    monkeypatch.setattr(mhfie.problem, "_kernel_action_1d",
                        lambda *args, **kw: actions.append(args[2]) or action(*args, **kw))
    assert tool.forcing_time(mhfie, n_list=(4, 8), repeats=2) > 0.0
    assert fresh == list(tool.FORCING_PROBLEMS) * 2
    # the 5 + 9 nodes share the midpoint: 13 kernel actions per instance
    assert len(actions) == 13 * len(fresh)


def test_memo_charge_counts_the_entries_per_tag():
    tool = _tool()
    memo = mhfie._memo.memo
    memo.clear()
    tool.ladder_point(mhfie, "ex1-log", 8, repeats=1)
    tool.ladder_point(mhfie, "ex3-alg", 8, repeats=1)
    charge = tool.memo_charge(mhfie)
    assert charge["nbytes"] == memo.nbytes == sum(v.nbytes for v in memo.entries.values())
    # both points are at alpha 0.5 and N=8, so they share E, the basis and
    # the terms at the norm rule's nodes; each keeps its W and its fixed
    # grid's terms, the 1D point its inverse and the 2D point its eigenbasis
    assert charge["entries"] == {"cardinals": 1, "basis": 1, "kernel": 2, "inverse": 1,
                                 "eigen": 1, "terms": 3}
