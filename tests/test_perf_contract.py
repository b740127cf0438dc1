"""The benchmark calls the public API (solve, verify_residual, error_norms,
manufactured_forcing with the complement coordinates, the rules and their
Solution fields); a refactor that breaks one of those calls must fail here,
not at benchmark time."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _digits_bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "digits")


@pytest.mark.parametrize("name", ["sweep-1d", "newton-2d", "rule-hi"])
def test_workload_ops_pass_their_checks(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import perf_workloads

    workload = perf_workloads.make(name, seed=1, bound=_digits_bound())
    ops = workload.pass_ops(0)
    assert ops
    if name == "sweep-1d":
        # Both routes with the true forcing: the pair check compares them.
        low = min(op.n for op in ops)
        chosen = [op for op in ops if op.n == low and op.problem == ops[0].problem]
        assert {(op.route, op.forcing) for op in chosen} == {
            (route, forcing)
            for route in (perf_workloads.METHOD_MHF, perf_workloads.METHOD_SMOOTHED)
            for forcing in (perf_workloads.SYNTH, perf_workloads.TRUE)
        }
    else:
        chosen = sorted(ops, key=lambda op: op.n)[:3]
    outputs = {op: workload.run(op) for op in chosen}
    for op, out in outputs.items():
        assert workload.check(op, out) == [], op
    assert workload.check_pass(outputs) == {}
