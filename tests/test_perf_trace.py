"""The benchmark's tracer finds each layer by attribute name; a refactor that
moves one of those attributes must fail here, not at benchmark time."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from perf_trace import Tracer

    tracer = Tracer()
    try:
        tracer.install("check")
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, (owner, attr)
