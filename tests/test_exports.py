"""Every exported name resolves, so a removal cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    [
        "mhfie",
        "mhfie.hermite",
        "mhfie.mhf",
        "mhfie.approx",
        "mhfie.problem",
        "mhfie.solver",
        "mhfie.cli",
    ],
)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
