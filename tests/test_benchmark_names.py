"""The benchmark times layers by wrapping heh's public names (the lexer, the
parse entries, box and partition lookup, `Session.select`, `format_value`
and the `Ordinal` operators).  A renamed or removed one would silently drop
out of its per-layer metric, so this test fails instead."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for the harness's own imports
    spec = importlib.util.spec_from_file_location("harness", PERFBENCH / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    assert harness.Tracer(harness.TARGETS).absent == []
