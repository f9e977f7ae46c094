"""The benchmark drives heh through its names (`heh.evaluate`,
`heh.load_prelude`, `heh.cli.repl_loop`, a session's `run_program`, `fuel`
and `stats`, ...), and times layers by wrapping some of them (the lexer, the
parse entries, box and partition lookup, `Session.select`, `format_value` and
the `Ordinal` operators).  A renamed or removed one would end a run with
`run_failed` or silently drop out of its per-layer metric, so these tests
fail instead."""

import importlib
import importlib.util
import re
from pathlib import Path

import heh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DOTTED = re.compile(r"(?<![\w.])heh(?:\.\w+)+")  # heh.cli.format_value, not nats.heh


def perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for the module's own imports
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object a dotted name denotes, importing submodules on the way."""
    parts = dotted.split(".")
    value = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            value = getattr(value, part)
        except AttributeError:
            value = importlib.import_module(".".join(parts[:i]))
    return value


def test_every_heh_name_the_benchmark_calls_exists():
    names = {name for path in PERFBENCH.glob("*.py")
             for name in DOTTED.findall(path.read_text())}
    assert {"heh.load_prelude", "heh.cli.repl_loop",
            "heh.syntax.parse_program"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except ImportError:  # a missing attribute, looked for as a module
            missing.append(name)
    assert missing == []


def test_a_session_has_what_the_benchmark_reads(monkeypatch):
    workloads = perfbench_module(monkeypatch, "workloads")
    session = heh.evaluate("1").session
    assert callable(session.run_program)
    assert session.fuel is None
    assert set(workloads.COUNT_KEYS) <= session.stats.keys()


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    harness = perfbench_module(monkeypatch, "harness")
    assert harness.Tracer(harness.TARGETS).absent == []
