"""Tests of the benchmark itself: oracles, the failure self-check, the
determinism check, tracing of names that no longer exist, and a short run
of every workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


### oracles

def test_ackermann_oracle_matches_closed_forms():
    table = oracles.ackermann_table(3, 6)
    assert table[(3, 6)] == 509
    closed = {0: lambda n: n + 1, 1: lambda n: n + 2, 2: lambda n: 2 * n + 3,
              3: lambda n: 2 ** (n + 3) - 3}
    assert all(value == closed[m](n) for (m, n), value in table.items())
    assert len(table) == 1277       # one body evaluation per memoized entry


def test_life_oracle_blinker_has_period_two():
    blinker = {(1, 2), (2, 2), (3, 2)}
    assert oracles.life_steps(blinker, 1, 5, 5) == {(2, 1), (2, 2), (2, 3)}
    assert oracles.life_steps(blinker, 2, 5, 5) == blinker


def test_mixed_radix_round_trip():
    radices = [7, 11, 13]
    for offset in range(7 * 11 * 13):
        digits = oracles.mixed_radix_digits(offset, radices)
        assert oracles.mixed_radix_offset(digits, radices) == offset


def test_lazy_text_layout():
    assert oracles.lazy_text("w", [(["0", "1"], True)]) == "<imap shape=[w]> [0, 1, ... ]"
    assert oracles.lazy_text("w + 2", [(["0"], True), (["w", "w + 1"], False)]) == \
        "<imap shape=[w + 2]> [0, ..., w, w + 1]"
    assert oracles.ordinal_text("w*2", 0) == "w*2"
    assert oracles.ordinal_text("", 0) == "0"


def test_tail_leaves_ten_samples_above():
    samples = list(range(34))
    value, percentile, n = harness.tail(samples)
    assert sum(s > value for s in samples) == 10 and n == 34
    assert percentile == pytest.approx(100 * 24 / 34)
    assert harness.tail([3, 1, 2]) == (3, 100.0, 3)


### the checks the benchmark makes

@pytest.mark.parametrize("name", ["ackermann", "repl_mix"])
def test_corrupted_expectation_is_counted_as_failed(name):
    rnd = next(workloads.WORKLOADS[name].rounds(5))
    if name == "repl_mix":
        rnd = Round(rnd.ops[:8], rnd.setup)
    honest, corrupted = harness.Tally(), harness.Tally()
    harness._run_round(rnd, honest)
    harness._run_round(workloads.corrupt(rnd), corrupted)
    assert honest.failed == 0
    assert corrupted.failed == 1 and corrupted.wrong == 1
    assert harness.end_to_end_metrics(corrupted)["ok_ratio"] < 1


def test_entries_that_must_fail_fail_with_their_kind():
    rnd = next(workloads.WORKLOADS["repl_mix"].rounds(9))
    session = rnd.start()
    for op in rnd.ops[:4]:
        op.run(session)
    wrong_kind = workloads.Entry("5 / 0", error="IndexOutOfBounds")
    assert workloads.Entry("5 / 0", error="DivisionByZero").run(session)[0].status == "ok"
    assert wrong_kind.run(session)[0].status == "error"
    assert workloads.Entry("5", error="DivisionByZero").run(session)[0].status == "error"


class _DriftingOp:
    """Counts one more rule every time it runs."""

    def __init__(self):
        self.runs = 0

    def run(self, _session):
        self.runs += 1
        return Outcome("ok", counts=(self.runs, 0, 0)), None


def test_differing_rule_counts_stop_the_traced_run():
    window = Round([_DriftingOp()])
    with pytest.raises(harness.NondeterminismError):
        harness._replay(window, harness.Tracer(harness.TARGETS), harness.LayerRun(), None)


def test_traced_run_survives_a_removed_name(monkeypatch):
    renamed = tuple(t if t[0] != "runtime.forms_partition"
                    else (t[0], t[1], "forms_partition_removed") for t in harness.TARGETS)
    monkeypatch.setattr(harness, "TARGETS", renamed)
    rnd = next(workloads.WORKLOADS["repl_mix"].rounds(2))
    window = Round(rnd.ops[:6], rnd.setup)
    metrics, absent, tally = harness.run_layers(window, seed=2, seconds=0)
    assert absent == ["runtime.forms_partition"]
    assert metrics["runtime.forms_partition.calls"] == 0
    assert metrics["eval.rules"] > 0 and tally.failed == 0


def test_tracer_restores_every_wrapped_name():
    import heh.eval
    import heh.ordinal
    before = (heh.eval.box_contains, heh.eval.Session.select,
              heh.ordinal.Ordinal.__dict__["__add__"])
    tracer = harness.Tracer(harness.TARGETS)
    with tracer.active():
        assert heh.eval.box_contains is not before[0]
        assert heh.ordinal.Ordinal(2) + heh.ordinal.Ordinal(3) == 5
    assert tracer.calls["ordinal"] >= 1
    assert (heh.eval.box_contains, heh.eval.Session.select,
            heh.ordinal.Ordinal.__dict__["__add__"]) == before


### the command

def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(name, trace):
    proc = _run(["--workload", name, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if name != "nats":
        assert result["failed"] == 0


def test_rule_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        proc = _run(["--workload", "repl_mix", "--seed", "3", "--seconds", "1",
                     "--trace", "1"])
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append([metrics[f"eval.{k}"]["value"]
                       for k in ("rules", "body_evals", "predicate_calls")])
    assert counts[0] == counts[1] and counts[0][0] > 0


def test_without_heh_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "repl_mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_fixes_the_inputs():
    def sources(seed):
        rounds = workloads.WORKLOADS["repl_mix"].rounds(seed)
        return [op.source for op in next(rounds).ops]
    assert sources(4) == sources(4) != sources(5)
    nats = workloads.nats_round(random.Random(4))
    assert nats.ops[-1].probes[0][0][0] >= workloads.NATS_DEEP[0]
