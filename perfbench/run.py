"""heh benchmark: one workload, end to end (--trace 0) or layer by layer
(--trace 1).

    python3 perfbench/run.py --workload nats --seed 7 --seconds 30 --trace 0

Run from the root of a heh checkout: heh is imported from its `src/`.  The
seed makes every program and index the workload sends to heh.  Untraced,
the run measures as many whole rounds as take about `--seconds` on a 2-core
VM; the count is fixed, so every run of a seed does the same work.  Traced,
it replays one window of the first round for about `--seconds`.  Every
result is checked against an oracle that does not use heh.  The run prints
a table, then, as its last line, one JSON object: {"correct", "attempted",
"failed", "metrics"}.  `correct` is false when some operation printed or
returned a wrong value; `failed` also counts operations that raised an
error kind other than the expected one.  Metric names and units are listed
in BENCHMARK.json; perfbench/README.md defines them.

Exit status: 0 with a result, 2 when heh cannot be imported, 3 when two
executions of the same operation counted different work.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

UNITS = {
    "setup_s": "s", "op_p50_ref": "ratio", "op_tail_ref": "ratio",
    "ops_per_ref": "1/ref", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "setup_wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "host.ref_loop_s": "s",
    "syntax.tokenize_s": "s", "syntax.parse_s": "s", "syntax.tokens_per_s": "1/s",
    "prelude.load_s": "s", "prelude.syntax_s": "s", "prelude.eval_s": "s",
    "ordinal.calls": "count", "ordinal.self_s": "s",
    "ordinal.add_nat_ns": "ns", "ordinal.add_lim_ns": "ns",
    "ordinal.lt_nat_ns": "ns", "ordinal.divmod_ns": "ns",
    "runtime.box_contains.calls": "count", "runtime.box_contains.self_s": "s",
    "runtime.box_subtract.calls": "count",
    "runtime.forms_partition.calls": "count", "runtime.forms_partition.self_s": "s",
    "eval.rules": "count", "eval.body_evals": "count",
    "eval.predicate_calls": "count", "eval.select.calls": "count",
    "eval.self_s": "s", "eval.us_per_rule": "us", "eval.live_kb": "KiB",
    "cli.format_s": "s", "cli.format_calls": "count",
    "trace.overhead": "ratio",
}


def import_heh():
    """Put this checkout's heh first on the path, or exit 2 without a result."""
    if not (SOURCE / "heh" / "__init__.py").is_file():
        print(f"perfbench: no heh sources at {SOURCE}; run from a heh checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
    import heh
    if Path(heh.__file__).resolve().parent != SOURCE / "heh":
        print(f"perfbench: imported heh from {heh.__file__}, not {SOURCE}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ackermann", "nats", "repl_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_heh()
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed)
    print(f"workload {workload.name}, seed {args.seed}")
    if args.trace:
        try:
            metrics, absent, tally = harness.run_layers(
                workload.window(next(rounds)), args.seed, args.seconds)
        except harness.NondeterminismError as error:
            print(f"perfbench: nondeterministic rule counts: {error}", file=sys.stderr)
            return 3
        shown = metrics
        notes = {key: "absent" for key in absent}
    else:
        tally = harness.run_end_to_end(rounds, workload.round_count(args.seconds))
        metrics = harness.end_to_end_metrics(tally)
        shown = {**metrics, **harness.wall_clock_metrics(tally)}
        _, percentile, n = harness.tail(tally.latencies)
        tail_note = f"p{percentile:.1f} of {n} ops"
        notes = {"op_p50_ref": f"{n} ops", "op_p50_s": f"{n} ops",
                 "op_tail_ref": tail_note, "op_tail_s": tail_note,
                 "setup_s": f"{len(tally.setups)} set-ups",
                 "setup_wall_s": f"{len(tally.setups)} set-ups",
                 "host.ref_loop_s": f"{len(tally.refs)} samples"}
    for detail in tally.failures[:5]:
        print(f"failed: {detail}")
    for name, value in shown.items():
        bounded = "" if name in metrics else "(not bounded)"
        print(f"  {name:32} {value:>16.6g} {UNITS[name]:6} {notes.get(name, '')} {bounded}")
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
