"""Paired runs of the benchmark on two heh checkouts, and their summary.

    python tests/bench_pairs.py PARENT CHANGE [--workloads W ...] [--seeds N ...]
    python tests/bench_pairs.py --aa TREE [--workloads W ...] [--seeds N ...]

For each seed and each workload, it runs `perfbench/run.py` of each checkout
in a fresh process, from the checkout's root, for the `run_seconds` of the
change's BENCHMARK.json: the parent first on even seeds, the change first on
odd ones.  It prints each run's end-to-end metrics, read
from the last JSON line the run printed.  Then, for each workload and metric,
it prints the medians and interquartile ranges of both sides, the change in
the median, and the pairs in which the change read better by the metric's
`better` in the change's BENCHMARK.json.  A tie counts for neither side.
Last comes a verdict for each workload and metric (see `verdict`): `gain`,
`worse` or `unresolved`.

`--aa TREE` pairs TREE, as the parent, with a copy of its working tree less
`.git`, untracked files included, made beside it under a name of the same
length, and removes the copy at the end, also when a run fails or is stopped.  Such a
run shows how far the host and the checkout's path move the metrics when the
code does not change.

The script writes no file of its own; the runs inherit its environment.
Only the standard library is needed.  It is not part of Tier-1.
"""

import argparse
import json
import shutil
import statistics
import string
import subprocess
import sys
from pathlib import Path


def last_result(stdout: str) -> dict:
    """The JSON object on the last line of `stdout` that holds one."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result one run of `tree`'s benchmark prints."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return last_result(proc.stdout)


def quartile_range(values: list) -> float:
    """The distance between the quartiles of `values` (`statistics.quantiles`)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list, better: dict) -> dict:
    """For each metric of `better` ("lower" or "higher" for each name), from
    `pairs` of (parent metrics, change metrics) of one workload: the medians
    and quartile ranges of both sides, the pairs in which the change read
    better, and the number of pairs."""
    summary = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1 if direction == "lower" else 1
        summary[name] = {
            "parent_median": statistics.median(parent), "parent_iqr": quartile_range(parent),
            "change_median": statistics.median(change), "change_iqr": quartile_range(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs)}
    return summary


def verdict(s: dict, better: str, bound: float) -> str:
    """`gain` when the change read better in at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's quartile range;
    `worse` when its median is worse than the parent's by more than `bound`,
    a fraction of the parent's median; else `unresolved`.  `s` is a metric's
    entry of `summarize`, `better` its "lower" or "higher"."""
    gain = (s["change_median"] - s["parent_median"]) * (-1 if better == "lower" else 1)
    if 10 * s["wins"] >= 9 * s["pairs"] and gain > s["parent_iqr"]:
        return "gain"
    if -gain > bound * abs(s["parent_median"]):
        return "worse"
    return "unresolved"


def same_length_copy(tree: Path) -> Path:
    """A copy of the working tree `tree`, less its `.git`, made beside it
    under a new name as long as its own; a copy left partial is removed."""
    for c in string.ascii_lowercase + string.digits:
        copy = tree.with_name(tree.name[:-1] + c)
        if not copy.exists():
            try:
                shutil.copytree(tree, copy, symlinks=True, ignore=shutil.ignore_patterns(".git"))
            except BaseException:
                shutil.rmtree(copy, ignore_errors=True)
                raise
            return copy
    raise SystemExit(f"no free name of the length of {tree.name!r} beside it")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="PARENT CHANGE")
    parser.add_argument("--aa", type=Path, metavar="TREE",
                        help="pair TREE with a copy of it")
    parser.add_argument("--workloads", nargs="+", help="default: those of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(3000, 3010)))
    args = parser.parse_args(argv)
    if (args.aa is None and len(args.trees) != 2) or (args.aa and args.trees):
        parser.error("give PARENT and CHANGE, or --aa TREE")
    parent = (args.aa or args.trees[0]).resolve()
    change = None if args.aa else args.trees[1].resolve()
    try:
        if args.aa:
            change = same_length_copy(parent)
        benchmark = json.loads((change / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
        print(f"parent {parent}\nchange {change}")
        pairs = {workload: [] for workload in workloads}
        for seed in args.seeds:
            for workload in workloads:
                sides = (parent, change) if seed % 2 == 0 else (change, parent)
                results = {tree: run(tree, workload, seed, benchmark["run_seconds"])
                           for tree in sides}
                pair = []
                for side, tree in (("parent", parent), ("change", change)):
                    result = results[tree]
                    metrics = {name: result["metrics"][name]["value"] for name in better}
                    line = "  ".join(f"{name} {value:.4g}" for name, value in metrics.items())
                    flag = "" if result["correct"] else "  (a wrong value)"
                    print(f"{workload} seed {seed} {side}: {line}{flag}")
                    pair.append(metrics)
                pairs[workload].append(tuple(pair))
    finally:
        if args.aa and change is not None:
            shutil.rmtree(change)
    summaries = {workload: summarize(runs, better) for workload, runs in pairs.items()}
    for workload, summary in summaries.items():
        print(f"{workload} ({len(pairs[workload])} pairs):")
        for name, s in summary.items():
            p, c = s["parent_median"], s["change_median"]
            moved = f"{(c - p) / p:+.1%}" if p else "n/a"
            print(f"  {name} ({better[name]} is better): median {p:.4g} (IQR "
                  f"{s['parent_iqr']:.4g}) -> {c:.4g} (IQR {s['change_iqr']:.4g}), {moved}; "
                  f"change better in {s['wins']}/{s['pairs']}")
    for workload, summary in summaries.items():
        for name, s in summary.items():
            print(f"verdict {workload} {name}: {verdict(s, better[name], bounds[name])}")


if __name__ == "__main__":
    main()
