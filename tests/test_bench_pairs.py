"""The summary that `bench_pairs.py` prints, on fixed numbers: no benchmark runs."""

import pytest
from bench_pairs import last_result, summarize, verdict


def test_summary_of_fixed_pairs():
    pairs = [({"t": 1.0, "n": 10}, {"t": 0.5, "n": 12}),
             ({"t": 2.0, "n": 10}, {"t": 2.0, "n": 10}),   # a tie: neither side's
             ({"t": 3.0, "n": 10}, {"t": 3.5, "n": 9}),
             ({"t": 4.0, "n": 10}, {"t": 3.0, "n": 11})]
    summary = summarize(pairs, {"t": "lower", "n": "higher"})
    assert summary["t"] == {"parent_median": 2.5, "parent_iqr": 2.5, "change_median": 2.5,
                            "change_iqr": 2.5, "wins": 2, "pairs": 4}
    assert summary["n"] == {"parent_median": 10, "parent_iqr": 0.0, "change_median": 10.5,
                            "change_iqr": 2.5, "wins": 2, "pairs": 4}
    # one pair has no spread
    assert summarize(pairs[:1], {"t": "lower"})["t"]["parent_iqr"] == 0.0


def test_the_result_is_the_last_json_line():
    stdout = 'workload nats, seed 1\n  op_p50_ref 1.0\n{"correct": true}\n{"correct": false}\n'
    assert last_result(stdout) == {"correct": False}
    with pytest.raises(ValueError):
        last_result("no result\n")


def test_the_verdict_of_fixed_summaries():
    # ten pairs; the parent reads 1.0 to 1.9, whose quartiles are 1.175 and 1.725
    parent = [1.0 + k / 10 for k in range(10)]

    def summary(change, better="lower"):
        pairs = list(zip([{"t": p} for p in parent], [{"t": c} for c in change]))
        return summarize(pairs, {"t": better})["t"]
    assert summary(parent)["parent_iqr"] == pytest.approx(0.55)
    faster = [p - 0.6 for p in parent]  # 10/10 better, by more than the IQR
    assert verdict(summary(faster), "lower", 0.25) == "gain"
    nine = faster[:9] + [parent[9] + 0.1]  # 9/10 is enough
    assert verdict(summary(nine), "lower", 0.25) == "gain"
    eight = faster[:8] + [parent[8] + 0.1, parent[9] + 0.1]  # 8/10 is not
    assert verdict(summary(eight), "lower", 0.25) == "unresolved"
    a_little = [p - 0.1 for p in parent]  # 10/10 better, by less than the IQR
    assert verdict(summary(a_little), "lower", 0.25) == "unresolved"
    slower = [p * 1.3 for p in parent]  # the median 30% worse, past a bound of 25%
    assert verdict(summary(slower), "lower", 0.25) == "worse"
    assert verdict(summary(slower), "lower", 0.5) == "unresolved"
    # where higher is better, the same readings turn round
    assert verdict(summary(slower, "higher"), "higher", 0.25) == "unresolved"  # 0.435 < 0.55
    assert verdict(summary([p * 1.5 for p in parent], "higher"), "higher", 0.25) == "gain"
    assert verdict(summary(faster, "higher"), "higher", 0.25) == "worse"  # 41% below
