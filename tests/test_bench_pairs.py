"""The summary that `bench_pairs.py` prints, on fixed numbers: no benchmark runs."""

import pytest
from bench_pairs import last_result, summarize


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
