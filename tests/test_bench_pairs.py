"""The summary that scripts/bench_pairs.py writes, on canned result lines."""

import json
from pathlib import Path

import pytest

from scripts.bench_pairs import directions, main, summarize

ROOT = Path(__file__).resolve().parent.parent


def result(gps, p50, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"graphs_per_s": {"value": gps, "unit": "graphs/s"},
                        "latency_ms_p50": {"value": p50, "unit": "ms"}}}


def run(side, pair, res, workload="ladder-color"):
    return {"side": side, "workload": workload, "pair": pair, "result": res}


BETTER = {"graphs_per_s": "higher", "latency_ms_p50": "lower"}

# four pairs; the third ties on graphs_per_s and the fourth is a loss
RUNS = [
    run("parent", 0, result(100.0, 6.0)), run("change", 0, result(200.0, 4.0)),
    run("change", 1, result(210.0, 3.0)), run("parent", 1, result(110.0, 7.0)),
    run("parent", 2, result(120.0, 6.5)), run("change", 2, result(120.0, 3.5)),
    run("change", 3, result(90.0, 8.0, failed=1)), run("parent", 3, result(130.0, 5.0)),
]


def test_quartiles_ratio_and_wins():
    s = summarize(RUNS, BETTER)["ladder-color"]
    gps = s["graphs_per_s"]
    # parent 100, 110, 120, 130 and change 90, 120, 200, 210, inclusive method
    assert gps["parent"] == {"q1": 107.5, "median": 115.0, "q3": 122.5, "n": 4}
    assert gps["change"] == {"q1": 112.5, "median": 160.0, "q3": 202.5, "n": 4}
    assert gps["change_over_parent"] == 160.0 / 115.0
    assert gps["change_wins"] == "2/4"  # the tie counts for neither side
    assert s["latency_ms_p50"]["change_wins"] == "3/4"  # lower is better
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["correct"] is False


def test_workloads_kept_apart_and_half_pairs_not_counted():
    runs = RUNS[:2] + [run("parent", 0, result(50.0, 1.0), "scan-stream"),
                       run("parent", 1, result(60.0, 1.0), "scan-stream"),
                       run("change", 1, result(70.0, 1.0), "scan-stream")]
    s = summarize(runs, BETTER)
    assert list(s) == ["ladder-color", "scan-stream"]
    assert s["ladder-color"]["graphs_per_s"]["change_wins"] == "1/1"
    stream = s["scan-stream"]["graphs_per_s"]
    assert stream["change_wins"] == "1/1"  # pair 0 has no change run
    assert stream["parent"]["n"] == 2 and stream["change"]["n"] == 1
    assert stream["change"]["median"] == 70.0


def test_directions_come_from_the_benchmark():
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["graphs_per_s"] == "higher"
    assert better["peak_rss_mb"] == "lower"
    assert better["decompose.find_clique_cutset.hit_ratio"] == "higher"


def test_pair_count_is_required():
    with pytest.raises(SystemExit):
        main(["--rev", "HEAD", "--name", "unused", "--seed", "1",
              "--seconds", "1", "--workload", "ladder-color"])
