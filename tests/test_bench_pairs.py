"""The summary that scripts/bench_pairs.py writes, on canned result lines."""

import json
from pathlib import Path

import pytest

from scripts.bench_pairs import bounds, directions, main, src_lines, summarize

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


def paired(values, p50=5.0):
    """Runs from (parent, change) graphs_per_s values, one pair each, with
    latency_ms_p50 fixed; the side that runs first alternates."""
    runs = []
    for i, (p, c) in enumerate(values):
        sides = [("parent", p), ("change", c)]
        for side, v in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run(side, i, result(v, p50)))
    return runs


BOUNDS = {"graphs_per_s": 0.25, "latency_ms_p50": 0.25}


def gps_verdict(values):
    return summarize(paired(values), BETTER, BOUNDS)["ladder-color"][
        "graphs_per_s"]["verdict"]


PARENT = [100.0 + i for i in range(10)]  # q1 102.25, q3 106.75


@pytest.mark.parametrize("values, expected", [
    # 10/10 and the medians 15.5 apart, the parent's q3 - q1 4.5
    (list(zip(PARENT, [120.0] * 10)), "gain"),
    # 10/10 but the medians only 0.8 apart
    ([(p, p + 0.8) for p in PARENT], "within bound"),
    # 8/10 is too few, however far apart
    (list(zip(PARENT, [120.0] * 8 + [90.0] * 2)), "within bound"),
    # 9/10 with one tie: ties count for neither side
    (list(zip(PARENT, [120.0] * 9 + [109.0])), "gain"),
    ([(100.0, 70.0)] * 4, "worse"),
    ([(100.0, 76.0)] * 4, "within bound"),
    # the parent's q3 - q1 is 75 at a median of 125, wider than 0.25 of it;
    # the change loses one pair, then wins all four
    (list(zip((50.0, 100.0, 150.0, 200.0), (120.0, 90.0, 160.0, 210.0))),
     "unresolved"),
    (list(zip((50.0, 100.0, 150.0, 200.0), (60.0, 110.0, 160.0, 210.0))),
     "within bound"),
])
def test_verdicts(values, expected):
    assert gps_verdict(values) == expected


@pytest.mark.parametrize("values", [
    list(zip(PARENT[:3], [120.0] * 3)),
    [(100.0, 120.0)],
])
def test_too_few_pairs_are_no_gain(values):
    # 3/3 and 1/1 far apart are too few pairs for a gain
    assert gps_verdict(values) == "within bound"


def test_verdict_follows_the_direction():
    runs = paired([(100.0, 100.0)] * 10)
    for r in runs:  # the change's latency halves
        if r["side"] == "change":
            r["result"]["metrics"]["latency_ms_p50"]["value"] = 2.5
    s = summarize(runs, BETTER, BOUNDS)["ladder-color"]
    assert s["latency_ms_p50"]["verdict"] == "gain"
    assert s["graphs_per_s"]["verdict"] == "within bound"
    assert "verdict" not in summarize(runs, BETTER)["ladder-color"][
        "graphs_per_s"]


def test_directions_come_from_the_benchmark():
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["graphs_per_s"] == "higher"
    assert better["peak_rss_mb"] == "lower"
    assert better["decompose.find_clique_cutset.hit_ratio"] == "higher"
    bound = bounds(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert bound["graphs_per_s"] == 0.25 and bound["peak_rss_mb"] == 0.1
    assert "decompose.find_clique_cutset.hit_ratio" not in bound


def test_pair_count_is_required():
    with pytest.raises(SystemExit):
        main(["--rev", "HEAD", "--name", "unused", "--seed", "1",
              "--seconds", "1", "--workload", "ladder-color"])


def test_src_lines_counts_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("z = 3\n\n\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("not counted\n")
    assert src_lines(tmp_path) == 5
