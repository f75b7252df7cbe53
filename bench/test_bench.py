"""Tests for the benchmark itself: seeded generators, the correctness gate,
the reference-speed scaling, the tracing wrappers and the metric names in
BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from bench import gate, ladders, run  # noqa: E402
from bench.speed import REFERENCE_S, Speed, reference  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import COLOR_MAX_FACE, FIXTURE, PINS, WORKLOADS  # noqa: E402
from isk4lab.graphs import Graph, parse_graph6  # noqa: E402

GENERATORS = {
    "partial_2tree": lambda rng, n: ladders.partial_2tree(rng, n),
    "planted_isk4": lambda rng, n: ladders.planted_isk4(rng, n)[:2],
    "series_parallel": lambda rng, n: ladders.series_parallel(rng, 2 * n, COLOR_MAX_FACE),
}


def _lines(make, seed):
    rng = random.Random(seed)
    return [ladders.graph6(*make(rng, n)) for n in range(8, 19)]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic(name):
    make = GENERATORS[name]
    assert _lines(make, 7) == _lines(make, 7)
    assert _lines(make, 7) != _lines(make, 8)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_graph6_writer_matches_the_parser(name):
    rng = random.Random(3)
    for n in range(8, 19):
        n, edges = GENERATORS[name](rng, n)
        assert parse_graph6(ladders.graph6(n, edges)) == Graph.from_edges(n, edges)


def test_planted_core_is_a_k4_subdivision():
    rng = random.Random(5)
    for n in range(8, 19):
        n, edges, core = ladders.planted_isk4(rng, n)
        assert gate.is_k4_subdivision(edges, core)


def test_series_parallel_is_2_connected():
    rng = random.Random(11)
    for n in range(20, 41, 2):
        n, edges = ladders.series_parallel(rng, n, COLOR_MAX_FACE)
        g = Graph.from_edges(n, edges)
        assert len({v for e in edges for v in e}) == n
        for v in range(n):  # no cut vertex
            rest = [u for u in range(n) if u != v]
            seen, todo = {rest[0]}, [rest[0]]
            while todo:
                u = todo.pop()
                for w in range(n):
                    if w != v and w not in seen and g.has_edge(u, w):
                        seen.add(w)
                        todo.append(w)
            assert len(seen) == n - 1


# -- gate ------------------------------------------------------------------


def test_gate_accepts_a_k4_subdivision_and_rejects_other_masks():
    # K4 on 0..3 with edge 0-1 subdivided by 4, plus a pendant vertex 5 on 4
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4), (4, 5)]
    assert gate.isk4_mask_ok(6, edges, 0b011111)
    assert not gate.isk4_mask_ok(6, edges, 0b111111)  # pendant vertex kept
    assert not gate.isk4_mask_ok(6, edges, 0b001111)  # K4 minus an edge
    assert not gate.isk4_mask_ok(6, edges, 0b010011 | 1 << 2)  # a 4-cycle
    assert not gate.isk4_mask_ok(6, edges, None)
    assert not gate.isk4_mask_ok(6, edges, 1 << 6 | 0b011111)  # out of range


def test_gate_rejects_a_corrupted_colouring():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    good = (0, 1, 2, 1)
    assert gate.coloring_ok(4, edges, good, 3)
    assert not gate.coloring_ok(4, edges, (0, 1, 0, 1), 2)  # 0-2 clash
    assert not gate.coloring_ok(4, edges, good, 5)          # more than four
    assert not gate.coloring_ok(4, edges, (0, 1, 2), 3)     # too short
    assert not gate.coloring_ok(4, edges, (0, 1, 3, 1), 3)  # outside palette


def test_colour_gate_catches_a_corrupted_library_result():
    w = WORKLOADS["ladder-color"]
    lib = run.import_fresh()
    unit = w.setup(lib, 1)[0]
    out = w.call(lib, None, unit, lambda: None)
    assert w.failed(unit, out) == 0
    (col, trace), replayed = out
    u, v = unit.expect[1][0]
    bad = list(col.color)
    bad[u] = bad[v]
    broken = type(col)(tuple(bad), col.k)
    assert w.failed(unit, ((broken, trace), broken)) == 1
    assert w.failed(unit, ((col, trace), broken)) == 1  # replay differs


def test_scan_gate_checks_pinned_counts():
    w = WORKLOADS["scan-stream"]
    lib = run.import_fresh()
    unit = w.setup(lib, 2)[0]
    out = w.call(lib, w.config(lib), unit, lambda: None)
    assert w.failed(unit, out) == 0
    read, free, k123 = unit.expect
    unit.expect = (read, free + 1, k123)
    assert w.failed(unit, out) == unit.graphs


def test_pins_match_the_fixture():
    pins = json.loads(PINS.read_text())["scan_stream"]
    data = (ROOT / FIXTURE).read_bytes()
    assert pins["sha256"] == hashlib.sha256(data).hexdigest()
    assert pins["lines"] == len(data.splitlines())


# -- reference speed -------------------------------------------------------


def test_a_call_is_scaled_by_the_samples_on_either_side():
    s = Speed()
    s.at, s.took = [1.0, 3.0, 5.0], [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert s.scaled(1.5, 2.5) == pytest.approx(1.0 / 1.5)
    assert s.scaled(3.5, 4.0) == pytest.approx(0.5 / 3)
    with pytest.raises(ValueError):
        s.scaled(0.5, 2.0)  # no sample before the call
    with pytest.raises(ValueError):
        s.scaled(4.0, 6.0)  # none after it
    s.at[0] = 0.4  # a call from 0.5 to 4.5 took the middle sample itself
    assert s.scaled(0.5, 4.5) == pytest.approx((4.0 - 2 * REFERENCE_S) / (7 / 3))


def test_reference_work_is_fixed():
    sizes, records = reference()
    assert sum(sizes.values()) == 520 and sizes[11] == 1 and records == 3000


# -- tracing ---------------------------------------------------------------


def test_wrappers_return_what_the_originals_return():
    lib = run.import_fresh()
    graphs = [parse_graph6(x) for x in ("C~", "EhEG", "Evz_", "FT\\}_", "DUW")]
    scan_lines = ["C~", "EhEG", "Evz_", "FT\\}_", "DUW", "Fyb__"]
    cfg = lib.scan.ScanConfig(checks=lib.scan.CHECKS)

    def outputs():
        return ([lib.patterns.contains_isk4(g) for g in graphs],
                [lib.coloring.structural_four_coloring(g) for g in graphs],
                [list(lib.lemmas.iter_maximal_k12n(g, 2)) for g in graphs],
                lib.scan.scan_stream(scan_lines, cfg).to_json())

    originals = {(m, a): getattr(getattr(lib, m), a)
                 for m, a in (("patterns", "contains_isk4"), ("scan", "parse_graph6"),
                              ("lemmas", "iter_maximal_k12n"))}
    plain = outputs()
    tracer = Tracer()
    tracer.install(lib)
    try:
        assert lib.patterns.contains_isk4 is not originals["patterns", "contains_isk4"]
        traced = outputs()
    finally:
        tracer.restore()
    assert traced == plain
    for (m, a), fn in originals.items():
        assert getattr(getattr(lib, m), a) is fn
    calls, self_s = tracer.layer_times()
    assert calls["scan"] == 1 and calls["graphs.parse_graph6"] == len(scan_lines)
    assert all(t >= 0 for t in self_s.values())


def test_self_time_subtracts_children():
    t = Tracer()
    outer = t.open("a")
    inner = t.open("b")
    t.close(inner)
    t.close(outer)
    t.start[outer], t.end[outer] = 0.0, 10.0
    t.start[inner], t.end[inner] = 2.0, 5.0
    calls, self_s = t.layer_times()
    assert (calls["a"], self_s["a"], self_s["b"]) == (1, 7.0, 3.0)


# -- metric names ----------------------------------------------------------


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, key, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "ladder-color", "--seed", "1",
                     "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[key]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
