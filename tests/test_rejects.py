"""One broken input per reject branch of the certificate validators and of
the remaining error paths.

Each input breaks one condition and meets every other one the validator
tests, so it is rejected by that branch alone: a validator without the
branch would accept it.  Two LinkWitness guards are the exception, as
noted at their rows.  Where a shared graph carries a valid certificate, a
test checks that first."""

import pytest

from isk4lab.cli import EXIT_ERROR, main
from isk4lab.coloring import ColoringTrace, TraceStep, replay_trace
from isk4lab.decompose import MultipartiteCert, Proper2Cutset, SubcubicRootCert
from isk4lab.graphs import Graph, GraphFormatError, mask_of, parse_edge_list
from isk4lab.lemmas import AttachmentClass, LinkWitness, classify_component_attachment
from isk4lab.patterns import (K12nEmbedding, PatternWitness, SquareLink,
                              SquareLinkStructure)
from isk4lab.scan import WITNESS_CAP, ScanConfig, ScanReport, _blank_counters

from test_patterns import K123


def _graph(n, *edges):
    return Graph.from_edges(n, edges)


# -- decompose -------------------------------------------------------------

# a, b = 0, 1 non-adjacent; 2 and 3 see both; 4 sees 1 and 5
CUT = _graph(6, (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (4, 5))
# 0 sees 1..4, which see nothing else
STAR4 = _graph(5, (0, 1), (0, 2), (0, 3), (0, 4))
# the edge 01 with 2..5 complete to it
K2_PLUS = _graph(6, (0, 1), *((u, v) for u in (0, 1) for v in (2, 3, 4, 5)))


def test_proper_2cutset_host():
    assert Proper2Cutset(0, 1, mask_of((2, 3)), mask_of((4, 5))).validate(CUT)


@pytest.mark.parametrize("g,cert", [
    pytest.param(STAR4, Proper2Cutset(0, 0, mask_of((1, 2)), mask_of((3, 4))),
                 id="a-equals-b"),
    pytest.param(K2_PLUS, Proper2Cutset(0, 1, mask_of((2, 3)), mask_of((4, 5))),
                 id="a-b-adjacent"),
    pytest.param(CUT, Proper2Cutset(0, 1, mask_of((2, 3)), mask_of((4,))),
                 id="sides-miss-a-vertex"),
    pytest.param(CUT, Proper2Cutset(0, 1, mask_of((0, 2, 3)), mask_of((4, 5))),
                 id="side-meets-the-pair"),
    pytest.param(CUT, Proper2Cutset(0, 1, mask_of((2, 3, 4)), mask_of((5,))),
                 id="x-y-edge"),
])
def test_proper_2cutset_rejects(g, cert):
    assert not cert.validate(g)


@pytest.mark.parametrize("g,parts", [
    pytest.param(Graph.empty(3), (0b111,), id="one-part"),
    pytest.param(_graph(2, (0, 1)), (0b01, 0b10, 0), id="empty-part"),
    pytest.param(_graph(3, (0, 1), (0, 2), (1, 2)), (0b001, 0b010),
                 id="misses-a-vertex"),
])
def test_multipartite_rejects(g, parts):
    assert not MultipartiteCert(parts).validate(g)


@pytest.mark.parametrize("g,edge_of", [
    pytest.param(_graph(2, (0, 1)), ((0, 1), (0, 1)), id="repeated-root-edge"),
    pytest.param(_graph(4, *((u, v) for u in range(4) for v in range(u + 1, 4))),
                 ((0, 1), (0, 2), (0, 3), (0, 4)), id="root-degree-4"),
])
def test_subcubic_root_rejects(g, edge_of):
    assert not SubcubicRootCert(edge_of).validate(g)


# -- lemmas: LinkWitness ---------------------------------------------------

HEX = (0, 1, 2, 3, 4, 5)
_HEX_EDGES = tuple((i, (i + 1) % 6) for i in range(6))
# v = 6 sees 0 and 2 of the hexagon and reaches 4 through 7
LINKED = _graph(8, *_HEX_EDGES, (6, 0), (6, 2), (6, 7), (7, 4))
LINKAGE = ((6, 0), (6, 2), (6, 7, 4))


def test_link_host():
    assert LinkWitness(LINKAGE).validate(LINKED, HEX)


@pytest.mark.parametrize("g,paths", [
    pytest.param(LINKED, LINKAGE + ((6, 0),), id="four-paths"),
    pytest.param(_graph(8, *LINKED.edges(), (1, 4)), LINKAGE,
                 id="cycle-not-induced"),
    # an interior vertex next to v on the cycle also sees a cycle vertex
    # other than its path's end, so the interior test rejects this too
    pytest.param(_graph(8, *_HEX_EDGES, (0, 6), (6, 3)),
                 ((0, 1), (0, 5), (0, 6, 3)), id="v-on-the-cycle"),
    pytest.param(_graph(9, *LINKED.edges(), (6, 8)), ((6, 0), (6, 2), (6, 8)),
                 id="path-ends-off-the-cycle"),
    pytest.param(_graph(9, *_HEX_EDGES, (6, 0), (6, 2), (6, 7), (7, 8), (8, 4),
                        (6, 8)),
                 ((6, 0), (6, 2), (6, 7, 8, 4)), id="path-not-induced"),
    # an interior vertex on the cycle sees its two cycle neighbours, so the
    # interior test rejects this too
    pytest.param(LINKED, ((6, 0), (6, 2, 3), (6, 7, 4)),
                 id="interior-on-the-cycle"),
    pytest.param(_graph(8, *LINKED.edges(), (7, 5)), LINKAGE,
                 id="interior-sees-the-cycle"),
    pytest.param(LINKED, ((6, 0), (6, 0), (6, 2)), id="paths-share-more-than-v"),
    pytest.param(_graph(9, *_HEX_EDGES, (6, 0), (6, 8), (8, 2), (6, 7), (7, 4),
                        (7, 8)),
                 ((6, 0), (6, 8, 2), (6, 7, 4)), id="cross-edge"),
])
def test_link_witness_rejects(g, paths):
    assert not LinkWitness(paths).validate(g, HEX)


# -- lemmas: attachments ---------------------------------------------------

K123_H = K12nEmbedding(0, (1, 2), (3, 4, 5))


@pytest.mark.parametrize("tag,witness", [
    ("empty", (0,)), ("one_vertex", (0, 1)), ("clique", (1, 2)), ("wide", ()),
])
def test_attachment_class_rejects(tag, witness):
    assert K123_H.validate(K123)
    assert not AttachmentClass(tag, witness).consistent(K123, K123_H)


# K_{1,2,3} plus a vertex 6 that sees 3
K123_TAIL = _graph(7, *K123.edges(), (3, 6))


@pytest.mark.parametrize("h", [
    pytest.param(K12nEmbedding(0, (1, 3), (2, 4, 5)), id="invalid-host"),
    pytest.param(K12nEmbedding(0, (1, 2), (3, 4)), id="host-n-2"),
])
def test_component_attachment_needs_a_valid_host_with_n_3(h):
    assert classify_component_attachment(K123_TAIL, K123_H, 1 << 6).tag \
        == "clique"
    with pytest.raises(ValueError, match="valid embedding"):
        classify_component_attachment(K123_TAIL, h, 1 << 6)


# -- patterns --------------------------------------------------------------


def test_pattern_witness_rejects_a_repeated_host_vertex():
    pair = Graph.empty(2)
    assert PatternWitness(pair, (0, 1)).validate(Graph.empty(2))
    assert not PatternWitness(pair, (0, 0)).validate(Graph.empty(2))


_CENTERS = tuple((c, v) for c in (4, 5) for v in range(4))
_RING = ((0, 1), (1, 2), (2, 3), (3, 0))
TWO_CENTERS = (SquareLink((4,), True), SquareLink((5,), True))


def test_square_link_host():
    assert SquareLinkStructure((0, 1, 2, 3), TWO_CENTERS, True) \
        .validate(_graph(6, *_RING, *_CENTERS))


@pytest.mark.parametrize("g,links", [
    pytest.param(_graph(6, *_RING[:3], *_CENTERS), TWO_CENTERS,
                 id="missing-ring-edge"),
    pytest.param(_graph(6, *_RING, (0, 2), *_CENTERS), TWO_CENTERS,
                 id="diagonal"),
    pytest.param(_graph(7, *_RING, *_CENTERS), TWO_CENTERS,
                 id="whole-with-a-non-link-component"),
    pytest.param(_graph(7, *_RING, *_CENTERS, (6, 0)),
                 TWO_CENTERS + (SquareLink((6,), True),),
                 id="link-does-not-classify"),
])
def test_square_link_structure_rejects(g, links):
    assert not SquareLinkStructure((0, 1, 2, 3), links, True).validate(g)


# -- scan ------------------------------------------------------------------


def _report(read=0, fail=0, witnesses=0, **counts):
    report = ScanReport(ScanConfig(("ISK4-FILTER",)))
    report.per_n[5] = counters = _blank_counters(report.config.checks)
    counters["read"] = read
    counters["checks"]["ISK4-FILTER"].update(fail=fail, **counts)
    report.failures = [{"line_no": i, "graph6": "?", "check": "parse",
                        "evidence": {}} for i in range(witnesses)]
    report.parse_failures = witnesses
    return report


@pytest.mark.parametrize("report", [
    pytest.param(_report(read=1), id="counts-miss-read"),
    pytest.param(_report(witnesses=WITNESS_CAP + 1), id="over-the-cap"),
    pytest.param(_report(read=1, fail=1), id="fail-without-witness"),
])
def test_scan_report_inconsistent(report):
    assert _report(read=1, **{"pass": 1}).consistent()
    assert _report(witnesses=WITNESS_CAP).consistent()
    assert not report.consistent()


# -- error paths -----------------------------------------------------------


def test_graph_rejects_a_short_adjacency():
    with pytest.raises(ValueError, match="adjacency length"):
        Graph(3, (0b10, 0b01))


@pytest.mark.parametrize("text,match", [
    pytest.param("3", "header", id="one-token"),
    pytest.param("", "header", id="empty"),
    pytest.param("2 1\n0 x\n", "bad edge entry", id="bad-entry"),
])
def test_edge_list_errors(text, match):
    with pytest.raises(GraphFormatError, match=match):
        parse_edge_list(text)


def test_detect_on_an_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert main(["detect", "--pattern", "isk4", str(empty)]) == EXIT_ERROR
    assert "cannot parse input" in capsys.readouterr().err


def test_replay_rejects_an_unknown_rule():
    with pytest.raises(ValueError, match="unknown trace rule"):
        replay_trace(K123, ColoringTrace((TraceStep("Bogus", 0x3F),)))
