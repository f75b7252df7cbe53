"""Colouring tests: the exact oracle, the three leaf colourers, and the
structural recursion with its replayable traces."""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from isk4lab import coloring
from isk4lab.coloring import (
    _backtrack,
    _first_level,
    Coloring,
    ColoringFailure,
    ColoringTrace,
    RULES,
    TraceStep,
    chromatic_number_exact,
    color_complete_multipartite,
    color_rich_square,
    color_subcubic_line_graph,
    replay_trace,
    structural_four_coloring,
)
from isk4lab.decompose import (
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from isk4lab.graphs import Graph, bits, has_k4_minor, mask_of, parse_graph6
from isk4lab.patterns import (contains_fixed, contains_induced, contains_isk4,
                              find_maximal_k12n, find_rich_square)
from isk4lab.scan import enumerate_small

from oracles import (brute_chromatic_number, dsatur_reference, has_isk4,
                     root_edge_coloring)
from test_graphs import kernel_graphs, random_graph_strategy
from test_patterns import C6, K4, K33, K123, K222, PRISM6, all_graphs

FIXTURES = Path(__file__).parent / "fixtures"

# ISK4-free graphs on 9 and 10 vertices that contain a K_{1,2,3}; the
# recursion refuses each with a hypothesis_violation at rule 7 (ROADMAP
# item 1)
PAST_N7 = tuple((FIXTURES / "past_n7.g6").read_text().split())

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K5 = Graph.complete_multipartite([1] * 5)

# two K4's glued on a triangle: the triangle is a clique cutset
TWO_K4 = Graph.from_edges(5, K4.edges() + [(4, 1), (4, 2), (4, 3)])

# K_{1,2,4} with a three-vertex path component attached at {a, b_1, b_2}:
# the path ends see b_1 and b_2, the middle vertex sees a
HOST124 = Graph.from_edges(10, Graph.complete_multipartite([1, 2, 4]).edges()
                           + [(1, 7), (7, 8), (8, 9), (9, 2), (8, 0)])

# a square with two 2-vertex links: a whole rich square, not a line graph
SQ_TWO_LINKS = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                    (4, 0), (4, 1), (5, 2), (5, 3), (4, 5),
                                    (6, 0), (6, 1), (7, 2), (7, 3), (6, 7)])

# a square with three centre-vertex links (isomorphic to K_{2,2,3})
SQ_THREE_CENTERS = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0)]
                                    + [(c, v) for c in (4, 5, 6)
                                       for v in range(4)])

# triangle {2,3,4} complete to 0 and 1; K4 {5..8} with 0~5,6, 1~7,8.  Each
# side of the cut pair {0,1} 4-colours, but never with the same relation on
# the pair, so the graph needs five colours
SPLIT_NEEDS_FIVE = Graph.from_edges(9, [(2, 3), (2, 4), (3, 4)]
                                    + [(t, v) for t in (2, 3, 4) for v in (0, 1)]
                                    + [(u + 5, v + 5) for u, v in K4.edges()]
                                    + [(0, 5), (0, 6), (1, 7), (1, 8)])


def pipeline_ok(g):
    out = structural_four_coloring(g)
    assert not isinstance(out, ColoringFailure), out
    return out


class TestColoringValidate:
    def test_accepts_proper(self):
        assert Coloring((0, 1, 0, 1, 2), 3).validate(C5)

    def test_rejects_improper_edge(self):
        assert not Coloring((0, 0, 1, 0, 1), 2).validate(C5)

    def test_rejects_wrong_length(self):
        assert not Coloring((0, 1, 0, 1), 2).validate(C5)

    def test_rejects_palette_gap(self):
        # colours must be exactly 0..k-1
        assert not Coloring((0, 2, 0, 2, 3), 3).validate(C5)

    def test_rejects_wrong_k(self):
        assert not Coloring((0, 1, 0, 1, 2), 4).validate(C5)

    def test_matches_edge_list_check(self):
        # against the plain definition, on seeded colour tuples that are
        # proper (greedy) and arbitrary (often improper or off-palette)
        rng = random.Random(12)
        for n in range(6):
            for g in all_graphs(n):
                greedy = []
                for v in range(n):
                    taken = {greedy[u] for u in range(v) if g.has_edge(u, v)}
                    greedy.append(min(set(range(n)) - taken))
                tuples = [tuple(greedy)] + [tuple(rng.randrange(3) for _ in range(n))
                                            for _ in range(2)]
                for color in tuples:
                    for k in {len(set(color)), 3}:
                        expect = sorted(set(color)) == list(range(k)) and all(
                            color[u] != color[v] for u, v in g.edges())
                        assert Coloring(color, k).validate(g) == expect


class TestChromaticNumberExact:
    def test_k4(self):
        c = chromatic_number_exact(K4)
        assert c.k == 4 and c.validate(K4)

    def test_c5(self):
        assert chromatic_number_exact(C5).k == 3

    def test_k123(self):
        assert chromatic_number_exact(K123).k == 3

    def test_edgeless(self):
        c = chromatic_number_exact(Graph.from_edges(5, []))
        assert c.k == 1 and c.color == (0,) * 5

    def test_empty(self):
        assert chromatic_number_exact(Graph.from_edges(0, [])) == Coloring((), 0)

    def test_bound_exceeded(self):
        assert chromatic_number_exact(C5, 2) is None

    def test_bound_met(self):
        assert chromatic_number_exact(C5, 3).k == 3

    @given(random_graph_strategy(max_n=6))
    def test_matches_brute_force(self, g):
        c = chromatic_number_exact(g)
        assert c.k == brute_chromatic_number(g)
        assert c.validate(g)

    def test_bound_against_brute_force(self):
        # None exactly when the chromatic number exceeds the bound
        for n in range(6):
            for g in all_graphs(n):
                chi = brute_chromatic_number(g)
                for b in range(5):
                    assert (chromatic_number_exact(g, b) is None) == (chi > b)


class TestBacktrackAgainstReference:
    def test_identical_colourings(self):
        # the colour-mask DSATUR against the set-based one: same first
        # colouring or the same None, with and without a pair constraint
        # (every pair up to n = 5, so the cut of dead equal=True branches is
        # seen to keep the first colouring); the large graphs take the pair
        # of their proper 2-cutset, as the recursion's recolouring does
        for g in kernel_graphs():
            pairs = [None]
            if g.n <= 5:
                pairs += combinations(range(g.n), 2)
            elif g.n == 6:
                pairs.append((g.n - 1, g.code() % (g.n - 1)))
            else:
                pc = find_proper_2cutset(g)
                pairs += [(pc.a, pc.b), (pc.b, pc.a)]
            for k in range(1, 5):
                for pair in pairs:
                    for equal in (False, True) if pair else (False,):
                        assert _backtrack(g, k, pair, equal) == \
                            dsatur_reference(g, k, pair, equal), (g, k, pair, equal)

    def test_equal_pair_with_spare_colours(self):
        # four colours leave room to colour far past a pair that can no
        # longer agree; the cut ends those branches at once
        g = list(kernel_graphs())[-1]
        assert g.n == 40
        col = _backtrack(g, 4, (1, 20), equal=True)
        assert col is not None and col[1] == col[20]
        assert Coloring(tuple(col), 1 + max(col)).validate(g)


class TestRuleGates:
    """The premises of the gates that skip searches which cannot succeed,
    checked against the searches themselves."""

    @staticmethod
    def graphs():
        yield from (g for n in range(7) for g in all_graphs(n))
        yield from kernel_graphs()

    def test_k4_minor_free_graphs_have_no_rule_5_to_7_structure(self):
        free = 0
        for g in self.graphs():
            if has_k4_minor(g):
                continue
            free += 1
            assert contains_fixed(g, "K33") is None, g
            assert find_rich_square(g) is None, g
            assert find_maximal_k12n(g, 2) is None, g
        assert free > 1000

    def test_levels_below_the_first_have_no_colouring(self):
        # and levels 0 to 2 are exact: a first level of at most 2 has one
        for g in self.graphs():
            first = _first_level(g)
            for k in range(first):
                assert _backtrack(g, k) is None, (g, k)
            assert first == 3 or _backtrack(g, first) is not None, g

    def test_gated_searches_do_not_run(self, monkeypatch):
        # a K4-minor-free graph reaches no K33, prism, rich-square or
        # K_{1,2,n} search, and an odd cycle's exact search starts at k = 3
        calls = []
        for name in ("contains_fixed", "find_rich_square", "find_maximal_k12n",
                     "_backtrack"):
            real = getattr(coloring, name)
            monkeypatch.setattr(coloring, name, lambda *a, real=real, name=name,
                                **kw: calls.append((name, a[1:])) or real(*a, **kw))
        g = list(kernel_graphs())[-1]
        assert not has_k4_minor(g)
        _, t = pipeline_ok(g)
        assert "ExactFallback" in t.rules()
        assert {name for name, _ in calls} == {"_backtrack"}
        calls.clear()
        assert chromatic_number_exact(C5).k == 3
        assert calls == [("_backtrack", (3,))]

    def test_first_levels(self):
        assert _first_level(Graph.empty(0)) == 0
        assert _first_level(Graph.empty(3)) == 1
        assert _first_level(Graph.cycle(6)) == 2
        assert _first_level(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4),
                                                 (2, 4)])) == 3
        assert _first_level(K4) == 3


def test_kernel_graph_traces_are_pinned():
    # the seeded series-parallel graphs with n = 20..40: a sha256 over each
    # graph's trace steps and colouring, taken from the code before the
    # search gates (K4-minor-free scopes, chordless cycles, the exact
    # search's first level), which change no byte of either
    h = hashlib.sha256()
    for g in kernel_graphs():
        if g.n < 20:
            continue
        c, t = pipeline_ok(g)
        h.update(json.dumps([[s.rule, s.scope, s.detail]
                             for s in t.steps]).encode())
        h.update(json.dumps(c.color).encode())
    assert h.hexdigest() == \
        "93941d9f0788876002754b2c8ec03deef851e91555f892b7ab82c972bbf237c2"


class TestMultipartiteColorer:
    @pytest.mark.parametrize("g,parts", [(K33, 2), (K123, 3), (K222, 3)])
    def test_part_count(self, g, parts):
        cert = recognize_complete_multipartite(g)
        c = color_complete_multipartite(cert)
        assert c.k == parts == len(cert.parts)
        assert c.validate(g)

    def test_parts_are_classes(self):
        cert = recognize_complete_multipartite(K123)
        c = color_complete_multipartite(cert)
        for i, part in enumerate(cert.parts):
            assert {c.color[v] for v in bits(part)} == {i}


class TestLineGraphColorer:
    def test_c5_needs_three(self):
        c = color_subcubic_line_graph(C5, recognize_line_graph_subcubic(C5))
        assert c.k == 3 and c.validate(C5)

    def test_p3_needs_two(self):
        c = color_subcubic_line_graph(P3, recognize_line_graph_subcubic(P3))
        assert c.k == 2 and c.validate(P3)

    def test_k222_needs_three(self):
        # the root is K4, which is 3-edge-chromatic
        c = color_subcubic_line_graph(K222, recognize_line_graph_subcubic(K222))
        assert c.k == 3 and c.validate(K222)
        assert brute_chromatic_number(K222) == 3

    def test_exhaustive_recognized_graphs(self):
        for g in all_graphs(5):
            cert = recognize_line_graph_subcubic(g)
            if cert is None:
                continue
            c = color_subcubic_line_graph(g, cert)
            assert c.validate(g) and c.k <= 4
            assert c.k >= brute_chromatic_number(g)

    def test_same_as_root_edge_colouring(self):
        # the search on g gives the colouring of the search on the root
        for n in range(7):
            for g in all_graphs(n):
                cert = recognize_line_graph_subcubic(g)
                if cert is not None:
                    ref = root_edge_coloring(g, cert)
                    assert color_subcubic_line_graph(g, cert) == \
                        Coloring(tuple(ref), len(set(ref)))


class TestRichSquareColorer:
    def test_k222_palette(self):
        c = color_rich_square(K222, find_rich_square(K222))
        assert c == Coloring((0, 0, 1, 1, 2, 2), 3)

    def test_two_path_links(self):
        s = find_rich_square(SQ_TWO_LINKS)
        assert s.whole
        c = color_rich_square(SQ_TWO_LINKS, s)
        assert c.k == 4 and c.validate(SQ_TWO_LINKS)

    def test_three_centers(self):
        s = find_rich_square(SQ_THREE_CENTERS)
        c = color_rich_square(SQ_THREE_CENTERS, s)
        assert c.k == 3 and c.validate(SQ_THREE_CENTERS)
        assert c.color[4] == c.color[5] == c.color[6] == 2

    def test_refuses_containment_mode(self):
        g = Graph.from_edges(7, K222.edges() + [(4, 6)])
        s = find_rich_square(g)
        assert s is not None and not s.whole
        with pytest.raises(ValueError):
            color_rich_square(g, s)


class TestPipelineExamples:
    def test_k123_multipartite(self):
        c, t = pipeline_ok(K123)
        assert c.k == 3
        assert t.rules() == ["Multipartite"]

    def test_two_k4_clique_cutset(self):
        c, t = pipeline_ok(TWO_K4)
        assert c.k == 4
        assert t.rules() == ["CliqueCutsetSplit", "Trivial", "Trivial"]
        assert t.steps[0].detail["cutset"] == [1, 2, 3]

    def test_k12n_peel_host(self):
        assert contains_isk4(HOST124) is None
        c, t = pipeline_ok(HOST124)
        assert "K12nPeel" in t.rules()
        assert chromatic_number_exact(HOST124).k <= c.k <= 4

    def test_c5_exact_fallback(self):
        c, t = pipeline_ok(C5)
        assert c.k == 3 and t.rules() == ["ExactFallback"]

    def test_prism_line_graph(self):
        c, t = pipeline_ok(PRISM6)
        assert c.k <= 4 and t.rules() == ["SubcubicLineGraph"]

    def test_whole_rich_square(self):
        assert contains_isk4(SQ_TWO_LINKS) is None
        c, t = pipeline_ok(SQ_TWO_LINKS)
        assert c.k == 4 and t.rules() == ["RichSquare"]

    def test_disconnected_reuses_colors(self):
        g = Graph.from_edges(8, K4.edges() + [(u + 4, v + 4) for u, v in K4.edges()])
        c, t = pipeline_ok(g)
        assert c.k == 4
        assert t.rules() == ["Trivial", "Trivial"]
        assert [s.scope for s in t.steps] == [0x0F, 0xF0]

    def test_empty_graph(self):
        c, t = pipeline_ok(Graph.from_edges(0, []))
        assert c == Coloring((), 0)

    def test_small_graphs_take_distinct_colors(self):
        c, t = pipeline_ok(P3)
        assert c.color == (0, 1, 2) and t.rules() == ["Trivial"]

    def test_k5_bound_exceeded(self):
        r = structural_four_coloring(K5)
        assert isinstance(r, ColoringFailure)
        assert r.kind == "chromatic_bound_exceeded" and r.rule == 8
        assert not r.conjecture_counterexample

    def test_split_refused_when_no_recolouring_fits(self):
        # neither block recolours to the other's relation on the cut pair, so
        # the split refuses at once: no 4-colouring of the whole can exist
        assert structural_four_coloring(SPLIT_NEEDS_FIVE) == ColoringFailure(
            "chromatic_bound_exceeded", 4, 511,
            {"bound": 4, "vertices": list(range(9))}, False)

    def test_rule5_violation_is_honest(self):
        # K33 plus a vertex seeing two same-side vertices: no cutset, K33
        # present, not multipartite; such a graph must contain an induced
        # K4 subdivision, so the failure records a real hypothesis breach
        g = Graph.from_edges(7, K33.edges() + [(6, 0), (6, 1)])
        r = structural_four_coloring(g)
        assert isinstance(r, ColoringFailure)
        assert r.kind == "hypothesis_violation" and r.rule == 5
        assert "k33_vertices" in r.evidence
        assert has_isk4(g)

    def test_rule_names_stay_in_vocabulary(self):
        for g in (K123, TWO_K4, HOST124, C5, PRISM6, SQ_TWO_LINKS):
            _, t = pipeline_ok(g)
            assert set(t.rules()) <= set(RULES)


class TestTraceReplay:
    @pytest.mark.parametrize("g", [K123, TWO_K4, HOST124, C5, C6, PRISM6,
                                   SQ_TWO_LINKS, SQ_THREE_CENTERS, K222])
    def test_replay_identity(self, g):
        c, t = pipeline_ok(g)
        assert replay_trace(g, t) == c

    def test_replay_rejects_truncated_trace(self):
        _, t = pipeline_ok(TWO_K4)
        with pytest.raises(ValueError):
            replay_trace(TWO_K4, ColoringTrace(t.steps[:-1]))

    def test_replay_rejects_extra_step(self):
        _, t = pipeline_ok(K123)
        extra = ColoringTrace(t.steps + (TraceStep("Trivial", 0x3F),))
        with pytest.raises(ValueError):
            replay_trace(K123, extra)

    def test_replay_rejects_tampered_witness(self):
        _, t = pipeline_ok(K123)
        # the altered partition is no longer independent-complete
        bad = ColoringTrace((TraceStep("Multipartite", t.steps[0].scope,
                                       {"parts": [[1], [0, 2], [3, 4, 5]]}),))
        with pytest.raises(ValueError):
            replay_trace(K123, bad)

    @pytest.mark.parametrize("change", [
        {"root_n": 6},
        {"root_edges": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 5]]}])
    def test_replay_rejects_tampered_root(self, change):
        # decode reads only edge_of; re-encoding gives the true root back
        _, t = pipeline_ok(PRISM6)
        head, = t.steps
        assert head.rule == "SubcubicLineGraph"
        bad = TraceStep(head.rule, head.scope, {**head.detail, **change})
        with pytest.raises(ValueError, match="differs from its replay"):
            replay_trace(PRISM6, ColoringTrace((bad,)))

    def test_replay_rejects_wrong_graph(self):
        _, t = pipeline_ok(K123)
        with pytest.raises(ValueError):
            replay_trace(C6, t)

    def test_replay_rejects_wrong_resolution(self):
        g = parse_graph6("E]r?")  # its 2-cutset sides agree
        _, t = pipeline_ok(g)
        head = t.steps[0]
        bad = TraceStep(head.rule, head.scope,
                        {**head.detail, "resolution": "recolor_x"})
        with pytest.raises(ValueError):
            replay_trace(g, ColoringTrace((bad,) + t.steps[1:]))

    def test_replay_refusal_is_value_error(self):
        g = SPLIT_NEEDS_FIVE
        trace = ColoringTrace((
            TraceStep("Proper2CutsetSplit", g.vertex_mask,
                      {"a": 0, "b": 1, "x": [2, 3, 4], "y": [5, 6, 7, 8]}),
            TraceStep("ExactFallback", mask_of([0, 1, 2, 3, 4]), {"k": 4}),
            TraceStep("ExactFallback", mask_of([0, 1, 5, 6, 7, 8]), {"k": 4})))
        with pytest.raises(ValueError):
            replay_trace(g, trace)

    @pytest.mark.parametrize("detail", [{"parts": 5}, {"parts": [[[0]]]}, None])
    def test_replay_malformed_detail_is_value_error(self, detail):
        with pytest.raises(ValueError):
            replay_trace(K123, ColoringTrace(
                (TraceStep("Multipartite", 0x3F, detail),)))


# the trace each rule writes, pinned to the exact JSON: rule, scope, detail
# keys in insertion order
PINNED_TRACES = [
    (K123, [{"rule": "Multipartite", "scope": 63,
             "detail": {"parts": [[0], [1, 2], [3, 4, 5]]}}]),
    (C5, [{"rule": "ExactFallback", "scope": 31, "detail": {"k": 3}}]),
    (HOST124, [{"rule": "K12nPeel", "scope": 1023,
                "detail": {"a": 0, "b": [1, 2], "c": [3, 4, 5, 6]}},
               {"rule": "CliqueCutsetSplit", "scope": 903,
                "detail": {"cutset": [0, 8]}},
               {"rule": "Trivial", "scope": 387, "detail": {}},
               {"rule": "Trivial", "scope": 773, "detail": {}}]),
    (PRISM6, [{"rule": "SubcubicLineGraph", "scope": 63,
               "detail": {"root_n": 5,
                          "root_edges": [[0, 1], [0, 2], [0, 3], [1, 4],
                                         [2, 4], [3, 4]],
                          "edge_of": [[0, 1], [0, 2], [0, 3], [1, 4],
                                      [2, 4], [3, 4]]}}]),
    (SQ_TWO_LINKS, [{"rule": "RichSquare", "scope": 255,
                     "detail": {"square": [0, 1, 2, 3],
                                "links": [{"path": [4, 5], "center": False},
                                          {"path": [6, 7], "center": False}]}}]),
    ("E]r?", [{"rule": "Proper2CutsetSplit", "scope": 63,
               "detail": {"a": 0, "b": 1, "x": [2, 3], "y": [4, 5],
                          "resolution": "agree"}},
              {"rule": "Trivial", "scope": 15, "detail": {}},
              {"rule": "Trivial", "scope": 51, "detail": {}}]),
    ("F]rE?", [{"rule": "Proper2CutsetSplit", "scope": 127,
                "detail": {"a": 0, "b": 1, "x": [2, 3], "y": [4, 5, 6],
                           "resolution": "recolor_x"}},
               {"rule": "Trivial", "scope": 15, "detail": {}},
               {"rule": "Multipartite", "scope": 115,
                "detail": {"parts": [[0, 1], [4, 5, 6]]}}]),
    ("FMjE?", [{"rule": "Proper2CutsetSplit", "scope": 127,
                "detail": {"a": 0, "b": 1, "x": [2, 3, 4], "y": [5, 6],
                           "resolution": "recolor_y"}},
               {"rule": "ExactFallback", "scope": 31, "detail": {"k": 3}},
               {"rule": "Trivial", "scope": 99, "detail": {}}]),
]


def test_trace_encoding_is_pinned():
    seen = set()
    for g, expected in PINNED_TRACES:
        g = parse_graph6(g) if isinstance(g, str) else g
        _, t = pipeline_ok(g)
        got = [{"rule": s.rule, "scope": s.scope, "detail": s.detail}
               for s in t.steps]
        assert json.dumps(got) == json.dumps(expected)
        seen.update(t.rules())
    assert seen == set(RULES)


class TestExhaustive:
    def test_all_small_graphs(self):
        # every graph up to n=5 either colours properly within four colours
        # and replays, or fails with an honest structured report
        for n in range(6):
            for g in all_graphs(n):
                r = structural_four_coloring(g)
                if isinstance(r, ColoringFailure):
                    # desk-scale honesty: structured failures only happen
                    # when the input really has an induced K4 subdivision
                    assert has_isk4(g)
                    continue
                c, t = r
                assert c.validate(g) and c.k <= 4
                assert replay_trace(g, t) == c
                assert c.k >= brute_chromatic_number(g)

    @settings(deadline=None)
    @given(random_graph_strategy(max_n=6))
    def test_pipeline_outcome_property(self, g):
        r = structural_four_coloring(g)
        if isinstance(r, ColoringFailure):
            assert has_isk4(g)
            assert not r.conjecture_counterexample
            return
        c, t = r
        assert c.validate(g) and c.k <= 4
        assert set(t.rules()) <= set(RULES)
        assert replay_trace(g, t) == c


class TestPastN7:
    @pytest.mark.parametrize("line", PAST_N7)
    def test_isk4_free_with_a_k123(self, line):
        g = parse_graph6(line)
        assert contains_isk4(g) is None and not has_isk4(g)
        assert contains_induced(g, K123) is not None

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the recursion "
                       "refuses these at rule 7")
    @pytest.mark.parametrize("line", PAST_N7)
    def test_structural_colouring(self, line):
        g = parse_graph6(line)
        out = structural_four_coloring(g)
        assert isinstance(out, tuple), out
        assert out[0].k <= 4 and out[0].validate(g)


def test_recolor_starts_at_the_first_level(monkeypatch):
    calls = []

    def counted(h, k, pair=None, equal=False):
        calls.append((k, _first_level(h), pair is not None))
        return _backtrack(h, k, pair=pair, equal=equal)

    monkeypatch.setattr(coloring, "_backtrack", counted)
    for line in ("F]rE?", "FMjE?"):
        _, t = pipeline_ok(parse_graph6(line))
        assert t.steps[0].detail["resolution"].startswith("recolor_")
    assert any(paired for _, _, paired in calls)
    assert all(k >= first for k, first, _ in calls)


def memo_parity(lines, pieces):
    """structural_four_coloring with the shared dict gives what it gives
    without, and every trace it builds replays."""
    for line in lines:
        g = parse_graph6(line)
        out = structural_four_coloring(g, pieces=pieces)
        assert out == structural_four_coloring(g), line
        if isinstance(out, tuple):
            assert replay_trace(g, out[1]) == out[0], line


class TestPieceMemo:
    fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()[:2000]

    def test_universe_parity(self):
        pieces = {}
        memo_parity([x for n in range(1, 7) for x in enumerate_small(n)],
                    pieces)
        assert 0 < len(pieces) <= coloring.PIECES_BOUND

    def test_fixture_and_past_n7_parity(self):
        memo_parity(self.fixture + list(PAST_N7), {})

    def test_bounded(self, monkeypatch):
        class Sized(dict):
            most = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                Sized.most = max(Sized.most, len(self))

        monkeypatch.setattr(coloring, "PIECES_BOUND", 8)
        pieces = Sized()
        memo_parity(self.fixture[:500] + list(PAST_N7), pieces)
        assert Sized.most == 8

    def test_top_and_small_pieces_not_stored(self):
        pieces = {}
        for g in (K123, HOST124, C6, parse_graph6("F]rE?")):
            structural_four_coloring(g, pieces=pieces)
        # HOST124's peel leaves a 6-vertex piece and F]rE?'s larger 2-cutset
        # block has 5 vertices; every other scope is a top or has at most 4
        assert sorted(len(key) for key in pieces) == [5, 6]
