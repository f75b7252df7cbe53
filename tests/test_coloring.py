"""Colouring tests: the exact oracle, the three leaf colourers, and the
structural recursion with its replayable traces."""

import hashlib
import json
import random
from dataclasses import replace
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
    find_clique_cutset,
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from isk4lab.graphs import Graph, bits, has_k4_minor, mask_of, parse_graph6
from isk4lab.patterns import (contains_fixed, contains_induced, contains_isk4,
                              find_maximal_k12n, find_rich_square,
                              iter_maximal_k12n, iter_rich_squares,
                              off_components)
from isk4lab.scan import enumerate_small

from oracles import (brute_chromatic_number, dsatur_reference, has_isk4,
                     root_edge_coloring)
from test_graphs import kernel_graphs, random_graph_strategy
from test_patterns import C6, K4, K33, K123, K222, PRISM6, all_graphs

FIXTURES = Path(__file__).parent / "fixtures"

# ISK4-free graphs on 9 and 10 vertices that contain a K_{1,2,3}, each
# with minimum degree 1 to 3
PAST_N7 = tuple((FIXTURES / "past_n7.g6").read_text().split())

# minimum degree 4: K222 and K_{2,2,3}, the line graphs of K33, the prism,
# the cube, the Moebius ladder on 8 vertices, Petersen and a cubic graph
# with a 2-edge cut (all ISK4-free), then the refusals at rules 5, 6 and 8
# (each with an ISK4)
FOUR_CORES = tuple((FIXTURES / "four_cores.g6").read_text().split())

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K5 = Graph.complete_multipartite([1] * 5)

# minimum degree 4, an ISK4, four colours: no rule takes it
ISK4_MIN_DEGREE_4 = parse_graph6("F|\\kw")

# K_{2,2,3}: minimum degree 4, with an induced K_{1,2,3}
K223 = Graph.complete_multipartite([2, 2, 3])

# the line graph of the prism: 4-regular, ISK4-free
L_PRISM = parse_graph6("HwC\\mpk")

# K_{4,4} plus an edge in one side: a K33, no cutset, not multipartite
K44_PLUS_EDGE = Graph.from_edges(
    8, Graph.complete_multipartite([4, 4]).edges() + [(0, 1)])

# minimum degree 4 with a prism, no cutset, not a line graph
PRISM_NOT_LINE = parse_graph6("Fnupw")

# two K4's glued on a triangle: the triangle is a clique cutset
TWO_K4 = Graph.from_edges(5, K4.edges() + [(4, 1), (4, 2), (4, 3)])

# the line graph of a cubic graph with a 2-edge cut: an ISK4-free 4-core
# with a proper 2-cutset and no clique cutset
L_TWO_EDGE_CUT = parse_graph6("Kl|c_CD@GE_N")

# two K4's side by side: the empty clique cutset
TWO_K4_APART = Graph.from_edges(8, K4.edges()
                                + [(u + 4, v + 4) for u, v in K4.edges()])

# K_{1,2,4} with a three-vertex path component attached at {a, b_1, b_2}:
# the path ends see b_1 and b_2, the middle vertex sees a
HOST124 = Graph.from_edges(10, Graph.complete_multipartite([1, 2, 4]).edges()
                           + [(1, 7), (7, 8), (8, 9), (9, 2), (8, 0)])

# a square with two 2-vertex links: a whole rich square, not a line graph;
# each link end has degree 3
SQ_TWO_LINKS = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                    (4, 0), (4, 1), (5, 2), (5, 3), (4, 5),
                                    (6, 0), (6, 1), (7, 2), (7, 3), (6, 7)])

# a square with three centre-vertex links (isomorphic to K_{2,2,3})
SQ_THREE_CENTERS = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0)]
                                    + [(c, v) for c in (4, 5, 6)
                                       for v in range(4)])

# triangle {2,3,4} complete to 0 and 1; K4 {5..8} with 0~5,6, 1~7,8.  Each
# side of the cut pair {0,1} 4-colours, but never with the same relation on
# the pair, so the graph needs five colours; its minimum degree is 4
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
        # colouring or the same None
        for g in kernel_graphs():
            for k in range(1, 5):
                assert _backtrack(g, k) == dsatur_reference(g, k), (g, k)


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
        # a K4-minor-free graph is peeled before rule 5, so it reaches no
        # K33, prism, rich-square, K_{1,2,n} or exact search, and an odd
        # cycle's exact search starts at k = 3
        calls = []
        for name in ("contains_fixed", "find_rich_square", "find_maximal_k12n",
                     "_backtrack"):
            real = getattr(coloring, name)
            monkeypatch.setattr(coloring, name, lambda *a, real=real, name=name,
                                **kw: calls.append((name, a[1:])) or real(*a, **kw))
        g = list(kernel_graphs())[-1]
        assert not has_k4_minor(g)
        _, t = pipeline_ok(g)
        assert "LowDegreePeel" in t.rules()
        assert calls == []
        assert chromatic_number_exact(C5).k == 3
        assert calls == [("_backtrack", (3,))]

    def test_k12n_peel_was_a_low_degree_peel(self):
        # where every component off a maximal K_{1,2,n} (n >= 3) attaches
        # exactly at {a} and b, each c vertex has only a, b_1 and b_2 as
        # neighbours, so a peel of vertices of degree <= 3 takes it
        met = 0
        extra = [HOST124] + [parse_graph6(line) for line in PAST_N7]
        for g in (*self.graphs(), *extra):
            for emb in iter_maximal_k12n(g, 3):
                need = 1 << emb.a | mask_of(emb.b)
                if all(att == need for _, att in off_components(g, emb)):
                    met += 1
                    assert all(g.adj[c].bit_count() == 3 for c in emb.c), g
        assert met > 50

    def test_first_levels(self):
        assert _first_level(Graph.empty(0)) == 0
        assert _first_level(Graph.empty(3)) == 1
        assert _first_level(Graph.cycle(6)) == 2
        assert _first_level(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4),
                                                 (2, 4)])) == 3
        assert _first_level(K4) == 3


class TestFourCores:
    """The premises of peeling before rules 5 and 6: those rules see only
    4-cores, which have a K4 minor, and a whole rich square that is a
    4-core is complete multipartite."""

    def test_rules_5_and_6_see_only_four_cores(self, monkeypatch):
        # with at least five vertices and minimum degree >= 4 a scope has a
        # K4 minor (Dirac), so rules 5 and 6 need no K4-minor gate
        seen = {"Multipartite": 0, "SubcubicLineGraph": 0}

        def watched(rule):
            def find(s):
                seen[rule.name] += 1
                assert min(a.bit_count() for a in s.h.adj) >= 4, s.h
                assert has_k4_minor(s.h), s.h
                return rule.find(s)
            return rule._replace(find=find)

        monkeypatch.setattr(coloring, "_TABLE", tuple(
            watched(r) if r.name in seen else r for r in coloring._TABLE))
        fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
        universe = [x for n in range(1, 7) for x in enumerate_small(n)]
        for line in universe + fixture[:3000] + list(PAST_N7) + list(FOUR_CORES):
            structural_four_coloring(parse_graph6(line))
        assert all(seen.values()), seen

    def test_proper_2cutset_host_is_a_line_graph(self):
        # with the peel right after the clique cutset, no 2-cutset rule is
        # needed: this ISK4-free 4-core is taken whole by rule 6
        g = L_TWO_EDGE_CUT
        assert contains_isk4(g) is None
        assert min(a.bit_count() for a in g.adj) == 4
        assert find_clique_cutset(g) is None
        assert find_proper_2cutset(g) is not None
        c, t = pipeline_ok(g)
        assert t.rules() == ["SubcubicLineGraph"]
        assert replay_trace(g, t) == c

    def test_whole_rich_squares_are_multipartite(self):
        # a path link's ends have degree 3, so on minimum degree >= 4 every
        # link is a centre: the graph is K_{2,2,m}, which rule 5 takes
        met = 0
        hosts = [Graph.complete_multipartite([2, 2, m]) for m in range(2, 6)]
        for g in (*hosts, *(g for n in range(7) for g in all_graphs(n))):
            if g.n < 5 or min(a.bit_count() for a in g.adj) < 4:
                continue
            for r in iter_rich_squares(g):
                if r.whole:
                    met += 1
                    mp = recognize_complete_multipartite(g)
                    assert mp is not None and len(mp.parts) <= 4, g
        assert met >= 4


def test_kernel_graph_traces_are_pinned():
    # the seeded series-parallel graphs with n = 20..40: a sha256 over each
    # graph's trace steps and colouring, taken when LowDegreePeel replaced
    # the K_{1,2,n} peel and the exact fallback
    h = hashlib.sha256()
    for g in kernel_graphs():
        if g.n < 20:
            continue
        c, t = pipeline_ok(g)
        h.update(json.dumps([[s.rule, s.scope, s.detail]
                             for s in t.steps]).encode())
        h.update(json.dumps(c.color).encode())
    assert h.hexdigest() == \
        "63b8a179d041f0a295b56c6f31cfc31a76bac7a9adbcf9843f710653f4d6dc33"


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
        # K_{2,2,3} holds an induced K_{1,2,3}; K_{1,2,3} itself is peeled
        assert contains_induced(K223, K123) is not None
        c, t = pipeline_ok(K223)
        assert c.k == 3
        assert t.rules() == ["Multipartite"]

    def test_two_k4_clique_cutset(self):
        c, t = pipeline_ok(TWO_K4)
        assert c.k == 4
        assert t.rules() == ["CliqueCutsetSplit", "Trivial", "Trivial"]
        assert t.steps[0].detail["cutset"] == [1, 2, 3]

    def test_k12n_peel_host(self):
        # the K_{1,2,4}'s c side has degree 3, and the peel takes the rest
        assert contains_isk4(HOST124) is None
        c, t = pipeline_ok(HOST124)
        assert t.rules() == ["LowDegreePeel"]
        assert set(t.steps[0].detail["order"][:4]) >= {3, 4, 5}
        assert chromatic_number_exact(HOST124).k <= c.k <= 4

    def test_c5_low_degree_peel(self):
        c, t = pipeline_ok(C5)
        assert c.k == 3 and t.rules() == ["LowDegreePeel"]

    def test_prism_line_graph(self):
        # the prism itself is cubic, so it is peeled; its line graph is not
        assert contains_isk4(L_PRISM) is None
        c, t = pipeline_ok(L_PRISM)
        assert c.k <= 4 and t.rules() == ["SubcubicLineGraph"]
        assert pipeline_ok(PRISM6)[1].rules() == ["LowDegreePeel"]

    def test_whole_rich_square(self):
        # a path link's ends have degree 3, so SQ_TWO_LINKS is peeled whole;
        # with centre links only the square is K_{2,2,m}, taken by rule 5
        assert contains_isk4(SQ_TWO_LINKS) is None
        c, t = pipeline_ok(SQ_TWO_LINKS)
        assert c.k <= 4 and t.rules() == ["LowDegreePeel"]
        c, t = pipeline_ok(SQ_THREE_CENTERS)
        assert c.k == 3 and t.rules() == ["Multipartite"]

    def test_disconnected_reuses_colors(self):
        # a disconnected graph splits at the empty clique cutset
        c, t = pipeline_ok(TWO_K4_APART)
        assert c.k == 4
        assert t.rules() == ["CliqueCutsetSplit", "Trivial", "Trivial"]
        assert t.steps[0].detail["cutset"] == []
        assert [s.scope for s in t.steps] == [0xFF, 0x0F, 0xF0]

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

    def test_min_degree_4_outside_the_rules_is_a_hypothesis_violation(self):
        # four colours suffice, so the refusal names the broken hypothesis
        g = ISK4_MIN_DEGREE_4
        assert min(a.bit_count() for a in g.adj) == 4 and has_isk4(g)
        assert chromatic_number_exact(g, 4) is not None
        r = structural_four_coloring(g)
        assert isinstance(r, ColoringFailure)
        assert r.kind == "hypothesis_violation" and r.rule == 8
        assert r.scope == g.vertex_mask and not r.conjecture_counterexample

    def test_split_refused_when_no_recolouring_fits(self):
        # a 4-core with a proper 2-cutset {0, 1} but no clique cutset that is
        # in no base class: refused at rule 8, as it needs five colours
        g = SPLIT_NEEDS_FIVE
        assert min(a.bit_count() for a in g.adj) == 4
        assert find_proper_2cutset(g) is not None
        assert structural_four_coloring(g) == ColoringFailure(
            "chromatic_bound_exceeded", 8, 511,
            {"bound": 4, "vertices": list(range(9))}, False)

    def test_rule5_violation_is_honest(self):
        # minimum degree 4, no cutset, K33 present, not multipartite; such a
        # graph must contain an induced K4 subdivision, so the failure
        # records a real hypothesis breach
        g = K44_PLUS_EDGE
        r = structural_four_coloring(g)
        assert isinstance(r, ColoringFailure)
        assert r.kind == "hypothesis_violation" and r.rule == 5
        assert "k33_vertices" in r.evidence
        assert has_isk4(g)

    def test_rule6_violation_is_honest(self):
        g = PRISM_NOT_LINE
        assert min(a.bit_count() for a in g.adj) == 4 and has_isk4(g)
        r = structural_four_coloring(g)
        assert isinstance(r, ColoringFailure)
        assert r.kind == "hypothesis_violation" and r.rule == 6
        assert sorted(r.evidence) == ["expectation", "prism_vertices", "square"]
        assert r.evidence["prism_vertices"] is not None

    def test_rule_names_stay_in_vocabulary(self):
        for g in (K123, TWO_K4, HOST124, C5, PRISM6, SQ_TWO_LINKS, K223,
                  L_PRISM):
            _, t = pipeline_ok(g)
            assert set(t.rules()) <= set(RULES)


class TestTraceReplay:
    @pytest.mark.parametrize("g", [K123, TWO_K4, HOST124, C5, C6, PRISM6,
                                   SQ_TWO_LINKS, SQ_THREE_CENTERS, K222,
                                   K223, L_PRISM])
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

    def test_replay_rejects_a_missing_empty_cutset_step(self):
        _, t = pipeline_ok(TWO_K4_APART)
        assert t.steps[0].detail == {"cutset": []}
        with pytest.raises(ValueError):
            replay_trace(TWO_K4_APART, ColoringTrace(t.steps[1:]))

    def test_replay_rejects_wrong_graph(self):
        # K222's parts on the same six vertices of C6
        _, t = pipeline_ok(K222)
        with pytest.raises(ValueError):
            replay_trace(C6, t)

    @pytest.mark.parametrize("order", [
        [3, 4, 1, 5, 0, 2, 6, 7, 8, 9],  # 1 has 0, 5, 6 and 7 left
        [3, 4, 3, 5, 1, 0, 2, 6, 7, 8, 9],  # 3 twice
        [3, 4, 5, 10],  # 10 is outside the scope
        []])
    def test_replay_rejects_wrong_peel_order(self, order):
        _, t = pipeline_ok(HOST124)
        head, = t.steps
        bad = TraceStep("LowDegreePeel", head.scope, {"order": order})
        with pytest.raises(ValueError):
            replay_trace(HOST124, ColoringTrace((bad,)))

    def test_replay_never_runs_the_exact_search(self, monkeypatch):
        # F]rE? and FlUJ_ have a proper 2-cutset whose sides disagree on
        # the cut pair
        hosts = [*kernel_graphs(), parse_graph6("F]rE?"), parse_graph6("FlUJ_")]
        traces = [(g, out) for g in hosts
                  if isinstance(out := structural_four_coloring(g), tuple)]
        assert any("LowDegreePeel" in t.rules() for _, (_, t) in traces)

        def searched(*args):
            raise AssertionError("replay ran the exact search")

        monkeypatch.setattr(coloring, "chromatic_number_exact", searched)
        monkeypatch.setattr(coloring, "_backtrack", searched)
        for g, (c, t) in traces:
            assert replay_trace(g, t) == c

    @pytest.mark.parametrize("detail", [{"parts": 5}, {"parts": [[[0]]]}, None])
    def test_replay_malformed_detail_is_value_error(self, detail):
        with pytest.raises(ValueError):
            replay_trace(K123, ColoringTrace(
                (TraceStep("Multipartite", 0x3F, detail),)))


def perturb(value, rng):
    """value with one leaf changed, or one list element dropped."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return rng.choice((value - 1, value + 1, 2 * value + 1))
    if isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        return {**value, key: perturb(value[key], rng)}
    if isinstance(value, list) and value:
        i = rng.randrange(len(value))
        if rng.random() < 0.2:
            return value[:i] + value[i + 1:]
        return value[:i] + [perturb(value[i], rng)] + value[i + 1:]
    return [0]


def mutate(steps, n, rng):
    """steps with one seeded mutation: a rule name swapped, a scope bit
    flipped, a detail value perturbed or a detail key dropped, or a step
    dropped or duplicated (also when the detail has no key to drop)."""
    steps = list(steps)
    i = rng.randrange(len(steps))
    st = steps[i]
    kind = rng.randrange(6)
    if kind == 0:
        steps[i] = replace(st, rule=rng.choice([r for r in RULES
                                                if r != st.rule]))
    elif kind == 1:
        steps[i] = replace(st, scope=st.scope ^ 1 << rng.randrange(n + 1))
    elif kind == 2:
        steps[i] = replace(st, detail=perturb(st.detail, rng))
    elif kind == 3 and st.detail:
        key = rng.choice(sorted(st.detail))
        steps[i] = replace(st, detail={k: v for k, v in st.detail.items()
                                       if k != key})
    elif kind == 4:
        del steps[i]
    else:
        steps.insert(i, st)
    return ColoringTrace(tuple(steps))


def test_mutated_traces_raise_only_value_error():
    # seeded mutations of real traces: replay either refuses with
    # ValueError or returns a proper colouring
    fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
    traces = []
    for line in fixture[:300] + list(PAST_N7):
        g = parse_graph6(line)
        out = structural_four_coloring(g)
        if isinstance(out, tuple):
            traces.append((g, out[1]))
    rng = random.Random(17)
    refused = 0
    for _ in range(2000):
        g, t = rng.choice(traces)
        bad = mutate(t.steps, g.n, rng)
        try:
            c = replay_trace(g, bad)
        except ValueError:
            refused += 1
            continue
        assert c.validate(g), (g, bad)
    assert refused > 1500


# the trace each rule writes, pinned to the exact JSON: rule, scope, detail
# keys in insertion order
PINNED_TRACES = [
    (K223, [{"rule": "Multipartite", "scope": 127,
             "detail": {"parts": [[0, 1], [2, 3], [4, 5, 6]]}}]),
    (TWO_K4, [{"rule": "CliqueCutsetSplit", "scope": 31,
               "detail": {"cutset": [1, 2, 3]}},
              {"rule": "Trivial", "scope": 15, "detail": {}},
              {"rule": "Trivial", "scope": 30, "detail": {}}]),
    (TWO_K4_APART, [{"rule": "CliqueCutsetSplit", "scope": 255,
                     "detail": {"cutset": []}},
                    {"rule": "Trivial", "scope": 15, "detail": {}},
                    {"rule": "Trivial", "scope": 240, "detail": {}}]),
    (C5, [{"rule": "LowDegreePeel", "scope": 31,
           "detail": {"order": [0, 1, 2, 3, 4]}}]),
    (HOST124, [{"rule": "LowDegreePeel", "scope": 1023,
                "detail": {"order": [3, 4, 5, 1, 0, 2, 6, 7, 8, 9]}}]),
    ("FlV}w", [{"rule": "LowDegreePeel", "scope": 127,
                "detail": {"order": [2]}},
               {"rule": "Multipartite", "scope": 123,
                "detail": {"parts": [[0, 4], [1, 3], [5], [6]]}}]),
    (L_PRISM, [{"rule": "SubcubicLineGraph", "scope": 511,
                "detail": {"edge_of": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5],
                                       [4, 5], [1, 4], [0, 3], [2, 5]]}}]),
    (SQ_TWO_LINKS, [{"rule": "LowDegreePeel", "scope": 255,
                     "detail": {"order": [4, 0, 1, 2, 3, 5, 6, 7]}}]),
    ("E]r?", [{"rule": "LowDegreePeel", "scope": 63,
               "detail": {"order": [2, 0, 1, 3, 4, 5]}}]),
    ("F]rE?", [{"rule": "LowDegreePeel", "scope": 127,
                "detail": {"order": [2, 3, 0, 1, 4, 5, 6]}}]),
    ("FlUJ_", [{"rule": "LowDegreePeel", "scope": 127,
                "detail": {"order": [0, 1, 2, 3, 4, 5, 6]}}]),
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

    @pytest.mark.parametrize("line", PAST_N7)
    def test_structural_colouring(self, line):
        g = parse_graph6(line)
        out = structural_four_coloring(g)
        assert isinstance(out, tuple), out
        assert out[0].k <= 4 and out[0].validate(g)
        assert replay_trace(g, out[1]) == out[0]


def test_exact_search_starts_at_the_first_level(monkeypatch):
    calls = []

    def counted(h, k):
        calls.append((k, _first_level(h)))
        return _backtrack(h, k)

    monkeypatch.setattr(coloring, "_backtrack", counted)
    for g in (*kernel_graphs(), K5, C5, SPLIT_NEEDS_FIVE):
        chromatic_number_exact(g)
        chromatic_number_exact(g, 4)
    assert calls
    assert all(k >= first for k, first in calls)


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
        c5_pendant = Graph.from_edges(6, C5.edges() + [(0, 5)])
        for g in (K123, HOST124, C6, c5_pendant):
            structural_four_coloring(g, pieces=pieces)
        # c5_pendant splits at {0} into its C5 and an edge; every other
        # scope is a top (HOST124 is peeled whole) or has at most 4 vertices
        assert sorted(len(key) for key in pieces) == [5]
