import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from bench import ladders
from isk4lab import lemmas
from isk4lab.coloring import replay_trace, structural_four_coloring
from isk4lab.decompose import find_clique_cutset
from isk4lab.graphs import (Graph, attachment, bits, components, has_k4_minor,
                            is_clique, mask_of, parse_graph6)
from isk4lab.lemmas import (
    LEMMA_IDS,
    GraphFacts,
    LinkWitness,
    check_lemma,
    classify_component_attachment,
    classify_vertex_attachment,
    is_linked,
    iter_induced_cycles,
)
from isk4lab.patterns import (K12nEmbedding, contains_fixed, contains_induced,
                              contains_isk4, is_maximal_k12n, iter_maximal_k12n)
from oracles import (UncutFacts, brute_linked, has_isk4, induced_cycles_by_list,
                     link_unpruned, to_nx)
from test_graphs import random_graph_strategy
from test_patterns import K33, K123, all_graphs

# K_{1,2,3} plus a vertex seeing two of the c's: the smallest host where a
# c-vertex is linked to a 4-cycle through the extra vertex
LINK_HOST = Graph.from_edges(7, K123.edges() + [(3, 6), (4, 6)])


BOWTIE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
FIXTURE = Path(__file__).parent / "fixtures" / "scan_stream_100k.g6"
PAST_N7 = Path(__file__).parent / "fixtures" / "past_n7.g6"
COMP_N9 = Path(__file__).parent / "fixtures" / "comp_n9.g6"
FOUR_CORES = Path(__file__).parent / "fixtures" / "four_cores.g6"
# the middle path vertex must see a, otherwise the b1..b2 stretch closes an
# induced K4 subdivision and the L-COMP hypotheses fail
COMP_HOST = Graph.from_edges(9, K123.edges()
                             + [(1, 6), (6, 7), (7, 8), (2, 8), (0, 7)])


def k124_plus(attach):
    base = Graph.complete_multipartite((1, 2, 4))
    return Graph.from_edges(8, base.edges() + [(u, 7) for u in attach])


def fixture_graphs():
    """The first 3,000 fixture lines, then the past_n7.g6, four_cores.g6
    and comp_n9.g6 graphs."""
    lines = FIXTURE.read_text().splitlines()[:3000]
    lines += [line for path in (PAST_N7, FOUR_CORES, COMP_N9)
              for line in path.read_text().split()]
    return list(map(parse_graph6, lines))


def ladder_graphs(sizes, per_size=4, seed=27):
    """Seeded bench/ladders.py graphs: series-parallel graphs and partial
    2-trees, free of K4 minors by construction, and planted K4
    subdivisions, per_size of each for every n in sizes."""
    rng = random.Random(seed)
    return [Graph.from_edges(*make(rng, n)[:2]) for n in sizes
            for make in (lambda r, n: ladders.series_parallel(r, n, 6),
                         ladders.partial_2tree, ladders.planted_isk4)
            for _ in range(per_size)]


class TestInducedCycles:
    def test_same_cycles_in_the_same_order_as_the_list_walk(self):
        rng = random.Random(13)
        seeded = [Graph.from_code(n, rng.getrandbits(n * (n - 1) // 2))
                  for n in range(8, 14) for _ in range(30)]
        graphs = [g for n in range(7) for g in all_graphs(n)]
        graphs += fixture_graphs() + ladder_graphs(range(8, 14)) + seeded
        for g in graphs:
            assert list(iter_induced_cycles(g)) == \
                list(induced_cycles_by_list(g)), g.edges()

    def test_c6_has_one(self):
        assert list(iter_induced_cycles(Graph.cycle(6))) == [(0, 1, 2, 3, 4, 5)]

    def test_k4_has_four_triangles(self):
        got = list(iter_induced_cycles(Graph.complete(4)))
        assert sorted(got) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_no_duplicates_and_all_induced(self):
        from isk4lab.graphs import is_induced_cycle
        g = Graph.complete_multipartite((2, 2, 2))
        got = list(iter_induced_cycles(g))
        assert len(got) == len({frozenset(c) for c in got})
        assert all(is_induced_cycle(g, c) for c in got)

    @given(random_graph_strategy(max_n=6))
    def test_matches_subset_count(self, g):
        from isk4lab.graphs import induced_subgraph, is_connected
        from itertools import combinations
        want = 0
        for r in range(3, g.n + 1):
            for sub in combinations(range(g.n), r):
                m = mask_of(sub)
                if is_connected(g, m) and all(
                        (g.adj[u] & m).bit_count() == 2 for u in sub):
                    want += 1
        assert len(list(iter_induced_cycles(g))) == want


class TestIsLinked:
    def test_linked_through_extra_vertex(self):
        w = is_linked(LINK_HOST, (1, 4, 2, 5), 3)
        assert w == LinkWitness(((3, 1), (3, 2), (3, 6, 4)))
        assert w.validate(LINK_HOST, (1, 4, 2, 5))
        # linkage certifies an induced K4 subdivision somewhere in the host
        assert contains_isk4(LINK_HOST) is not None

    def test_four_cycle_neighbours_block_linkage(self):
        # a sees all of b1 c1 b2 c2, so no three path ends can cover N(a)∩C
        assert is_linked(K123, (1, 3, 2, 4), 0) is None

    def test_three_spokes_are_a_linkage(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5, 0), (5, 1), (5, 2)])
        w = is_linked(g, (0, 1, 2, 3, 4), 5)
        assert w == LinkWitness(((5, 0), (5, 1), (5, 2)))
        assert contains_isk4(g) is not None

    def test_too_few_neighbours(self):
        g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)]
                             + [(6, 0), (6, 3)])
        assert is_linked(g, (0, 1, 2, 3, 4, 5), 6) is None

    def test_isolated_vertex(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)])
        assert is_linked(g, (0, 1, 2, 3, 4), 5) is None

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            is_linked(Graph.cycle(6), (0, 1, 2, 3), 4)  # not a cycle
        with pytest.raises(ValueError):
            is_linked(Graph.cycle(6), (0, 1, 2, 3, 4, 5), 3)  # v on the cycle
        with pytest.raises(ValueError):
            is_linked(Graph.cycle(6), (0, 1, 2, 3, 4, 5), 9)  # no such vertex

    @settings(max_examples=25, deadline=None)
    @given(random_graph_strategy(max_n=6))
    def test_linkage_implies_isk4(self, g):
        for cycle in iter_induced_cycles(g):
            cmask = mask_of(cycle)
            for v in bits(g.vertex_mask & ~cmask):
                w = is_linked(g, cycle, v)
                if w is not None:
                    assert w.validate(g, cycle)
                    assert contains_isk4(g) is not None


def link_pairs(graphs):
    for g in graphs:
        for cycle in iter_induced_cycles(g):
            for v in bits(g.vertex_mask & ~mask_of(cycle)):
                yield g, cycle, v


class TestIsLinkedAgainstOracle:
    """is_linked finds a linkage exactly when the brute-force oracle does."""

    @staticmethod
    def assert_agree(graphs):
        """Check every pair of the graphs; give the number of linked pairs."""
        linked = 0
        for g, cycle, v in link_pairs(graphs):
            got = is_linked(g, cycle, v) is not None
            assert got == brute_linked(g, cycle, v), (g, cycle, v)
            linked += got
        return linked

    def test_universe_n_le_5(self):
        graphs = (g for n in range(6) for g in all_graphs(n))
        assert self.assert_agree(graphs) > 0

    def test_seeded_n_6_to_8(self):
        rng = random.Random(8)
        graphs = [Graph.from_code(n, rng.getrandbits(n * (n - 1) // 2))
                  for n in (6, 7, 8) for _ in range(40)]
        assert any(contains_isk4(g) is not None for g in graphs)
        assert self.assert_agree(graphs) > 0


class TestVertexAttachment:
    H124 = K12nEmbedding(0, (1, 2), (3, 4, 5, 6))

    def test_empty(self):
        g = k124_plus([])
        assert classify_vertex_attachment(g, self.H124, 7).tag == "empty"

    def test_one_vertex(self):
        att = classify_vertex_attachment(k124_plus([1]), self.H124, 7)
        assert att.tag == "one_vertex" and att.witness == (1,)

    def test_one_edge(self):
        g = k124_plus([0, 1])
        att = classify_vertex_attachment(g, self.H124, 7)
        assert att.tag == "one_edge" and att.witness == (0, 1)
        assert att.consistent(g, self.H124)

    def test_other_nonadjacent_pair(self):
        att = classify_vertex_attachment(k124_plus([1, 2]), self.H124, 7)
        assert att.tag == "other" and att.witness == (1, 2)

    def test_other_triple(self):
        att = classify_vertex_attachment(k124_plus([0, 1, 3]), self.H124, 7)
        assert att.tag == "other"

    def test_contract_violations(self):
        g = k124_plus([0, 1])
        with pytest.raises(ValueError):
            classify_vertex_attachment(g, self.H124, 3)  # inside H
        with pytest.raises(ValueError):
            classify_vertex_attachment(g, K12nEmbedding(0, (1, 3), (4, 5)), 7)


class TestComponentAttachment:
    H = K12nEmbedding(0, (1, 2), (3, 4, 5))

    def comp_of(self, g, vertex):
        for c in components(g, g.vertex_mask & ~self.H.vertex_mask()):
            if c >> vertex & 1:
                return c
        raise AssertionError

    def test_empty(self):
        g = Graph.from_edges(7, K123.edges())
        att = classify_component_attachment(g, self.H, self.comp_of(g, 6))
        assert att.tag == "empty"

    def test_edge_is_a_clique(self):
        g = Graph.from_edges(7, K123.edges() + [(0, 6), (1, 6)])
        att = classify_component_attachment(g, self.H, self.comp_of(g, 6))
        assert att.tag == "clique" and att.witness == (0, 1)

    def test_a1a2_via_two_vertex_path(self):
        g = Graph.from_edges(8, K123.edges() + [(0, 6), (6, 7), (1, 7), (2, 7)])
        att = classify_component_attachment(g, self.H, self.comp_of(g, 6))
        assert att.tag == "a1a2" and att.witness == (0, 1, 2)
        assert att.consistent(g, self.H)

    def test_other(self):
        g = Graph.from_edges(7, K123.edges() + [(3, 6), (4, 6)])
        att = classify_component_attachment(g, self.H, self.comp_of(g, 6))
        assert att.tag == "other" and att.witness == (3, 4)

    def test_not_a_component_rejected(self):
        g = Graph.from_edges(8, K123.edges() + [(0, 6), (6, 7), (1, 7), (2, 7)])
        with pytest.raises(ValueError):
            classify_component_attachment(g, self.H, mask_of((6,)))


class TestCheckLemma:
    def test_link_holds_on_c6(self):
        r = check_lemma(Graph.cycle(6), "L-LINK")
        assert r.hypothesis_satisfied and r.conclusion_holds
        assert r.counterwitness is None and r.consistent()

    def test_link_not_applicable_with_k4(self):
        r = check_lemma(Graph.complete(4), "L-LINK")
        assert not r.hypothesis_satisfied
        assert r.conclusion_holds is None and r.consistent()

    def test_link_budget_exceeded(self):
        r = check_lemma(Graph.complete_multipartite((3, 3)), "L-LINK", budget=1)
        assert r.hypothesis_satisfied and r.budget_exceeded
        assert r.conclusion_holds is None and r.consistent()
        full = check_lemma(Graph.complete_multipartite((3, 3)), "L-LINK")
        assert full.conclusion_holds and full.checked > 1

    def test_voh_holds_on_pendant_edge_host(self):
        r = check_lemma(k124_plus([0, 1]), "L-VOH")
        assert r.hypothesis_satisfied and r.conclusion_holds and r.consistent()

    def test_voh_not_applicable_without_k12n(self):
        assert not check_lemma(Graph.cycle(5), "L-VOH").hypothesis_satisfied

    def test_comp_holds_on_path_host(self):
        r = check_lemma(COMP_HOST, "L-COMP")
        assert r.hypothesis_satisfied and r.conclusion_holds and r.consistent()

    def test_comp_not_applicable_when_h_covers_g(self):
        assert not check_lemma(K123, "L-COMP").hypothesis_satisfied

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_lemma(K123, "L-NOPE")

    def test_zero_budget(self):
        r = check_lemma(Graph.cycle(6), "L-LINK", budget=0)
        assert r.budget_exceeded and r.conclusion_holds is None

    @pytest.mark.parametrize("lemma", LEMMA_IDS)
    def test_budget_counts_instances(self, lemma):
        # a budget of b checks exactly b instances; one at least as large as
        # the unbudgeted count changes nothing
        fixture = [parse_graph6(line)
                   for line in FIXTURE.read_text().splitlines()[:2000]]
        held = [g for g in fixture
                if check_lemma(g, lemma).hypothesis_satisfied][:4]
        assert len(held) == 4, lemma
        for g in [Graph.cycle(6), K33, BOWTIE, k124_plus([0, 1]), COMP_HOST,
                  *held]:
            full = check_lemma(g, lemma)
            for b in range(full.checked + 2):
                r = check_lemma(g, lemma, budget=b)
                if b >= full.checked:
                    assert r == full, (g.code(), b)
                else:
                    assert r.budget_exceeded and r.checked == b, (g.code(), b)
                    assert r.conclusion_holds is None and r.consistent()

    def test_exhaustive_n5_no_counterwitnesses(self):
        # the lemmas are theorems: a counterwitness is an implementation bug
        for g in all_graphs(5):
            for lemma in ("L-LINK", "L-VOH", "L-COMP"):
                r = check_lemma(g, lemma)
                assert r.conclusion_holds is not False, (g.code(), lemma, r)
                assert not r.budget_exceeded
                assert r.consistent()

    @settings(max_examples=25, deadline=None)
    @given(random_graph_strategy(max_n=7))
    def test_sampled_no_counterwitnesses(self, g):
        for lemma in ("L-LINK", "L-VOH", "L-COMP"):
            r = check_lemma(g, lemma, budget=20000)
            assert r.conclusion_holds is not False
            assert r.consistent()


def test_link_pruning_reports_as_the_unpruned_loop(monkeypatch):
    """L-LINK asks is_linked only of a vertex of degree >= 3 whose component
    off the cycle sees three cycle vertices, and reports what the loop that
    asks of every pair reports, budget for budget.  The facts say "no ISK4"
    of every graph, so that linked pairs occur: a linkage closes an induced
    K4 subdivision, and no vertex of an ISK4-free graph is linked."""
    lines = [line for path in (PAST_N7, FOUR_CORES)
             for line in path.read_text().split()]
    lines += FIXTURE.read_text().splitlines()[:3000]
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += map(parse_graph6, lines)
    budgets = (None, 1, 7, 50)

    def isk4_free(g):
        facts = GraphFacts(g)
        facts.isk4 = None
        return facts

    def reports():
        return [[check_lemma(isk4_free(g), "L-LINK", b) for b in budgets]
                for g in graphs]

    pruned = reports()
    monkeypatch.setitem(lemmas._LEMMAS, "L-LINK", link_unpruned)
    unpruned = reports()
    # the graphs with a linked pair: 9,484 of the universe, 969 lines
    assert sum(r[0].conclusion_holds is False for r in unpruned) == 10453
    for g, got, want in zip(graphs, pruned, unpruned):
        assert got == want, g.code()


# past_n7.g6 line by line: the L-COMP counterwitness, as (embedding,
# component, attachment), found at the first instance checked
PAST_N7_COMP = (
    ("Hy\\HWzH", (4, (1, 7), (3, 5, 8)), (0, 2, 6), (1, 4, 5, 8)),
    ("HwrTkyS", (5, (0, 3), (6, 7, 8)), (1, 2, 4), (0, 5, 6, 7)),
    ("Hpw[QH~", (4, (0, 8), (1, 2, 6)), (3, 5, 7), (1, 2, 4, 8)),
    ("HYENuFM", (6, (0, 1), (2, 7, 8)), (3, 4, 5), (0, 1, 6, 8)),
    ("Iq|OaXks?", (1, (4, 5), (3, 7, 8)), (0, 2, 9), (1, 3, 4, 8)),
    ("ISaikFVXG", (8, (0, 6), (3, 5, 7)), (1, 2, 9), (0, 5, 6, 8)),
    ("If\\uGwAq?", (3, (4, 5), (1, 2, 7)), (0, 6, 8, 9), (1, 3, 4, 5)),
    ("IAJvLYcM?", (5, (0, 2), (6, 7, 8)), (1, 3, 4, 9), (2, 5, 6, 7)),
    ("I{irOQqb?", (2, (0, 6), (1, 4, 8)), (3, 5, 9), (0, 2, 4, 8)),
)


def test_comp_counterwitnesses_past_n7():
    """Every graph of past_n7.g6 meets the L-COMP hypotheses and fails its
    conclusion at once.  Each counterwitness is pinned, then re-checked with
    the graph and pattern primitives alone."""
    assert PAST_N7.read_text().split() == [row[0] for row in PAST_N7_COMP]
    both_b = 0
    for line, emb, comp, att in PAST_N7_COMP:
        g = parse_graph6(line)
        r = check_lemma(g, "L-COMP")
        assert r.hypothesis_satisfied and r.conclusion_holds is False, line
        assert r.checked == 1 and r.consistent(), line
        assert r.counterwitness == {"embedding": emb, "component": comp,
                                    "attachment": att}, line
        h = K12nEmbedding(*emb)
        assert h.validate(g) and is_maximal_k12n(g, h) and h.n == 3, line
        hmask = h.vertex_mask()
        assert mask_of(comp) in components(g, g.vertex_mask & ~hmask), line
        am = attachment(g, hmask, mask_of(comp))
        assert tuple(bits(am)) == att, line
        # a, one or both b's and the rest c's: not empty, not a clique and
        # not {a, b1, b2}
        nb = (am & mask_of(h.b)).bit_count()
        assert len(att) == 4 and h.a in att and nb in (1, 2), line
        assert not is_clique(g, am), line
        both_b += nb == 2
    assert both_b == 3


# comp_n9.g6 line by line, as PAST_N7_COMP, with the past_n7.g6 lines each
# graph is isomorphic to
COMP_N9_COMP = (
    ("H^QC@^n", (8, (0, 7), (2, 5, 6)), (1, 3, 4), (0, 2, 7, 8),
     ("HYENuFM",)),
    ("HzYCEnM", (0, (7, 8), (1, 5, 6)), (2, 3, 4), (0, 1, 7, 8), ()),
    ("H^LC@Nn", (2, (3, 8), (0, 1, 4)), (5, 6, 7), (0, 1, 2, 8),
     ("HwrTkyS", "Hpw[QH~")),
    ("HBjCA}~", (8, (0, 7), (4, 5, 6)), (1, 2, 3), (4, 5, 7, 8),
     ("Hy\\HWzH",)),
)


def test_comp_counterwitnesses_n9():
    """The four n = 9 classes of L-COMP counterwitness: ISK4-free graphs
    with an induced K_{1,2,3}, minimum degree 3 and no clique cutset, whose
    structural colouring validates and replays.  HzYCEnM is the one class
    that past_n7.g6 does not hold."""
    assert COMP_N9.read_text().split() == [row[0] for row in COMP_N9_COMP]
    past = [(line, to_nx(parse_graph6(line)))
            for line in PAST_N7.read_text().split()]
    seen = []
    for line, emb, comp, att, twins in COMP_N9_COMP:
        g = parse_graph6(line)
        r = check_lemma(g, "L-COMP")
        assert r.hypothesis_satisfied and r.conclusion_holds is False, line
        assert r.checked == 1 and r.consistent(), line
        assert r.counterwitness == {"embedding": emb, "component": comp,
                                    "attachment": att}, line
        assert contains_isk4(g) is None and not has_isk4(g), line
        assert contains_induced(g, K123) is not None, line
        assert min(map(g.degree, range(g.n))) == 3, line
        assert find_clique_cutset(g) is None, line
        col, trace = structural_four_coloring(g)
        assert col.validate(g) and replay_trace(g, trace) == col, line
        h = to_nx(g)
        assert not any(nx.is_isomorphic(h, other) for other in seen), line
        seen.append(h)
        assert tuple(p for p, other in past
                     if nx.is_isomorphic(h, other)) == twins, line


class TestGraphFacts:
    """check_lemma reports the same from a bare graph as from one GraphFacts
    shared by all three lemmas, the way a scan runs them."""

    @staticmethod
    def assert_same_reports(graphs, budget):
        for g in graphs:
            facts = GraphFacts(g)
            for lemma in sorted(LEMMA_IDS):  # a scan's order
                assert check_lemma(facts, lemma, budget) == \
                    check_lemma(g, lemma, budget), (g.code(), lemma)
            # L-COMP reads its n >= 3 hosts off the shared n >= 2 list
            if "k12n" in vars(facts):
                assert [h for h in facts.k12n if h.n >= 3] == \
                    list(iter_maximal_k12n(g, 3))

    def test_universe_n_le_5(self):
        self.assert_same_reports((g for n in range(6) for g in all_graphs(n)), None)

    def test_first_fixture_lines(self):
        lines = FIXTURE.read_text().splitlines()[:2000]
        self.assert_same_reports(map(parse_graph6, lines), 20000)


class TestK4MinorVerdict:
    """No structure a lemma hypothesis searches for, and no linkage, exists
    in a K4-minor-free graph; so facts cut by the K4-minor verdict report
    as the uncut searches do."""

    @staticmethod
    def graphs():
        yield from (g for n in range(7) for g in all_graphs(n))
        yield from fixture_graphs()
        yield from ladder_graphs(range(8, 16))

    def test_k4_minor_free_graphs_have_no_hypothesis_structure(self):
        free = 0
        for g in self.graphs():
            if has_k4_minor(g):
                continue
            free += 1
            assert contains_isk4(g) is None, g.edges()
            for which in ("K33", "K222", "prism"):
                assert contains_fixed(g, which) is None, (which, g.edges())
            assert contains_induced(g, K123) is None, g.edges()
            assert next(iter_maximal_k12n(g, 2), None) is None, g.edges()
            for _, cycle, v in link_pairs([g]):
                assert is_linked(g, cycle, v) is None, (g.edges(), cycle, v)
        assert free > 20000

    def test_cut_facts_report_as_uncut_ones(self):
        budgets = (None, 1, 7, 50)
        for g in self.graphs():
            cut, uncut = GraphFacts(g), UncutFacts(g)
            for lemma in LEMMA_IDS:
                for b in budgets:
                    assert check_lemma(cut, lemma, b) == \
                        check_lemma(uncut, lemma, b), (g.edges(), lemma, b)
