import random
from itertools import combinations
from pathlib import Path

import networkx as nx
from hypothesis import given, settings

import oracles
from bench import ladders
from isk4lab import coloring, decompose
from isk4lab.decompose import (
    CliqueCutset,
    MultipartiteCert,
    Proper2Cutset,
    _is_ab_path,
    find_clique_cutset,
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from isk4lab.graphs import (Graph, bits, components, induced_subgraph,
                            is_connected, mask_of, parse_graph6)
from isk4lab.patterns import contains_isk4
from test_graphs import kernel_graphs, random_graph_strategy
from test_patterns import K33, K123, K222, PRISM6, all_graphs, rule6_inputs

FIXTURES = Path(__file__).parent / "fixtures"


class TestCliqueCutset:
    def test_bowtie_cutvertex(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        got = find_clique_cutset(g)
        assert got == CliqueCutset((2,))
        assert got.validate(g)

    def test_two_k4_sharing_triangle(self):
        g = Graph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                             + [(1, 4), (2, 4), (3, 4)])
        got = find_clique_cutset(g)
        assert got == CliqueCutset((1, 2, 3))
        assert got.validate(g)

    def test_path_cutvertex(self):
        assert find_clique_cutset(Graph.path(4)) == CliqueCutset((1,))

    def test_disconnected_gives_empty_cutset(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert find_clique_cutset(g) == CliqueCutset(())

    def test_none_cases(self):
        assert find_clique_cutset(Graph.cycle(5)) is None
        assert find_clique_cutset(Graph.complete(4)) is None
        assert find_clique_cutset(K33) is None

    def test_exhaustive_n5_against_brute(self):
        # the first clique by (size, sorted tuple) that disconnects, exactly;
        # every graph with n <= 5 and more
        for g in kernel_graphs():
            got = find_clique_cutset(g)
            assert (got and got.vertices) == oracles.least_clique_cutset(g)
            if got is not None:
                assert got.validate(g)

    @settings(max_examples=60)
    @given(random_graph_strategy(max_n=7))
    def test_presence_matches_brute(self, g):
        got = find_clique_cutset(g)
        assert (got and got.vertices) == oracles.least_clique_cutset(g)
        if got is not None:
            assert got.validate(g)

    def test_floor_keeps_the_least_cutset_of_each_piece(self):
        # every piece K ∪ C of the clique-cutset decomposition of every
        # connected graph on n <= 6 and of the seeded series-parallel graphs,
        # each graph split at its least clique cutset C and each piece split
        # again at its own: the search floored at C finds the piece's least
        # clique cutset
        hosts = [g for n in range(7) for g in all_graphs(n) if is_connected(g)]
        hosts += [g for g in kernel_graphs() if g.n > 6]
        todo = [(g, find_clique_cutset(g)) for g in hosts]
        seen = set()
        while todo:
            g, cc = todo.pop()
            if cc is None:
                continue
            for k in components(g, g.vertex_mask & ~mask_of(cc.vertices)):
                piece, back = induced_subgraph(g, k | mask_of(cc.vertices))
                c = tuple(back.index(v) for v in cc.vertices)
                if (piece.adj, c) in seen:
                    continue
                seen.add((piece.adj, c))
                least = find_clique_cutset(piece)
                assert find_clique_cutset(piece, after=c) == least
                assert (least and least.vertices) == \
                    oracles.least_clique_cutset(piece), (g, cc)
                todo.append((piece, least))
        assert len(seen) > 1000

    def test_floor_skips_up_to_and_including_it(self):
        path = Graph.path(5)  # cutvertices 1, 2, 3
        assert find_clique_cutset(path, after=()) == CliqueCutset((1,))
        assert find_clique_cutset(path, after=(1,)) == CliqueCutset((2,))
        assert find_clique_cutset(path, after=(3,)) == CliqueCutset((1, 2))
        assert find_clique_cutset(path, after=(2, 1)) == CliqueCutset((2, 3))
        assert find_clique_cutset(path, after=(2, 3)) is None

    def test_floor_starts_the_candidates(self):
        # every graph with n <= 5 and every floor of at most four vertices,
        # a clique or not, sorted and reversed: the same cutset as the
        # search that dropped the candidates up to the floor one by one
        for n in range(6):
            floors = [f for r in range(5) for f in combinations(range(n), r)]
            for g in all_graphs(n):
                for f in floors:
                    want = oracles.clique_cutset_after(g, f)
                    for after in (f, f[::-1]):
                        got = find_clique_cutset(g, after=after)
                        assert (got and got.vertices) == want, (g.code(), after)

    def test_two_k33_sharing_an_edge(self):
        # ISK4-free, triangle-free, minimum degree 3 and not complete
        # bipartite: only with no clique cutset does a triangle-free
        # ISK4-free graph have to be complete bipartite or have a vertex of
        # degree <= 2 (test_acceptance.py checks that form on n <= 7)
        g = parse_graph6("IFz__aB_o")
        assert contains_isk4(g) is None
        assert not any(g.adj[u] & g.adj[v] for u, v in g.edges())
        assert min(g.degree(v) for v in range(g.n)) == 3
        assert recognize_complete_multipartite(g) is None
        assert find_clique_cutset(g) == CliqueCutset((0, 3))
        for side in components(g, g.vertex_mask & ~mask_of((0, 3))):
            h, _ = induced_subgraph(g, side | mask_of((0, 3)))
            cert = recognize_complete_multipartite(h)
            assert sorted(p.bit_count() for p in cert.parts) == [3, 3]

    def test_validate_matches_networkx(self):
        for g in all_graphs(5):
            h = oracles.to_nx(g)
            for r in range(4):
                for cut in combinations(range(g.n), r):
                    rest = h.subgraph(set(h) - set(cut))
                    expect = all(h.has_edge(u, v) for u, v in combinations(cut, 2)) \
                        and len(rest) > 0 and not nx.is_connected(rest)
                    assert CliqueCutset(cut).validate(g) == expect


class TestCutVertices:
    """The lowpoint search that decides find_clique_cutset's empty and
    single-vertex candidates, against one connectivity test per vertex."""

    @staticmethod
    def check(g, within):
        want = mask_of(v for v in bits(within)
                       if not is_connected(g, within & ~(1 << v)))
        assert decompose._cut_vertices(g, within) == \
            (is_connected(g, within), want), (g.code(), within)

    def test_every_mask_of_every_small_graph(self):
        # every graph with n <= 6, disconnected ones too, and every within
        # of at least three vertices.  The search reads g's rows only inside
        # within, so each (n, within, g[within]) is checked once: g has the
        # edges of each graph on within and no other
        graphs = 0
        for n in range(3, 7):
            for within in range(1 << n):
                if within.bit_count() < 3:
                    continue
                pairs = list(combinations(bits(within), 2))
                for code in range(1 << len(pairs)):
                    g = Graph.from_edges(n, [e for i, e in enumerate(pairs)
                                             if code >> i & 1])
                    self.check(g, within)
                    graphs += 1
        assert graphs == 8 + 96 + 1424 + 40032

    def test_the_scopes_of_the_recursion(self):
        # every scope that picks a rule on 50 seeded series-parallel graphs
        # with n = 20..40 and on comp_n9.g6
        rng = random.Random(43)
        hosts = [Graph.from_edges(*ladders.series_parallel(
            rng, rng.randrange(20, 41), 10)) for _ in range(50)]
        hosts += map(parse_graph6,
                     (FIXTURES / "comp_n9.g6").read_text().split())
        scopes = 0
        for g in hosts:
            _, trace = coloring.structural_four_coloring(g)
            for st in trace.steps:
                self.check(g, st.scope)
            scopes += len(trace.steps)
        assert scopes > 500


class TestWithin:
    """A search on the vertex mask `within` of g is the search on the
    induced copy g[within], its answer mapped back through the copy's vertex
    map.  The structural recursion runs every scope as a mask of its input
    graph and rests on this."""

    @staticmethod
    def scopes(monkeypatch):
        """Every (g, after, within) that the recursion's clique-cutset search
        is called with on the labeled graphs with n <= 6, seeded
        series-parallel graphs with n = 20..40, and comp_n9.g6."""
        calls = []
        real = coloring.find_clique_cutset

        def recorded(g, after=None, within=None):
            calls.append((g, after, within))
            return real(g, after=after, within=within)

        monkeypatch.setattr(coloring, "find_clique_cutset", recorded)
        rng = random.Random(29)
        hosts = [g for n in range(7) for g in all_graphs(n)]
        hosts += [Graph.from_edges(*ladders.series_parallel(rng, n, 10))
                  for n in range(20, 41)]
        hosts += map(parse_graph6,
                     (FIXTURES / "comp_n9.g6").read_text().split())
        for g in hosts:
            coloring.structural_four_coloring(g)
        return calls

    def test_searches_on_a_mask_are_searches_on_its_copy(self, monkeypatch):
        pieces = multipartite = 0
        for g, after, within in self.scopes(monkeypatch):
            h, vmap = induced_subgraph(g, within)
            back = {v: i for i, v in enumerate(vmap)}
            floor = None if after is None else [back[v] for v in after]
            pieces += floor is not None
            cc, want = (find_clique_cutset(g, after=after, within=within),
                        find_clique_cutset(h, after=floor))
            assert (cc and cc.vertices) == \
                (want and tuple(vmap[v] for v in want.vertices)), (g, within)
            if cc is not None:
                assert cc.validate(g, within)
            mp, want = (recognize_complete_multipartite(g, within),
                        recognize_complete_multipartite(h))
            assert (mp and mp.parts) == (want and tuple(
                mask_of(vmap[v] for v in bits(p)) for p in want.parts))
            if mp is not None:
                assert mp.validate(g, within)
                multipartite += 1
        assert pieces > 10000 and multipartite > 1000


class TestProper2Cutset:
    def test_k24(self):
        g = Graph.complete_multipartite((2, 4))
        got = find_proper_2cutset(g)
        assert got == Proper2Cutset(0, 1, mask_of((2, 3)), mask_of((4, 5)))
        assert got.validate(g)

    def test_none_cases(self):
        # both C6 sides of any 2-cut are paths; K_{2,3} always leaves one
        assert find_proper_2cutset(Graph.cycle(6)) is None
        assert find_proper_2cutset(Graph.complete_multipartite((2, 3))) is None
        assert find_proper_2cutset(Graph.complete(4)) is None

    def test_exhaustive_n5_against_brute(self):
        for g in all_graphs(5):
            got = find_proper_2cutset(g)
            assert (got is not None) == oracles.brute_has_proper_2cutset(g)
            if got is not None:
                assert got.validate(g)

    @settings(max_examples=40)
    @given(random_graph_strategy(max_n=6))
    def test_presence_matches_brute(self, g):
        got = find_proper_2cutset(g)
        assert (got is not None) == oracles.brute_has_proper_2cutset(g)
        if got is not None:
            assert got.validate(g)

    def test_validate_rejects_bad_partition(self):
        g = Graph.complete_multipartite((2, 4))
        # sides that are single (a,b)-paths must be rejected
        assert not Proper2Cutset(0, 1, mask_of((2,)), mask_of((3, 4, 5))).validate(g)
        assert not Proper2Cutset(0, 1, 0, mask_of((2, 3, 4, 5))).validate(g)

    def test_ab_path_every_side_n_le_5(self):
        # adjacent a, b included: validate rejects them before asking; the
        # walk starts at a, so both orders are asked
        found = 0
        for n in range(2, 6):
            for g in all_graphs(n):
                h = oracles.to_nx(g)
                for a, b in combinations(range(n), 2):
                    for side in range(1 << n):
                        if side >> a & 1 or side >> b & 1:
                            continue
                        want = oracles._is_ab_path(h, list(bits(side)), a, b)
                        assert _is_ab_path(g, side, a, b) == want, (g.code(), side, a, b)
                        assert _is_ab_path(g, side, b, a) == want, (g.code(), side, b, a)
                        found += want
        assert found > 0


TWO_C5 = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])


class TestCycles:
    """A chordless cycle has neither kind of cutset; two disjoint cycles and
    a cycle with a chord have both."""

    def test_cycles_have_neither_cutset(self):
        # no triangle, connected, and removing a vertex or an edge's two
        # ends leaves a path, so no candidate disconnects, floor or not
        for n in range(4, 63):
            g = Graph.cycle(n)
            assert find_clique_cutset(g) is None, n
            assert find_clique_cutset(g, after=(0,)) is None, n
            assert find_proper_2cutset(g) is None, n

    def test_two_disjoint_cycles_keep_their_cutsets(self):
        assert find_clique_cutset(TWO_C5) == CliqueCutset(())
        got = find_proper_2cutset(TWO_C5)
        assert got == Proper2Cutset(0, 2, mask_of((1, 3, 4)),
                                    mask_of(range(5, 10)))
        assert got.validate(TWO_C5)

    def test_cycle_with_a_chord_is_searched(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        assert find_clique_cutset(g) == CliqueCutset((0, 3))
        assert (find_proper_2cutset(g) is not None) == \
            oracles.brute_has_proper_2cutset(g)


class TestMultipartite:
    def test_k33(self):
        cert = recognize_complete_multipartite(K33)
        assert cert == MultipartiteCert((0b000111, 0b111000))
        assert cert.validate(K33)

    def test_k123(self):
        cert = recognize_complete_multipartite(K123)
        assert cert.parts == (0b000001, 0b000110, 0b111000)
        assert cert.validate(K123)

    def test_c4_is_k22(self):
        cert = recognize_complete_multipartite(Graph.cycle(4))
        assert cert.parts == (0b0101, 0b1010)

    def test_complete_graph_all_singletons(self):
        cert = recognize_complete_multipartite(Graph.complete(4))
        assert cert.parts == (1, 2, 4, 8)

    def test_none_cases(self):
        assert recognize_complete_multipartite(Graph.cycle(5)) is None
        assert recognize_complete_multipartite(Graph.empty(3)) is None
        assert recognize_complete_multipartite(Graph.empty(1)) is None
        assert recognize_complete_multipartite(Graph.path(4)) is None

    def test_exhaustive_n5_against_complement_components(self):
        for g in all_graphs(5):
            cert = recognize_complete_multipartite(g)
            sizes = oracles.multipartite_part_sizes(oracles.to_nx(g))
            if sizes is None or len(sizes) < 2:
                assert cert is None
            else:
                assert sorted(p.bit_count() for p in cert.parts) == sizes
                assert cert.validate(g)

    def test_matches_complement_recogniser(self):
        fixtures = Path(__file__).parent / "fixtures"
        lines = (fixtures / "scan_stream_100k.g6").read_text().split()[:3000]
        lines += (fixtures / "past_n7.g6").read_text().split()
        lines += (fixtures / "four_cores.g6").read_text().split()
        graphs = [g for n in range(7) for g in all_graphs(n)]
        graphs += map(parse_graph6, lines)
        found = 0
        for g in graphs:
            cert = recognize_complete_multipartite(g)
            assert cert == oracles.multipartite_by_complement(g), g
            found += cert is not None
        # Bell(n) - 1 labeled graphs for each n = 2..6, and 62 lines
        assert found == 272 + 62


class TestLineGraphSubcubic:
    def test_p3_root_is_p4(self):
        cert = recognize_line_graph_subcubic(Graph.path(3))
        assert cert is not None and cert.validate(Graph.path(3))
        assert nx.is_isomorphic(oracles.to_nx(cert.root), nx.path_graph(4))

    def test_c5_root_is_c5(self):
        cert = recognize_line_graph_subcubic(Graph.cycle(5))
        assert cert is not None
        assert nx.is_isomorphic(oracles.to_nx(cert.root), nx.cycle_graph(5))

    def test_claw_rejected(self):
        assert recognize_line_graph_subcubic(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_k4_rejected(self):
        # K4 is a line graph, but only of the degree-4 star
        assert recognize_line_graph_subcubic(Graph.complete(4)) is None

    def test_triangle_has_some_root(self):
        cert = recognize_line_graph_subcubic(Graph.complete(3))
        assert cert is not None and cert.validate(Graph.complete(3))

    def test_prism_root_is_k23(self):
        cert = recognize_line_graph_subcubic(PRISM6)
        assert cert is not None and cert.validate(PRISM6)
        assert nx.is_isomorphic(oracles.to_nx(cert.root),
                                nx.complete_bipartite_graph(2, 3))

    def test_octahedron_root_is_k4(self):
        cert = recognize_line_graph_subcubic(K222)
        assert cert is not None and cert.validate(K222)
        assert nx.is_isomorphic(oracles.to_nx(cert.root), nx.complete_graph(4))

    def test_k1_root_is_p2(self):
        cert = recognize_line_graph_subcubic(Graph.empty(1))
        assert cert.edge_of == ((0, 1),)
        assert cert.validate(Graph.empty(1))

    def test_exhaustive_n5_against_root_enumeration(self):
        for g in all_graphs(5):
            if not is_connected(g):
                continue
            cert = recognize_line_graph_subcubic(g)
            assert (cert is not None) == oracles.brute_is_subcubic_line_graph(g)
            if cert is not None:
                assert cert.validate(g)

    def test_against_commit_undo_search(self):
        # the same partition, so the same root and edge map
        for g in rule6_inputs():
            cert = recognize_line_graph_subcubic(g)
            ref = oracles.line_graph_commit_undo(g)
            assert ref == (None if cert is None else (cert.root, cert.edge_of))

    def test_root_is_the_graph_of_the_edge_map(self):
        cert = decompose.SubcubicRootCert(((0, 1), (1, 2), (1, 3)))
        assert cert.root == Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert cert.validate(Graph.complete(3))
        assert not decompose.SubcubicRootCert(((0, 1), (1, 1), (1, 3))) \
            .validate(Graph.complete(3))

    @settings(max_examples=30, deadline=None)
    @given(random_graph_strategy(max_n=6))
    def test_presence_matches_brute(self, g):
        if not is_connected(g):
            return
        cert = recognize_line_graph_subcubic(g)
        assert (cert is not None) == oracles.brute_is_subcubic_line_graph(g)
