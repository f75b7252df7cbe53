import copy
import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import oracles
from bench import ladders

from isk4lab.graphs import (
    Graph,
    GraphFormatError,
    attachment,
    bits,
    chain,
    components,
    format_edge_list,
    has_k4_minor,
    induced_subgraph,
    is_clique,
    is_connected,
    is_hole,
    is_induced_cycle,
    is_induced_path,
    mask_of,
    neighborhood,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)


def random_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        nbits = n * (n - 1) // 2
        code = draw(st.integers(0, (1 << nbits) - 1)) if nbits else 0
        return Graph.from_code(n, code)

    return build()


graphs = random_graph_strategy()


def kernel_graphs():
    """Inputs of the kernel-against-oracle tests: every graph with n <= 5,
    every fifth graph with n = 6, and seeded 2-connected series-parallel
    graphs with n = 20..40."""
    for n in range(7):
        step = 5 if n == 6 else 1
        for code in range(0, 1 << n * (n - 1) // 2, step):
            yield Graph.from_code(n, code)
    rng = random.Random(20)
    for n in range(20, 41, 4):
        yield Graph.from_edges(*ladders.series_parallel(rng, n, 10))


class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degree(1) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, [0b10, 0b00])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [0b1])
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(1, [0b10])
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_immutable(self):
        g = Graph.empty(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_value_semantics(self):
        g = Graph.cycle(5)
        assert hash(g) == hash((g.n, g.adj))
        assert g != (g.n, g.adj)
        assert g == Graph.from_edges(5, g.edges()) and g != Graph.path(5)

    def test_pickle_and_copy_round_trip(self):
        for g in [Graph.empty(0), Graph.cycle(5), Graph.complete(4),
                  Graph.from_edges(4, [(0, 1), (2, 3)])]:
            for h in [pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)]:
                assert h == g and type(h) is Graph
                with pytest.raises(AttributeError):
                    h.adj = ()

    def test_unpickling_runs_the_checks(self):
        class Smuggled:
            # a reduce tuple naming Graph with an asymmetric adjacency
            def __reduce__(self):
                return Graph, (2, (0b10, 0b00))

        data = pickle.dumps(Smuggled())
        with pytest.raises(ValueError, match="asymmetric"):
            pickle.loads(data)

    def test_complete_multipartite(self):
        g = Graph.complete_multipartite([1, 2, 3])
        assert g.n == 6
        assert not g.has_edge(1, 2)  # within part {1,2}
        assert g.has_edge(0, 1) and g.has_edge(1, 3)
        assert g.edge_count() == 1 * 2 + 1 * 3 + 2 * 3

    def test_trusted_builds_match_checked_constructor(self):
        # from_code and induced_subgraph skip __init__'s checks; the checked
        # constructor accepts what they build and gives an equal graph
        for n in range(6):
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                assert Graph(g.n, g.adj) == g
                sub, _ = induced_subgraph(g, code % (1 << n))
                assert Graph(sub.n, sub.adj) == sub

    @pytest.mark.parametrize("n, code", [(4, -1), (3, 1 << 10), (-1, 0)])
    def test_from_code_rejects_out_of_range(self, n, code):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_code(n, code)

    @pytest.mark.parametrize("g, perm", [
        (Graph.from_edges(4, [(0, 1)]), [2, 3, 2, 3]),
        (Graph.cycle(5), [0, 1, 2])])
    def test_relabel_rejects_a_non_permutation(self, g, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            g.relabel(perm)

    def test_code_roundtrip(self):
        for g in [Graph.complete(5), Graph.cycle(6), Graph.path(4), Graph.empty(3)]:
            assert Graph.from_code(g.n, g.code()) == g


class TestGraph6:
    def test_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count() == 0
        assert write_graph6(g) == "@"

    def test_k4(self):
        g = parse_graph6("C~")
        assert g == Graph.complete(4)
        assert write_graph6(Graph.complete(4)) == "C~"

    def test_star_k14(self):
        # center is vertex 4 under the column-major bit order
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
        assert write_graph6(g) == "D?{"

    def test_c5_length(self):
        s = write_graph6(Graph.cycle(5))
        assert len(s) == 3  # 10 bits -> 2 body bytes
        assert parse_graph6(s) == Graph.cycle(5)

    def test_empty_vertexless(self):
        g = parse_graph6("?")
        assert g.n == 0
        assert write_graph6(g) == "?"

    def test_strips_newline(self):
        assert parse_graph6("C~\n") == Graph.complete(4)

    def test_rejects_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")

    def test_rejects_bad_char(self):
        with pytest.raises(GraphFormatError) as ei:
            parse_graph6("C~ ")
        assert ei.value.offset == 2

    def test_rejects_truncated(self):
        with pytest.raises(GraphFormatError, match="truncated"):
            parse_graph6("D?")

    def test_rejects_trailing(self):
        with pytest.raises(GraphFormatError, match="trailing") as ei:
            parse_graph6("C~~")
        assert ei.value.offset == 2

    def test_rejects_nonzero_padding(self):
        # C4 needs 6 bits for n=4; a second body byte is trailing garbage,
        # while flipping padding inside the single byte must also fail.
        with pytest.raises(GraphFormatError, match="padding"):
            parse_graph6("B" + chr(63 + 0b000001))  # n=3: 3 bits used, pad must be 0

    def test_rejects_long_form(self):
        with pytest.raises(GraphFormatError, match="long-form"):
            parse_graph6("~??")
        with pytest.raises(GraphFormatError):
            write_graph6(Graph.empty(63))

    def test_matches_networkx_exhaustive_small(self):
        for n in range(0, 5):
            nbits = n * (n - 1) // 2
            for code in range(1 << nbits):
                g = Graph.from_code(n, code)
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(g.edges())
                ref = nx.to_graph6_bytes(h, header=False).decode().strip()
                assert write_graph6(g) == ref
                assert parse_graph6(ref) == g

    @given(graphs)
    def test_roundtrip_matches_networkx(self, g):
        s = write_graph6(g)
        assert parse_graph6(s) == g
        h = nx.from_graph6_bytes(s.encode())
        assert set(h.edges()) == {(u, v) for u, v in g.edges()} | set()
        assert h.number_of_nodes() == g.n


class TestEdgeList:
    def test_roundtrip(self):
        g = Graph.cycle(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == Graph.path(3)

    def test_rejects_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares"):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_bad_token(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 one\n")

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")

    @pytest.mark.parametrize("text", ["63 0", "1000000000000000000 0"])
    def test_rejects_n_past_the_graph6_limit(self, text):
        with pytest.raises(GraphFormatError, match="exceeds the limit 62"):
            parse_edge_list(text)

    @given(graphs)
    def test_roundtrip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


class TestSetOps:
    def test_bits_and_mask(self):
        assert list(bits(0b10110)) == [1, 2, 4]
        assert mask_of([1, 2, 4]) == 0b10110

    def test_induced_subgraph_preserves_order(self):
        g = Graph.cycle(5)
        h, vmap = induced_subgraph(g, mask_of([0, 2, 3]))
        assert vmap == [0, 2, 3]
        assert h.edges() == [(1, 2)]  # only 2-3 survives

    def test_induced_subgraph_against_networkx(self):
        rng = random.Random(9)
        for _ in range(2000):
            n = rng.randint(0, 12)
            g = Graph.from_code(n, rng.getrandbits(n * (n - 1) // 2))
            mask = rng.getrandbits(n)
            h, vmap = induced_subgraph(g, mask)
            assert vmap == [v for v in range(n) if mask >> v & 1]
            expect = nx.convert_node_labels_to_integers(
                oracles.to_nx(g).subgraph(vmap), ordering="sorted")
            assert h.edges() == sorted(tuple(sorted(e)) for e in expect.edges())

    def test_piece_of_a_piece_is_the_piece_of_the_graph(self):
        # inducing from an induced subgraph gives the graph's own piece on
        # the composed vertex map
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(0, 12)
            g = Graph.from_code(n, rng.getrandbits(n * (n - 1) // 2))
            h, hmap = induced_subgraph(g, rng.getrandbits(n))
            piece, pmap = induced_subgraph(h, rng.getrandbits(h.n))
            composed = [hmap[i] for i in pmap]
            assert induced_subgraph(g, mask_of(composed)) == (piece, composed)

    def test_components_against_networkx(self):
        rng = random.Random(10)
        for n in range(6):
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                within = rng.getrandbits(n)
                sub = oracles.to_nx(g).subgraph(bits(within))
                expect = sorted((mask_of(c) for c in nx.connected_components(sub)),
                                key=lambda m: m & -m)  # by smallest vertex
                assert components(g, within) == expect
                assert is_connected(g, within) == (len(expect) <= 1)

    def test_components_ordering(self):
        g = Graph.from_edges(6, [(4, 5), (0, 2)])
        comps = components(g)
        assert comps == [mask_of([0, 2]), mask_of([1]), mask_of([3]), mask_of([4, 5])]

    def test_components_within(self):
        g = Graph.cycle(6)
        comps = components(g, within=mask_of([0, 1, 3, 4]))
        assert comps == [mask_of([0, 1]), mask_of([3, 4])]

    def test_is_connected(self):
        assert is_connected(Graph.cycle(4))
        assert not is_connected(Graph.from_edges(3, [(0, 1)]))
        assert is_connected(Graph.empty(0))
        assert is_connected(Graph.cycle(6), within=0)

    def test_neighborhood(self):
        g = Graph.path(4)
        assert neighborhood(g, mask_of([1])) == mask_of([0, 2])
        assert neighborhood(g, mask_of([1, 2])) == mask_of([0, 3])

    def test_attachment(self):
        g = Graph.path(4)
        assert attachment(g, mask_of([0, 1]), mask_of([2, 3])) == mask_of([1])
        with pytest.raises(ValueError, match="overlap"):
            attachment(g, 0b11, 0b10)

    def test_induced_path_and_cycle(self):
        g = Graph.cycle(5)
        assert is_induced_path(g, [0, 1, 2, 3])
        assert not is_induced_path(g, [0, 1, 2, 3, 4])  # closes a cycle
        assert is_induced_cycle(g, [0, 1, 2, 3, 4])
        assert not is_induced_cycle(g, [0, 1, 2])
        k4 = Graph.complete(4)
        assert not is_induced_cycle(k4, [0, 1, 2, 3])  # chords

    def test_induced_cycle_matches_two_path_form(self):
        # every sequence of at most four vertices, repeats included, and
        # every ordering of five, on every graph with n <= 5
        for n in range(6):
            seqs = [s for k in range(5)
                    for s in itertools.product(range(n), repeat=k)]
            seqs += list(itertools.permutations(range(n))) if n == 5 else []
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                for s in seqs:
                    assert is_induced_cycle(g, s) == \
                        oracles.is_induced_cycle_two_paths(g, s), (g, s)

    def test_chain_closes_on_cycle(self):
        # every vertex of C5 has degree 2: the walk comes back to its start
        assert chain(Graph.cycle(5), 0b11111, 0, 1) == [1, 2, 3, 4, 0]
        assert chain(Graph.cycle(5), 0b11111, 0, 4) == [4, 3, 2, 1, 0]

    def test_chain_stops_at_path_end(self):
        g = Graph.path(5)
        assert chain(g, g.vertex_mask, 0, 1) == [1, 2, 3, 4]
        assert chain(g, mask_of([1, 2, 3]), 1, 2) == [2, 3]  # within the mask

    def test_chain_stops_at_branch_vertex(self):
        # K4 with the edge 2-3 subdivided by 4: walk 2 -> 4 -> 3, degree 3
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
        assert chain(g, g.vertex_mask, 2, 4) == [4, 3]
        assert chain(g, g.vertex_mask, 2, 0) == [0]

    def test_is_clique(self):
        g = Graph.cycle(4)
        assert is_clique(g, 0)
        assert is_clique(g, mask_of([2]))
        assert is_clique(g, mask_of([0, 1]))
        assert not is_clique(g, mask_of([0, 2]))
        assert is_clique(Graph.complete(5), 0b11111)
        assert not is_clique(Graph.from_edges(3, [(0, 1), (1, 2)]), 0b111)

    def test_is_hole_against_networkx(self):
        # every graph with n <= 5 and every vertex mask: g[mask] is a hole
        # iff it is connected, 2-regular and has at least four vertices
        for n in range(6):
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                host = oracles.to_nx(g)
                for mask in range(1 << n):
                    sub = host.subgraph(bits(mask))
                    expect = len(sub) >= 4 and nx.is_connected(sub) and \
                        all(d == 2 for _, d in sub.degree())
                    assert is_hole(g, mask) == expect, (n, code, mask)

    def test_two_disjoint_holes_are_not_one(self):
        g = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)] +
                             [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        assert not is_hole(g, g.vertex_mask)
        assert is_hole(g, 0b00001111) and is_hole(g, 0b11110000)

    @given(graphs)
    def test_components_partition(self, g):
        comps = components(g)
        union = 0
        for c in comps:
            assert c & union == 0
            union |= c
        assert union == g.vertex_mask
        for c in comps:
            assert is_connected(g, within=c)

    @given(graphs, st.randoms())
    def test_relabel_preserves_degrees(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = g.relabel(perm)
        assert sorted(h.degree(v) for v in range(h.n)) == sorted(
            g.degree(v) for v in range(g.n))
        for u, v in g.edges():
            assert h.has_edge(perm[u], perm[v])

    def test_complement(self):
        g = Graph.cycle(5)
        assert g.complement().complement() == g
        assert Graph.complete(4).complement() == Graph.empty(4)

    def test_complement_passes_the_checking_constructor(self):
        # built unchecked, so every complement must be one the checks accept
        for n in range(6):
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                co = g.complement()
                assert Graph(co.n, co.adj) == co
                assert co.edge_count() == n * (n - 1) // 2 - g.edge_count()
                assert co.complement() == g


class TestK4Minor:
    """has_k4_minor against the brute-force oracle, which looks for an edge
    subset that smooths to K4."""

    def test_every_graph_n_le_5(self):
        for n in range(6):
            for code in range(1 << n * (n - 1) // 2):
                g = Graph.from_code(n, code)
                assert has_k4_minor(g) == oracles.has_k4_minor(g), (n, code)

    def test_sampled_n6_to_9(self):
        rng = random.Random(41)
        seen = set()
        for n in range(6, 10):
            for i in range(24):
                p = (0.2, 0.3, 0.4, 0.5)[i % 4]
                g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < p])
                want = oracles.has_k4_minor(g)
                assert has_k4_minor(g) == want, (n, g.edges())
                seen.add(want)
        assert seen == {False, True}

    def test_series_parallel_graphs_are_free(self):
        # the benchmark's seeded families, free of K4 minors by construction
        rng = random.Random(42)
        for n in range(3, 31):
            for g in (Graph.from_edges(*ladders.series_parallel(rng, n, max(n, 4))),
                      Graph.from_edges(*ladders.partial_2tree(rng, n))):
                assert not has_k4_minor(g), (n, g.edges())
                if n <= 9:
                    assert not oracles.has_k4_minor(g)

    def test_planted_k4_subdivisions_are_not_free(self):
        rng = random.Random(43)
        for n in range(6, 31):
            g = Graph.from_edges(*ladders.planted_isk4(rng, n)[:2])
            assert has_k4_minor(g), (n, g.edges())
            if n <= 9:
                assert oracles.has_k4_minor(g)
