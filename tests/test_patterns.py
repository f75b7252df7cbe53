import random
from itertools import combinations, islice
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from networkx.algorithms import isomorphism

import oracles
from bench import ladders
from isk4lab.graphs import Graph, bits, mask_of, parse_graph6
from isk4lab.patterns import (
    K12nEmbedding,
    SquareLinkStructure,
    _is_wheel,
    contains_fixed,
    contains_induced,
    contains_isk4,
    find_maximal_k12n,
    find_rich_square,
    is_k4_subdivision,
    is_maximal_k12n,
    is_prism,
    iter_maximal_k12n,
    iter_rich_squares,
    off_components,
)
from test_graphs import random_graph_strategy

FIXTURES = Path(__file__).parent / "fixtures"

K4 = Graph.complete(4)
C6 = Graph.cycle(6)
K33 = Graph.complete_multipartite((3, 3))
K222 = Graph.complete_multipartite((2, 2, 2))
K123 = Graph.complete_multipartite((1, 2, 3))

# K4 with the edge 2-3 replaced by the path 2-4-3
SUBDIV_K4 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])

PRISM6 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                              (0, 3), (1, 4), (2, 5)])
# PRISM6 with the matching edge 2-5 replaced by the path 2-6-5
PRISM7 = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                              (0, 3), (1, 4), (2, 6), (5, 6)])


def all_graphs(n):
    nbits = n * (n - 1) // 2
    for code in range(1 << nbits):
        yield Graph.from_code(n, code)


def rule6_inputs():
    """Every labeled graph with n <= 6, then the first 3,000 fixture lines."""
    for n in range(7):
        yield from all_graphs(n)
    with open(FIXTURES / "scan_stream_100k.g6") as f:
        for line in islice(f, 3000):
            yield parse_graph6(line)


class TestContainsInduced:
    def test_triangle_in_k4(self):
        w = contains_induced(K4, Graph.complete(3))
        assert w is not None
        assert w.mapping == (0, 1, 2)
        assert w.validate(K4)

    def test_no_triangle_in_c6(self):
        assert contains_induced(C6, Graph.complete(3)) is None

    def test_square_in_k222(self):
        w = contains_induced(K222, Graph.cycle(4))
        assert w is not None and w.validate(K222)
        assert w.vertex_mask() == 0b1111

    def test_no_c5_in_k33(self):
        # bipartite hosts have no odd holes
        assert contains_induced(K33, Graph.cycle(5)) is None

    def test_pattern_larger_than_host(self):
        assert contains_induced(Graph.complete(3), K4) is None

    @given(random_graph_strategy(max_n=7))
    def test_matches_networkx_matcher(self, g):
        host = oracles.to_nx(g)
        for pattern in (Graph.complete(3), Graph.cycle(4), Graph.path(4)):
            w = contains_induced(g, pattern)
            expect = isomorphism.GraphMatcher(
                host, oracles.to_nx(pattern)).subgraph_is_isomorphic()
            assert (w is not None) == expect
            if w is not None:
                assert w.validate(g)

    def test_same_witness_as_pairwise_search(self):
        # one mask test per placement finds the pairwise test's witness
        for n in range(7):
            for g in all_graphs(n):
                for pattern in (K33, K222, K123):
                    w = contains_induced(g, pattern)
                    assert (None if w is None else w.mapping) == \
                        oracles.contains_induced_pairwise(g, pattern)


class TestIsk4:
    def test_k4_itself(self):
        assert contains_isk4(K4) == 0b1111

    def test_subdivided_k4(self):
        assert contains_isk4(SUBDIV_K4) == 0b11111

    def test_none_in_k33(self):
        assert contains_isk4(K33) is None

    def test_none_in_cycle(self):
        assert contains_isk4(Graph.cycle(7)) is None

    def test_exhaustive_n5_against_smoothing(self):
        for g in all_graphs(5):
            got = contains_isk4(g)
            subs = oracles.isk4_subsets(g)
            if subs:
                assert got == mask_of(min(subs))
            else:
                assert got is None

    @settings(max_examples=60)
    @given(random_graph_strategy(max_n=7))
    def test_presence_matches_smoothing(self, g):
        assert (contains_isk4(g) is not None) == oracles.has_isk4(g)


def _induced_edges(g, mask):
    return [(u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1]


def planted_prisms(seed, count):
    """Seeded hosts on 7..12 vertices, each with a subdivided prism planted
    on a random core of 6 or more vertices, plus up to two random edges.
    Every fourth core has a triangle edge subdivided too, which smooths to
    the prism's shape but is no prism."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(7, 12)
        size = rng.randint(6 + (i % 4 == 3), n)
        edges = {(0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        chains = {(0, 3): [], (1, 4): [], (2, 5): [], (0, 1): []}
        if i % 4 == 3:
            chains[(0, 1)].append(6)
        for w in range(6 + (i % 4 == 3), size):
            chains[rng.choice(list(chains))].append(w)
        for (u, v), mids in chains.items():
            seq = [u, *mids, v]
            edges |= set(zip(seq, seq[1:]))
        for _ in range(rng.randint(0, 2)):
            edges.add(tuple(rng.sample(range(n), 2)))
        label = rng.sample(range(n), n)
        yield (Graph.from_edges(n, {tuple(sorted((label[u], label[v]))) for u, v in edges}),
               mask_of(label[v] for v in range(size)))


class TestSmoothingPredicates:
    """is_k4_subdivision and is_prism against the literal smoothing oracles."""

    def test_k4_subdivision_every_mask_n_le_5(self):
        for n in range(6):
            for g in all_graphs(n):
                for mask in range(1 << n):
                    want = oracles._smooth_to_k4(bits(mask), _induced_edges(g, mask))
                    assert is_k4_subdivision(g, mask) == want, (g.code(), mask)

    def test_prism_every_graph_n6(self):
        hits = 0
        for g in all_graphs(6):
            want = oracles.smooths_to_prism(range(6), g.edges())
            assert is_prism(g, g.vertex_mask) == want, g.code()
            hits += want
        assert hits == 60  # 6! / |Aut(prism)| labeled prisms

    def test_doubled_chains_are_rejected(self):
        # both smooth to cubic multigraphs: a 4-cycle with two opposite edges
        # doubled, and two triangles joined by one chain with a second chain
        # doubling one edge of each triangle
        k4_like = Graph.from_edges(6, [(0, 1), (0, 4), (1, 4), (0, 2), (1, 3),
                                       (2, 3), (2, 5), (3, 5)])
        prism_like = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                          (4, 5), (0, 3), (1, 6), (2, 6), (4, 7),
                                          (5, 7)])
        for g in (k4_like, prism_like):
            assert not oracles._smooth_to_k4(range(g.n), g.edges())
            assert not oracles.smooths_to_prism(range(g.n), g.edges())
            assert not is_k4_subdivision(g, g.vertex_mask)
            assert not is_prism(g, g.vertex_mask)

    def test_prism_planted_subdivided(self):
        hits = 0
        for g, core in planted_prisms(6, 300):
            for mask in [core] + [core ^ 1 << v for v in range(g.n)]:
                want = oracles.smooths_to_prism(bits(mask), _induced_edges(g, mask))
                assert is_prism(g, mask) == want, (g.edges(), mask)
                hits += want
        assert hits >= 100


def first_subset(g, min_size, check):
    """First vertex set in lexicographic order of sorted tuples, among all
    subsets of at least min_size vertices, that check accepts: no pruning."""
    subsets = sorted(sub for r in range(min_size, g.n + 1)
                     for sub in combinations(range(g.n), r))
    for sub in subsets:
        if check(g, mask_of(sub)):
            return mask_of(sub)
    return None


def _fixed_mask(which):
    def search(g):
        w = contains_fixed(g, which)
        return None if w is None else w.vertex_mask()
    return search


# the searcher, the least size a witness can have, and the predicate it
# decides subsets with; wheel is the one search that lets a vertex (the hub)
# reach induced degree 4
SUBSET_SEARCHES = {
    "isk4": (contains_isk4, 4, is_k4_subdivision),
    "prism": (_fixed_mask("prism"), 6, is_prism),
    "wheel": (_fixed_mask("wheel"), 5, _is_wheel),
}


def sampled_graphs(seed, sizes, per_size):
    """Seeded random graphs; every other one has an induced prism planted on
    six random vertices, since random graphs seldom hold one."""
    rng = random.Random(seed)
    for n in sizes:
        for i in range(per_size):
            p = (0.3, 0.45, 0.6, 0.75)[i % 4]
            edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}
            if i % 2:
                six = rng.sample(range(n), 6)
                edges -= set(combinations(sorted(six), 2))
                edges |= {tuple(sorted((six[u], six[v]))) for u, v in PRISM6.edges()}
            yield Graph.from_edges(n, sorted(edges))


class TestSubsetSearchAgainstUnpruned:
    """The degree-pruned subset search returns exactly the least subset
    that checking every subset in lexicographic order finds."""

    @pytest.mark.parametrize("name", SUBSET_SEARCHES)
    def test_exhaustive_n_le_5(self, name):
        search, min_size, check = SUBSET_SEARCHES[name]
        for n in range(6):
            for g in all_graphs(n):
                assert search(g) == first_subset(g, min_size, check), g.code()

    @pytest.mark.parametrize("name", SUBSET_SEARCHES)
    def test_sampled_n7_to_9(self, name):
        search, min_size, check = SUBSET_SEARCHES[name]
        found = 0
        for g in sampled_graphs(20, (7, 8, 9), 24):
            want = first_subset(g, min_size, check)
            assert search(g) == want, (g.n, g.edges())
            found += want is not None
        assert found >= 10  # the sample holds witnesses, not only misses


class TestContainsFixed:
    def test_k33(self):
        w = contains_fixed(K33, "K33")
        assert w is not None and w.validate(K33)
        assert contains_fixed(K123, "K33") is None

    def test_k222(self):
        w = contains_fixed(K222, "K222")
        assert w is not None and w.validate(K222)
        assert contains_fixed(K123, "K222") is None

    def test_prism_plain(self):
        w = contains_fixed(PRISM6, "prism")
        assert w is not None
        assert w.vertex_mask() == 0b111111
        assert w.validate(PRISM6)

    def test_prism_subdivided(self):
        w = contains_fixed(PRISM7, "prism")
        assert w is not None
        assert w.vertex_mask() == 0b1111111

    def test_prism_absent(self):
        assert contains_fixed(K222, "prism") is None
        assert contains_fixed(K33, "prism") is None

    def test_wheel_full_hub(self):
        w5 = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)]
                              + [(5, i) for i in range(5)])
        w = contains_fixed(w5, "wheel")
        assert w is not None and w.validate(w5)

    def test_wheel_three_spokes(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5, 0), (5, 1), (5, 2)])
        w = contains_fixed(g, "wheel")
        assert w is not None
        assert w.vertex_mask() == 0b111111

    def test_wheel_absent(self):
        assert contains_fixed(K4, "wheel") is None
        assert contains_fixed(C6, "wheel") is None

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            contains_fixed(K4, "banana")


class TestK4MinorFreeAtScale:
    """The ISK4, prism and wheel searches return at once on graphs with no
    K4 minor; walking every subset of these would never finish."""

    @pytest.mark.parametrize("g", [
        Graph.cycle(30),
        Graph.from_edges(*ladders.series_parallel(random.Random(44), 40, 40))],
        ids=["C30", "series-parallel-40"])
    def test_searches_return_none(self, g):
        assert nx.is_biconnected(oracles.to_nx(g))
        assert contains_isk4(g) is None
        assert contains_fixed(g, "prism") is None
        assert contains_fixed(g, "wheel") is None


class TestK12n:
    def test_k123_canonical(self):
        emb = find_maximal_k12n(K123, 3)
        assert emb == K12nEmbedding(0, (1, 2), (3, 4, 5))
        assert emb.validate(K123)
        assert is_maximal_k12n(K123, emb)
        assert oracles.brute_is_maximal_k12n(K123, emb)

    def test_cycle_has_none(self):
        assert find_maximal_k12n(Graph.cycle(7), 2) is None

    def test_k124_found_whole(self):
        g = Graph.complete_multipartite((1, 2, 4))
        emb = find_maximal_k12n(g, 2)
        assert emb == K12nEmbedding(0, (1, 2), (3, 4, 5, 6))
        assert find_maximal_k12n(g, 3) == emb

    def test_n_min_too_small(self):
        with pytest.raises(ValueError):
            find_maximal_k12n(K123, 1)

    def test_swapped_sides_not_maximal(self):
        # (0; 3,4; 1,2) is a valid K_{1,2,2} inside K123 but vertex 5 grows
        # the 2-side into a 3-side, so it must not count as maximal
        emb = K12nEmbedding(0, (3, 4), (1, 2))
        assert emb.validate(K123)
        assert not is_maximal_k12n(K123, emb)
        assert not oracles.brute_is_maximal_k12n(K123, emb)
        assert emb not in list(iter_maximal_k12n(K123, 2))

    def test_validate_rejects_repeats(self):
        assert not K12nEmbedding(0, (1, 1), (3, 4)).validate(K123)

    def test_exhaustive_n5_against_brute(self):
        for g in all_graphs(5):
            mine = {(e.a, e.b, e.c) for e in iter_maximal_k12n(g, 2)}
            brute = {
                t for t in oracles.all_k12n_embeddings(g, 2)
                if oracles.brute_is_maximal_k12n(g, K12nEmbedding(*t))
            }
            assert mine == brute

    def test_off_components_match_networkx(self):
        for n in range(7):
            for g in all_graphs(n):
                h = oracles.to_nx(g)
                for emb in iter_maximal_k12n(g, 2):
                    vs = {emb.a, *emb.b, *emb.c}
                    rest = h.subgraph(set(range(n)) - vs)
                    expect = sorted(
                        (min(c), mask_of(c),
                         mask_of(vs & {u for v in c for u in h[v]}))
                        for c in nx.connected_components(rest))
                    assert off_components(g, emb) == [e[1:] for e in expect]

    @settings(max_examples=40)
    @given(random_graph_strategy(max_n=6))
    def test_found_embeddings_validate(self, g):
        for e in iter_maximal_k12n(g, 2):
            assert e.validate(g)
            assert oracles.brute_is_maximal_k12n(g, e)


class TestRichSquare:
    def test_k222_two_centers(self):
        s = find_rich_square(K222)
        assert s is not None
        assert s.square == (0, 2, 1, 3)
        assert s.whole
        assert len(s.links) == 2
        assert all(l.center for l in s.links)
        assert s.validate(K222)

    def test_plain_square_is_poor(self):
        assert find_rich_square(Graph.cycle(4)) is None

    def test_two_spanning_paths(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (4, 0), (4, 1), (4, 5), (5, 2), (5, 3),
                                 (6, 0), (6, 1), (6, 7), (7, 2), (7, 3)])
        s = find_rich_square(g)
        assert s is not None and s.whole
        assert s.square == (0, 1, 2, 3)
        assert {l.path for l in s.links} == {(4, 5), (6, 7)}
        assert not any(l.center for l in s.links)
        assert s.validate(g)

    def test_other_pairing_rotates_square(self):
        # links attach on the edges 1-2 and 3-0, so the square is reported
        # starting at vertex 1
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (4, 1), (4, 2), (4, 5), (5, 3), (5, 0),
                                 (6, 1), (6, 2), (6, 7), (7, 0), (7, 3)])
        s = find_rich_square(g)
        assert s is not None and s.whole
        assert s.square == (1, 2, 3, 0)
        assert s.validate(g)

    def test_pendant_forces_containment_mode(self):
        g = Graph.from_edges(7, K222.edges() + [(4, 6)])
        s = find_rich_square(g)
        assert s is not None
        assert not s.whole
        assert s.square == (0, 4, 1, 5)
        assert len(s.links) == 2
        assert s.validate(g)

    def test_validate_rejects_tampering(self):
        s = find_rich_square(K222)
        assert not SquareLinkStructure(s.square, s.links[:1], False).validate(K222)
        assert not SquareLinkStructure(s.square, s.links, True).validate(
            Graph.from_edges(7, K222.edges() + [(4, 6)]))

    def test_generator_against_the_mode_flag(self):
        # the first structure is find_rich_square's former default, the
        # first whole one its former whole_only answer
        for g in rule6_inputs():
            found = list(iter_rich_squares(g))
            assert all(s.validate(g) for s in found)
            assert find_rich_square(g) == \
                oracles.rich_square_whole_only(g, False)
            assert next((s for s in found if s.whole), None) == \
                oracles.rich_square_whole_only(g, True)

    @settings(max_examples=60)
    @given(random_graph_strategy(max_n=7))
    def test_found_structures_validate(self, g):
        s = find_rich_square(g)
        if s is not None:
            assert s.validate(g)
