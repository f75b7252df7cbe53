"""ISK4-free graphs past n = 7, certified by construction.

An induced subdivision of K4 has no clique cutset.  So in a graph glued
from two ISK4-free graphs along a clique, or along nothing, an induced K4
subdivision lies on one side, and the sum is ISK4-free too.  The atoms are
small graphs that the brute-force oracle certifies; seeded sums of them
reach n = 62, far past the n <= 7 universe, and each must take a
structural colouring that validates and replays.
"""

import random
from itertools import combinations, product

import pytest

from isk4lab.coloring import replay_trace, structural_four_coloring
from isk4lab.decompose import find_clique_cutset
from isk4lab.graphs import Graph, is_clique, mask_of
from isk4lab.patterns import (_is_wheel, contains_induced, contains_isk4,
                              is_k4_subdivision, is_prism)
from oracles import has_isk4, least_clique_cutset

from test_patterns import K123, PRISM6, PRISM7

ATOMS = {
    "K33": Graph.complete_multipartite((3, 3)),
    "K44": Graph.complete_multipartite((4, 4)),
    "K222": Graph.complete_multipartite((2, 2, 2)),
    "K223": Graph.complete_multipartite((2, 2, 3)),
    **{f"C{k}": Graph.cycle(k) for k in range(5, 9)},
}


def cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every clique of g on at most three vertices, the empty one included."""
    return [c for r in range(4) for c in combinations(range(g.n), r)
            if is_clique(g, mask_of(c))]


ATOM_CLIQUES = {name: cliques(g) for name, g in ATOMS.items()}


def clique_sum(rng: random.Random, n_max: int) -> tuple[Graph, list[int]]:
    """Glue random atoms, each along a random clique of at most three
    vertices that it shares with the sum so far (the empty clique gives a
    disjoint union), until no atom fits in n_max vertices.  Returns the
    sum, relabelled at random, and the glued clique sizes.

    Every clique of a clique sum lies on one side, so the sum's cliques
    are those of its atoms."""
    n, edges, held, sizes = 0, set(), [()], []
    while True:
        shared = {len(c) for c in held}
        fits = sorted((name, size) for name in ATOMS
                      for size in {len(c) for c in ATOM_CLIQUES[name]} & shared
                      if n + ATOMS[name].n - size <= n_max)
        if not fits:
            break
        name, size = rng.choice(fits)
        atom = ATOMS[name]
        ours = rng.choice([c for c in ATOM_CLIQUES[name] if len(c) == size])
        theirs = list(rng.choice([c for c in held if len(c) == size]))
        rng.shuffle(theirs)
        where = dict(zip(ours, theirs))
        for v in range(atom.n):
            if v not in where:
                where[v] = n
                n += 1
        edges |= {tuple(sorted((where[u], where[v]))) for u, v in atom.edges()}
        held += [tuple(where[v] for v in c) for c in ATOM_CLIQUES[name] if c]
        sizes.append(size)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, edges).relabel(perm), sizes


def k4_subdivisions(n_max: int):
    """K4 with its six edges subdivided into paths, up to n_max vertices."""
    k4 = list(combinations(range(4), 2))
    for extra in product(range(n_max - 3), repeat=6):
        if sum(extra) > n_max - 4:
            continue
        n, edges = 4, []
        for (a, b), k in zip(k4, extra):
            path = [a, *range(n, n + k), b]
            n += k
            edges += zip(path, path[1:])
        yield Graph.from_edges(n, edges)


def wheels(n_max: int):
    """A hole C_k plus a hub seeing at least three of its vertices."""
    for k in range(4, n_max):
        for r in range(3, k + 1):
            for spokes in combinations(range(k), r):
                yield Graph.from_edges(
                    k + 1, Graph.cycle(k).edges() + [(v, k) for v in spokes])


def test_k4_subdivisions_prisms_and_wheels_have_no_clique_cutset():
    """The fact the sums rest on, on every such graph with n <= 7."""
    shapes = [(g, is_k4_subdivision) for g in k4_subdivisions(7)]
    shapes += [(g, is_prism) for g in (PRISM6, PRISM7)]
    shapes += [(g, _is_wheel) for g in wheels(7)]
    assert len(shapes) == 84 + 2 + 63
    for g, recognise in shapes:
        assert recognise(g, g.vertex_mask), g.edges()
        assert find_clique_cutset(g) is None, g.edges()
        assert least_clique_cutset(g) is None, g.edges()


@pytest.mark.parametrize("name", sorted(ATOMS))
def test_atoms_are_isk4_free(name):
    assert not has_isk4(ATOMS[name])
    assert (contains_induced(ATOMS[name], K123) is not None) == (name == "K223")


def test_clique_sums_colour_and_replay():
    rng = random.Random(7)
    seen_n, seen_sizes = [], set()
    for i in range(32):
        # every other sum is small enough for the subset search to certify
        g, sizes = clique_sum(rng, rng.randint(*(12, 18) if i % 2 else (19, 62)))
        seen_n.append(g.n)
        seen_sizes.update(sizes)
        col, trace = structural_four_coloring(g)
        assert col.k <= 4 and col.validate(g), g.edges()
        assert replay_trace(g, trace) == col, g.edges()
        if g.n <= 18:
            assert contains_isk4(g) is None, g.edges()
    assert seen_sizes == {0, 1, 2, 3}
    assert min(seen_n) <= 18 and max(seen_n) > 50
