"""Cutset finders and base-class recognizers the coloring pipeline dispatches on.

Each finding is a small certificate dataclass that can re-validate itself
against the host graph, independently of the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, dropwhile
from typing import Iterable, Optional

from .graphs import (Graph, bits, chain, components, is_clique, is_connected,
                     is_hole, mask_of)


@dataclass(frozen=True)
class CliqueCutset:
    """Pairwise adjacent vertex set (possibly empty) whose removal disconnects.

    Size 0 covers an already disconnected graph, size 1 a cutvertex.
    """

    vertices: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        cut = mask_of(self.vertices)
        if cut.bit_count() != len(self.vertices) or not is_clique(g, cut):
            return False
        return not is_connected(g, g.vertex_mask & ~cut)


@dataclass(frozen=True)
class Proper2Cutset:
    """Non-adjacent cut pair {a,b} plus a side partition (x, y) of the rest,
    anticomplete to each other, neither side-with-{a,b} inducing an (a,b)-path."""

    a: int
    b: int
    x: int
    y: int

    def validate(self, g: Graph) -> bool:
        if self.a == self.b or g.has_edge(self.a, self.b):
            return False
        ab = 1 << self.a | 1 << self.b
        if self.x == 0 or self.y == 0 or self.x & self.y:
            return False
        if (self.x | self.y | ab) != g.vertex_mask or (self.x | self.y) & ab:
            return False
        if any(g.adj[v] & self.y for v in bits(self.x)):
            return False
        return not _is_ab_path(g, self.x, self.a, self.b) and \
            not _is_ab_path(g, self.y, self.a, self.b)


def _is_ab_path(g: Graph, side: int, a: int, b: int) -> bool:
    """Does g[side ∪ {a,b}] induce a single path with ends a and b?  It does
    exactly when the walk from a ends at b and covers the whole set."""
    sub = side | 1 << a | 1 << b
    first = g.adj[a] & sub
    if first.bit_count() != 1:
        return False
    walk = chain(g, sub, a, first.bit_length() - 1)
    return walk[-1] == b and len(walk) == sub.bit_count() - 1


def _small_cliques(g: Graph):
    """Cliques of at most three vertices as sorted tuples, in the order
    find_clique_cutset tries them."""
    up = [row >> u + 1 << u + 1 for u, row in enumerate(g.adj)]  # above u
    yield ()
    yield from ((u,) for u in range(g.n))
    yield from ((u, v) for u in range(g.n) for v in bits(up[u]))
    yield from ((u, v, w) for u in range(g.n) for v in bits(up[u])
                for w in bits(up[u] & up[v]))


def find_clique_cutset(g: Graph, after: Optional[Iterable[int]] = None
                       ) -> Optional[CliqueCutset]:
    """Least clique cutset of size <= 3: smallest size first, then by
    sorted vertex list. Size 0 (disconnected input) and 1 (cutvertex) count.

    Candidates come in that order: the empty set, each vertex u, each edge
    u < v with v from adj[u], each triangle u < v < w with w from
    adj[u] & adj[v], every group ascending.  The first one whose removal
    leaves g disconnected is returned.

    `after` is a floor: every candidate at or before it in that order is
    skipped.  It is exact for a piece of a clique-cutset split.  Let C be
    the least clique cutset of a graph G, K a component of G - C, and g =
    G[K ∪ C].  Take a clique S of g with S != C and (|S|, S) < (|C|, C).
    Then S misses a vertex of C.  If g - S were disconnected, some component
    of g - S would avoid the clique C \\ S; it lies inside K, whose
    G-neighbours lie in K ∪ C, so S would be a clique cutset of G before C.
    C is no cutset of g either, as g - C = K is connected.  So
    find_clique_cutset(g, after=C) == find_clique_cutset(g), with C in g's
    ids (an induced subgraph keeps the vertex order, so the order of
    candidates is the same in g's ids as in G's).

    A chordless cycle on n >= 4 vertices has none, so it returns None at
    once: it has no triangle, the empty set does not cut it (it is
    connected), and removing one vertex or the two ends of one edge leaves
    a path.
    """
    full = g.vertex_mask
    if is_hole(g, full):
        return None
    cands: Iterable[tuple[int, ...]] = _small_cliques(g)
    if after is not None:
        floor = tuple(sorted(after))
        cands = dropwhile(lambda c: (len(c), c) <= (len(floor), floor), cands)
    for c in cands:
        if not is_connected(g, full & ~mask_of(c)):
            return CliqueCutset(c)
    return None


def find_proper_2cutset(g: Graph) -> Optional[Proper2Cutset]:
    """Least non-adjacent pair {a,b} whose removal splits g into component
    groups (x, y) with neither side-plus-{a,b} an (a,b)-path.

    All 2^(#components) groupings are tried; the first admissible one wins.

    A chordless cycle on n >= 4 vertices has none, so it returns None at
    once: removing a non-adjacent pair {a,b} leaves the cycle's two arcs
    from a to b as the only two components, so the only grouping puts one
    arc on each side, and each arc with {a,b} induces an (a,b)-path.
    """
    if is_hole(g, g.vertex_mask):
        return None
    for a, b in combinations(range(g.n), 2):
        if g.has_edge(a, b):
            continue
        rest = g.vertex_mask & ~(1 << a | 1 << b)
        comps = components(g, rest)
        if len(comps) < 2:
            continue  # one component cannot split into anticomplete halves
        for pick in range(1, (1 << len(comps)) - 1):
            x = 0
            for i, c in enumerate(comps):
                if pick >> i & 1:
                    x |= c
            y = rest & ~x
            if not _is_ab_path(g, x, a, b) and not _is_ab_path(g, y, a, b):
                return Proper2Cutset(a, b, x, y)
    return None


@dataclass(frozen=True)
class MultipartiteCert:
    """Partition of V into >= 2 independent parts, complete to each other,
    ordered by smallest vertex."""

    parts: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        if len(self.parts) < 2 or any(p == 0 for p in self.parts):
            return False
        seen = 0
        for p in self.parts:
            if seen & p:
                return False
            seen |= p
        if seen != g.vertex_mask:
            return False
        for p in self.parts:
            for v in bits(p):
                if g.adj[v] & p or g.adj[v] | p != g.vertex_mask:
                    return False
        return True


def recognize_complete_multipartite(g: Graph) -> Optional[MultipartiteCert]:
    """Certificate iff the complement of g is a disjoint union of >= 2 cliques;
    the parts are those cliques."""
    co = g.complement()
    parts = components(co, co.vertex_mask)
    if len(parts) < 2:
        return None
    for p in parts:
        for v in bits(p):
            if g.adj[v] & p:
                return None
    return MultipartiteCert(tuple(parts))


@dataclass(frozen=True)
class SubcubicRootCert:
    """g-vertex v is the root edge edge_of[v], adjacency iff shared endpoint;
    the root, the graph of those edges on 0..max endpoint, has max degree <= 3."""

    edge_of: tuple[tuple[int, int], ...]

    @property
    def root(self) -> Graph:
        return Graph.from_edges(1 + max(map(max, self.edge_of), default=-1),
                                self.edge_of)

    def validate(self, g: Graph) -> bool:
        if len(self.edge_of) != g.n or any(not 0 <= u < v for u, v in self.edge_of):
            return False
        root = self.root
        if sorted(self.edge_of) != root.edges():
            return False
        if any(root.degree(v) > 3 for v in range(root.n)):
            return False
        return all(
            g.has_edge(u, v) == bool(set(self.edge_of[u]) & set(self.edge_of[v]))
            for u, v in combinations(range(g.n), 2)
        )


def recognize_line_graph_subcubic(g: Graph) -> Optional[SubcubicRootCert]:
    """Backtracking search for a partition of g's edges into cliques of size
    <= 3 with every vertex in at most two of them, then root reconstruction.
    The least edge outside the cliques so far (`owned`, a mask of edge
    indices) goes into a triangle with w ascending, else alone.

    Isolated vertices of g become their own pendant root edges, so K1 maps to
    a root P2.
    """
    edges = g.edges()
    index = {e: i for i, (u, v) in enumerate(edges) for e in ((u, v), (v, u))}
    cliques: list[tuple[int, ...]] = []
    load = [0] * g.n

    def place(i: int, owned: int) -> bool:
        while owned >> i & 1:
            i += 1
        if i == len(edges):
            return True
        u, v = edges[i]
        if load[u] == 2 or load[v] == 2:
            return False
        tris = [(tuple(sorted((u, v, w))),
                 1 << i | 1 << index[u, w] | 1 << index[v, w])
                for w in bits(g.adj[u] & g.adj[v]) if load[w] < 2]
        for c, m in tris + [((u, v), 1 << i)]:
            if owned & m:
                continue
            cliques.append(c)
            for x in c:
                load[x] += 1
            if place(i + 1, owned | m):
                return True
            cliques.pop()
            for x in c:
                load[x] -= 1
        return False

    if not place(0, 0):
        return None

    in_cliques: list[list[int]] = [[] for _ in range(g.n)]
    for idx, c in enumerate(cliques):
        for v in c:
            in_cliques[v].append(idx)
    nroot = len(cliques)
    edge_of = []
    for v in range(g.n):
        ends = in_cliques[v]
        while len(ends) < 2:  # pendant root vertex per missing clique
            ends = ends + [nroot]
            nroot += 1
        edge_of.append((min(ends), max(ends)))
    cert = SubcubicRootCert(tuple(edge_of))
    assert cert.validate(g)
    return cert
