"""Cutset finders and base-class recognizers the coloring pipeline dispatches on.

Each finding is a small certificate dataclass that can re-validate itself
against the host graph, independently of the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .graphs import (Graph, bits, chain, components, is_clique, is_connected,
                     mask_of)


@dataclass(frozen=True)
class CliqueCutset:
    """Pairwise adjacent vertex set (possibly empty) whose removal disconnects.

    Size 0 covers an already disconnected graph, size 1 a cutvertex.
    """

    vertices: tuple[int, ...]

    def validate(self, g: Graph, within: Optional[int] = None) -> bool:
        """A clique cutset of g[within], or of g when within is None."""
        full = g.vertex_mask if within is None else within
        if not all(0 <= v and full >> v & 1 for v in self.vertices):
            return False
        cut = mask_of(self.vertices)
        if cut.bit_count() != len(self.vertices) or not is_clique(g, cut):
            return False
        return not is_connected(g, full & ~cut)


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


def _cut_vertices(g: Graph, full: int) -> tuple[bool, int]:
    """Is g[full] connected, and the mask of its vertices v with g[full - v]
    disconnected, by one lowpoint depth-first search (Tarjan, SIAM J.
    Comput. 1972).

    A vertex first seen has only its tree ancestors seen among its
    neighbours, so its lowpoint starts as their least discovery time; a
    finished child passes its lowpoint up.  With one component, v cuts
    exactly when it is a non-root vertex with a child whose lowpoint is no
    less than v's discovery time, or the root with two children.  With two
    components, every vertex cuts but an isolated one, and with three or
    more, every vertex."""
    adj = g.adj
    disc = [0] * g.n  # discovery times from 1; 0 while unseen
    low = [0] * g.n
    seen = cuts = single = 0
    comps = t = 0
    rest = full
    while rest:
        root = (rest & -rest).bit_length() - 1
        comps += 1
        t += 1
        disc[root] = low[root] = t
        seen |= 1 << root
        stack, children = [root], 0
        while stack:
            v = stack[-1]
            nxt = adj[v] & full & ~seen
            if nxt:
                w = (nxt & -nxt).bit_length() - 1
                t += 1
                disc[w] = lw = t
                for u in bits(adj[w] & seen):
                    if disc[u] < lw:
                        lw = disc[u]
                low[w] = lw
                seen |= 1 << w
                stack.append(w)
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1]
            if p == root:
                children += 1
            elif low[v] >= disc[p]:
                cuts |= 1 << p
            if low[v] < low[p]:
                low[p] = low[v]
        if children >= 2:
            cuts |= 1 << root
        elif not children:
            single |= 1 << root
        rest &= ~seen
    if comps > 2:
        return False, full
    if comps == 2:
        return False, full & ~single
    return True, cuts


def _small_cliques(g: Graph, full: int, floor: tuple[int, ...]
                   ) -> Iterator[tuple[int, ...]]:
    """Cliques of g[full] of two and three vertices as sorted tuples, in the
    order find_clique_cutset tries them, from the first one after floor (a
    sorted tuple).  A floor of fewer vertices starts at the first edge."""
    up = [(row & full) >> u + 1 << u + 1 for u, row in enumerate(g.adj)]
    k = len(floor)
    if k <= 2:
        a, b = floor if k == 2 else (0, -1)
        yield from ((u, v) for u in bits(full >> a << a)
                    for v in bits(up[u] if u != a else up[u] >> b + 1 << b + 1))
    if k <= 3:
        a, b, c = floor if k == 3 else (0, 0, -1)
        yield from ((u, v, w) for u in bits(full >> a << a)
                    for v in bits(up[u] if u != a else up[u] >> b << b)
                    for w in bits(up[u] & up[v] if u != a or v != b
                                  else up[u] & up[v] >> c + 1 << c + 1))


def find_clique_cutset(g: Graph, after: Optional[Iterable[int]] = None,
                       within: Optional[int] = None) -> Optional[CliqueCutset]:
    """Least clique cutset of size <= 3 of g[within], or of g when within is
    None: smallest size first, then by sorted vertex list. Size 0
    (disconnected input) and 1 (cutvertex) count.

    Candidates come in that order: the empty set, each vertex u, each edge
    u < v with v from adj[u], each triangle u < v < w with w from
    adj[u] & adj[v], every group ascending and inside within.  The first
    one whose removal leaves g[within] disconnected is returned.  An
    induced subgraph keeps the vertex order, so this is the search on the
    induced copy of g[within], its answer mapped back to g's ids.

    The empty set and the single vertices are decided together by one
    lowpoint search (_cut_vertices): whether g[within] is connected, and
    the mask of the vertices whose removal disconnects it.  The single
    vertices are tried ascending and the first one that disconnects wins,
    so the answer among them is the least vertex of that mask after the
    floor.  Edges and triangles are then tried one by one, each with one
    connectivity test.

    `after` is a floor: the candidates start at the first one after it in
    that order, none at or before it being generated.  It is exact for a
    piece of a clique-cutset split.  Let C be the least clique cutset of a
    graph G, K a component of G - C, and g = G[K ∪ C].  Take a clique S of
    g with S != C and (|S|, S) < (|C|, C).  Then S misses a vertex of C.
    If g - S were disconnected, some component of g - S would avoid the
    clique C \\ S; it lies inside K, whose G-neighbours lie in K ∪ C, so S
    would be a clique cutset of G before C.  C is no cutset of g either, as
    g - C = K is connected.  So find_clique_cutset(g, after=C) ==
    find_clique_cutset(g).
    """
    full = g.vertex_mask if within is None else within
    floor = () if after is None else tuple(sorted(after))
    if after is None or len(floor) <= 1:
        connected, cuts = _cut_vertices(g, full)
        if after is None and not connected:
            return CliqueCutset(())
        if floor:
            cuts = cuts >> floor[0] + 1 << floor[0] + 1
        if cuts:
            return CliqueCutset(((cuts & -cuts).bit_length() - 1,))
    for c in _small_cliques(g, full, floor):
        if not is_connected(g, full & ~mask_of(c)):
            return CliqueCutset(c)
    return None


def find_proper_2cutset(g: Graph) -> Optional[Proper2Cutset]:
    """Least non-adjacent pair {a,b} whose removal splits g into component
    groups (x, y) with neither side-plus-{a,b} an (a,b)-path.

    All 2^(#components) groupings are tried; the first admissible one wins.
    """
    for a, b in combinations(range(g.n), 2):
        if g.has_edge(a, b):
            continue
        rest = g.vertex_mask & ~(1 << a | 1 << b)
        comps = components(g, rest)
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

    def validate(self, g: Graph, within: Optional[int] = None) -> bool:
        """Do the parts partition within (every vertex of g when None) and
        make g[within] complete multipartite?"""
        full = g.vertex_mask if within is None else within
        if len(self.parts) < 2 or any(p == 0 for p in self.parts):
            return False
        seen = 0
        for p in self.parts:
            if seen & p:
                return False
            seen |= p
        if seen != full:
            return False
        for p in self.parts:
            for v in bits(p):
                if g.adj[v] & p or (g.adj[v] | p) & full != full:
                    return False
        return True


def recognize_complete_multipartite(g: Graph, within: Optional[int] = None
                                    ) -> Optional[MultipartiteCert]:
    """Certificate iff g[within] (g when within is None) has >= 2 parts:
    each unplaced vertex's non-neighbourhood, itself included, is its part,
    and every member of a part has the same neighbourhood."""
    full = g.vertex_mask if within is None else within
    parts = []
    rest = full
    while rest:
        v = (rest & -rest).bit_length() - 1
        nbrs = g.adj[v] & full
        part = full & ~nbrs
        if any(g.adj[u] & full != nbrs for u in bits(part)):
            return None
        parts.append(part)
        rest &= ~part
    return MultipartiteCert(tuple(parts)) if len(parts) >= 2 else None


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
