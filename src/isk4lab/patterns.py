"""Exact detectors for the induced structures the coloring pipeline dispatches on.

All detectors are exponential-time subset/backtracking searches meant for small
graphs, and all of them return the lexicographically least witness under
ascending vertex order so repeated runs and reports are reproducible.  The
ISK4, prism and wheel searches first run an exact K4-minor test on the whole
graph and return at once when it has none, since each of those structures
has a K4 minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .graphs import (Graph, attachment, bits, chain, components, has_k4_minor,
                     induced_subgraph, is_clique, is_connected, mask_of)


@dataclass(frozen=True)
class PatternWitness:
    """Induced embedding: pattern vertex i sits on host vertex mapping[i]."""

    pattern: Graph
    mapping: tuple[int, ...]

    def vertex_mask(self) -> int:
        return mask_of(self.mapping)

    def validate(self, g: Graph) -> bool:
        m = self.mapping
        if len(set(m)) != len(m) or len(m) != self.pattern.n:
            return False
        return all(
            g.has_edge(m[u], m[v]) == self.pattern.has_edge(u, v)
            for u in range(self.pattern.n)
            for v in range(u + 1, self.pattern.n)
        )


def contains_induced(g: Graph, pattern: Graph) -> Optional[PatternWitness]:
    """Least injective map pattern->g that is an induced embedding, or None."""
    k = pattern.n
    if k > g.n:
        return None
    image = [0] * k

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        # h fits iff the placed vertices it sees are the images of i's
        # earlier pattern neighbours
        need = mask_of(image[j] for j in bits(pattern.adj[i] & ((1 << i) - 1)))
        for h in range(g.n):
            if used >> h & 1:
                continue
            if g.degree(h) < pattern.degree(i):
                continue
            if g.adj[h] & used == need:
                image[i] = h
                if place(i + 1, used | 1 << h):
                    return True
        return False

    if place(0, 0):
        return PatternWitness(pattern, tuple(image))
    return None


# -- ISK4 / prism / wheel: subset searches ---------------------------------
#
# The subset tree (extend by vertices larger than the current max) is walked
# in preorder, which visits vertex sets in lexicographic order of their sorted
# tuples; the first structural hit is therefore the least witness.  K4
# subdivisions and prisms are decided by smoothing: suppressing the degree-2
# vertices must leave the right simple cubic graph.
#
# An induced subdivision of K4, a prism and a wheel each contain a K4 minor,
# so on a graph without one (a series-parallel graph) no subset can succeed.
# The search tests that once, at the root, with the series-parallel
# reduction of graphs.has_k4_minor; the test is exact, so the witness found
# on every other graph is the one the full search finds.


def _smoothing(g: Graph, mask: int, nbranch: int) -> Optional[list[int]]:
    """The degree-3 vertices of g[mask] when g[mask] smooths to a simple cubic
    graph on nbranch vertices, else None.

    g[mask] must be connected with nbranch vertices of degree 3 and the rest
    of degree 2, and suppressing the degree-2 vertices must leave a simple
    graph: no chain closes on its start and no two chains join the same pair.
    """
    branch = []
    for v in bits(mask):
        d = (g.adj[v] & mask).bit_count()
        if d == 3:
            branch.append(v)
        elif d != 2:
            return None
    if len(branch) != nbranch or not is_connected(g, mask):
        return None
    for b in branch:
        far = {chain(g, mask, b, x)[-1] for x in bits(g.adj[b] & mask)}
        if b in far or len(far) != 3:
            return None
    return branch


def is_k4_subdivision(g: Graph, mask: int) -> bool:
    """Does g[mask] smooth to a K4?  K4 is the only simple cubic graph on
    four vertices."""
    return _smoothing(g, mask, 4) is not None


def is_prism(g: Graph, mask: int) -> bool:
    """Does g[mask] induce a (possibly subdivided) prism: two triangles joined
    by three chains, no other edges?  A simple cubic graph on six vertices is
    the prism or K33, and only the prism has triangles; here both triangles
    must be triangles of g, which leaves the three joining chains."""
    branch = _smoothing(g, mask, 6)
    if branch is None:
        return False
    bmask = mask_of(branch)
    for u, v in combinations(branch[1:], 2):
        t1 = 1 << branch[0] | 1 << u | 1 << v
        if is_clique(g, t1) and is_clique(g, bmask & ~t1):
            return True
    return False


def _is_wheel(g: Graph, mask: int) -> bool:
    """Is g[mask] a hole plus a hub with at least three neighbours on it?
    mask has at least five vertices (the search's min_size), so each rim has
    at least four and is a hole iff it smooths with no branch vertex."""
    for h in bits(mask):
        rest = mask & ~(1 << h)
        if (g.adj[h] & rest).bit_count() >= 3 \
                and _smoothing(g, rest, 0) is not None:
            return True
    return False


def _subset_search(g: Graph, min_size: int, check, high_degree_cap: int) -> Optional[int]:
    """Preorder subset DFS; subsets where more than high_degree_cap members
    have induced degree >= 4 are dead (degrees only grow downward).  A
    K4-minor-free g returns None without a search: check must accept only
    sets whose induced subgraph has a K4 minor.

    Induced degrees are kept bit-sliced: for each member u of the subset,
    bits u of d0 and d1 hold its degree while it is below 4, and bit u of
    high is set once it reaches 4.  Adding v counts one more neighbour for
    every member adjacent to v, all at once, and sets v's own entry; each
    level gets its own copies, so leaving v undoes nothing by hand.
    """
    if not has_k4_minor(g):
        return None
    adj = g.adj
    result = None

    def visit(mask: int, d0: int, d1: int, high: int, nxt: int):
        nonlocal result
        # every structure searched for has minimum degree 2, so a subset
        # with a member of degree 0 or 1 is never handed to check
        if mask.bit_count() >= min_size and not mask & ~(d1 | high) \
                and check(g, mask):
            result = mask
            return
        for v in range(nxt, g.n):
            nbrs = adj[v] & mask
            # add one to the 2-bit counters of v's neighbours; carries out
            # of the top bit mark degree 4
            carry = d0 & nbrs
            top = d1 & carry
            d = nbrs.bit_count()
            h = high | top | (d >= 4) << v
            if h.bit_count() > high_degree_cap:
                continue
            visit(mask | 1 << v, d0 ^ nbrs | (d & 1) << v,
                  d1 ^ carry | (d >> 1 & 1) << v, h, v + 1)
            if result is not None:
                return

    visit(0, 0, 0, 0, 0)
    return result


def contains_isk4(g: Graph) -> Optional[int]:
    """Least vertex set whose induced subgraph is a subdivision of K4."""
    return _subset_search(g, 4, is_k4_subdivision, 0)


_FIXED = {
    "K33": Graph.complete_multipartite((3, 3)),
    "K222": Graph.complete_multipartite((2, 2, 2)),
}


def contains_fixed(g: Graph, which: str) -> Optional[PatternWitness]:
    """Detect one of K33, K222, prism (subdivided allowed), wheel."""
    if which in _FIXED:
        return contains_induced(g, _FIXED[which])
    if which == "prism":
        mask = _subset_search(g, 6, is_prism, 0)
    elif which == "wheel":
        # a wheel has at most one vertex (the hub) of induced degree above 3
        mask = _subset_search(g, 5, _is_wheel, 1)
    else:
        raise ValueError(f"unknown pattern {which!r}")
    if mask is None:
        return None
    sub, vmap = induced_subgraph(g, mask)
    return PatternWitness(sub, tuple(vmap))


# -- complete tripartite K_{1,2,n} embeddings ------------------------------


@dataclass(frozen=True)
class K12nEmbedding:
    """Sides {a}, {b_1,b_2}, {c_1..c_n} of an induced complete tripartite
    subgraph; b and c are sorted ascending."""

    a: int
    b: tuple[int, int]
    c: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.c)

    def vertex_mask(self) -> int:
        return 1 << self.a | mask_of(self.b) | mask_of(self.c)

    def validate(self, g: Graph) -> bool:
        vs = (self.a,) + self.b + self.c
        if len(set(vs)) != len(vs) or self.n < 2:
            return False
        part = {self.a: 0, self.b[0]: 1, self.b[1]: 1}
        part.update({v: 2 for v in self.c})
        return all(
            g.has_edge(u, v) == (part[u] != part[v])
            for u, v in combinations(vs, 2)
        )


def _side_grows(g: Graph, a: int, b: tuple[int, int], c_mask: int) -> bool:
    """Can a vertex join the c-side: one off it, complete to {a} and the
    b-side and anticomplete to the c-side?"""
    cand = g.adj[a] & g.adj[b[0]] & g.adj[b[1]] & ~c_mask
    return any(g.adj[v] & c_mask == 0 for v in bits(cand))


def is_maximal_k12n(g: Graph, emb: K12nEmbedding) -> bool:
    """No single vertex extends the embedding to a larger K_{1,2,m}: nothing
    joins the c-side, and for n = 2, where the b-side and the c-side can swap
    roles, nothing joins the b-side either."""
    if _side_grows(g, emb.a, emb.b, mask_of(emb.c)):
        return False
    return emb.n > 2 or not _side_grows(g, emb.a, emb.c, mask_of(emb.b))


def iter_maximal_k12n(g: Graph, n_min: int) -> Iterator[K12nEmbedding]:
    """All maximal embeddings with n >= n_min, lexicographic by (a, b, c)."""
    if n_min < 2:
        raise ValueError("n_min must be at least 2")
    for a in range(g.n):
        nbrs = list(bits(g.adj[a]))
        for b1, b2 in combinations(nbrs, 2):
            if g.has_edge(b1, b2):
                continue
            cset = list(bits(g.adj[a] & g.adj[b1] & g.adj[b2]))
            if len(cset) < n_min:
                continue
            yield from _maximal_csides(g, a, (b1, b2), cset, n_min)


def _maximal_csides(g, a, b, cset, n_min) -> Iterator[K12nEmbedding]:
    # independent sets of g[cset] in preorder (= lex on sorted tuples), kept
    # when the embedding they give is maximal
    def visit(chosen: tuple, chosen_mask: int, rest: list[int]):
        if len(chosen) >= n_min:
            emb = K12nEmbedding(a, b, chosen)
            if is_maximal_k12n(g, emb):
                yield emb
        for i, v in enumerate(rest):
            if g.adj[v] & chosen_mask:
                continue
            yield from visit(chosen + (v,), chosen_mask | 1 << v, rest[i + 1:])

    return visit((), 0, cset)


def find_maximal_k12n(g: Graph, n_min: int) -> Optional[K12nEmbedding]:
    """Least maximal K_{1,2,n} embedding with n >= n_min, or None."""
    return next(iter_maximal_k12n(g, n_min), None)


def off_components(g: Graph, emb: K12nEmbedding) -> list[tuple[int, int]]:
    """The components of g - V(emb) as masks, ordered by least vertex, each
    with its attachment: the mask of emb's vertices it sees."""
    hm = emb.vertex_mask()
    return [(cm, attachment(g, hm, cm)) for cm in components(g, g.vertex_mask & ~hm)]


# -- squares and links -----------------------------------------------------


@dataclass(frozen=True)
class SquareLink:
    """One component hanging off a square: either a single vertex complete to
    the square (center=True) or a path whose first end sees exactly
    {v_1,v_2} and last end exactly {v_3,v_4}, interiors seeing nothing."""

    path: tuple[int, ...]
    center: bool


@dataclass(frozen=True)
class SquareLinkStructure:
    square: tuple[int, int, int, int]
    links: tuple[SquareLink, ...]
    whole: bool

    def validate(self, g: Graph) -> bool:
        v1, v2, v3, v4 = self.square
        smask = mask_of(self.square)
        ring = [(v1, v2), (v2, v3), (v3, v4), (v4, v1)]
        if not all(g.has_edge(u, v) for u, v in ring):
            return False
        if g.has_edge(v1, v3) or g.has_edge(v2, v4):
            return False
        if len(self.links) < 2:
            return False
        comps = components(g, g.vertex_mask & ~smask)
        link_masks = {mask_of(l.path) for l in self.links}
        if not link_masks <= {c for c in comps}:
            return False
        if self.whole and link_masks != set(comps):
            return False
        for l in self.links:
            if _classify_link(g, mask_of(l.path), smask,
                              1 << v1 | 1 << v2, 1 << v3 | 1 << v4) is None:
                return False
        return True


def _classify_link(g: Graph, comp: int, smask: int, e1: int, e2: int) -> Optional[SquareLink]:
    vs = list(bits(comp))
    if len(vs) == 1:
        p = vs[0]
        if g.adj[p] & smask == smask:
            return SquareLink((p,), True)
        return None
    ends = [v for v in vs if (g.adj[v] & comp).bit_count() == 1]
    if len(ends) != 2:
        return None
    p, q = ends
    ap, aq = g.adj[p] & smask, g.adj[q] & smask
    if ap == e1 and aq == e2:
        first = p
    elif ap == e2 and aq == e1:
        first = q
    else:
        return None
    # comp is a path exactly when the walk from one end covers it
    order = [first] + chain(g, comp, first, (g.adj[first] & comp).bit_length() - 1)
    if len(order) != len(vs) or any(g.adj[v] & smask for v in order[1:-1]):
        return None
    return SquareLink(tuple(order), False)


def iter_rich_squares(g: Graph) -> Iterator[SquareLinkStructure]:
    """Every induced square with at least two link components off it, by
    square and then rotation.  whole=True when every component off the
    square is a link; otherwise only containment is certified."""
    for quad in combinations(range(g.n), 4):
        smask = mask_of(quad)
        degs = [(g.adj[v] & smask).bit_count() for v in quad]
        if degs != [2, 2, 2, 2]:
            continue
        v1 = quad[0]
        nb = sorted(bits(g.adj[v1] & smask))
        v2, v4 = nb[0], nb[1]
        v3 = (smask & ~(1 << v1 | 1 << v2 | 1 << v4)).bit_length() - 1
        comps = components(g, g.vertex_mask & ~smask)
        # the two opposite-edge pairings correspond to the two rotations of
        # the square's labeling; a center vertex is a link under either
        for order in ((v1, v2, v3, v4), (v2, v3, v4, v1)):
            e1 = 1 << order[0] | 1 << order[1]
            e2 = 1 << order[2] | 1 << order[3]
            links = []
            for comp in comps:
                l = _classify_link(g, comp, smask, e1, e2)
                if l is not None:
                    links.append(l)
            if len(links) >= 2:
                yield SquareLinkStructure(order, tuple(links),
                                          whole=len(links) == len(comps))


def find_rich_square(g: Graph) -> Optional[SquareLinkStructure]:
    """The first structure of iter_rich_squares, or None."""
    return next(iter_rich_squares(g), None)
