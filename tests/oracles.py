"""Independent brute-force reference implementations used only by tests.

Deliberately written against plain edge sets / networkx instead of the
package's bitmask machinery, so that agreement between the two code paths
actually means something.
"""

from functools import cache
from itertools import combinations, dropwhile

import networkx as nx

from isk4lab.decompose import MultipartiteCert
from isk4lab.graphs import (Graph, bits, components, is_clique, is_connected,
                            is_induced_path, mask_of)
from isk4lab.lemmas import GraphFacts, is_linked
from isk4lab.patterns import SquareLinkStructure, _classify_link


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- ISK4 and prisms by literal smoothing ---------------------------------


def _smooth(vertices, edges):
    """Suppress degree-2 vertices with nonadjacent neighbours until stuck;
    return the vertex and edge sets left."""
    vs = set(vertices)
    es = {frozenset(e) for e in edges}
    changed = True
    while changed:
        changed = False
        for v in sorted(vs):
            nbrs = sorted(u for u in vs if frozenset((u, v)) in es)
            if len(nbrs) == 2 and frozenset(nbrs) not in es:
                vs.remove(v)
                es.discard(frozenset((nbrs[0], v)))
                es.discard(frozenset((nbrs[1], v)))
                es.add(frozenset(nbrs))
                changed = True
                break
    return vs, es


def _smooth_to_k4(vertices, edges):
    """Does smoothing leave exactly a K4?"""
    vs, es = _smooth(vertices, edges)
    return len(vs) == 4 and len(es) == 6


def smooths_to_prism(vertices, edges):
    """Does smoothing leave a cubic graph on 6 vertices and 9 edges that
    splits into two disjoint triangles made of original edges?"""
    original = {frozenset(e) for e in edges}
    vs, es = _smooth(vertices, edges)
    if len(vs) != 6 or len(es) != 9 or any(sum(v in e for e in es) != 3 for v in vs):
        return False
    for tri in combinations(sorted(vs), 3):
        halves = (tri, vs - set(tri))
        if all(frozenset(p) in original for h in halves for p in combinations(h, 2)):
            return True
    return False


def isk4_subsets(g):
    """All vertex subsets (as sorted tuples) inducing a subdivision of K4."""
    out = []
    all_edges = g.edges()
    for r in range(4, g.n + 1):
        for sub in combinations(range(g.n), r):
            ss = set(sub)
            edges = [e for e in all_edges if e[0] in ss and e[1] in ss]
            if _smooth_to_k4(sub, edges):
                out.append(sub)
    return out


def has_isk4(g):
    return bool(isk4_subsets(g))


def has_k4_minor(g):
    """Does some edge subset of g smooth to K4?  K4 is cubic, so a K4 minor
    is a topological one: a subgraph that subdivides K4.  Such a subgraph on
    s vertices has s + 2 edges, so subsets of 6..n+2 edges are enough."""
    edges = g.edges()
    for r in range(6, min(len(edges), g.n + 2) + 1):
        for sub in combinations(edges, r):
            vs = {v for e in sub for v in e}
            if len(vs) + 2 == r and _smooth_to_k4(vs, sub):
                return True
    return False


def k4_minor_by_queue(g):
    """graphs.has_k4_minor's reduction with a list as its work queue and
    each removed vertex's neighbours as a list: pop a vertex, skip it if
    gone, else delete it, join its two neighbours if it had two, and queue
    the neighbours left with degree <= 2."""
    mask = g.vertex_mask
    adj = list(g.adj)
    todo = [v for v in range(g.n) if adj[v].bit_count() <= 2]
    while todo:
        v = todo.pop()
        if not mask >> v & 1:
            continue
        mask ^= 1 << v
        ends = list(bits(adj[v]))
        for u in ends:
            adj[u] ^= 1 << v
        if len(ends) == 2:
            a, b = ends
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        todo.extend(u for u in ends if adj[u].bit_count() <= 2)
    return mask != 0


def induced_cycles_by_list(g):
    """lemmas.iter_induced_cycles with the path as a list: each neighbour
    of the last vertex above the anchor and off the path extends the path
    when it sees no other path vertex, and closes the cycle when it sees
    the anchor too and lies above the second vertex."""

    def extend(path, pmask):
        s, last = path[0], path[-1]
        for w in bits(g.adj[last]):
            if w <= s or pmask >> w & 1:
                continue
            inter = g.adj[w] & pmask
            if inter == 1 << last:
                yield from extend(path + [w], pmask | 1 << w)
            elif inter == (1 << last | 1 << s) and path[1] < w:
                yield tuple(path) + (w,)

    for s in range(g.n):
        yield from extend([s], 1 << s)


class UncutFacts(GraphFacts):
    """lemmas.GraphFacts with every graph taken to have a K4 minor: the ISK4
    search runs on every graph, every hypothesis search runs whenever the
    hypotheses before it hold, and L-LINK asks is_linked of every pair its
    degree and attachment cuts pass."""

    k4_minor = True


def brute_linked(g, cycle, v):
    """Is v linked to the induced cycle?  Exactly when some set S of vertices
    off the cycle, v among them, makes g[cycle + S] smooth to K4 with v of
    degree 3: the cycle is then the subdivided triangle opposite v, and S
    holds the three paths from v to it."""
    cset = set(cycle)
    rest = [u for u in range(g.n) if u != v and u not in cset]
    all_edges = g.edges()
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            vs = cset | {v, *extra}
            edges = [e for e in all_edges if e[0] in vs and e[1] in vs]
            if sum(v in e for e in edges) == 3 and _smooth_to_k4(vs, edges):
                return True
    return False


def link_unpruned(f):
    """lemmas' L-LINK entry before its pruning: is_linked on every (induced
    cycle, off-cycle vertex) pair, in the same order and with the same
    items."""
    if f.isk4 is not None:
        return None
    g = f.g

    def instances():
        for cycle in induced_cycles_by_list(g):
            yield None
            for v in bits(g.vertex_mask & ~mask_of(cycle)):
                w = is_linked(g, cycle, v)
                yield None if w is None else \
                    {"cycle": cycle, "vertex": v, "paths": w.paths}

    return instances()


# -- complete multipartite / K_{1,2,n} ------------------------------------


def multipartite_part_sizes(h):
    """Sorted part sizes if the networkx graph is complete multipartite with
    every pair of distinct parts fully joined, else None."""
    comp = nx.complement(h)
    parts = [set(c) for c in nx.connected_components(comp)]
    for p in parts:
        for u, v in combinations(sorted(p), 2):
            if h.has_edge(u, v):
                return None
    for p, q in combinations(parts, 2):
        for u in p:
            for v in q:
                if not h.has_edge(u, v):
                    return None
    return sorted(len(p) for p in parts)


def multipartite_by_complement(g):
    """The reference for recognize_complete_multipartite: the parts are the
    components of the complement, each must be independent in g, and there
    must be at least two."""
    co = g.complement()
    parts = components(co, co.vertex_mask)
    if len(parts) < 2:
        return None
    for p in parts:
        for v in bits(p):
            if g.adj[v] & p:
                return None
    return MultipartiteCert(tuple(parts))


def brute_is_maximal_k12n(g, emb):
    """No single outside vertex turns the embedding's vertex set into an
    induced K_{1,2,n+1}."""
    h = to_nx(g)
    vs = {emb.a, *emb.b, *emb.c}
    target = sorted([1, 2, emb.n + 1])
    for v in range(g.n):
        if v in vs:
            continue
        if multipartite_part_sizes(h.subgraph(vs | {v})) == target:
            return False
    return True


def all_k12n_embeddings(g, n_min):
    """Every (a, (b1,b2), c) satisfying the literal side conditions."""
    out = []
    for a in range(g.n):
        for b1, b2 in combinations(range(g.n), 2):
            if a in (b1, b2) or not (g.has_edge(a, b1) and g.has_edge(a, b2)):
                continue
            if g.has_edge(b1, b2):
                continue
            rest = [v for v in range(g.n) if v not in (a, b1, b2)]
            for r in range(n_min, len(rest) + 1):
                for c in combinations(rest, r):
                    if all(g.has_edge(a, x) and g.has_edge(b1, x) and g.has_edge(b2, x)
                           for x in c) and \
                            not any(g.has_edge(x, y) for x, y in combinations(c, 2)):
                        out.append((a, (b1, b2), c))
    return out


# -- cutsets ---------------------------------------------------------------


def _nx_disconnects(h, cut):
    rest = [v for v in h.nodes if v not in cut]
    if len(rest) < 2:
        return False
    sub = h.subgraph(rest)
    return not nx.is_connected(sub)


def least_clique_cutset(g, kmax=3):
    """The first clique of at most kmax vertices, by (size, sorted tuple),
    whose removal networkx finds disconnects g; None if there is none."""
    h = to_nx(g)
    for r in range(0, kmax + 1):
        for cut in combinations(range(g.n), r):
            if all(h.has_edge(u, v) for u, v in combinations(cut, 2)) and \
                    _nx_disconnects(h, cut):
                return cut
    return None


def clique_cutset_after(g, after):
    """find_clique_cutset(g, after) as it was searched before candidates
    started at the floor: every clique of at most three vertices by (size,
    sorted tuple), those at or before the sorted floor dropped one by one,
    then the first whose removal disconnects g.  Chordless cycles are
    searched too: none of their candidates disconnects them."""
    floor = tuple(sorted(after))
    cands = (c for r in range(4) for c in combinations(range(g.n), r)
             if is_clique(g, mask_of(c)))
    for c in dropwhile(lambda c: (len(c), c) <= (len(floor), floor), cands):
        if not is_connected(g, g.vertex_mask & ~mask_of(c)):
            return c
    return None


def _is_ab_path(h, side, a, b):
    sub = h.subgraph(list(side) + [a, b])
    if sub.number_of_edges() != sub.number_of_nodes() - 1:
        return False
    if not nx.is_connected(sub):
        return False
    degs = dict(sub.degree())
    return degs[a] == 1 and degs[b] == 1 and \
        all(d == 2 for v, d in degs.items() if v not in (a, b))


def brute_has_proper_2cutset(g):
    h = to_nx(g)
    for a, b in combinations(range(g.n), 2):
        if h.has_edge(a, b):
            continue
        rest = [v for v in range(g.n) if v not in (a, b)]
        for r in range(1, len(rest)):
            for xs in combinations(rest, r):
                x = set(xs)
                y = set(rest) - x
                if any(h.has_edge(u, v) for u in x for v in y):
                    continue
                if not _is_ab_path(h, x, a, b) and not _is_ab_path(h, y, a, b):
                    return True
    return False


# -- line graphs of subcubic roots ----------------------------------------


@cache
def subcubic_roots(m, dedupe=True):
    """Connected graphs with exactly m edges and max degree <= 3, one per
    isomorphism class (over all feasible vertex counts)."""
    found = []
    for k in range(2, m + 2):
        slots = list(combinations(range(k), 2))
        if len(slots) < m:
            continue
        for es in combinations(slots, m):
            deg = [0] * k
            for u, v in es:
                deg[u] += 1
                deg[v] += 1
            if any(d > 3 or d == 0 for d in deg):
                continue
            h = nx.Graph(list(es))
            if h.number_of_nodes() != k or not nx.is_connected(h):
                continue
            if dedupe and any(nx.is_isomorphic(h, r) for r in found
                              if r.number_of_nodes() == k):
                continue
            found.append(h)
    return found


def brute_is_subcubic_line_graph(g, roots=None):
    """Is g isomorphic to the line graph of some subcubic connected root?"""
    if g.n == 0:
        return True
    h = to_nx(g)
    if roots is None:
        roots = subcubic_roots(g.n)
    return any(nx.is_isomorphic(h, nx.line_graph(r)) for r in roots)


# -- coloring --------------------------------------------------------------


def brute_chromatic_number(g):
    """Smallest k admitting a proper coloring, by trying all assignments."""
    if g.n == 0:
        return 0
    edges = g.edges()
    for k in range(1, g.n + 1):
        for assign in _assignments(g.n, k):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def _assignments(n, k):
    if n == 0:
        yield ()
        return
    for rest in _assignments(n - 1, k):
        for c in range(k):
            yield rest + (c,)


def coloring_valid_two_pass(col, g):
    """Coloring.validate as a palette test, then a propriety test: the
    tuple has length n, its colours are exactly 0..k-1, and no vertex sees
    its own colour class."""
    if len(col.color) != g.n:
        return False
    if sorted(set(col.color)) != list(range(col.k)):
        return False
    cls = [0] * col.k
    for v, c in enumerate(col.color):
        cls[c] |= 1 << v
    return all(not g.adj[v] & cls[c] for v, c in enumerate(col.color))


def dsatur_reference(g, k):
    """First k-colouring in DSATUR order, or None: the uncoloured vertex of
    largest (saturation, degree, -v) next, its colours ascending up to one
    above the count used.  Saturation is recomputed as a set of neighbour
    colours at every step."""
    n = g.n
    nbrs = [[u for u in range(n) if g.has_edge(v, u)] for v in range(n)]
    col = [-1] * n

    def pick():
        best, bkey = -1, None
        for v in range(n):
            if col[v] >= 0:
                continue
            sat = len({col[u] for u in nbrs[v] if col[u] >= 0})
            key = (sat, len(nbrs[v]), -v)
            if bkey is None or key > bkey:
                best, bkey = v, key
        return best

    def go(done, used):
        if done == n:
            return True
        v = pick()
        banned = {col[u] for u in nbrs[v] if col[u] >= 0}
        for c in range(min(k, used + 1)):
            if c in banned:
                continue
            col[v] = c
            if go(done + 1, used + (c == used)):
                return True
            col[v] = -1
        return False

    return col if go(0, 0) else None


# -- the pairwise forms of rewritten kernels -------------------------------


def is_induced_cycle_two_paths(g, vertices):
    """At least three vertices, first and last adjacent, and both the
    sequence without its last vertex and without its first induced paths
    (graphs.is_induced_path compares the pairs one at a time): every pair
    but (first, last) lies on one of the two."""
    return len(vertices) >= 3 and g.has_edge(vertices[0], vertices[-1]) \
        and is_induced_path(g, vertices[:-1]) and is_induced_path(g, vertices[1:])


def contains_induced_pairwise(g, pattern):
    """contains_induced's search comparing vertex pairs one at a time: the
    least injective induced map pattern -> g, as a tuple, or None."""
    k = pattern.n
    image = [0] * k

    def place(i, used):
        if i == k:
            return True
        for h in range(g.n):
            if h in used or g.degree(h) < pattern.degree(i):
                continue
            if all(g.has_edge(image[j], h) == pattern.has_edge(j, i)
                   for j in range(i)):
                image[i] = h
                if place(i + 1, used | {h}):
                    return True
        return False

    return tuple(image) if k <= g.n and place(0, set()) else None


# -- rule 6's search before it became one generator and an edge map -------


def rich_square_whole_only(g, whole_only):
    """find_rich_square with its former mode flag: the least induced square
    with at least two links, or with whole_only the least one whose links
    are every component off it (later squares and rotations still tried)."""
    for quad in combinations(range(g.n), 4):
        smask = mask_of(quad)
        if [(g.adj[v] & smask).bit_count() for v in quad] != [2, 2, 2, 2]:
            continue
        v1 = quad[0]
        v2, v4 = sorted(bits(g.adj[v1] & smask))
        v3 = (smask & ~(1 << v1 | 1 << v2 | 1 << v4)).bit_length() - 1
        comps = components(g, g.vertex_mask & ~smask)
        for order in ((v1, v2, v3, v4), (v2, v3, v4, v1)):
            e1 = 1 << order[0] | 1 << order[1]
            e2 = 1 << order[2] | 1 << order[3]
            links = [l for l in (_classify_link(g, c, smask, e1, e2)
                                 for c in comps) if l is not None]
            if len(links) >= 2:
                out = SquareLinkStructure(order, tuple(links),
                                          whole=len(links) == len(comps))
                if out.whole or not whole_only:
                    return out
    return None


def line_graph_commit_undo(g):
    """recognize_line_graph_subcubic's search with an owner dict and
    commit/undo helpers: (root, edge_of) or None."""
    edges = g.edges()
    owner = {}
    cliques = []
    load = [0] * g.n

    def commit(c):
        idx = len(cliques)
        cliques.append(c)
        for u, v in combinations(c, 2):
            owner[(u, v)] = idx
        for v in c:
            load[v] += 1

    def undo(c):
        cliques.pop()
        for u, v in combinations(c, 2):
            del owner[(u, v)]
        for v in c:
            load[v] -= 1

    def place(i):
        while i < len(edges) and edges[i] in owner:
            i += 1
        if i == len(edges):
            return True
        u, v = edges[i]
        if load[u] == 2 or load[v] == 2:
            return False
        for w in bits(g.adj[u] & g.adj[v]):
            if load[w] == 2:
                continue
            tri = tuple(sorted((u, v, w)))
            if any(e in owner for e in combinations(tri, 2) if e != (u, v)):
                continue
            commit(tri)
            if place(i + 1):
                return True
            undo(tri)
        commit((u, v))
        if place(i + 1):
            return True
        undo((u, v))
        return False

    if not place(0):
        return None
    in_cliques = [[] for _ in range(g.n)]
    for idx, c in enumerate(cliques):
        for v in c:
            in_cliques[v].append(idx)
    nroot = len(cliques)
    edge_of = []
    for v in range(g.n):
        ends = in_cliques[v]
        while len(ends) < 2:
            ends = ends + [nroot]
            nroot += 1
        edge_of.append((min(ends), max(ends)))
    return Graph.from_edges(nroot, edge_of), tuple(edge_of)
