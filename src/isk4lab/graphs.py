"""Immutable simple graphs over dense vertices 0..n-1 with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks (bit v set <=> vertex v in
the set), which keeps every neighbourhood/intersection query a single integer
operation and makes exhaustive small-graph scans cheap.

graph6 I/O is short form only (n <= 62, no header, one graph per line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

GRAPH6_MAX_N = 62


class GraphFormatError(ValueError):
    """Malformed graph6 / edge-list input. Carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True, repr=False)
class Graph:
    """Immutable simple undirected graph.

    adj[v] is the neighbour bitmask of v.  Construction takes any iterable
    of rows, stores it as a tuple and validates symmetry, irreflexivity and
    that no bits beyond n-1 are set.  Equality and hashing go by (n, adj).
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = self.n, tuple(self.adj)
        if n < 0 or len(adj) != n:
            raise ValueError(f"adjacency length {len(adj)} != n={n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbours out of range")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, n: int, adj: Iterable[int]) -> "Graph":
        """Build without __post_init__'s checks, for callers whose adjacency
        is symmetric, loop-free and in range by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(adj))
        return g

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor, not by
        # restoring slots, which would skip the checks
        return Graph, (self.n, self.adj)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u}-{v}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_multipartite(cls, sizes: Iterable[int]) -> "Graph":
        """Parts are consecutive vertex ranges in the given order."""
        sizes = list(sizes)
        n = sum(sizes)
        part = []
        for i, s in enumerate(sizes):
            part.extend([i] * s)
        return cls(n, [mask_of(u for u in range(n) if part[u] != part[v])
                       for v in range(n)])

    @classmethod
    def from_code(cls, n: int, code: int) -> "Graph":
        """Build from the column-major upper-triangle bit code (graph6 bit order):
        column j starts at bit j(j-1)/2 and is the mask of j's neighbours below j."""
        if n < 0 or not 0 <= code < 1 << n * (n - 1) // 2:
            raise ValueError(f"code {code} out of range for n={n}")
        adj = [0] * n
        for j in range(1, n):
            adj[j] = code >> (j * (j - 1) // 2) & ((1 << j) - 1)
            for i in bits(adj[j]):
                adj[i] |= 1 << j
        return cls._trusted(n, adj)

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def code(self) -> int:
        """Column-major upper-triangle bit code; inverse of from_code."""
        c = 0
        for j in range(1, self.n):
            c |= (self.adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
        return c

    def complement(self) -> "Graph":
        full = self.vertex_mask
        return Graph._trusted(self.n, [full ^ self.adj[v] ^ (1 << v)
                                       for v in range(self.n)])

    def relabel(self, perm: list[int]) -> "Graph":
        """perm[v] = new label of old vertex v."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.n - 1}")
        adj = [0] * self.n
        for v in range(self.n):
            adj[perm[v]] = mask_of(perm[u] for u in bits(self.adj[v]))
        return Graph(self.n, adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


# -- subgraphs, components, attachments, chains ----------------------------


def induced_subgraph(g: Graph, vset: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on the vertex mask, plus the order-preserving
    relabelling map: new vertex i corresponds to old vertex vmap[i].  The
    new index of an old vertex is the number of vset's vertices below it."""
    vmap = []
    adj = []
    rest = vset
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        vmap.append(v)
        row = 0
        nb = g.adj[v] & vset
        while nb:
            low = nb & -nb
            nb ^= low
            row |= 1 << (vset & (low - 1)).bit_count()
        adj.append(row)
    return Graph._trusted(len(vmap), adj), vmap


def _reach(adj: tuple[int, ...], within: int, seed: int) -> int:
    """The vertices of within reachable from the seed mask inside within,
    over the adjacency rows adj, by breadth-first layers; stops once the
    whole of within is reached."""
    seen = frontier = seed
    while frontier and seen != within:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def components(g: Graph, within: int | None = None) -> list[int]:
    """Connected components of g[within] as masks, ordered by smallest vertex."""
    if within is None:
        within = g.vertex_mask
    out = []
    rest = within
    while rest:
        out.append(_reach(g.adj, within, rest & -rest))
        rest &= ~out[-1]
    return out


def is_connected(g: Graph, within: int | None = None) -> bool:
    """Is g[within] connected?  True for the empty set."""
    if within is None:
        within = g.vertex_mask
    return not within or _reach(g.adj, within, within & -within) == within


def neighborhood(g: Graph, vset: int) -> int:
    """Union of neighbourhoods, minus vset itself."""
    m = 0
    for v in bits(vset):
        m |= g.adj[v]
    return m & ~vset


def attachment(g: Graph, target: int, source: int) -> int:
    """Vertices of `target` with at least one neighbour in `source`.

    The two sets must be disjoint.
    """
    if target & source:
        raise ValueError("attachment: target and source overlap")
    return neighborhood(g, source) & target


def is_induced_path(g: Graph, vertices: tuple[int, ...] | list[int]) -> bool:
    """Pairwise-distinct vertex sequence, consecutive adjacent, no chords."""
    k = len(vertices)
    if len(set(vertices)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(vertices[i], vertices[j])
            if adjacent != (j == i + 1):
                return False
    return True


def is_induced_cycle(g: Graph, vertices: tuple[int, ...] | list[int]) -> bool:
    """At least 3 distinct vertices in cyclic order, each seeing exactly its
    two cyclic neighbours among them: consecutive adjacent, no chords."""
    k, vs = len(vertices), mask_of(vertices)
    return k >= 3 and vs.bit_count() == k and all(
        g.adj[v] & vs == 1 << vertices[i - 1] | 1 << vertices[(i + 1) % k]
        for i, v in enumerate(vertices))


def is_clique(g: Graph, mask: int) -> bool:
    """Are the vertices of mask pairwise adjacent? True for 0 and 1 vertices."""
    return all((g.adj[v] | 1 << v) & mask == mask for v in bits(mask))


def chain(g: Graph, mask: int, prev: int, cur: int) -> list[int]:
    """Walk g[mask] from prev through its neighbour cur and on through
    vertices of degree 2: cur and every vertex after it, up to and including
    the first one whose degree in g[mask] is not 2, or prev again if the
    chain closes (prev is the only vertex the walk can meet again, since a
    degree-2 vertex on it has both its neighbours on it)."""
    start = prev
    walk = [cur]
    while cur != start and (g.adj[cur] & mask).bit_count() == 2:
        prev, cur = cur, (g.adj[cur] & mask & ~(1 << prev)).bit_length() - 1
        walk.append(cur)
    return walk


def is_hole(g: Graph, mask: int) -> bool:
    """Is g[mask] a chordless cycle on at least four vertices: every vertex
    of degree 2 in g[mask], and connected?  Two disjoint cycles are not one."""
    return mask.bit_count() >= 4 \
        and all((g.adj[v] & mask).bit_count() == 2 for v in bits(mask)) \
        and is_connected(g, mask)


def has_k4_minor(g: Graph) -> bool:
    """Does g have a K4 minor?

    Runs the series-parallel reduction: delete a vertex of degree at most 1,
    or suppress a vertex of degree 2 by joining its two neighbours (a join
    that is already an edge adds nothing), until no vertex qualifies.  Each
    step keeps a K4 minor and keeps its absence, and a simple graph of
    minimum degree 3 has a K4 minor, so g has one iff a vertex is left.
    No step raises a degree, so a vertex queued once stays removable.
    """
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


# -- graph6 ----------------------------------------------------------------


def parse_graph6(line: str) -> Graph:
    """Decode a short-form graph6 string (no header, n <= 62)."""
    s = line.rstrip("\n")
    if not s:
        raise GraphFormatError("empty graph6 line", 0)
    for off, ch in enumerate(s):
        o = ord(ch)
        if o < 63 or o > 126:
            raise GraphFormatError(f"character {ch!r} outside graph6 range", off)
    n = ord(s[0]) - 63
    if n == 63:
        # 0x7e introduces the long form, which short-form parsing rejects
        raise GraphFormatError("long-form graph6 (n > 62) not supported", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 < nbytes:
        raise GraphFormatError(
            f"truncated graph6 body: need {nbytes} bytes, have {len(s) - 1}",
            len(s))
    if len(s) - 1 > nbytes:
        raise GraphFormatError("trailing garbage after graph6 body", 1 + nbytes)
    # the body as one bit string, bit p of the code at index p
    body = "".join(f"{ord(ch) - 63:06b}" for ch in s[1:])
    if "1" in body[nbits:]:
        raise GraphFormatError("nonzero padding bits",
                               1 + body.index("1", nbits) // 6)
    return Graph.from_code(n, int(body[:nbits][::-1] or "0", 2))


def write_graph6(g: Graph) -> str:
    """Encode in canonical short-form graph6 (minimal length, no header)."""
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(f"n={g.n} exceeds graph6 short form limit {GRAPH6_MAX_N}")
    return code_to_graph6(g.n, g.code())


def code_to_graph6(n: int, code: int) -> str:
    """Encode an upper-triangle bit code directly (used by the enumerator)."""
    nbits = n * (n - 1) // 2
    # bit p of the code at index p, then zero padding to whole 6-bit groups
    body = f"{code:0{nbits}b}"[::-1][:nbits] + "0" * (-nbits % 6)
    return chr(n + 63) + "".join(chr(int(body[i:i + 6], 2) + 63)
                                 for i in range(0, len(body), 6))


# -- edge-list text --------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m lines "u v" (0-based, whitespace-tolerant)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as e:
        raise GraphFormatError(f"bad edge list header: {e}") from None
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"n={n} exceeds the limit {GRAPH6_MAX_N}")
    if len(tokens) != 2 + 2 * m:
        raise GraphFormatError(
            f"edge list declares {m} edges but has {(len(tokens) - 2) // 2}")
    try:
        pairs = [(int(tokens[2 + 2 * i]), int(tokens[3 + 2 * i])) for i in range(m)]
    except ValueError as e:
        raise GraphFormatError(f"bad edge entry: {e}") from None
    try:
        return Graph.from_edges(n, pairs)
    except ValueError as e:
        raise GraphFormatError(str(e)) from None


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
