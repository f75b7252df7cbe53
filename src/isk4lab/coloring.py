"""Exact chromatic search, leaf-class colourers, and the structural
4-colouring recursion.

`structural_four_coloring` applies the first matching rule at each level:
trivial size, clique cutset (the empty one on a disconnected graph), a peel
of the vertices of degree at most three, coloured last, then on what is
left, a 4-core, complete multipartite and subcubic line graph.  It returns
the colouring together with a replayable trace of the applied rules, or a
structured failure naming the expectation that broke.

Each trace rule is one entry of the rule table `_TABLE`.  Search and
`replay_trace` run the same recursion over it and differ only in where a
level's certificate comes from, so the two cannot drift apart, and replay
never searches.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

from .decompose import (
    CliqueCutset,
    MultipartiteCert,
    SubcubicRootCert,
    find_clique_cutset,
    find_proper_2cutset,  # noqa: F401  bench/trace.py rebinds it here
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from .graphs import Graph, bits, components, induced_subgraph, mask_of
from .patterns import (
    SquareLinkStructure,
    contains_fixed,
    contains_isk4,
    find_maximal_k12n,  # noqa: F401  bench/trace.py rebinds it here
    find_rich_square,
)


@dataclass(frozen=True)
class Coloring:
    """Total colour map as a tuple indexed by vertex, palette 0..k-1."""

    color: tuple[int, ...]
    k: int

    def validate(self, g: Graph) -> bool:
        """Propriety straight off the adjacency, independent of the producer."""
        if len(self.color) != g.n:
            return False
        if sorted(set(self.color)) != list(range(self.k)):
            return False
        cls = [0] * self.k
        for v, c in enumerate(self.color):
            cls[c] |= 1 << v
        return all(not g.adj[v] & cls[c] for v, c in enumerate(self.color))


@dataclass(frozen=True)
class TraceStep:
    rule: str
    scope: int  # vertex mask the rule applied to, in original ids
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ColoringTrace:
    """Pre-order record of the rules applied by structural_four_coloring."""

    steps: tuple[TraceStep, ...]

    def rules(self) -> list[str]:
        return [s.rule for s in self.steps]


@dataclass(frozen=True)
class ColoringFailure:
    """Structured refusal: which expectation broke, where, and the witnesses."""

    kind: str  # "hypothesis_violation" or "chromatic_bound_exceeded"
    rule: int
    scope: int
    evidence: dict
    conjecture_counterexample: bool = False


class _Fail(Exception):
    def __init__(self, kind: str, rule: int, scope: int, evidence: dict):
        super().__init__(kind)
        self.failure = ColoringFailure(kind, rule, scope, evidence)


# -- exact search ----------------------------------------------------------


def _backtrack(h: Graph, k: int) -> Optional[list[int]]:
    """First k-colouring under saturation-degree ordering, or None.

    The next vertex is the uncoloured one with the largest key (saturation,
    degree, -v).  Colours are tried ascending and capped at one above the
    count already used, which is sound: any colouring can be renamed into
    that form.

    sees[c] is the mask of vertices with a neighbour coloured c: a vertex
    taking colour c adds its neighbourhood, and backtracking restores the
    mask.  An uncoloured vertex's saturation is the number of colours c <
    used whose mask holds it, and those colours are the ones it may not take.
    The key is packed into one int, sat * n^2 + degree * n + (n - 1 - v).
    """
    n = h.n
    col = [-1] * n
    adj = h.adj
    sees = [0] * k
    step = n * n
    base = [adj[v].bit_count() * n + n - 1 - v for v in range(n)]

    def go(free: int, used: int) -> bool:
        if not free:
            return True
        bkey = -1
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            key = base[v]
            for c in range(used):
                if sees[c] & low:
                    key += step
            if key > bkey:
                best, bkey = v, key
        v, low = best, 1 << best
        for c in range(min(k, used + 1)):
            if sees[c] & low:
                continue
            col[v] = c
            kept = sees[c]
            sees[c] = kept | adj[v]
            if go(free ^ low, used + (c == used)):
                return True
            sees[c] = kept
        col[v] = -1
        return False

    return col if go(h.vertex_mask, 0) else None


def _canon_list(colors: Iterable[int]) -> list[int]:
    """Renumber colours by first occurrence."""
    ren: dict[int, int] = {}
    return [ren.setdefault(c, len(ren)) for c in colors]


def _coloring(colors: Iterable[int]) -> Coloring:
    """The colouring renumbered by first occurrence; k is the count used."""
    col = _canon_list(colors)
    return Coloring(tuple(col), max(col, default=-1) + 1)


def _first_level(g: Graph) -> int:
    """A lower bound on the chromatic number: 0 with no vertex, 1 with no
    edge, 2 for a bipartite graph, else 3.  Breadth-first layers from the
    least vertex of each component decide bipartiteness: g is bipartite iff
    no edge joins two vertices of one layer."""
    if not any(g.adj):
        return min(g.n, 1)
    rest = g.vertex_mask
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in bits(frontier):
                if g.adj[v] & frontier:
                    return 3
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        rest &= ~seen
    return 2


def chromatic_number_exact(g: Graph, upper_bound: Optional[int] = None
                           ) -> Optional[Coloring]:
    """A colouring with the fewest colours (its k is the chromatic number),
    or None when upper_bound is set and every colouring needs more.
    Iterative deepening from _first_level(g): the levels it skips have no
    colouring, so the first colouring found is the same."""
    hi = g.n if upper_bound is None else min(upper_bound, g.n)
    for k in range(_first_level(g), hi + 1):
        raw = _backtrack(g, k)
        if raw is not None:
            out = _coloring(raw)
            assert out.validate(g)
            return out
    return None


# -- leaf colourers --------------------------------------------------------


def color_complete_multipartite(cert: MultipartiteCert) -> Coloring:
    """Parts become colour classes; k is the number of parts."""
    union = 0
    col: dict[int, int] = {}
    for i, part in enumerate(cert.parts):
        union |= part
        for v in bits(part):
            col[v] = i
    n = union.bit_count()
    assert union == (1 << n) - 1, "certificate must cover the vertex range"
    return Coloring(tuple(col[v] for v in range(n)), len(cert.parts))


def color_subcubic_line_graph(g: Graph, cert: SubcubicRootCert) -> Coloring:
    """4-edge-colour the subcubic root, searching on g itself: two root
    edges meet iff their g-vertices are adjacent.  The vertices go in the
    order of their root edges, each taking the least colour below
    min(4, used + 1) that no coloured neighbour has."""
    order = sorted(range(g.n), key=cert.edge_of.__getitem__)
    col = [-1] * g.n

    def go(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        banned = {col[u] for u in bits(g.adj[v])}
        for c in range(min(4, used + 1)):
            if c in banned:
                continue
            col[v] = c
            if go(i + 1, used + (c == used)):
                return True
            col[v] = -1
        return False

    # max degree 3 guarantees a 4-edge-colouring exists
    assert go(0, 0), "subcubic root failed to 4-edge-colour"
    out = _coloring(col)
    assert out.validate(g)
    return out


def color_rich_square(g: Graph, s: SquareLinkStructure) -> Coloring:
    """Fixed palette for a whole-graph square-and-links structure: square
    corners 0/1 by opposite pairs, link paths alternate 2/3, centres take 2."""
    if not s.whole:
        raise ValueError("only whole-graph structures can be coloured directly")
    v1, v2, v3, v4 = s.square
    col = {v1: 0, v3: 0, v2: 1, v4: 1}
    for link in s.links:
        if link.center:
            col[link.path[0]] = 2
        else:
            for i, p in enumerate(link.path):
                col[p] = 2 + i % 2
    assert len(col) == g.n, "whole mode must cover every vertex"
    out = Coloring(tuple(col[v] for v in range(g.n)), len(set(col.values())))
    assert out.validate(g)
    return out


# -- structural recursion --------------------------------------------------


class _Ids:
    """A scope's vertices: vertex i is g's vertex back[i]; mask in g's ids."""

    def __init__(self, back: list[int]):
        self.mask = mask_of(back)
        self.back = back

    def orig(self, vs: Iterable[int]) -> list[int]:
        return [self.back[v] for v in vs]


class _Scope(_Ids):
    """One instance of the recursion, the graph h; rules work in h's ids.
    A piece of a clique-cutset split keeps its parent's cutset (in its own
    ids) as `after`, the floor of its own clique-cutset search."""

    def __init__(self, h: Graph, back: list[int],
                 after: Optional[list[int]] = None):
        super().__init__(back)
        self.h = h
        self.after = after

    def local(self, vs: Iterable[int]) -> list[int]:
        return [self.index[v] for v in vs]

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.back)}


def _merge(base: dict[int, int], other: dict[int, int],
           shared: Iterable[int]) -> dict[int, int]:
    """Overlay `other` onto `base` after permuting its colours so the shared
    vertices agree; leftover colours go to the lowest free ids."""
    pi: dict[int, int] = {}
    targets: set[int] = set()
    for v in shared:
        src, dst = other[v], base[v]
        if src in pi:
            assert pi[src] == dst
            continue
        assert dst not in targets
        pi[src] = dst
        targets.add(dst)
    nxt = 0
    for c in sorted(set(other.values())):
        if c in pi:
            continue
        while nxt in targets:
            nxt += 1
        pi[c] = nxt
        targets.add(nxt)
    out = dict(base)
    for v, c in other.items():
        out[v] = pi[c]
    return out


def _leaf(colour: Callable) -> Callable:
    """apply for a rule whose colour(s, cert) colours h outright."""
    return lambda s, cert, sub: colour(s, cert).color


def _trivial(s: _Scope) -> Optional[int]:
    # small instances take distinct colours; the certificate is the size
    return s.h.n if s.h.n <= 4 else None


def _split_clique(s: _Scope, cc: CliqueCutset, sub) -> dict[int, int]:
    smask = mask_of(cc.vertices)
    merged: Optional[dict[int, int]] = None
    for cm in components(s.h, s.h.vertex_mask & ~smask):
        part = sub(cm | smask, after=cc.vertices)
        merged = part if merged is None else _merge(merged, part, cc.vertices)
    return merged


def _multipartite(s: _Scope) -> Optional[MultipartiteCert]:
    # a K_{3,3} forces complete multipartite here, but recognition is
    # attempted unconditionally so plain multipartite graphs are also
    # coloured by their parts
    mp = recognize_complete_multipartite(s.h)
    if mp is not None and len(mp.parts) <= 4:
        return mp
    k33 = contains_fixed(s.h, "K33")
    if k33 is not None:
        raise _Fail("hypothesis_violation", 5, s.mask, {
            "expectation": "with K_{3,3} present and no clique cutset the "
                           "graph must be complete multipartite on at most "
                           "four parts",
            "k33_vertices": sorted(s.orig(k33.mapping)),
            "parts": None if mp is None else len(mp.parts),
        })
    return None


def _line_graph(s: _Scope) -> Optional[SubcubicRootCert]:
    # a whole rich square on a 4-core has only centre links, so it is a
    # K_{2,2,m}, which rule 5 has taken
    prism, rich = contains_fixed(s.h, "prism"), find_rich_square(s.h)
    if prism is None and rich is None:
        return None
    lg = recognize_line_graph_subcubic(s.h)
    if lg is not None:
        return lg
    raise _Fail("hypothesis_violation", 6, s.mask, {
        "expectation": "with a prism or rich square present and no "
                       "clique cutset the graph must be the line graph of "
                       "a max-degree-3 graph",
        "prism_vertices": None if prism is None else sorted(s.orig(prism.mapping)),
        "square": None if rich is None else s.orig(rich.square),
    })


def _smallest_last(s: _Scope) -> Optional[list[int]]:
    """The smallest-last order: each time the least vertex with at most
    three neighbours left.  None when every vertex has four or more."""
    adj, left, order = s.h.adj, s.h.vertex_mask, []
    while True:
        v = next((v for v in bits(left) if (adj[v] & left).bit_count() <= 3),
                 None)
        if v is None:
            return order or None
        order.append(v)
        left &= ~(1 << v)


def _peels(h: Graph, order: list[int]) -> bool:
    """Is order a non-empty sequence of distinct vertices of h, each with at
    most three neighbours left when it is removed?"""
    left = h.vertex_mask
    for v in order:
        if not left >> v & 1 or (h.adj[v] & left).bit_count() > 3:
            return False
        left &= ~(1 << v)
    return bool(order)


def _peel(s: _Scope, order: list[int], sub) -> dict[int, int]:
    # each peeled vertex sees at most three vertices coloured before it:
    # the rest and the vertices peeled after it
    rest = s.h.vertex_mask & ~mask_of(order)
    out = sub(rest) if rest else {}
    for v in reversed(order):
        out[v] = min(set(range(4)) - {out.get(u) for u in bits(s.h.adj[v])})
    return out


# One entry per trace rule, in proof order.  find(s) gives a certificate in
# h's ids, None when the rule does not apply, or raises _Fail; encode(s, cert)
# and decode(s, detail) map it to and from the trace detail (original ids);
# check(s, cert) re-validates a decoded one, by default with its validate;
# apply(s, cert, sub) colours h, sub(m) giving h[m]'s colouring keyed by h's
# ids, and returns h's colouring, indexed by h's ids.  Detectors are looked
# up by module-global name at call time, so rebinding them on this module
# reaches every call.
_Rule = namedtuple("_Rule", "name find encode decode apply check",
                   defaults=(lambda s, cert: cert.validate(s.h),))
_TABLE = (
    _Rule("Trivial", find=_trivial,
          encode=lambda s, n: {},
          decode=lambda s, d: _trivial(s),
          check=lambda s, n: n is not None,
          apply=lambda s, n, sub: range(n)),
    _Rule("CliqueCutsetSplit",
          find=lambda s: find_clique_cutset(s.h, after=s.after),
          encode=lambda s, cc: {"cutset": s.orig(cc.vertices)},
          decode=lambda s, d: CliqueCutset(tuple(sorted(s.local(d["cutset"])))),
          apply=_split_clique),
    _Rule("LowDegreePeel", find=_smallest_last,
          encode=lambda s, order: {"order": s.orig(order)},
          decode=lambda s, d: s.local(d["order"]),
          check=lambda s, order: _peels(s.h, order),
          apply=_peel),
    _Rule("Multipartite", find=_multipartite,
          encode=lambda s, mp: {"parts": [s.orig(bits(p)) for p in mp.parts]},
          decode=lambda s, d: MultipartiteCert(
              tuple(mask_of(s.local(part)) for part in d["parts"])),
          check=lambda s, mp: len(mp.parts) <= 4 and mp.validate(s.h),
          apply=_leaf(lambda s, mp: color_complete_multipartite(mp))),
    _Rule("SubcubicLineGraph", find=_line_graph,
          encode=lambda s, lg: {"edge_of": [list(e) for e in lg.edge_of]},
          decode=lambda s, d: SubcubicRootCert(
              tuple(tuple(e) for e in d["edge_of"])),
          apply=_leaf(lambda s, lg: color_subcubic_line_graph(s.h, lg))),
)
RULES = tuple(rule.name for rule in _TABLE)


def _first_rule(s: _Scope) -> tuple[_Rule, object]:
    """Search: the first rule whose find succeeds, with its certificate.
    With none, the scope is refused at rule 8, as needing five colours when
    the exact search finds no 4-colouring."""
    for rule in _TABLE:
        cert = rule.find(s)
        if cert is not None:
            return rule, cert
    if chromatic_number_exact(s.h, 4) is None:
        raise _Fail("chromatic_bound_exceeded", 8, s.mask,
                    {"bound": 4, "vertices": list(bits(s.mask))})
    raise _Fail("hypothesis_violation", 8, s.mask, {
        "expectation": "a graph with no clique cutset that is in no base "
                       "class must have a vertex of degree at most 3",
        "vertices": list(bits(s.mask)),
    })


def _recorded(steps) -> Callable:
    """Replay: each call takes the next recorded step, decodes its witness
    and re-validates it against the scope."""
    feed = iter(steps)

    def pick(s: _Scope) -> tuple[_Rule, object]:
        st = next(feed, None)
        if st is None:
            raise ValueError("trace ended before the recursion did")
        if st.scope != s.mask:
            raise ValueError("trace scope does not match the recursion")
        rule = next((r for r in _TABLE if r.name == st.rule), None)
        if rule is None:
            raise ValueError(f"unknown trace rule {st.rule!r}")
        # Trivial pre-empts every other rule, as it does in search
        if rule.name != "Trivial" and _trivial(s) is not None:
            raise ValueError("trace step does not match the recursion")
        try:
            cert = rule.decode(s, st.detail)
            ok = rule.check(s, cert)
        except (LookupError, TypeError) as exc:
            raise ValueError(f"malformed {st.rule} witness: {exc!r}") from exc
        if not ok:
            raise ValueError(f"recorded {st.rule} witness no longer applies")
        return rule, cert

    return pick


# A shared piece memo is emptied when it holds this many entries.
PIECES_BOUND = 4096


def _solve(h: Graph, back: list[int], depth: int, pick: Callable,
           steps: list, after: Optional[list[int]] = None,
           pieces: Optional[dict] = None) -> list[int]:
    """Colour h, whose vertex i is g's vertex back[i], and return the
    colouring in h's ids, renumbered by first occurrence.  The rule comes
    from pick, and its step goes to steps, in pre-order, as (ids, rule,
    cert): the scope's _Ids and its certificate in its own ids.  So each
    call but a memo hit writes one step, a disconnected h included: its
    rule is the empty clique cutset.  sub(m) induces h[m] from h, so the
    vertex maps compose, and returns its colouring keyed by h's ids.

    With pieces, a scope below the top with more than four vertices is
    looked up by its adjacency.  A hit re-emits the stored steps through
    back and returns the stored colouring; a miss stores them, with
    vertices in h's ids, once the subtree succeeds.  The key can ignore
    `after`: the clique-cutset floor is exact, so the whole subtree depends
    on h alone."""
    s = _Scope(h, back, after)
    key = h.adj if pieces is not None and depth and h.n > 4 else None
    hit = pieces.get(key) if key is not None else None
    if hit is not None:
        canon, done = hit
        for local, rule, cert in done:
            steps.append((_Ids(s.orig(local)), rule, cert))
        return canon
    start = len(steps)

    def sub(m: int, after: Optional[Iterable[int]] = None) -> dict[int, int]:
        assert m != h.vertex_mask, "every rule must shrink its instance"
        piece, vmap = induced_subgraph(h, m)
        if after is not None:
            after = [vmap.index(v) for v in after]
        return dict(zip(vmap, _solve(piece, [back[v] for v in vmap],
                                     depth + 1, pick, steps, after, pieces)))

    rule, cert = pick(s)
    steps.append((s, rule, cert))
    col = rule.apply(s, cert, sub)
    canon = _canon_list(col[v] for v in range(h.n))
    assert max(canon, default=0) < 4
    if key is not None:
        if len(pieces) >= PIECES_BOUND:
            pieces.clear()
        pieces[key] = (canon, [(s.local(ids.back), rule, cert)
                               for ids, rule, cert in steps[start:]])
    return canon


def _trace(steps: list) -> ColoringTrace:
    """Encode the steps _solve appended, each in its own scope's ids."""
    return ColoringTrace(tuple(
        TraceStep(rule.name, ids.mask, rule.encode(ids, cert))
        for ids, rule, cert in steps))


def structural_four_coloring(g: Graph, pieces: Optional[dict] = None
                             ) -> Union[tuple[Coloring, ColoringTrace],
                                        ColoringFailure]:
    """Colour g with at most four colours by structural recursion.

    Returns (Coloring, ColoringTrace), or a ColoringFailure carrying the
    violated expectation.  The intended domain is graphs with no induced K4
    subdivision, which is assumed, not tested: a caller that wants the
    (expensive) test runs contains_isk4 first.

    pieces is an optional dict that a caller shares across graphs: each
    piece below the top with more than four vertices is then coloured once
    while the dict holds it (see _solve), and emptied at PIECES_BOUND
    entries.  The colouring and trace are the same with or without it.
    """
    steps: list = []
    try:
        col = _solve(g, list(range(g.n)), 0, _first_rule, steps, pieces=pieces)
    except _Fail as exc:
        f = exc.failure
        if f.kind == "chromatic_bound_exceeded" and contains_isk4(g) is None:
            return replace(f, conjecture_counterexample=True, evidence={
                **f.evidence, "note": "needs five colours yet has no induced "
                                      "K4 subdivision: counterexample candidate"})
        return f
    out = _coloring(col)
    assert out.k <= 4 and out.validate(g)
    return out, _trace(steps)


def replay_trace(g: Graph, trace: ColoringTrace) -> Coloring:
    """Re-run the recorded rules, taking each certificate from the trace
    instead of searching for it: replay never searches.

    On the graph that produced the trace this reproduces the identical
    colouring; a trace that does not fit raises ValueError.
    """
    steps: list = []
    col = _solve(g, list(range(g.n)), 0, _recorded(trace.steps), steps)
    # the re-encoded steps must give back the trace: this catches unused
    # steps and an encode/decode pair that drifts
    if _trace(steps).steps != tuple(trace.steps):
        raise ValueError("trace differs from its replay")
    out = _coloring(col)
    if not out.validate(g):
        raise ValueError("replayed colouring is not proper")
    return out
