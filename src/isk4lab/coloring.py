"""Exact chromatic search, the leaf colourings, and the structural
4-colouring recursion.

`structural_four_coloring` gives at most four vertices distinct colours,
else applies the first matching rule: clique cutset (the empty one on a
disconnected graph), a peel of the vertices of degree at most three,
coloured last, then on what is left, a 4-core, complete multipartite and
subcubic line graph.  It returns the colouring with a replayable trace of
the applied rules, or a structured failure naming the broken expectation.

Each trace rule is one entry of the rule table `_TABLE`, whose find only
recognises: it gives a certificate or None.  Search and `replay_trace` run
the same recursion over it and differ only in where a level's certificate
comes from, so the two cannot drift apart, and replay never searches for
a certificate.  A scope that no rule takes is refused by `_refusal`, the
one place that builds a `ColoringFailure`: at rule 5 or 6 when the
structure that forces a base class is there, else at rule 8.

The leaves are the base classes: a complete multipartite graph takes its
parts as colour classes, and a subcubic line graph takes the exact search's
first 4-colouring, which Vizing's theorem guarantees.

A scope is a vertex mask of the input graph, and every rule works in the
input's ids with no copy of the scope; only the line-graph leaf and the
refusal build its induced subgraph, and both see only 4-cores.  One
colour list indexed by the input's ids, allocated once per call of
`structural_four_coloring` or `replay_trace`, holds the whole recursion:
each scope writes its colours there in place, and a clique-cutset split
permutes each later piece's colours there to agree with the first on the
cutset.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
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
        # each vertex against its neighbours coloured before it: every edge
        # is looked at once, from its later end
        cls = [0] * self.k
        for v, c in enumerate(self.color):
            if not 0 <= c < self.k or g.adj[v] & cls[c]:
                return False
            cls[c] |= 1 << v
        return all(cls)


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
    """Structured refusal: which expectation broke, where, and the witnesses.

    rule numbers the broken expectation in the proof's order; it is not an
    index into RULES.  5: a K_{3,3} with no clique cutset, yet the scope is
    not complete multipartite on at most four parts (`Multipartite`).  6: a
    prism or rich square with no clique cutset, yet the scope is not the
    line graph of a max-degree-3 graph (`SubcubicLineGraph`).  8: a 4-core
    in neither base class."""

    kind: str  # "hypothesis_violation" or "chromatic_bound_exceeded"
    rule: int
    scope: int
    evidence: dict
    conjecture_counterexample: bool = False


class _Fail(Exception):
    """A scope that no rule takes, its only argument; _refusal says why."""


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


def _renumber(col: list[int], mask: int, k: int = 4) -> None:
    """Renumber the colours of mask's vertices, each below k, by first
    occurrence in ascending vertex order, in place."""
    ren, used = [-1] * k, 0
    for v in bits(mask):
        c = ren[col[v]]
        if c < 0:
            c = ren[col[v]] = used
            used += 1
        col[v] = c


def _coloring(col: list[int]) -> Coloring:
    """A colouring already numbered by first occurrence; k is the count
    used."""
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
        col = _backtrack(g, k)
        if col is not None:
            _renumber(col, g.vertex_mask, k)
            out = _coloring(col)
            assert out.validate(g)
            return out
    return None


# -- leaf colourers --------------------------------------------------------


def color_complete_multipartite(cert: MultipartiteCert) -> Coloring:
    """Parts become colour classes; k is the number of parts."""
    col = {v: i for i, part in enumerate(cert.parts) for v in bits(part)}
    assert sorted(col) == list(range(len(col))), "parts must cover 0..n-1"
    return Coloring(tuple(col[v] for v in range(len(col))), len(cert.parts))


# -- structural recursion --------------------------------------------------


class _Scope:
    """One instance of the recursion on more than four vertices: the
    vertices `mask` of the input graph g, every rule working in g's ids.  A
    clique-cutset piece keeps its parent's cutset as `after`, the floor of
    its own search."""

    def __init__(self, g: Graph, mask: int, after: Optional[list[int]] = None):
        self.g = g
        self.mask = mask
        self.after = after

    @cached_property
    def induced(self) -> tuple[Graph, list[int]]:
        """g[mask] and its vertex map, built only by the line-graph leaf and
        the refusal, which see only 4-cores."""
        return induced_subgraph(self.g, self.mask)


def _ids(s: _Scope, vs: Iterable[int]) -> list[int]:
    """A trace's vertex list, each one of g's ids, so that no mask is built
    from a vertex g does not have; IndexError otherwise."""
    vs = list(vs)
    if not all(0 <= v < s.g.n for v in vs):
        raise IndexError(f"{vs} names a vertex outside 0..{s.g.n - 1}")
    return vs


def _split_clique(s: _Scope, cc: CliqueCutset, col: list[int], sub) -> None:
    """Colour each piece in turn.  A later piece, numbered by first
    occurrence and so using colours 0..k-1, is permuted to agree with the
    first on the clique: its cutset colours go to the saved ones, its other
    colours, ascending, to the lowest colours the cutset does not hold."""
    cut = cc.vertices
    smask = mask_of(cut)
    first, *rest = components(s.g, s.mask & ~smask)
    sub(first | smask, after=cut)
    saved = [col[v] for v in cut]
    free = [c for c in range(4) if c not in saved]
    for cm in rest:
        sub(cm | smask, after=cut)
        perm = [-1] * 4
        for v, c in zip(cut, saved):
            perm[col[v]] = c
        others = iter(free)
        perm = [next(others) if c < 0 else c for c in perm]
        for v in bits(cm | smask):
            col[v] = perm[col[v]]


def _smallest_last(s: _Scope) -> Optional[list[int]]:
    """The smallest-last order: each time the least vertex with at most
    three neighbours left.  None when every vertex has four or more."""
    adj, left, order = s.g.adj, s.mask, []
    while True:
        v = next((v for v in bits(left) if (adj[v] & left).bit_count() <= 3),
                 None)
        if v is None:
            return order or None
        order.append(v)
        left &= ~(1 << v)


def _peels(s: _Scope, order: list[int]) -> bool:
    """Is order a non-empty sequence of distinct vertices of the scope, each
    with at most three neighbours left when it is removed?"""
    left = s.mask
    for v in order:
        if not left >> v & 1 or (s.g.adj[v] & left).bit_count() > 3:
            return False
        left &= ~(1 << v)
    return bool(order)


def _peel(s: _Scope, order: list[int], col: list[int], sub) -> None:
    # each peeled vertex sees at most three vertices coloured before it:
    # the rest and the vertices peeled after it; it takes the least colour
    # missing from the mask of theirs
    done = s.mask & ~mask_of(order)
    sub(done)
    for v in reversed(order):
        seen = 0
        for u in bits(s.g.adj[v] & done):
            seen |= 1 << col[u]
        col[v] = (~seen & seen + 1).bit_length() - 1
        done |= 1 << v


def _color_parts(s: _Scope, mp: MultipartiteCert, col: list[int],
                 sub) -> None:
    for i, part in enumerate(mp.parts):
        for v in bits(part):
            col[v] = i


def _color_line_graph(s: _Scope, lg: SubcubicRootCert, col: list[int],
                      sub) -> None:
    """The exact search's first 4-colouring of the scope, a line graph of a
    graph of maximum degree 3."""
    h, vmap = s.induced
    leaf = _backtrack(h, 4)
    # Vizing's theorem 4-edge-colours the root, so h has a 4-colouring
    assert leaf is not None, "subcubic root failed to 4-edge-colour"
    for v, c in zip(vmap, leaf):
        col[v] = c


# One entry per trace rule, in proof order.  find(s) gives a certificate in
# g's ids, or None when the rule does not apply; encode(s, cert) and
# decode(s, detail) map it to and from the trace detail; check(s, cert)
# re-validates a decoded one, that it lies in the scope included;
# apply(s, cert, col, sub) writes the scope's colours, each below 4, into
# col, the one colour list indexed by g's ids that the whole recursion
# shares; sub(m) colours g[m] there, numbered by first occurrence, and
# writes nothing outside m.  SubcubicLineGraph alone works in the induced
# scope: its edge_of lists the scope's vertices in ascending order.
# Detectors are looked up by module-global name at call time, so rebinding
# them on this module reaches every call.
_Rule = namedtuple("_Rule", "name find encode decode apply check")
_TABLE = (
    _Rule("CliqueCutsetSplit",
          find=lambda s: find_clique_cutset(s.g, after=s.after, within=s.mask),
          encode=lambda s, cc: {"cutset": list(cc.vertices)},
          decode=lambda s, d: CliqueCutset(tuple(sorted(_ids(s, d["cutset"])))),
          apply=_split_clique,
          check=lambda s, cc: cc.validate(s.g, s.mask)),
    _Rule("LowDegreePeel", find=_smallest_last,
          encode=lambda s, order: {"order": list(order)},
          decode=lambda s, d: _ids(s, d["order"]),
          apply=_peel, check=_peels),
    _Rule("Multipartite",
          find=lambda s: (mp if (mp := recognize_complete_multipartite(
              s.g, s.mask)) is not None and len(mp.parts) <= 4 else None),
          encode=lambda s, mp: {"parts": [list(bits(p)) for p in mp.parts]},
          decode=lambda s, d: MultipartiteCert(
              tuple(mask_of(_ids(s, part)) for part in d["parts"])),
          apply=_color_parts,
          check=lambda s, mp: len(mp.parts) <= 4 and mp.validate(s.g, s.mask)),
    _Rule("SubcubicLineGraph",
          find=lambda s: recognize_line_graph_subcubic(s.induced[0]),
          encode=lambda s, lg: {"edge_of": [list(e) for e in lg.edge_of]},
          decode=lambda s, d: SubcubicRootCert(
              tuple(tuple(e) for e in d["edge_of"])),
          apply=_color_line_graph,
          check=lambda s, lg: lg.validate(s.induced[0])),
)
RULES = tuple(rule.name for rule in _TABLE)


def _first_rule(s: _Scope) -> tuple[_Rule, object]:
    """Search: the first rule whose find succeeds, with its certificate."""
    for rule in _TABLE:
        cert = rule.find(s)
        if cert is not None:
            return rule, cert
    raise _Fail(s)


def _refusal(s: _Scope) -> ColoringFailure:
    """Why no rule takes the scope s, in proof order.  With no clique
    cutset, a K_{3,3} forces complete multipartite (rule 5), and a prism or
    rich square forces the line graph of a max-degree-3 graph (rule 6).
    Past those, s is a 4-core outside every base class (rule 8): it needs
    five colours when the exact search finds no 4-colouring, and then the
    input graph is a counterexample candidate if it has no induced K4
    subdivision."""
    h, vmap = s.induced
    k33 = contains_fixed(h, "K33")
    if k33 is not None:
        mp = recognize_complete_multipartite(h)
        return ColoringFailure("hypothesis_violation", 5, s.mask, {
            "expectation": "with K_{3,3} present and no clique cutset the "
                           "graph must be complete multipartite on at most "
                           "four parts",
            "k33_vertices": sorted(vmap[v] for v in k33.mapping),
            "parts": None if mp is None else len(mp.parts),
        })
    prism, rich = contains_fixed(h, "prism"), find_rich_square(h)
    if prism is not None or rich is not None:
        return ColoringFailure("hypothesis_violation", 6, s.mask, {
            "expectation": "with a prism or rich square present and no "
                           "clique cutset the graph must be the line graph "
                           "of a max-degree-3 graph",
            "prism_vertices": None if prism is None
            else sorted(vmap[v] for v in prism.mapping),
            "square": None if rich is None else [vmap[v] for v in rich.square],
        })
    if chromatic_number_exact(h, 4) is not None:
        return ColoringFailure("hypothesis_violation", 8, s.mask, {
            "expectation": "a graph with no clique cutset that is in no base "
                           "class must have a vertex of degree at most 3",
            "vertices": vmap,
        })
    evidence = {"bound": 4, "vertices": vmap}
    free = contains_isk4(s.g) is None
    if free:
        evidence["note"] = ("needs five colours yet has no induced K4 "
                            "subdivision: counterexample candidate")
    return ColoringFailure("chromatic_bound_exceeded", 8, s.mask, evidence,
                           free)


# A shared piece memo is emptied when it holds this many entries.
PIECES_BOUND = 4096


def _solve(g: Graph, mask: int, pick: Callable, col: list[int],
           after: Optional[list[int]] = None,
           pieces: Optional[dict] = None) -> None:
    """Colour g[mask] in col, the colour list indexed by g's ids, writing
    every vertex of mask and nothing else: mask's colours in ascending
    vertex order, renumbered by first occurrence, are the colouring of
    g[mask]'s induced copy in its own ids.  At most four vertices take
    distinct colours.  Else pick(s) gives the rule and its certificate in
    g's ids, once per call and in pre-order, a disconnected scope too (its
    rule is the empty clique cutset), and the rule colours the scope in
    col; sub(m) colours g[m] there in turn, m being a proper subset of
    mask.

    With pieces, each piece of a clique-cutset split (the only scopes with
    an `after`) with more than four vertices is looked up by the adjacency
    of its induced copy.  A hit copies the stored colours into col and
    calls no pick; a miss stores them once the subtree succeeds.  The key
    can ignore `after`: the clique-cutset floor is exact, so the whole
    subtree depends on the induced copy alone."""
    if mask.bit_count() <= 4:
        for i, v in enumerate(bits(mask)):
            col[v] = i
        return
    key = None
    if pieces is not None and after is not None:
        key = induced_subgraph(g, mask)[0].adj
        if key in pieces:
            for v, c in zip(bits(mask), pieces[key]):
                col[v] = c
            return
    s = _Scope(g, mask, after)

    def sub(m: int, after: Optional[Iterable[int]] = None) -> None:
        assert m != mask, "every rule must shrink its instance"
        _solve(g, m, pick, col, after, pieces)

    rule, cert = pick(s)
    rule.apply(s, cert, col, sub)
    _renumber(col, mask)
    if key is not None:
        if len(pieces) >= PIECES_BOUND:
            pieces.clear()
        pieces[key] = [col[v] for v in bits(mask)]


def structural_four_coloring(g: Graph, pieces: Optional[dict] = None
                             ) -> Union[tuple[Coloring, ColoringTrace],
                                        Coloring, ColoringFailure]:
    """Colour g with at most four colours by structural recursion.

    Returns (Coloring, ColoringTrace), each step encoded as its rule is
    picked and the trace empty when g.n <= 4, or a ColoringFailure naming
    the broken expectation.  The intended domain, graphs with no induced K4
    subdivision, is assumed, not tested: a caller that wants the
    (expensive) test runs contains_isk4 first.

    pieces is an optional dict that a caller shares across graphs: each
    clique-cutset piece with more than four vertices is then coloured once
    while the dict holds it (see _solve), and emptied at PIECES_BOUND
    entries.  A call with it returns the Coloring alone, with no trace, or
    the same ColoringFailure; the colouring is the same with or without it.
    """
    steps: list[TraceStep] = []

    def traced(s: _Scope) -> tuple[_Rule, object]:
        rule, cert = _first_rule(s)
        steps.append(TraceStep(rule.name, s.mask, rule.encode(s, cert)))
        return rule, cert

    pick = _first_rule if pieces is not None else traced
    col = [0] * g.n
    try:
        _solve(g, g.vertex_mask, pick, col, pieces=pieces)
    except _Fail as exc:
        return _refusal(exc.args[0])
    out = _coloring(col)
    assert out.k <= 4 and out.validate(g)
    return out if pieces is not None else (out, ColoringTrace(tuple(steps)))


def replay_trace(g: Graph, trace: ColoringTrace) -> Coloring:
    """Re-run the recorded rules, taking each certificate from the trace
    instead of searching for it: replay never searches for a certificate.

    Each step is checked as the recursion reads it, and none may be left
    over.  On the graph that produced the trace this reproduces the
    identical colouring; a trace that does not fit raises ValueError.
    """
    feed = iter(trace.steps)

    def pick(s: _Scope) -> tuple[_Rule, object]:
        st = next(feed, None)
        if st is None:
            raise ValueError("trace ended before the recursion did")
        if st.scope != s.mask:
            raise ValueError("trace scope does not match the recursion")
        rule = next((r for r in _TABLE if r.name == st.rule), None)
        if rule is None:
            raise ValueError(f"unknown trace rule {st.rule!r}")
        try:
            cert = rule.decode(s, st.detail)
            ok = rule.check(s, cert)
        except (LookupError, TypeError) as exc:
            raise ValueError(f"malformed {st.rule} witness: {exc!r}") from exc
        if not ok:
            raise ValueError(f"recorded {st.rule} witness no longer applies")
        if rule.encode(s, cert) != st.detail:
            raise ValueError(f"{st.rule} detail does not re-encode to itself")
        return rule, cert

    col = [0] * g.n
    _solve(g, g.vertex_mask, pick, col)
    if next(feed, None) is not None:
        raise ValueError("trace has steps the recursion did not read")
    out = _coloring(col)
    if not out.validate(g):
        raise ValueError("replayed colouring is not proper")
    return out
