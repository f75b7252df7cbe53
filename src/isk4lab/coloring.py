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


def _canon_list(colors: Iterable[int]) -> list[int]:
    """Renumber colours by first occurrence."""
    ren: dict[int, int] = {}
    return [ren.setdefault(c, len(ren)) for c in colors]


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
        raw = _backtrack(g, k)
        if raw is not None:
            out = _coloring(_canon_list(raw))
            assert out.validate(g)
            return out
    return None


# -- leaf colourers --------------------------------------------------------


def color_complete_multipartite(cert: MultipartiteCert) -> Coloring:
    """Parts become colour classes; k is the number of parts."""
    col = {v: i for i, part in enumerate(cert.parts) for v in bits(part)}
    assert sorted(col) == list(range(len(col))), "parts must cover 0..n-1"
    return Coloring(tuple(col[v] for v in range(len(col))), len(cert.parts))


def _four_colour_line_graph(h: Graph) -> list[int]:
    """The exact search's first 4-colouring of h, a line graph of a graph of
    maximum degree 3."""
    col = _backtrack(h, 4)
    # Vizing's theorem 4-edge-colours the root, so h has a 4-colouring
    assert col is not None, "subcubic root failed to 4-edge-colour"
    return col


# -- structural recursion --------------------------------------------------


class _Scope:
    """One instance of the recursion on more than four vertices, the graph
    h; rules work in h's ids, vertex i being g's back[i].  A clique-cutset
    piece keeps its parent's cutset (in its own ids) as `after`, the floor
    of its own search."""

    def __init__(self, h: Graph, back: list[int],
                 after: Optional[list[int]] = None):
        self.h = h
        self.back = back
        self.after = after
        self.mask = mask_of(back)  # in g's ids

    def orig(self, vs: Iterable[int]) -> list[int]:
        return [self.back[v] for v in vs]

    def local(self, vs: Iterable[int]) -> list[int]:
        return [self.index[v] for v in vs]

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.back)}


def _merge(base: dict[int, int], other: dict[int, int],
           shared: tuple[int, ...]) -> dict[int, int]:
    """Overlay `other` onto `base` after permuting its colours so the shared
    clique agrees; leftover colours go to the lowest free ids."""
    pi = {other[v]: base[v] for v in shared}
    targets = set(pi.values())
    # a clique takes distinct colours on both sides
    assert len(pi) == len(targets) == len(shared)
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


def _split_clique(s: _Scope, cc: CliqueCutset, sub) -> dict[int, int]:
    smask = mask_of(cc.vertices)
    merged: Optional[dict[int, int]] = None
    for cm in components(s.h, s.h.vertex_mask & ~smask):
        part = sub(cm | smask, after=cc.vertices)
        merged = part if merged is None else _merge(merged, part, cc.vertices)
    return merged


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
    out = sub(rest)
    for v in reversed(order):
        out[v] = min(set(range(4)) - {out.get(u) for u in bits(s.h.adj[v])})
    return out


# One entry per trace rule, in proof order.  find(s) gives a certificate in
# h's ids, or None when the rule does not apply; encode(s, cert)
# and decode(s, detail) map it to and from the trace detail (original ids);
# check(s, cert) re-validates a decoded one, by default with its validate;
# apply(s, cert, sub) colours h, sub(m) giving h[m]'s colouring keyed by h's
# ids, and returns h's colouring, indexed by h's ids.  Detectors are looked
# up by module-global name at call time, so rebinding them on this module
# reaches every call.
_Rule = namedtuple("_Rule", "name find encode decode apply check",
                   defaults=(lambda s, cert: cert.validate(s.h),))
_TABLE = (
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
    _Rule("Multipartite",
          find=lambda s: (mp if (mp := recognize_complete_multipartite(s.h))
                          is not None and len(mp.parts) <= 4 else None),
          encode=lambda s, mp: {"parts": [s.orig(bits(p)) for p in mp.parts]},
          decode=lambda s, d: MultipartiteCert(
              tuple(mask_of(s.local(part)) for part in d["parts"])),
          check=lambda s, mp: len(mp.parts) <= 4 and mp.validate(s.h),
          apply=lambda s, mp, sub: color_complete_multipartite(mp).color),
    _Rule("SubcubicLineGraph",
          find=lambda s: recognize_line_graph_subcubic(s.h),
          encode=lambda s, lg: {"edge_of": [list(e) for e in lg.edge_of]},
          decode=lambda s, d: SubcubicRootCert(
              tuple(tuple(e) for e in d["edge_of"])),
          apply=lambda s, lg, sub: _four_colour_line_graph(s.h)),
)
RULES = tuple(rule.name for rule in _TABLE)


def _first_rule(s: _Scope) -> tuple[_Rule, object]:
    """Search: the first rule whose find succeeds, with its certificate."""
    for rule in _TABLE:
        cert = rule.find(s)
        if cert is not None:
            return rule, cert
    raise _Fail(s)


def _refusal(g: Graph, s: _Scope) -> ColoringFailure:
    """Why no rule takes the scope s of g, in proof order.  With no clique
    cutset, a K_{3,3} forces complete multipartite (rule 5), and a prism or
    rich square forces the line graph of a max-degree-3 graph (rule 6).
    Past those, s is a 4-core outside every base class (rule 8): it needs
    five colours when the exact search finds no 4-colouring, and then g is
    a counterexample candidate if it has no induced K4 subdivision."""
    k33 = contains_fixed(s.h, "K33")
    if k33 is not None:
        mp = recognize_complete_multipartite(s.h)
        return ColoringFailure("hypothesis_violation", 5, s.mask, {
            "expectation": "with K_{3,3} present and no clique cutset the "
                           "graph must be complete multipartite on at most "
                           "four parts",
            "k33_vertices": sorted(s.orig(k33.mapping)),
            "parts": None if mp is None else len(mp.parts),
        })
    prism, rich = contains_fixed(s.h, "prism"), find_rich_square(s.h)
    if prism is not None or rich is not None:
        return ColoringFailure("hypothesis_violation", 6, s.mask, {
            "expectation": "with a prism or rich square present and no "
                           "clique cutset the graph must be the line graph "
                           "of a max-degree-3 graph",
            "prism_vertices": None if prism is None
            else sorted(s.orig(prism.mapping)),
            "square": None if rich is None else s.orig(rich.square),
        })
    vertices = list(bits(s.mask))
    if chromatic_number_exact(s.h, 4) is not None:
        return ColoringFailure("hypothesis_violation", 8, s.mask, {
            "expectation": "a graph with no clique cutset that is in no base "
                           "class must have a vertex of degree at most 3",
            "vertices": vertices,
        })
    evidence = {"bound": 4, "vertices": vertices}
    free = contains_isk4(g) is None
    if free:
        evidence["note"] = ("needs five colours yet has no induced K4 "
                            "subdivision: counterexample candidate")
    return ColoringFailure("chromatic_bound_exceeded", 8, s.mask, evidence,
                           free)


# A shared piece memo is emptied when it holds this many entries.
PIECES_BOUND = 4096


def _solve(h: Graph, back: list[int], pick: Callable,
           after: Optional[list[int]] = None,
           pieces: Optional[dict] = None) -> list[int]:
    """Colour h, whose vertex i is g's vertex back[i], and return the
    colouring in h's ids, renumbered by first occurrence.  At most four
    vertices take distinct colours.  Else pick(s) gives the rule and its
    certificate in the scope's ids, once per call and in pre-order, a
    disconnected h too (its rule is the empty clique cutset).  sub(m)
    returns h[m]'s colouring keyed by h's ids: at most four vertices take
    distinct colours in vertex order, without inducing h[m]; else h[m] is
    induced from h, so vertex maps compose.

    With pieces, each piece of a clique-cutset split (the only scopes with
    an `after`) with more than four vertices is looked up by its adjacency.
    A hit returns the stored colouring and calls no pick; a miss stores
    the colouring once the subtree succeeds.  The key can ignore `after`:
    the clique-cutset floor is exact, so the whole subtree depends on h
    alone."""
    if h.n <= 4:
        return list(range(h.n))
    key = h.adj if pieces is not None and after is not None else None
    if key is not None and key in pieces:
        return pieces[key]
    s = _Scope(h, back, after)

    def sub(m: int, after: Optional[Iterable[int]] = None) -> dict[int, int]:
        assert m != h.vertex_mask, "every rule must shrink its instance"
        if m.bit_count() <= 4:
            return {v: i for i, v in enumerate(bits(m))}
        piece, vmap = induced_subgraph(h, m)
        if after is not None:
            after = [vmap.index(v) for v in after]
        return dict(zip(vmap, _solve(piece, [back[v] for v in vmap], pick,
                                     after, pieces)))

    rule, cert = pick(s)
    col = rule.apply(s, cert, sub)
    canon = _canon_list(col[v] for v in range(h.n))
    assert max(canon) < 4
    if key is not None:
        if len(pieces) >= PIECES_BOUND:
            pieces.clear()
        pieces[key] = canon
    return canon


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
    try:
        col = _solve(g, list(range(g.n)), pick, pieces=pieces)
    except _Fail as exc:
        return _refusal(g, exc.args[0])
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

    col = _solve(g, list(range(g.n)), pick)
    if next(feed, None) is not None:
        raise ValueError("trace has steps the recursion did not read")
    out = _coloring(col)
    if not out.validate(g):
        raise ValueError("replayed colouring is not proper")
    return out
