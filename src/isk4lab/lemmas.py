"""Linkage detection and attachment-shape checks, plus whole-graph verifiers.

`check_lemma` runs one of three statements against a graph: L-LINK (no vertex
of an ISK4-free graph is linked to an induced cycle), L-VOH (single-vertex
attachments to a maximal K_{1,2,n} are empty, one vertex or one edge) and
L-COMP (component attachments are empty, a clique or {a,b_1,b_2}).  Each run
reports whether the statement's hypotheses held and, if so, whether the
conclusion survived exhaustive checking; a counterwitness would be evidence of
an implementation bug and is returned in full.

Each lemma is one entry of a table: from a graph's facts it gives None when
its hypotheses fail, else an iterator with one item per instance, the
counterwitness of that instance or None.  `check_lemma` runs every lemma
through one loop, the only place that counts instances against the budget.

The three lemmas share their hypotheses, so the per-graph facts they read
(the K4-minor verdict, the ISK4 mask, K33/K222 and prism presence, the
maximal K_{1,2,n} list) live on one `GraphFacts` per graph, each computed at
most once, and a scan hands it to every check.  On a K4-minor-free graph no
hypothesis search runs, and L-LINK asks `is_linked` of no pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .graphs import (Graph, attachment, bits, components, has_k4_minor,
                     is_clique, is_induced_cycle, is_induced_path, mask_of)
from .patterns import (
    K12nEmbedding,
    PatternWitness,
    contains_fixed,
    contains_isk4,
    iter_maximal_k12n,
    off_components,
)


@dataclass(frozen=True)
class LinkWitness:
    """Three induced paths from one vertex to an induced cycle, satisfying the
    five linkage conditions (see validate for the literal transcription)."""

    paths: tuple[tuple[int, ...], ...]

    @property
    def v(self) -> int:
        return self.paths[0][0]

    def ends(self) -> tuple[int, ...]:
        return tuple(p[-1] for p in self.paths)

    def validate(self, g: Graph, cycle: tuple[int, ...]) -> bool:
        """Literal re-check of the five conditions, independent of the search."""
        if len(self.paths) != 3 or not is_induced_cycle(g, cycle):
            return False
        cset = set(cycle)
        v = self.v
        if v in cset:
            return False
        for p in self.paths:
            if len(p) < 2 or p[0] != v or p[-1] not in cset:
                return False
            if not is_induced_path(g, p):
                return False
            # interiors avoid the cycle ...
            if any(u in cset for u in p[1:-1]):
                return False
            # ... and contribute no edges to it beyond the final path edge
            for u in p[1:-1]:
                allowed = {p[-1]} if u == p[-2] else set()
                if any(c in cset and c not in allowed for c in bits(g.adj[u])):
                    return False
        for i in range(3):
            for j in range(i + 1, 3):
                pi, pj = self.paths[i], self.paths[j]
                if set(pi) & set(pj) != {v}:
                    return False
                for x in pi:
                    for y in pj:
                        if g.has_edge(x, y) and v not in (x, y) \
                                and not (x in cset and y in cset):
                            return False
        ends = set(self.ends())
        return all(c in ends for c in cycle if g.has_edge(v, c))


def is_linked(g: Graph, cycle: tuple[int, ...], v: int) -> Optional[LinkWitness]:
    """First linkage of v to the cycle in search order, or None.

    One search grows three paths from v in turn, each closed by its step onto
    the cycle.  A step from `last` to w needs w on no path so far, `last` as
    w's only neighbour on the current path, and no neighbour of w on the
    finished paths but v, or their cycle ends when w is on the cycle.  From v
    the steps are its neighbours past the previous path's first step; from an
    interior vertex that sees the cycle, its one cycle neighbour; otherwise
    the neighbours of `last`.

    Raises ValueError when the cycle is not induced or v lies on it.
    """
    if not is_induced_cycle(g, cycle):
        raise ValueError("cycle argument is not an induced cycle")
    if not 0 <= v < g.n or v in cycle:
        raise ValueError("linked vertex must exist and avoid the cycle")
    adj, cmask = g.adj, mask_of(cycle)
    if (adj[v] & cmask).bit_count() > 3:
        return None  # three path ends cannot absorb four cycle neighbours

    def search(done: tuple, path: tuple, pmask: int, used: int):
        # pmask: the current path's vertices; used: every path's vertices
        if len(done) == 3:
            return LinkWitness(done) if adj[v] & cmask & ~used == 0 else None
        last = path[-1]
        if last == v:
            low = done[-1][1] + 1 if done else 0
            steps = adj[v] >> low << low
        else:
            steps = adj[last] & cmask or adj[last]
            if steps & cmask and steps.bit_count() > 1:
                return None  # the path must end at its first cycle neighbour
        for w in bits(steps):
            on_cycle = cmask >> w & 1
            if used >> w & 1 or adj[w] & pmask != 1 << last \
                    or adj[w] & used & ~pmask & ~(cmask if on_cycle else 0):
                continue
            if on_cycle:
                found = search(done + (path + (w,),), (v,), 1 << v, used | 1 << w)
            else:
                found = search(done, path + (w,), pmask | 1 << w, used | 1 << w)
            if found is not None:
                return found
        return None

    result = search((), (v,), 1 << v, 1 << v)
    if result is not None:
        assert result.validate(g, tuple(cycle))
    return result


# -- attachment classification ---------------------------------------------


@dataclass(frozen=True)
class AttachmentClass:
    """Shape of what a vertex or a component outside H sees of V(H): empty,
    one_vertex or one_edge (for a vertex), clique or a1a2 (= {a,b_1,b_2},
    for a component), or other."""

    tag: str
    witness: tuple[int, ...]

    def consistent(self, g: Graph, h: K12nEmbedding) -> bool:
        w, tag = self.witness, self.tag
        if tag == "empty":
            return len(w) == 0
        if tag == "one_vertex":
            return len(w) == 1
        if tag == "one_edge":
            return len(w) == 2 and g.has_edge(*w)
        if tag == "clique":
            return is_clique(g, mask_of(w))
        if tag == "a1a2":
            return set(w) == {h.a, *h.b}
        return tag == "other"


def classify_vertex_attachment(g: Graph, h: K12nEmbedding, v: int) -> AttachmentClass:
    hmask = h.vertex_mask()
    if not h.validate(g) or not 0 <= v < g.n or hmask >> v & 1:
        raise ValueError("need a valid embedding and an outside vertex")
    att = tuple(bits(g.adj[v] & hmask))
    if len(att) == 0:
        return AttachmentClass("empty", att)
    if len(att) == 1:
        return AttachmentClass("one_vertex", att)
    if len(att) == 2 and g.has_edge(*att):
        return AttachmentClass("one_edge", att)
    return AttachmentClass("other", att)


def _component_class(g: Graph, h: K12nEmbedding, att: int) -> AttachmentClass:
    """The class of a component of g - V(H) whose attachment is att."""
    w = tuple(bits(att))
    if not w:
        return AttachmentClass("empty", w)
    if is_clique(g, att):
        return AttachmentClass("clique", w)
    if att == 1 << h.a | mask_of(h.b):
        return AttachmentClass("a1a2", w)
    return AttachmentClass("other", w)


def classify_component_attachment(g: Graph, h: K12nEmbedding,
                                  comp: int) -> AttachmentClass:
    if not h.validate(g) or h.n < 3:
        raise ValueError("need a valid embedding with n >= 3")
    att = dict(off_components(g, h)).get(comp)
    if att is None:
        raise ValueError("comp is not a component of g - V(H)")
    return _component_class(g, h, att)


# -- whole-graph lemma verification ----------------------------------------


def iter_induced_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every induced cycle once, anchored at its least vertex, second vertex
    smaller than the last (fixes traversal direction)."""
    adj = g.adj

    def extend(path: tuple[int, ...], free: int) -> Iterator[tuple[int, ...]]:
        # free: the vertices above the anchor, off the path and seeing no
        # path vertex but the anchor and the last, so a next vertex in it
        # closes the cycle if it sees the anchor and extends the path if not
        s, last = path[0], path[-1]
        rest = free & ~adj[last]
        for w in bits(adj[last] & free):
            if not adj[w] >> s & 1:
                yield from extend(path + (w,), rest)
            elif path[1] < w:
                yield path + (w,)

    for s in range(g.n):
        above = g.vertex_mask >> s + 1 << s + 1
        for w in bits(adj[s] & above):
            yield from extend((s, w), above & ~(1 << w))


@dataclass
class LemmaReport:
    lemma: str
    hypothesis_satisfied: bool
    conclusion_holds: Optional[bool] = None
    counterwitness: Optional[dict] = None
    budget_exceeded: bool = False
    checked: int = 0

    def consistent(self) -> bool:
        has_cw = self.counterwitness is not None
        return has_cw == (self.hypothesis_satisfied and self.conclusion_holds is False)


class GraphFacts:
    """One graph plus the facts the lemma checks share, each computed on
    first use through this module's detectors and then kept."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def k4_minor(self) -> bool:
        return has_k4_minor(self.g)

    @cached_property
    def isk4(self) -> Optional[int]:
        # an ISK4 subdivides K4, so a K4-minor-free graph has none
        return contains_isk4(self.g) if self.k4_minor else None

    @cached_property
    def k33_or_k222(self) -> bool:
        return contains_fixed(self.g, "K33") is not None \
            or contains_fixed(self.g, "K222") is not None

    @cached_property
    def prism(self) -> Optional[PatternWitness]:
        return contains_fixed(self.g, "prism")

    @cached_property
    def k12n(self) -> list[K12nEmbedding]:
        """Every maximal K_{1,2,n} with n >= 2; those with n >= 3 are, in the
        same order, what iter_maximal_k12n(g, 3) yields."""
        return list(iter_maximal_k12n(self.g, 2))


def _link(f: GraphFacts) -> Optional[Iterator[Optional[dict]]]:
    if f.isk4 is not None:
        return None
    g = f.g
    # a linkage's three paths leave v through distinct neighbours, so v has
    # degree >= 3, and end at distinct cycle vertices that v's component of
    # g - C sees, as every path's interior lies in it: a pair failing either
    # test is not linked, and is_linked is not asked.  With the cycle the
    # paths subdivide K4, so on a K4-minor-free graph no pair is asked
    branch = mask_of(v for v in range(g.n) if g.adj[v].bit_count() >= 3) \
        if f.k4_minor else 0

    def instances():
        for cycle in iter_induced_cycles(g):
            yield None  # the cycle is an instance too, as is each pair below
            cmask = mask_of(cycle)
            rest = g.vertex_mask & ~cmask
            able = 0
            for comp in components(g, rest) if branch else ():
                if comp & branch and attachment(g, cmask, comp).bit_count() >= 3:
                    able |= comp & branch
            for v in bits(rest):
                w = is_linked(g, cycle, v) if able >> v & 1 else None
                yield None if w is None else \
                    {"cycle": cycle, "vertex": v, "paths": w.paths}

    return instances()


def _attachment_hosts(f: GraphFacts) -> list[K12nEmbedding]:
    """The maximal K_{1,2,n} (n >= 2) of an ISK4-, K33- and K222-free graph;
    none when those shared hypotheses fail, nor on a K4-minor-free graph, so
    no host search runs there: K_{1,2,n} has minimum degree 3, and a simple
    graph of minimum degree 3 has a K4 minor (Dirac, 1952)."""
    if f.isk4 is not None or not f.k4_minor or f.k33_or_k222:
        return []
    return f.k12n


def _voh(f: GraphFacts) -> Optional[Iterator[Optional[dict]]]:
    g, hosts = f.g, _attachment_hosts(f)
    if not hosts:
        return None

    def instances():
        for h in hosts:
            for v in bits(g.vertex_mask & ~h.vertex_mask()):
                att = classify_vertex_attachment(g, h, v)
                yield None if att.tag != "other" else \
                    {"embedding": (h.a, h.b, h.c), "vertex": v,
                     "attachment": att.witness}

    return instances()


def _comp(f: GraphFacts) -> Optional[Iterator[Optional[dict]]]:
    g = f.g
    hosts = [h for h in _attachment_hosts(f)
             if h.n >= 3 and h.vertex_mask() != g.vertex_mask]
    # prism-freeness is the last hypothesis tested: its search costs most
    if not hosts or f.prism is not None:
        return None

    def instances():
        for h in hosts:
            for comp, am in off_components(g, h):
                att = _component_class(g, h, am)
                yield None if att.tag != "other" else \
                    {"embedding": (h.a, h.b, h.c),
                     "component": tuple(bits(comp)),
                     "attachment": att.witness}

    return instances()


_LEMMAS = {"L-LINK": _link, "L-VOH": _voh, "L-COMP": _comp}
LEMMA_IDS = tuple(_LEMMAS)


def check_lemma(g: Graph | GraphFacts, lemma_id: str,
                budget: Optional[int] = None) -> LemmaReport:
    """Test one lemma's conclusion over all its instances in g.

    g is a Graph, or the GraphFacts of one when several lemmas run on the
    same graph.  budget caps the number of checked instances (cycles and
    (cycle, vertex) pairs for L-LINK, (embedding, vertex/component) pairs
    otherwise); running out yields an explicit budget_exceeded report, never
    a silent pass.
    """
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    facts = g if isinstance(g, GraphFacts) else GraphFacts(g)
    instances = _LEMMAS[lemma_id](facts)
    if instances is None:
        return LemmaReport(lemma_id, False)
    checked = 0
    # an instance is evaluated before the budget is looked at, so running
    # out costs at most one instance more than the budget allows
    for counterwitness in instances:
        if budget is not None and checked >= budget:
            return LemmaReport(lemma_id, True, budget_exceeded=True,
                               checked=checked)
        checked += 1
        if counterwitness is not None:
            return LemmaReport(lemma_id, True, False, counterwitness,
                               checked=checked)
    return LemmaReport(lemma_id, True, True, checked=checked)
