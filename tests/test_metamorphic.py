"""Metamorphic tests past n = 7, where the brute-force oracles stop: every
yes/no answer, the chromatic number and the structural verdict (coloured,
or the refusal's kind and rule) are properties of the graph, so a
relabelled copy must get the same ones, and the structural recursion must
colour every relabelling of an ISK4-free graph."""

import random

import pytest

from isk4lab.coloring import (
    chromatic_number_exact,
    replay_trace,
    structural_four_coloring,
)
from isk4lab.decompose import (
    find_clique_cutset,
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from isk4lab.graphs import Graph, has_k4_minor, parse_graph6
from isk4lab.patterns import (
    _smoothing,
    contains_fixed,
    contains_induced,
    contains_isk4,
    find_maximal_k12n,
    find_rich_square,
)

from test_coloring import FOUR_CORES, PAST_N7, SQ_TWO_LINKS
from test_patterns import K123


# hosts on which the answers that G(n, p) graphs nearly always share come
# out the other way: a hole, a complete multipartite graph holding K33 and
# K222, and a square with two spanning links
STRUCTURED = [
    Graph.cycle(9),
    Graph.complete_multipartite((3, 3, 2)),
    SQ_TWO_LINKS,
]


def relabel_cases(count=60, seed=13):
    """Seeded G(n, p) graphs with n = 8..12 and p in [0.2, 0.5], then the
    STRUCTURED hosts, each with a seeded permutation of its vertices."""
    rng = random.Random(seed)
    hosts = []
    for _ in range(count):
        n = rng.randint(8, 12)
        p = rng.uniform(0.2, 0.5)
        hosts.append(Graph.from_edges(n, [(u, v) for u in range(n)
                                          for v in range(u + 1, n)
                                          if rng.random() < p]))
    for g in hosts + STRUCTURED:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g, perm


def structural_verdict(g):
    """The recursion's answer: "coloured", or the refusal's (kind, rule)."""
    out = structural_four_coloring(g)
    return "coloured" if isinstance(out, tuple) else (out.kind, out.rule)


def profile(g):
    """Every answer that must not depend on the vertex labels."""
    found = {
        "isk4": contains_isk4(g),
        **{name: contains_fixed(g, name)
           for name in ("K33", "K222", "prism", "wheel")},
        "K123": contains_induced(g, K123),
        "k12n": find_maximal_k12n(g, 2),
        "rich_square": find_rich_square(g),
        "clique_cutset": find_clique_cutset(g),
        "proper_2cutset": find_proper_2cutset(g),
        "multipartite": recognize_complete_multipartite(g),
        "line_graph": recognize_line_graph_subcubic(g),
    }
    return {"k4_minor": has_k4_minor(g),
            "hole": g.n >= 4 and _smoothing(g, g.vertex_mask, 0) is not None,
            **{name: out is not None for name, out in found.items()},
            "chi": chromatic_number_exact(g).k,
            "structural": structural_verdict(g)}


@pytest.mark.parametrize("g, perm", list(relabel_cases()))
def test_relabelling_keeps_every_answer(g, perm):
    assert profile(g.relabel(perm)) == profile(g)


# then the ISK4-free 4-cores, each taken whole by rule 5 or 6
ISK4_FREE_HOSTS = [parse_graph6(line) for line in PAST_N7] + \
    [g for g, _ in relabel_cases() if contains_isk4(g) is None] + \
    [g for g in map(parse_graph6, FOUR_CORES) if contains_isk4(g) is None]


@pytest.mark.parametrize("g", ISK4_FREE_HOSTS)
def test_isk4_free_hosts_colour_on_every_relabelling(g):
    rng = random.Random(g.code())
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        out = structural_four_coloring(h)
        assert isinstance(out, tuple), (perm, out)
        assert out[0].k <= 4 and replay_trace(h, out[1]) == out[0]
