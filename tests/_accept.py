"""Shared machinery for the acceptance sweeps.

The expensive verdicts (pattern freeness, lemma conclusions, oracle
comparisons) are isomorphism-invariant, so each is computed once per
isomorphism class and expanded to the labeled universe through a canonical
map.  For each n the map comes from one orbit walk: the labeled adjacency
codes are visited in ascending order, and each code not yet reached starts
a depth-first walk over its orbit under two relabelings (a transposition
and an n-cycle, which generate the full symmetric group), marking every
code reached with the starting code, the orbit's least.  Criteria that
depend on the labeling (the structural coloring run itself) still execute
per labeled graph.
"""

from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations

from isk4lab.graphs import Graph, is_connected
from isk4lab.patterns import contains_induced, contains_isk4

SUMMARY: list[str] = []

K123 = Graph.complete_multipartite((1, 2, 3))

# graphs / connected graphs on n vertices up to isomorphism, n = 1..7
CLASS_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
CONNECTED_CLASS_COUNTS = (1, 1, 2, 6, 21, 112, 853)


def record(line: str):
    SUMMARY.append(line)
    print(line)


def _slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _chunk_tables(n: int, perm: tuple[int, ...]) -> list[list[int]]:
    """Relabeling v -> perm[v] on codes, as three lookup tables: the code
    of c relabeled is the OR of tables[k][chunk k of c], chunk k being bits
    7k to 7k + 6 of c."""
    slot = {pair: p for p, pair in enumerate(_slots(n))}
    image = [slot[min(perm[a], perm[b]), max(perm[a], perm[b])]
             for a, b in _slots(n)]
    chunks = [image[lo:lo + 7] for lo in (0, 7, 14)]
    return [[sum(1 << p for i, p in enumerate(chunk) if c >> i & 1)
             for c in range(1 << len(chunk))] for chunk in chunks]


@lru_cache(maxsize=None)
def canon_map(n: int) -> array:
    """canon[c] = least labeled code isomorphic to code c."""
    assert n <= 7, "three seven-bit chunks hold the 21 slots of n = 7"
    (a0, a1, a2), (b0, b1, b2) = (
        _chunk_tables(n, perm)
        for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)))
    canon = array("i", [-1]) * (1 << (n * (n - 1) // 2))
    for start in range(len(canon)):
        if canon[start] >= 0:
            continue
        canon[start] = start
        stack = [start]
        while stack:
            c = stack.pop()
            lo, mid, hi = c & 127, c >> 7 & 127, c >> 14
            for d in (a0[lo] | a1[mid] | a2[hi], b0[lo] | b1[mid] | b2[hi]):
                if canon[d] < 0:
                    canon[d] = start
                    stack.append(d)
    return canon


@lru_cache(maxsize=None)
def class_reps(n: int) -> tuple[int, ...]:
    return tuple(c for c, rep in enumerate(canon_map(n)) if c == rep)


def class_size(n: int) -> Counter:
    """Labeled count of each code's class, indexed by representative code."""
    return Counter(canon_map(n))


@lru_cache(maxsize=None)
def rep_graphs(n: int) -> dict[int, Graph]:
    return {code: Graph.from_code(n, code) for code in class_reps(n)}


@lru_cache(maxsize=None)
def rep_flags(n: int) -> dict[int, dict]:
    """Iso-invariant flags per class representative."""
    out = {}
    for code, g in rep_graphs(n).items():
        out[code] = {"connected": is_connected(g),
                     "isk4_free": contains_isk4(g) is None,
                     "k123": contains_induced(g, K123) is not None}
    return out


def labeled_codes_where(n: int, pred) -> list[int]:
    """All labeled codes whose class satisfies the predicate on its flags."""
    ok = {code for code, flags in rep_flags(n).items() if pred(flags)}
    return [c for c, rep in enumerate(canon_map(n)) if rep in ok]


def _edges_connected(es: tuple, k: int) -> bool:
    seen = {es[0][0]}
    grow = True
    while grow:
        grow = False
        for u, v in es:
            if (u in seen) != (v in seen):
                seen.update((u, v))
                grow = True
    return len(seen) == k


@lru_cache(maxsize=None)
def subcubic_line_graph_codes(m: int) -> frozenset:
    """Canonical codes of the line graphs of every connected max-degree-3
    root with exactly m edges, by unpruned enumeration of all edge subsets
    over every feasible vertex count."""
    canon = canon_map(m)
    pair_slots = [(i, j) for j in range(1, m) for i in range(j)]
    out = set()
    for k in range(2, m + 2):
        slots = list(combinations(range(k), 2))
        if len(slots) < m:
            continue
        for es in combinations(slots, m):
            deg = [0] * k
            ok = True
            for u, v in es:
                deg[u] += 1
                deg[v] += 1
                if deg[u] > 3 or deg[v] > 3:
                    ok = False
                    break
            if not ok or 0 in deg or not _edges_connected(es, k):
                continue
            code = 0
            for p, (i, j) in enumerate(pair_slots):
                a, b = es[i], es[j]
                if a[0] in b or a[1] in b:
                    code |= 1 << p
            out.add(canon[code])
    return frozenset(out)
