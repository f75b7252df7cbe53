"""Shared machinery for the acceptance sweeps.

The expensive verdicts (pattern freeness, lemma conclusions, oracle
comparisons) are isomorphism-invariant, so each is computed once per
isomorphism class and expanded to the labeled universe through a canonical
map.  The map itself is built vectorized: for each n, every labeled
adjacency code is driven to the minimum code in its orbit by repeated
min-propagation along two generating relabelings (a transposition and an
n-cycle), which converges because those two generate the full symmetric
group.  Criteria that depend on the labeling (the structural coloring run
itself) still execute per labeled graph.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

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


def _transform(n: int, perm: tuple[int, ...]) -> np.ndarray:
    """T with T[c] = adjacency code of c after relabeling v -> perm[v]."""
    slot = {pair: p for p, pair in enumerate(_slots(n))}
    inv = [0] * n
    for v, w in enumerate(perm):
        inv[w] = v
    codes = np.arange(1 << len(slot), dtype=np.int32)
    out = np.zeros_like(codes)
    for p, (a, b) in enumerate(_slots(n)):
        u, v = sorted((inv[a], inv[b]))
        out |= ((codes >> slot[(u, v)]) & 1) << p
    return out


@lru_cache(maxsize=None)
def canon_map(n: int) -> np.ndarray:
    """canon[c] = least labeled code isomorphic to code c."""
    if n == 1:
        return np.zeros(1, dtype=np.int32)
    gens = [tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0])]
    trans = [_transform(n, g) for g in gens]
    canon = np.arange(1 << (n * (n - 1) // 2), dtype=np.int32)
    while True:
        before = canon
        for t in trans:
            canon = np.minimum(canon, canon[t])
        if np.array_equal(canon, before):
            return canon


@lru_cache(maxsize=None)
def class_reps(n: int) -> tuple[int, ...]:
    canon = canon_map(n)
    return tuple(np.flatnonzero(
        canon == np.arange(len(canon), dtype=np.int32)).tolist())


def class_size(n: int) -> np.ndarray:
    """Labeled count of each code's class, indexed by representative code."""
    return np.bincount(canon_map(n))


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


def labeled_codes_where(n: int, pred) -> np.ndarray:
    """All labeled codes whose class satisfies the predicate on its flags."""
    canon = canon_map(n)
    ok = np.zeros(len(canon), dtype=bool)
    for code, flags in rep_flags(n).items():
        if pred(flags):
            ok[code] = True
    return np.flatnonzero(ok[canon])


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
            out.add(int(canon[code]))
    return frozenset(out)
