"""Correctness gate, written without the code under test.

Each check reads only the benchmark's own edge lists, the returned values
and the pinned facts, so a defect in the library cannot also hide itself
here.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def is_k4_subdivision(edges: Iterable[tuple[int, int]], vertices: Iterable[int]) -> bool:
    """Does the subgraph induced on ``vertices`` smooth to exactly K4?

    Repeatedly suppresses a degree-2 vertex whose two neighbours are not
    adjacent (replacing it by an edge between them).  A subdivision of K4
    ends as four vertices of degree three; anything else leaves a vertex of
    another degree, a cycle or a second component behind.
    """
    vs = set(vertices)
    nb: dict[int, set[int]] = {v: set() for v in vs}
    for u, v in edges:
        if u in vs and v in vs:
            nb[u].add(v)
            nb[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in sorted(nb):
            if len(nb[v]) != 2:
                continue
            a, b = sorted(nb[v])
            if b in nb[a]:
                continue
            del nb[v]
            nb[a].discard(v)
            nb[b].discard(v)
            nb[a].add(b)
            nb[b].add(a)
            changed = True
    return len(nb) == 4 and all(len(s) == 3 for s in nb.values())


def isk4_mask_ok(n: int, edges: Sequence[tuple[int, int]], mask) -> bool:
    """A mask returned by the detector names vertices of an induced K4
    subdivision."""
    if not isinstance(mask, int) or mask <= 0 or mask >> n:
        return False
    return is_k4_subdivision(edges, [v for v in range(n) if mask >> v & 1])


def coloring_ok(n: int, edges: Sequence[tuple[int, int]], color: Sequence[int],
                k: int) -> bool:
    """Proper colouring with at most four colours, read off the edge list."""
    if not 1 <= k <= 4 or len(color) != n:
        return False
    if any(not 0 <= c < k for c in color):
        return False
    return all(color[u] != color[v] for u, v in edges)


def scan_doc_ok(doc: str, consistent: bool, expect: tuple[int, int, int]) -> bool:
    """A scan report document: internally consistent, no check failed, no
    line failed to parse, and (read, isk4_free, contains_k123) equal to the
    pinned facts for its lines."""
    totals = json.loads(doc)["totals"]
    if not consistent or totals["parse_failures"] != 0:
        return False
    if any(by["fail"] != 0 for by in totals["checks"].values()):
        return False
    return (totals["read"], totals["isk4_free"], totals["contains_k123"]) == expect
