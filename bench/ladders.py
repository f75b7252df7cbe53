"""Seeded graph families for the ladder workloads.

Every family guarantees its class by construction, so no generator ever asks
the code under test what it produced:

* ``partial_2tree``: a subgraph of a 2-tree.  2-trees have no K4 minor, an
  induced subdivision of K4 is a K4 minor, so the graph is ISK4-free.
* ``planted_isk4``: a K4 with subdivided edges, plus pendant trees.  Pendant
  vertices add no edge between core vertices, so the core induces a
  subdivision of K4.
* ``series_parallel``: a 2-connected series-parallel graph grown by ear
  operations on a plane embedding, with every face at most ``max_face``
  long.  It has no K4 minor, so it is ISK4-free.

All generators return ``(n, edges)`` with vertices relabelled at random
(``planted_isk4`` within its core and within its trees), and ``graph6``
encodes with the benchmark's own writer.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def _relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def partial_2tree(rng: random.Random, n: int) -> tuple[int, Edges]:
    """Subcubic partial 2-tree on n >= 2 vertices.

    Each new vertex joins both ends of a random edge whose ends both have
    degree below three (a 2-tree step) or, when no such edge is left, one
    vertex of degree below three (a 2-tree step with one edge dropped).
    With every degree at most three the subset search cannot prune, so its
    cost depends on n and hardly on the graph drawn.
    """
    deg = [1, 1] + [0] * (n - 2)
    edges = [(0, 1)]
    for v in range(2, n):
        free = [(u, w) for u, w in edges if deg[u] < 3 and deg[w] < 3]
        if free:
            ends = rng.choice(free)
        else:
            ends = (rng.choice([u for u in range(v) if deg[u] < 3]),)
        for u in ends:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, _relabel(rng, n, edges)


def planted_isk4(rng: random.Random, n: int) -> tuple[int, Edges, list[int]]:
    """K4 with up to six of its edges subdivided once (as many as leave room
    for one pendant vertex), then pendant-tree vertices up to n >= 5, each
    joined to a vertex of degree below three.

    The core takes the highest labels, so the detector's search, which
    walks vertex sets in lexicographic order, meets the core only after
    the sets of tree vertices.  Also returns the core vertex set, which
    induces a subdivision of K4 and is the only one in the graph.
    """
    if n < 5:
        raise ValueError("planted_isk4 needs n >= 5")
    subdivided = min(6, n - 5)
    edges: Edges = []
    nxt = 4
    for k, (a, b) in enumerate((a, b) for a in range(4) for b in range(a + 1, 4)):
        if k < subdivided:
            edges += [(a, nxt), (nxt, b)]
            nxt += 1
        else:
            edges.append((a, b))
    core = nxt
    deg = [3] * 4 + [2] * (core - 4) + [0] * (n - core)
    for v in range(core, n):
        u = rng.choice([u for u in range(v) if deg[u] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    low = list(range(n - core))
    high = list(range(n - core, n))
    rng.shuffle(low)
    rng.shuffle(high)
    perm = high + low  # old core vertices 0..core-1 take the high labels
    relabelled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    return n, relabelled, sorted(high)


def series_parallel(rng: random.Random, n: int, max_face: int) -> tuple[int, Edges]:
    """2-connected series-parallel graph on n >= 3 vertices.

    Starts from a triangle and grows it on a plane embedding.  Each step
    picks an edge uv and one of its two faces that has room left, then
    either replaces uv by a longer path (a series step, which lengthens both
    faces at uv; taken with probability 0.4 when the other face has room
    too) or adds a new u-v path beside uv (a parallel ear, which opens a face
    of the ear's length plus one and lengthens the picked face).  No step
    makes a face longer than ``max_face``, which bounds the chordless cycles
    the recursion has to colour.  If every face is full before n vertices
    exist, growth starts again from a triangle.
    """
    if max_face < 4:
        raise ValueError("max_face must be at least 4")
    if n < 3:
        raise ValueError("series_parallel needs n >= 3")
    while True:
        edges: list[list[int]] = [[0, 1, 0, 1], [1, 2, 0, 1], [0, 2, 0, 1]]
        face_len = [3, 3]
        nv = 3
        while nv < n:
            slots = [(i, f) for i, e in enumerate(edges) for f in e[2:]
                     if face_len[f] < max_face]
            if not slots:
                break  # every face is full: start again
            i, far = rng.choice(slots)
            u, v, f1, f2 = edges[i]
            near = f2 if far == f1 else f1
            if rng.random() < 0.4 and face_len[near] < max_face:
                ear = rng.randint(1, min(n - nv, max_face - max(face_len[f1],
                                                               face_len[f2])))
                face_len[f1] += ear
                face_len[f2] += ear
                path = [u] + list(range(nv, nv + ear)) + [v]
                del edges[i]
                edges += [[a, b, f1, f2] for a, b in zip(path, path[1:])]
            else:
                ear = rng.randint(1, min(n - nv, max_face - face_len[far],
                                         max_face - 2))
                face_len[far] += ear
                new = len(face_len)
                face_len.append(ear + 2)
                path = [u] + list(range(nv, nv + ear)) + [v]
                edges[i] = [u, v, near, new]
                edges += [[a, b, new, far] for a, b in zip(path, path[1:])]
            nv += ear
        if nv == n:
            return n, _relabel(rng, n, [(u, v) for u, v, _, _ in edges])


def graph6(n: int, edges: Edges) -> str:
    """Short-form graph6 (n <= 62): column-major upper triangle, 6 bits a
    character, most significant bit first."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 short form needs 0 <= n <= 62")
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)
