"""Compute the pinned per-line facts the scan workloads are checked against.

For every line of the 100k scan fixture and of the n <= 6 labeled universe,
records whether the graph is ISK4-free and whether it contains an induced
K_{1,2,3}.  Both facts come from the brute-force references in
``tests/oracles.py`` on graphs parsed by networkx, then are cross-checked
line by line against the library.  The result is ``bench/pins.json``; the
benchmark compares scan counts with it on every run.

Run from the repository root (needs networkx, like the tests):

    python3 bench/make_pins.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

import networkx as nx  # noqa: E402
import oracles  # noqa: E402

from bench.ladders import graph6  # noqa: E402
from bench.workloads import FIXTURE, UNIVERSE_MAX_N  # noqa: E402
from isk4lab.graphs import Graph, parse_graph6  # noqa: E402
from isk4lab.patterns import contains_induced, contains_isk4  # noqa: E402
from isk4lab.scan import enumerate_small  # noqa: E402

_K123 = Graph.complete_multipartite((1, 2, 3))


class _EdgeGraph:
    """The two attributes the oracles read, over a networkx graph."""

    def __init__(self, h: nx.Graph):
        self.n = h.number_of_nodes()
        self._edges = sorted(tuple(sorted(e)) for e in h.edges())

    def edges(self):
        return self._edges


def oracle_facts(line: str) -> tuple[bool, bool]:
    h = nx.from_graph6_bytes(line.encode())
    free = not oracles.has_isk4(_EdgeGraph(h))
    k123 = any(oracles.multipartite_part_sizes(h.subgraph(s)) == [1, 2, 3]
               for s in combinations(h.nodes, 6))
    return free, k123


def library_facts(line: str) -> tuple[bool, bool]:
    g = parse_graph6(line)
    return contains_isk4(g) is None, contains_induced(g, _K123) is not None


def pin(lines: list[str]) -> dict:
    free_bits = k123_bits = 0
    for i, line in enumerate(lines):
        facts = oracle_facts(line)
        if facts != library_facts(line):
            raise SystemExit(f"line {i + 1} {line!r}: oracle {facts} "
                             f"!= library {library_facts(line)}")
        free_bits |= facts[0] << i
        k123_bits |= facts[1] << i
    return {"lines": len(lines), "isk4_free": format(free_bits, "x"),
            "k123": format(k123_bits, "x")}


def universe_lines() -> list[str]:
    lines = []
    for n in range(1, UNIVERSE_MAX_N + 1):
        m = n * (n - 1) // 2
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for code in range(1 << m):
            lines.append(graph6(n, [pairs[p] for p in range(m) if code >> p & 1]))
    library = [x for n in range(1, UNIVERSE_MAX_N + 1) for x in enumerate_small(n)]
    if lines != library:
        raise SystemExit("enumerate_small disagrees with the independent encoder")
    return lines


def main() -> None:
    data = (ROOT / FIXTURE).read_bytes()
    stream = data.decode().splitlines()
    pins = {
        "scan_stream": {"path": FIXTURE,
                        "sha256": hashlib.sha256(data).hexdigest(),
                        **pin(stream)},
        "universe": pin(universe_lines()),
    }
    out = ROOT / "bench" / "pins.json"
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    for name, p in pins.items():
        print(f"{name}: {p['lines']} lines, "
              f"{int(p['isk4_free'], 16).bit_count()} ISK4-free, "
              f"{int(p['k123'], 16).bit_count()} with K123")


if __name__ == "__main__":
    main()
