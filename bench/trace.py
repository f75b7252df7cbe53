"""Spans around the calls between isk4lab's layers, recorded from outside.

``Tracer.install`` rebinds the public functions that one module of the
package imports from another (``isk4lab.lemmas.contains_isk4``,
``isk4lab.coloring.find_clique_cutset``, ``isk4lab.scan.parse_graph6`` and so
on) to wrappers that record a span per call.  A span has a name, a start, an
end and a parent; spans stay in memory until ``write`` saves them.  No file
of the package changes, and ``restore`` puts every original back.  Spans
nest by call order, so traced runs must be serial.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, on_result=None, drain: bool = False):
        """``fn`` inside a span.  ``name`` is a string or a function of the
        call's arguments; ``on_result(out, *args)`` records counts after the
        span ends; ``drain`` consumes a returned generator inside the span
        and hands back an iterator over the same items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = iter(list(out))
            finally:
                self.close(i)
            if on_result is not None:
                on_result(out, *args)
            return out

        return traced

    def rebind(self, owner, attr: str, name, **kw) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the package's layer boundaries ------------------------------------

    def install(self, lib) -> None:
        """Rebind every traced boundary of the freshly imported package."""
        scan, lemmas, coloring, patterns = lib.scan, lib.lemmas, lib.coloring, lib.patterns
        c = self.counts

        def hit(key):
            def record(out, *args):
                c[key + ".calls"] += 1
                c[key + ".hits"] += out is not None
            return record

        def lemma_report(rep, g, lemma_id, *rest):
            c["lemmas.calls"] += 1
            c["lemmas.checked"] += rep.checked
            c["lemmas.hypothesis"] += rep.hypothesis_satisfied
            c["lemmas.budget"] += rep.budget_exceeded

        def rules(out, *args):
            if isinstance(out, tuple):
                c.update("coloring.rule." + r for r in out[1].rules())

        isk4 = "patterns.contains_isk4"
        # callers the benchmark itself makes
        self.rebind(patterns, "contains_isk4", isk4)
        self.rebind(coloring, "structural_four_coloring", "coloring.structural",
                    on_result=rules)
        self.rebind(coloring, "replay_trace", "coloring.replay")
        self.rebind(scan, "scan_stream", "scan")
        self.rebind(scan.ScanReport, "to_json", "scan.to_json")
        # scan -> graphs, patterns, lemmas, coloring
        self.rebind(scan, "parse_graph6", "graphs.parse_graph6")
        self.rebind(scan, "contains_isk4", isk4)
        self.rebind(scan, "contains_induced", "patterns.contains_induced")
        self.rebind(scan, "check_lemma", lambda g, lemma_id, **kw: "lemmas." + lemma_id,
                    on_result=lemma_report)
        self.rebind(scan, "chromatic_number_exact", "coloring.exact")
        self.rebind(scan, "structural_four_coloring", "coloring.structural",
                    on_result=rules)
        # lemmas -> patterns, and the linkage search inside lemmas
        self.rebind(lemmas, "contains_isk4", isk4)
        self.rebind(lemmas, "contains_fixed", "patterns.contains_fixed")
        self.rebind(lemmas, "iter_maximal_k12n", "patterns.k12n", drain=True)
        self.rebind(lemmas, "is_linked", "lemmas.is_linked")
        # coloring -> decompose, patterns, graphs, and its exact fallback
        self.rebind(coloring, "find_clique_cutset", "decompose.find_clique_cutset",
                    on_result=hit("decompose.find_clique_cutset"))
        self.rebind(coloring, "find_proper_2cutset", "decompose.find_proper_2cutset",
                    on_result=hit("decompose.find_proper_2cutset"))
        self.rebind(coloring, "recognize_complete_multipartite", "decompose.recognize")
        self.rebind(coloring, "recognize_line_graph_subcubic", "decompose.recognize")
        self.rebind(coloring, "induced_subgraph", "graphs.induced_subgraph")
        self.rebind(coloring, "contains_isk4", isk4)
        self.rebind(coloring, "contains_fixed", "patterns.contains_fixed")
        self.rebind(coloring, "find_maximal_k12n", "patterns.k12n")
        self.rebind(coloring, "find_rich_square", "patterns.find_rich_square")
        self.rebind(coloring, "chromatic_number_exact", "coloring.exact")
        # patterns -> graphs
        self.rebind(patterns, "induced_subgraph", "graphs.induced_subgraph")

    # -- results -----------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name.  Self time is a span's
        duration minus the time its child spans cover."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            self_s[key] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path: Path, meta: dict) -> None:
        """Save every span as gzip'd JSON: parallel arrays indexed by span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": self.names, "name": list(self.name),
               "parent": list(self.parent), "start": list(self.start),
               "end": list(self.end)}
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
