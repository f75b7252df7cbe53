"""Bulk verification: stream graph6 lines, run selected checks on each
graph, and fold a deterministic machine-readable report.

Work is split per input line; aggregation folds worker results in input
order, so the serialized report is byte-identical no matter how many
workers ran.  The report holds no wall time; the CLI times its own call.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass, field
from functools import cached_property, partial
from multiprocessing import Pool
from typing import Iterable, Iterator, Optional

from . import __version__
from .coloring import ColoringFailure, chromatic_number_exact, structural_four_coloring
from .graphs import Graph, GraphFormatError, code_to_graph6, is_connected, parse_graph6
from .lemmas import LEMMA_IDS, GraphFacts, check_lemma
from .patterns import (
    contains_induced,
    contains_isk4,  # noqa: F401  bench/trace.py rebinds it here
)

CHECKS = ("ISK4-FILTER", "CHI-LE-4", *LEMMA_IDS, "STRUCTURAL-COLOR")
STATUSES = ("pass", "fail", "skip", "budget")

_K123 = Graph.complete_multipartite((1, 2, 3))

# The structural colouring's piece memo, shared by the graphs of one scan
# in one process (see structural_four_coloring); scan_stream empties it at
# start and end, so pool workers fork with it empty.
_PIECES: dict = {}

# A report keeps this many failure witnesses per check and counts the rest.
WITNESS_CAP = 100


@dataclass(frozen=True)
class ScanConfig:
    checks: tuple[str, ...]
    budget: int = 20000
    parallelism: int = 1

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(sorted(set(self.checks))))
        if not self.checks:
            raise ValueError("at least one check must be enabled")
        unknown = set(self.checks) - set(CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


def _blank_counters(checks: tuple[str, ...]) -> dict:
    return {"read": 0, "isk4_free": 0, "contains_k123": 0,
            "checks": {c: {s: 0 for s in STATUSES} for c in checks}}


@dataclass
class ScanReport:
    """Aggregated scan outcome; to_json() is the deterministic document."""

    config: ScanConfig
    per_n: dict[int, dict] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    parse_failures: int = 0
    internal_errors: int = 0
    suppressed: dict[str, int] = field(default_factory=dict)

    def totals(self) -> dict:
        tot = _blank_counters(self.config.checks)
        for counters in self.per_n.values():
            tot["read"] += counters["read"]
            tot["isk4_free"] += counters["isk4_free"]
            tot["contains_k123"] += counters["contains_k123"]
            for c, by in counters["checks"].items():
                for s, v in by.items():
                    tot["checks"][c][s] += v
        tot["parse_failures"] = self.parse_failures
        tot["witnesses_suppressed"] = dict(sorted(self.suppressed.items()))
        return tot

    def consistent(self) -> bool:
        """read = pass + fail + skip + budget for every check at every n."""
        for counters in self.per_n.values():
            for by in counters["checks"].values():
                if sum(by.values()) != counters["read"]:
                    return False
        kept: dict[str, int] = {}
        for w in self.failures:
            kept[w["check"]] = kept.get(w["check"], 0) + 1
        if any(v > WITNESS_CAP for v in kept.values()):
            return False
        tot = self.totals()
        recorded = kept.copy()
        for c, extra in self.suppressed.items():
            recorded[c] = recorded.get(c, 0) + extra
        for c in self.config.checks:
            if tot["checks"][c]["fail"] != recorded.get(c, 0):
                return False
        return recorded.get("parse", 0) == self.parse_failures and \
            recorded.get("internal_error", 0) == self.internal_errors

    def to_json(self) -> str:
        doc = {
            "meta": {"version": __version__,
                     "checks": list(self.config.checks),
                     "budget": self.config.budget,
                     "witness_cap": WITNESS_CAP},
            "per_n": [dict(n=n, **self.per_n[n]) for n in sorted(self.per_n)],
            "failures": self.failures,
            "totals": self.totals(),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ": "))


class _ScanFacts(GraphFacts):
    """GraphFacts plus the STRUCTURAL-COLOR verdict, which CHI-LE-4 reuses."""

    @cached_property
    def structural(self) -> tuple[str, Optional[dict]]:
        out = structural_four_coloring(self.g, pieces=_PIECES)
        if isinstance(out, ColoringFailure):
            return "fail", {
                "kind": out.kind, "rule": out.rule, "evidence": out.evidence,
                "conjecture_counterexample": out.conjecture_counterexample}
        if out.k > 4 or not out.validate(self.g):
            return "fail", {"reason": "returned colouring failed validation"}
        return "pass", None


def _run_check(name: str, facts: _ScanFacts, cfg: ScanConfig
               ) -> tuple[str, Optional[dict]]:
    free = facts.isk4 is None
    if name == "ISK4-FILTER":
        # a filter, not an assertion: graphs with an ISK4 are skipped
        return ("pass", None) if free else ("skip", None)
    if not free and name in ("CHI-LE-4", "STRUCTURAL-COLOR"):
        return "skip", None
    if name == "CHI-LE-4":
        # a colouring that passed STRUCTURAL-COLOR certifies chi <= 4
        if "STRUCTURAL-COLOR" in cfg.checks and facts.structural[0] == "pass":
            return "pass", None
        if chromatic_number_exact(facts.g, 4) is None:
            return "fail", {"reason": "chromatic number exceeds four",
                            "bound": 4}
        return "pass", None
    if name == "STRUCTURAL-COLOR":
        return facts.structural
    report = check_lemma(facts, name, budget=cfg.budget)
    if not report.hypothesis_satisfied:
        return "skip", None
    if report.budget_exceeded:
        return "budget", None
    if report.conclusion_holds:
        return "pass", None
    return "fail", {"counterwitness": report.counterwitness,
                    "checked": report.checked}


def _scan_one(cfg: ScanConfig, item: tuple[int, str]) -> dict:
    line_no, line = item
    text = line.strip()
    try:
        g = parse_graph6(text)
    except GraphFormatError as exc:
        return {"line_no": line_no, "g6": text, "error": str(exc)}
    try:
        # one set of facts per graph, shared by every check, stays in the worker
        facts = _ScanFacts(g)
        return {
            "line_no": line_no, "g6": text, "n": g.n,
            "isk4_free": facts.isk4 is None,
            "k123": contains_induced(g, _K123) is not None,
            "checks": {name: _run_check(name, facts, cfg)
                       for name in cfg.checks},
        }
    except Exception as exc:  # a fault in a check must not end the scan
        traceback.print_exc(file=sys.stderr)
        return {"line_no": line_no, "g6": text,
                "internal_error": {"type": type(exc).__name__,
                                   "message": str(exc)}}


def _fold(results: Iterable[dict], cfg: ScanConfig) -> ScanReport:
    report = ScanReport(cfg)
    kept: dict[str, int] = {}

    def witness(res: dict, check: str, evidence: dict):
        if kept.get(check, 0) < WITNESS_CAP:
            kept[check] = kept.get(check, 0) + 1
            report.failures.append({"line_no": res["line_no"],
                                    "graph6": res["g6"], "check": check,
                                    "evidence": evidence})
        else:
            report.suppressed[check] = report.suppressed.get(check, 0) + 1

    for res in results:
        if "error" in res:
            report.parse_failures += 1
            witness(res, "parse", {"reason": res["error"]})
            continue
        if "internal_error" in res:
            report.internal_errors += 1
            witness(res, "internal_error", res["internal_error"])
            continue
        counters = report.per_n.get(res["n"])
        if counters is None:
            counters = report.per_n[res["n"]] = _blank_counters(cfg.checks)
        counters["read"] += 1
        counters["isk4_free"] += res["isk4_free"]
        counters["contains_k123"] += res["k123"]
        for name, (status, evidence) in res["checks"].items():
            counters["checks"][name][status] += 1
            if status == "fail":
                witness(res, name, evidence)
    return report


def scan_stream(lines: Iterable[str], cfg: ScanConfig) -> ScanReport:
    """Parse, check and count every line; malformed lines are recorded as
    parse failures and the scan continues.  A line whose checks raise is
    not counted in per_n; it becomes an internal_error witness with the
    exception's type and message, and the scan continues."""
    items = enumerate(lines, start=1)
    _PIECES.clear()
    try:
        if cfg.parallelism == 1:
            report = _fold(map(partial(_scan_one, cfg), items), cfg)
        else:
            with Pool(cfg.parallelism) as pool:
                # ordered imap keeps the fold independent of worker scheduling
                report = _fold(pool.imap(partial(_scan_one, cfg), items,
                                         chunksize=64), cfg)
    finally:
        _PIECES.clear()
    assert report.consistent()
    return report


def enumerate_small(n: int, connected: bool = False) -> Iterator[str]:
    """Every labeled graph on n vertices as graph6, one line per adjacency
    code, 2^(n(n-1)/2) lines total; no isomorphism rejection."""
    if not 1 <= n <= 7:
        raise ValueError("enumerate_small handles 1 <= n <= 7")
    for code in range(1 << (n * (n - 1) // 2)):
        if connected and not is_connected(Graph.from_code(n, code)):
            continue
        yield code_to_graph6(n, code)
