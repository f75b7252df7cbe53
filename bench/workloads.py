"""The four workloads: inputs built from the seed, the timed call per unit
of work, and the gate each unit's output must pass.

A unit is one call a user would wait for: one scan over a workload's whole
input, or one detector or colouring call on one graph.  Units come in passes
of fixed composition, and a run stops only at the end of a pass, so every
run of a workload measures the same mix whatever the machine's speed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from bench import gate, ladders

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "tests/fixtures/scan_stream_100k.g6"
PINS = ROOT / "bench" / "pins.json"
UNIVERSE_MAX_N = 6
STREAM_WINDOW = 2000  # fixture lines in one scan-stream call


@dataclass
class Unit:
    graphs: int  # graphs the unit's call works on
    data: Any    # call input
    expect: Any  # what the gate compares the output with


def load_pins(name: str) -> dict:
    p = json.loads(PINS.read_text())[name]
    return {"lines": p["lines"], "isk4_free": int(p["isk4_free"], 16),
            "k123": int(p["k123"], 16)}


def scan_unit(lines: list[str], pins: dict, lo: int, size: int) -> Unit:
    """A scan of lines[lo:lo + size], expecting the pinned (read, isk4_free,
    contains_k123) counts of those lines."""
    if len(lines) != pins["lines"]:
        raise RuntimeError("input lines do not match bench/pins.json")
    window = (1 << size) - 1
    return Unit(size, lines[lo:lo + size],
                (size, (pins["isk4_free"] >> lo & window).bit_count(),
                 (pins["k123"] >> lo & window).bit_count()))


class Workload:
    name: str
    pass_units: int  # units per pass
    min_units = 100  # units a run needs at least: p90 needs ten above it

    def setup(self, lib, seed: int) -> list[Unit]:
        raise NotImplementedError

    def config(self, lib):
        """Call settings shared by every unit."""
        return None

    def call(self, lib, cfg, unit: Unit, tick):
        """The timed call; a call that lasts long may run ``tick()`` between
        steps (see bench/speed.py)."""
        raise NotImplementedError

    def failed(self, unit: Unit, out) -> int:
        """Graphs of the unit whose output fails the gate."""
        raise NotImplementedError


class _Scan(Workload):
    """One scan_stream call plus to_json over the whole input, in one
    process: the unit is the scan a user runs, so a run repeats it and its
    latency is the time of the whole scan."""

    pass_units = 1
    min_units = 1
    checks: tuple[str, ...]

    def config(self, lib):
        return lib.scan.ScanConfig(checks=self.checks)

    def call(self, lib, cfg, unit: Unit, tick):
        def lines():
            for line in unit.data:
                tick()
                yield line

        report = lib.scan.scan_stream(lines(), cfg)
        return report.consistent(), report.to_json()

    def failed(self, unit: Unit, out) -> int:
        consistent, doc = out
        return 0 if gate.scan_doc_ok(doc, consistent, unit.expect) else unit.graphs


class ScanStream(_Scan):
    """A seeded contiguous window of STREAM_WINDOW lines of the 100k
    fixture, all six checks."""

    name = "scan-stream"
    checks = ("ISK4-FILTER", "CHI-LE-4", "L-LINK", "L-VOH", "L-COMP",
              "STRUCTURAL-COLOR")

    def setup(self, lib, seed: int) -> list[Unit]:
        lines = (ROOT / FIXTURE).read_text().splitlines()
        lo = random.Random(seed).randrange(len(lines) - STREAM_WINDOW + 1)
        return [scan_unit(lines, load_pins("scan_stream"), lo, STREAM_WINDOW)]


class ScanUniverse(_Scan):
    """Every labeled graph on n <= 6 from enumerate_small, three cheap
    checks.  The input is the same for every seed.  One process: with two
    workers and their parent on a 2-vCPU host the scan's time measured the
    scheduler more than the scan."""

    name = "scan-universe"
    checks = ("ISK4-FILTER", "CHI-LE-4", "STRUCTURAL-COLOR")

    def setup(self, lib, seed: int) -> list[Unit]:
        lines = [x for n in range(1, UNIVERSE_MAX_N + 1)
                 for x in lib.scan.enumerate_small(n)]
        return [scan_unit(lines, load_pins("universe"), 0, len(lines))]


# (ISK4-free, planted) graphs per rung in one pass: 74 graphs.  A graph's
# cost doubles with each vertex and a planted graph costs a little less than
# an ISK4-free one of the same n, so the rungs form separate latency groups.
# The weights centre p50 in the ISK4-free n = 12 group (the 19th to 57th
# graph of a pass) and p90 in the n = 16 group (the 64th to 70th), so the
# percentiles do not jump between groups when load from outside shifts a
# few graphs; the n = 17 and 18 graphs stay above p90.
DETECT_RUNGS = {8: (2, 2), 9: (2, 2), 10: (2, 2), 11: (2, 2), 12: (39, 2),
                13: (1, 1), 14: (1, 1), 15: (1, 1), 16: (4, 3), 17: (1, 1),
                18: (1, 1)}
DETECT_PASSES = 8


class LadderDetect(Workload):
    """One contains_isk4 call per graph: partial 2-trees (ISK4-free, the
    search runs to the end) and planted subdivided K4s with pendant trees
    (the search stops at its first witness), n = 8..18."""

    name = "ladder-detect"
    pass_units = sum(map(sum, DETECT_RUNGS.values()))

    def setup(self, lib, seed: int) -> list[Unit]:
        rng = random.Random(seed)
        units = []
        for _ in range(DETECT_PASSES):
            graphs = []
            for n, (free, planted) in DETECT_RUNGS.items():
                graphs += [(n, ladders.partial_2tree(rng, n)[1], False) for _ in range(free)]
                graphs += [(n, ladders.planted_isk4(rng, n)[1], True) for _ in range(planted)]
            # spread each rung over the pass, so that the graphs p50 and p90
            # fall on meet the machine throughout a run, not in one stretch
            rng.shuffle(graphs)
            for n, edges, positive in graphs:
                g = lib.graphs.parse_graph6(ladders.graph6(n, edges))
                units.append(Unit(1, g, (n, edges, positive)))
        return units

    def call(self, lib, cfg, unit: Unit, tick):
        return lib.patterns.contains_isk4(unit.data)

    def failed(self, unit: Unit, mask) -> int:
        n, edges, positive = unit.expect
        ok = gate.isk4_mask_ok(n, edges, mask) if positive else mask is None
        return 0 if ok else 1


# Faces of at most ten vertices keep the chordless-cycle pieces, whose prism
# search costs 2^length, to a tail of tens of milliseconds; longer faces give
# single graphs of seconds (see bench/README.md).
COLOR_RUNGS = range(20, 41, 2)
COLOR_MAX_FACE = 10
COLOR_PASSES = 80


class LadderColor(Workload):
    """structural_four_coloring then replay_trace per graph, on 2-connected
    series-parallel graphs with n = 20..40."""

    name = "ladder-color"
    pass_units = len(COLOR_RUNGS)

    def setup(self, lib, seed: int) -> list[Unit]:
        rng = random.Random(seed)
        units = []
        for _ in range(COLOR_PASSES):
            for n in COLOR_RUNGS:
                _, edges = ladders.series_parallel(rng, n, COLOR_MAX_FACE)
                g = lib.graphs.parse_graph6(ladders.graph6(n, edges))
                units.append(Unit(1, g, (n, edges)))
        return units

    def call(self, lib, cfg, unit: Unit, tick):
        out = lib.coloring.structural_four_coloring(unit.data)
        if not isinstance(out, tuple):
            return out, None
        return out, lib.coloring.replay_trace(unit.data, out[1])

    def failed(self, unit: Unit, out) -> int:
        n, edges = unit.expect
        found, replayed = out
        if not isinstance(found, tuple):
            return 1
        col = found[0]
        ok = gate.coloring_ok(n, edges, col.color, col.k) and \
            replayed.color == col.color and replayed.k == col.k
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (ScanStream(), ScanUniverse(),
                                 LadderDetect(), LadderColor())}
