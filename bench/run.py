"""Run one isk4lab benchmark workload and print its metrics.

    python3 bench/run.py --workload scan-stream --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment.  With ``--trace 0`` the metrics are the end-to-end ones,
with every time scaled to the reference speed of bench/speed.py.  With
``--trace 1`` each unit runs once untraced and once traced, and the metrics
are the per-layer ones; the spans go to ``.bench_out/``.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from bench.speed import Speed  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
LAYERS = ("graphs", "patterns", "decompose", "lemmas", "coloring", "scan")
LEMMA_IDS = ("L-LINK", "L-VOH", "L-COMP")
RULES = ("Trivial", "CliqueCutsetSplit", "Proper2CutsetSplit", "Multipartite",
         "SubcubicLineGraph", "RichSquare", "K12nPeel", "ExactFallback")


def import_fresh() -> SimpleNamespace:
    """Import the package's layers from src/, dropping any earlier import so
    that the time counts again."""
    for name in [m for m in sys.modules if m.split(".")[0] == "isk4lab"]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module("isk4lab." + m)
                             for m in LAYERS})
    if not Path(lib.graphs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"isk4lab imported from {lib.graphs.__file__}, not {SRC}")
    return lib


def set_up(workload, seed: int, speed: Speed):
    """Import and build the inputs SETUP_REPEATS times; keep the last.  The
    time is the median, at reference speed."""
    spans = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        lib = import_fresh()
        units = workload.setup(lib, seed)
        spans.append((t0, time.perf_counter()))
    speed.sample()
    return lib, units, statistics.median(speed.scaled(*s) for s in spans)


class Runner:
    """Closed loop with one caller over a workload's units.  Only the call
    is timed; the gate checks every output right after it.  With a
    ``speed``, reference samples fall between calls and inside long ones."""

    def __init__(self, workload, lib, cfg, keep: bool, speed: Speed | None):
        self.workload, self.lib, self.cfg, self.keep = workload, lib, cfg, keep
        self.speed = speed
        self.tick = speed.due if speed else lambda: None

    def call(self, unit) -> list:
        """One timed call: [unit, (start, end), failed graphs, output if
        kept]."""
        self.tick()
        t0 = time.perf_counter()
        try:
            out = self.workload.call(self.lib, self.cfg, unit, self.tick)
        except Exception:
            traceback.print_exc()
            return [unit, (t0, time.perf_counter()), unit.graphs, None]
        span = (t0, time.perf_counter())
        return [unit, span, self.workload.failed(unit, out), out if self.keep else None]

    def fill(self, units, seconds: float, tracer: Tracer | None = None,
             at_least: int = 1):
        """Whole passes of units until there are ``at_least`` units and
        another pass would end further after ``seconds`` than the loop ends
        now before it.  With a tracer, each unit runs untraced and then
        traced, so both calls meet the same machine load.  Returns the
        untraced rows and the traced ones."""
        rows, traced = [], []
        start = now = time.perf_counter()
        last = 0.0  # duration of the last pass
        while len(rows) < at_least or now - start + last / 2 < seconds:
            begin = time.perf_counter()
            for _ in range(self.workload.pass_units):
                unit = units[len(rows) % len(units)]
                rows.append(self.call(unit))
                if tracer is not None:
                    tracer.install(self.lib)
                    try:
                        traced.append(self.call(unit))
                    finally:
                        tracer.restore()
            now = time.perf_counter()
            last = now - begin
        return rows, traced

    def scaled(self, rows: list[list]) -> list[float]:
        """Each call's time at reference speed."""
        self.speed.sample()
        return [self.speed.scaled(*row[1]) for row in rows]

    @staticmethod
    def wall(rows: list[list]) -> float:
        return sum(t1 - t0 for _, (t0, t1), *_ in rows)


def end_to_end(done, walls: list[float], setup_s: float) -> dict:
    graphs = sum(d[0].graphs for d in done)
    p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "graphs_per_s": (graphs / sum(walls), "graphs/s"),
        "latency_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(tracer: Tracer, graphs: int, traced_s: float, untraced_s: float) -> dict:
    calls, self_s = tracer.layer_times()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for key in ("patterns.contains_isk4", "patterns.contains_fixed",
                "patterns.contains_induced", "patterns.find_rich_square",
                "patterns.k12n", "lemmas.is_linked",
                "decompose.find_clique_cutset", "decompose.find_proper_2cutset",
                "graphs.parse_graph6", "graphs.induced_subgraph"):
        m[key + ".calls"] = (calls[key], "count")
        m[key + ".self_s"] = (self_s[key], "s")
    m["patterns.contains_isk4.calls_per_graph"] = (
        ratio(calls["patterns.contains_isk4"], graphs), "calls/graph")
    for lemma in LEMMA_IDS:
        m[f"lemmas.{lemma}.self_s"] = (self_s["lemmas." + lemma], "s")
    m["lemmas.checked"] = (c["lemmas.checked"], "count")
    m["lemmas.hypothesis_ratio"] = (ratio(c["lemmas.hypothesis"], c["lemmas.calls"]), "ratio")
    m["lemmas.budget_ratio"] = (ratio(c["lemmas.budget"], c["lemmas.hypothesis"]), "ratio")
    for key in ("decompose.find_clique_cutset", "decompose.find_proper_2cutset"):
        m[key + ".hit_ratio"] = (ratio(c[key + ".hits"], c[key + ".calls"]), "ratio")
    m["decompose.recognize.self_s"] = (self_s["decompose.recognize"], "s")
    for key in ("structural", "replay", "exact"):
        m[f"coloring.{key}.self_s"] = (self_s["coloring." + key], "s")
    m["coloring.exact.calls"] = (calls["coloring.exact"], "count")
    for rule in RULES:
        m[f"coloring.rule.{rule}.count"] = (c["coloring.rule." + rule], "count")
    m["scan.self_s"] = (self_s["scan"], "s")
    m["scan.to_json.self_s"] = (self_s["scan.to_json"], "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return m


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    speed = Speed()
    lib, units, setup_s = set_up(workload, args.seed, speed)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "git_sha": git_sha(), "workload": workload.name,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if not args.trace:
        runner = Runner(workload, lib, workload.config(lib), keep=False, speed=speed)
        done, _ = runner.fill(units, args.seconds, at_least=workload.min_units)
        metrics = end_to_end(done, runner.scaled(done), setup_s)
        attempted = sum(row[0].graphs for row in done)
        failed = sum(row[2] for row in done)
        same = True
    else:
        runner = Runner(workload, lib, workload.config(lib), keep=True, speed=None)
        tracer = Tracer()
        plain, done = runner.fill(units, args.seconds / 2, tracer)
        # the rebound functions must hand back exactly what the originals did
        same = all(a[3] == b[3] for a, b in zip(plain, done))
        graphs = sum(row[0].graphs for row in done)
        metrics = per_layer(tracer, graphs, runner.wall(done), runner.wall(plain))
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json.gz", env)
        attempted = 2 * graphs
        failed = sum(row[2] for row in plain + done)

    env["reference_ratio"] = speed.ratio()
    print(json.dumps({"env": env, "units": len(done)}))
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
