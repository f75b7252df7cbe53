"""Print one sha256 per output family of isk4lab, to check that a change
leaves every output byte-identical.

    python3 scripts/output_digest.py               # the working tree
    python3 scripts/output_digest.py --rev HEAD    # both, exit 1 on a difference

Run from anywhere inside the repository.  With ``--rev`` the revision is
extracted with ``git archive`` (as ``bench_pairs.py`` does) and digested in
a child process that imports its package; both sides read the same inputs,
from the working tree.  The families:

- ``scan``: ``ScanReport.to_json()`` with all six checks and with
  ISK4-FILTER, CHI-LE-4 and STRUCTURAL-COLOR, on every labeled graph with
  n <= 6 and on the first 20,000 lines of the 100k fixture plus the
  ``past_n7.g6`` graphs, each at 1 and 3 workers;
- ``color`` (structural, exact, exact ``--bound 3``), ``decompose``,
  ``detect`` (seven patterns) and ``check-lemma`` (three ids): each
  command's stdout and exit code on the first 3,000 fixture lines plus
  the ``past_n7.g6``, ``four_cores.g6`` and ``comp_n9.g6`` graphs (the
  colouring's ``SubcubicLineGraph`` rule colours none of the other inputs)
  and the cycles C_8..C_20;
- ``attachments``: the tag and witness of both attachment classifiers on
  every maximal K_{1,2,n} of those graphs;
- ``ladder``: colouring, trace and ``replay_trace`` of 330 seeded
  ``ladder-color`` graphs (seed 1).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
FAMILIES = ("scan", "color", "decompose", "detect", "check-lemma",
            "attachments", "ladder")


def _cli(cli, argv: list[str], line: str) -> list:
    """One command with the graph on stdin: [argv, exit code, stdout]."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(line + "\n")
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["-"])
    finally:
        sys.stdin = stdin
    return [argv, code, out.getvalue()]


def digests(limit: int | None = None) -> dict[str, str]:
    """The sha256 of every family, for the isk4lab that imports first.
    limit caps the fixture lines, the universe and the ladder graphs.
    The child process goes without ISK4LAB_BUDGET: this CLI ignores it, but
    older revisions, which --rev may digest, read it in check-lemma and
    scan."""
    from isk4lab import cli, coloring, lemmas, scan
    from isk4lab.graphs import Graph, bits, components, parse_graph6, write_graph6
    from isk4lab.patterns import iter_maximal_k12n
    from bench import ladders

    def cap(xs: list, n: int) -> list:
        return xs[:n if limit is None else min(n, limit)]

    fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
    past = (FIXTURES / "past_n7.g6").read_text().split()
    cores = (FIXTURES / "four_cores.g6").read_text().split()
    comp_n9 = (FIXTURES / "comp_n9.g6").read_text().split()
    cycles = [write_graph6(Graph.cycle(n)) for n in range(8, 21)]
    universe = [x for n in range(1, 7) for x in scan.enumerate_small(n)]
    fam = {name: hashlib.sha256() for name in FAMILIES}

    def add(name: str, record) -> None:
        fam[name].update(json.dumps(record, sort_keys=True).encode() + b"\n")

    trio = ("ISK4-FILTER", "CHI-LE-4", "STRUCTURAL-COLOR")
    for lines in (cap(universe, len(universe)), cap(fixture, 20000) + past):
        for checks in (scan.CHECKS, trio):
            for jobs in (1, 3):
                cfg = scan.ScanConfig(checks=checks, parallelism=jobs)
                add("scan", scan.scan_stream(lines, cfg).to_json())

    commands = {
        "color": [["color"], ["color", "--mode", "exact"],
                  ["color", "--mode", "exact", "--bound", "3"]],
        "decompose": [["decompose"]],
        "detect": [["detect", "--pattern", p] for p in
                   ("isk4", "k33", "k222", "prism", "wheel", "k12n",
                    "rich-square")],
        "check-lemma": [["check-lemma", "--id", i] for i in lemmas.LEMMA_IDS],
    }
    for line in cap(fixture, 3000) + past + cores + comp_n9 + cycles:
        for name, argvs in commands.items():
            for argv in argvs:
                add(name, _cli(cli, argv, line))
        g = parse_graph6(line)
        for h in iter_maximal_k12n(g, 2):
            rest = g.vertex_mask & ~h.vertex_mask()
            for v in bits(rest):
                a = lemmas.classify_vertex_attachment(g, h, v)
                add("attachments", [line, "vertex", v, a.tag, a.witness])
            for comp in components(g, rest) if h.n >= 3 else ():
                a = lemmas.classify_component_attachment(g, h, comp)
                add("attachments", [line, "component", comp, a.tag, a.witness])

    rng = random.Random(1)
    graphs = [ladders.series_parallel(rng, n, 10)
              for _ in range(30) for n in range(20, 41, 2)]
    for n, edges in cap(graphs, len(graphs)):
        g = parse_graph6(ladders.graph6(n, edges))
        out = coloring.structural_four_coloring(g)
        if isinstance(out, tuple):
            col, trace = out
            again = coloring.replay_trace(g, trace)
            out = [col.color, col.k, [[s.rule, s.scope, s.detail]
                                      for s in trace.steps],
                   again.color, again.k]
        add("ladder", repr(out))
    return {name: h.hexdigest() for name, h in fam.items()}


def _child(src: Path, limit: int | None) -> dict[str, str]:
    """digests() in a new process that imports the package under src."""
    cmd = [sys.executable, __file__, "--src", str(src)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    env = {k: v for k, v in os.environ.items() if k != "ISK4LAB_BUDGET"}
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          env=env)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="also digest this revision and compare")
    ap.add_argument("--src", type=Path,
                    help="print, as JSON, the digests of the package under "
                         "this src directory")
    ap.add_argument("--limit", type=int,
                    help="cap every input list at this many items")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src or ROOT / "src"), str(ROOT)]
    if args.src is not None:
        print(json.dumps(digests(args.limit)))
        return 0
    mine = _child(ROOT / "src", args.limit)
    if args.rev is None:
        for name, digest in mine.items():
            print(f"{name:12} {digest}")
        return 0
    from scripts.bench_pairs import exit_on_sigterm, extract
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    with tempfile.TemporaryDirectory() as tmp:
        sha = extract(args.rev, Path(tmp))
        theirs = _child(Path(tmp) / "src", args.limit)
    print(f"{'family':12} {'working tree':64} {args.rev} ({sha[:12]})")
    for name in FAMILIES:
        mark = "" if mine[name] == theirs[name] else "  DIFFERS"
        print(f"{name:12} {mine[name]} {theirs[name]}{mark}")
    return 0 if mine == theirs else 1


if __name__ == "__main__":
    sys.exit(main())
