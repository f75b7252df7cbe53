"""Command-line front end.

Subcommands: detect, color, decompose, check-lemma, scan, enumerate.
Single-graph commands take their input as a literal graph6 string, a file
path, or "-" for standard input; --format switches to edge-list text
("n m" header then vertex pairs, whitespace separated).

Exit codes: 0 success / pattern found / lemma holds or inapplicable;
1 pattern not found; 2 usage or input error; 3 colour bound exceeded;
4 counterwitness or scan failures present.  All structured output is JSON
on stdout (enumerate emits raw graph6 lines); stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import time
from typing import Optional

from .coloring import (
    ColoringFailure,
    ColoringTrace,
    chromatic_number_exact,
    structural_four_coloring,
)
from .decompose import (
    find_clique_cutset,
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from .graphs import (
    Graph,
    GraphFormatError,
    bits,
    parse_edge_list,
    parse_graph6,
)
from .lemmas import LEMMA_IDS, check_lemma
from .patterns import (
    contains_fixed,
    contains_isk4,
    find_maximal_k12n,
    find_rich_square,
)
from .scan import CHECKS, ScanConfig, enumerate_small, scan_stream

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_ERROR = 2
EXIT_BOUND = 3
EXIT_WITNESS = 4


class _CliError(Exception):
    pass


def _budget(raw: Optional[str]) -> Optional[int]:
    """The cap given by --budget, else None; it must be a positive integer."""
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _CliError(f"--budget is not an integer: {raw!r}") from None
    if value <= 0:
        raise _CliError("--budget must be positive")
    return value


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if os.path.exists(source):
        with open(source) as fh:
            return fh.read()
    return source


def _load_graph(source: str, fmt: str) -> Graph:
    try:
        text = _read_source(source)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read input: {exc}") from None
    try:
        if fmt == "edgelist":
            return parse_edge_list(text)
        for line in text.splitlines():
            if line.strip():
                return parse_graph6(line.strip())
        return parse_graph6("")
    except GraphFormatError as exc:
        raise _CliError(f"cannot parse input: {exc}") from None


def _emit(args, doc: dict):
    if not args.quiet:
        print(json.dumps(doc, sort_keys=True, indent=2))


# -- subcommands -----------------------------------------------------------


def _cmd_detect(args) -> int:
    g = _load_graph(args.input, args.format)
    name = args.pattern
    if name == "isk4":
        mask = contains_isk4(g)
        payload = None if mask is None else {"vertices": sorted(bits(mask))}
    elif name == "k12n":
        if args.n_min < 2:
            raise _CliError("--n-min must be at least 2")
        emb = find_maximal_k12n(g, args.n_min)
        payload = None if emb is None else {**dataclasses.asdict(emb), "n": emb.n}
    elif name == "rich-square":
        s = find_rich_square(g)
        payload = None if s is None else dataclasses.asdict(s)
    else:
        w = contains_fixed(g, {"k33": "K33", "k222": "K222"}.get(name, name))
        payload = None if w is None else \
            {"vertices": sorted(w.mapping), "mapping": list(w.mapping)}
    _emit(args, {"found": payload is not None, "pattern": name,
                 **(payload or {})})
    return EXIT_NOT_FOUND if payload is None else EXIT_OK


def _trace_doc(trace: ColoringTrace) -> list:
    return [{"rule": s.rule, "scope": sorted(bits(s.scope)),
             "detail": s.detail} for s in trace.steps]


def _cmd_color(args) -> int:
    g = _load_graph(args.input, args.format)
    if args.mode == "exact":
        bound = args.bound
        if bound is not None and bound < 0:
            raise _CliError("--bound cannot be negative")
        col = chromatic_number_exact(g, bound)
        if col is None:
            conj = bound is not None and bound >= 4 \
                and contains_isk4(g) is None
            _emit(args, {"mode": "exact", "bound_exceeded": True,
                         "bound": bound, "conjecture_counterexample": conj})
            return EXIT_BOUND
        _emit(args, {"mode": "exact", "k": col.k, "colors": list(col.color),
                     "trace": []})
        return EXIT_OK
    out = structural_four_coloring(g)
    if isinstance(out, ColoringFailure):
        doc = {"mode": "structural", "failure": out.kind, "rule": out.rule,
               "evidence": out.evidence,
               "conjecture_counterexample": out.conjecture_counterexample}
        _emit(args, doc)
        if out.kind == "chromatic_bound_exceeded":
            return EXIT_BOUND
        raise _CliError(
            "input is outside the structural colourer's domain "
            f"(rule {out.rule}: {out.kind}); see the JSON evidence")
    col, trace = out
    _emit(args, {"mode": "structural", "k": col.k,
                 "colors": list(col.color), "trace": _trace_doc(trace)})
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _load_graph(args.input, args.format)
    doc: dict = {"n": g.n}
    mp = recognize_complete_multipartite(g)
    doc["complete_multipartite"] = \
        {"parts": [sorted(bits(p)) for p in mp.parts]} if mp else None
    lg = recognize_line_graph_subcubic(g)
    doc["subcubic_line_graph"] = \
        {"root_n": lg.root.n, "edge_of": [list(e) for e in lg.edge_of]} \
        if lg else None
    cc = find_clique_cutset(g)
    doc["clique_cutset"] = dataclasses.asdict(cc) if cc else None
    p2 = find_proper_2cutset(g)
    doc["proper_2cutset"] = \
        {"a": p2.a, "b": p2.b, "x": sorted(bits(p2.x)),
         "y": sorted(bits(p2.y))} if p2 else None
    rs = find_rich_square(g)
    doc["rich_square"] = dataclasses.asdict(rs) if rs else None
    _emit(args, doc)
    return EXIT_OK


def _cmd_check_lemma(args) -> int:
    g = _load_graph(args.input, args.format)
    report = check_lemma(g, args.id, budget=_budget(args.budget))
    _emit(args, dataclasses.asdict(report))
    if report.counterwitness is not None:
        return EXIT_WITNESS
    return EXIT_OK


def _cmd_scan(args) -> int:
    names = tuple(c.strip().upper() for c in args.checks.split(",") if c.strip())
    budget = _budget(args.budget)
    try:
        cfg = ScanConfig(checks=names, parallelism=args.jobs,
                         budget=ScanConfig.budget if budget is None else budget)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    start = time.perf_counter()
    # an undecodable byte becomes U+FFFD, so its line is a parse failure
    if args.input == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(errors="replace")
        report = scan_stream(sys.stdin, cfg)
    else:
        try:
            with open(args.input, errors="replace") as fh:
                report = scan_stream(fh, cfg)
        except OSError as exc:
            raise _CliError(str(exc)) from None
    wall = time.perf_counter() - start
    tot = report.totals()
    if not args.quiet:
        print(report.to_json())
        print(f"scanned {tot['read']} graphs "
              f"in {wall:.1f}s", file=sys.stderr)
    dirty = report.parse_failures > 0 or report.internal_errors > 0 or \
        any(by["fail"] for by in tot["checks"].values())
    return EXIT_WITNESS if dirty else EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        for line in enumerate_small(args.n, connected=args.connected):
            if not args.quiet:
                print(line)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------


def _add_graph_input(sp):
    sp.add_argument("input", help="graph6 string, file path, or - for stdin")
    sp.add_argument("--format", choices=("g6", "edgelist"), default="g6")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isk4lab",
        description="Detectors, colourers and bulk checks for graphs with "
                    "no induced K4 subdivision.")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress stdout; exit status only")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("detect", help="find one induced pattern")
    sp.add_argument("--pattern", required=True,
                    choices=("isk4", "k33", "k222", "prism", "wheel",
                             "k12n", "rich-square"))
    sp.add_argument("--n-min", type=int, default=3,
                    help="k12n only: least size of the large side")
    _add_graph_input(sp)
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser("color", help="colour one graph")
    sp.add_argument("--mode", choices=("structural", "exact"),
                    default="structural")
    sp.add_argument("--bound", type=int, default=None,
                    help="exact mode: give up beyond this many colours")
    _add_graph_input(sp)
    sp.set_defaults(func=_cmd_color)

    sp = sub.add_parser("decompose",
                        help="report cutsets and structure certificates")
    _add_graph_input(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("check-lemma", help="test one lemma on one graph")
    sp.add_argument("--id", required=True, type=str.upper, choices=LEMMA_IDS)
    sp.add_argument("--budget", default=None,
                    help="instance cap; default unlimited")
    _add_graph_input(sp)
    sp.set_defaults(func=_cmd_check_lemma)

    sp = sub.add_parser("scan", help="bulk-check a graph6 stream")
    sp.add_argument("--checks", required=True,
                    help="comma-separated subset of " + ",".join(CHECKS))
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--budget", default=None,
                    help=f"per-graph cap; default {ScanConfig.budget}")
    sp.add_argument("input", nargs="?", default="-",
                    help="graph6 file, or - for stdin (default)")
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("enumerate", help="emit all labeled graphs on n vertices")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--connected", action="store_true")
    sp.set_defaults(func=_cmd_enumerate)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
