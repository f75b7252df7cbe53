"""End-to-end acceptance sweeps over the exhaustive small-graph universe.

Each test prints one summary line (echoed again in the terminal summary):
the structural-coloring run over every qualifying labeled graph, the
chromatic bound, the three lemma conclusions, oracle equivalences, leaf
colorer bounds, graph6 round-tripping, and scan determinism.

Verdicts that cannot depend on the labeling are computed once per
isomorphism class; the structural coloring itself runs per labeled graph.
"""

from pathlib import Path

from isk4lab.coloring import (
    ColoringFailure,
    chromatic_number_exact,
    color_complete_multipartite,
    color_rich_square,
    color_subcubic_line_graph,
    replay_trace,
    structural_four_coloring,
)
from isk4lab.decompose import (
    find_clique_cutset,
    find_proper_2cutset,
    recognize_complete_multipartite,
    recognize_line_graph_subcubic,
)
from isk4lab.graphs import Graph, bits, code_to_graph6, parse_graph6, write_graph6
from isk4lab.lemmas import check_lemma
from isk4lab.patterns import contains_isk4, iter_rich_squares
from isk4lab.scan import ScanConfig, scan_stream

from _accept import (
    class_size,
    labeled_codes_where,
    record,
    rep_flags,
    rep_graphs,
    subcubic_line_graph_codes,
)
from oracles import brute_has_proper_2cutset, isk4_subsets, least_clique_cutset

FIXTURES = Path(__file__).parent / "fixtures"
DEFAULT_BUDGET = 20000


def test_structural_coloring_sweep():
    failures, fallbacks, done = [], [], 0
    for n in range(1, 8):
        codes = labeled_codes_where(
            n, lambda f: f["connected"] and f["isk4_free"] and f["k123"])
        for code in codes:
            g = Graph.from_code(n, int(code))
            out = structural_four_coloring(g)
            if isinstance(out, ColoringFailure):
                failures.append((n, int(code), out.kind, out.rule))
                continue
            col, trace = out
            assert col.k <= 4 and col.validate(g)
            assert replay_trace(g, trace) == col
            if trace.steps and trace.steps[0].rule == "ExactFallback":
                fallbacks.append((n, int(code)))
            done += 1
    status = "PASS" if not failures else "FAIL"
    record(f"acceptance 1 structural coloring sweep: {status} "
           f"({done} labeled graphs colored, {len(failures)} failures, "
           f"{len(fallbacks)} whole-graph exact fallbacks)")
    assert not failures, failures[:5]


def test_chromatic_bound_sweep():
    violations, done = [], 0
    for n in range(1, 7):
        for code in labeled_codes_where(
                n, lambda f: f["connected"] and f["isk4_free"]):
            g = Graph.from_code(n, int(code))
            col = chromatic_number_exact(g, 4)
            if col is None:
                violations.append((n, int(code)))
            else:
                assert col.validate(g)
            done += 1
    for code, f in rep_flags(7).items():
        if f["connected"] and f["isk4_free"]:
            if chromatic_number_exact(rep_graphs(7)[code], 4) is None:
                violations.append((7, code))
            done += 1
    status = "PASS" if not violations else "FAIL"
    record(f"acceptance 2 chromatic bound <= 4: {status} "
           f"({done} graphs, labeled through n=6 and one per class at n=7, "
           f"{len(violations)} violations)")
    assert not violations, violations[:5]


def test_lemma_sweeps():
    counterwitnesses = []
    link_applicable = link_exceeded = 0
    for n in range(1, 8):
        sizes = class_size(n)
        for code, g in rep_graphs(n).items():
            weight = int(sizes[code])
            rep = check_lemma(g, "L-LINK", budget=DEFAULT_BUDGET)
            assert rep.consistent()
            if rep.counterwitness is not None:
                counterwitnesses.append((n, code, "L-LINK"))
            if rep.hypothesis_satisfied:
                link_applicable += weight
                if rep.budget_exceeded:
                    link_exceeded += weight
            for lemma in ("L-VOH", "L-COMP"):
                rep = check_lemma(g, lemma)
                assert rep.consistent() and not rep.budget_exceeded
                if rep.counterwitness is not None:
                    counterwitnesses.append((n, code, lemma))
    share = link_exceeded / link_applicable if link_applicable else 0.0
    ok = not counterwitnesses and share < 0.01
    record(f"acceptance 3 lemma sweeps: {'PASS' if ok else 'FAIL'} "
           f"({len(counterwitnesses)} counterwitnesses, budget-exceeded on "
           f"{link_exceeded}/{link_applicable} applicable labeled graphs)")
    assert not counterwitnesses, counterwitnesses[:5]
    assert share < 0.01


def test_oracle_equivalences():
    mismatch = []
    checked_a = 0
    for n in range(1, 7):
        for code in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_code(n, code)
            subs = isk4_subsets(g)
            mask = contains_isk4(g)
            if (mask is not None) != bool(subs):
                mismatch.append(("isk4", n, code))
            if mask is not None and tuple(sorted(bits(mask))) not in set(subs):
                mismatch.append(("isk4-witness", n, code))
            checked_a += 1
    for code, g in rep_graphs(7).items():
        subs = isk4_subsets(g)
        mask = contains_isk4(g)
        if (mask is not None) != bool(subs):
            mismatch.append(("isk4", 7, code))
        if mask is not None and tuple(sorted(bits(mask))) not in set(subs):
            mismatch.append(("isk4-witness", 7, code))
        checked_a += 1

    checked_b = 0
    for n in range(1, 8):
        members = subcubic_line_graph_codes(n)
        for code, g in rep_graphs(n).items():
            cert = recognize_line_graph_subcubic(g)
            if cert is not None:
                assert cert.validate(g)
            if rep_flags(n)[code]["connected"]:
                if (cert is not None) != (code in members):
                    mismatch.append(("line-graph", n, code))
                checked_b += 1

    checked_c = 0
    for n in range(1, 8):
        for code, g in rep_graphs(n).items():
            cc = find_clique_cutset(g)
            if (cc and cc.vertices) != least_clique_cutset(g):
                mismatch.append(("clique-cutset", n, code))
            if cc is not None:
                assert cc.validate(g)
            p2 = find_proper_2cutset(g)
            if (p2 is not None) != brute_has_proper_2cutset(g):
                mismatch.append(("proper-2cutset", n, code))
            if p2 is not None:
                assert p2.validate(g)
            checked_c += 2
    status = "PASS" if not mismatch else "FAIL"
    record(f"acceptance 4 oracle equivalences: {status} "
           f"(isk4 {checked_a}, line-graph {checked_b}, cutsets {checked_c} "
           f"comparisons, {len(mismatch)} mismatches)")
    assert not mismatch, mismatch[:5]


def test_leaf_colorer_bounds():
    violations = []
    seen = {"line-graph": 0, "multipartite": 0, "rich-square": 0}
    for n in range(1, 8):
        for code, g in rep_graphs(n).items():
            cert = recognize_line_graph_subcubic(g)
            if cert is not None:
                seen["line-graph"] += 1
                col = color_subcubic_line_graph(g, cert)
                if col.k > 4 or not col.validate(g):
                    violations.append(("line-graph", n, code))
            mp = recognize_complete_multipartite(g)
            if mp is not None:
                seen["multipartite"] += 1
                col = color_complete_multipartite(mp)
                if col.k != len(mp.parts) or not col.validate(g):
                    violations.append(("multipartite", n, code))
            rs = next((s for s in iter_rich_squares(g) if s.whole), None)
            if rs is not None:
                seen["rich-square"] += 1
                col = color_rich_square(g, rs)
                if col.k > 4 or not col.validate(g):
                    violations.append(("rich-square", n, code))
    status = "PASS" if not violations else "FAIL"
    record(f"acceptance 5 leaf colorer bounds: {status} "
           f"({seen['line-graph']} line graphs, {seen['multipartite']} "
           f"multipartite, {seen['rich-square']} squares, "
           f"{len(violations)} violations)")
    assert not violations, violations[:5]


def test_graph6_roundtrip():
    bad = total = 0
    for n in range(1, 8):
        for code in range(1 << (n * (n - 1) // 2)):
            line = code_to_graph6(n, code)
            g = parse_graph6(line)
            if g.n != n or write_graph6(g) != line:
                bad += 1
            total += 1
    for line in (FIXTURES / "roundtrip_n8_10.g6").read_text().split():
        if write_graph6(parse_graph6(line)) != line:
            bad += 1
        total += 1
    status = "PASS" if bad == 0 else "FAIL"
    record(f"acceptance 6 graph6 round-trip: {status} "
           f"({total} encodings, {bad} not byte-identical)")
    assert bad == 0


def test_scan_worker_determinism():
    lines = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
    checks = ("ISK4-FILTER", "CHI-LE-4")
    solo = scan_stream(lines, ScanConfig(checks=checks, parallelism=1))
    multi = scan_stream(lines, ScanConfig(checks=checks, parallelism=3))
    identical = solo.to_json() == multi.to_json()
    status = "PASS" if identical and solo.consistent() else "FAIL"
    record(f"acceptance 7 scan determinism: {status} "
           f"({solo.totals()['read']} graphs, 1 vs 3 workers "
           f"{'byte-identical' if identical else 'DIFFER'})")
    assert identical
    assert solo.totals()["read"] == len(lines)
