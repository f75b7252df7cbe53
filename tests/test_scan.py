"""Scan harness tests: config validation, counter conservation, parse-error
handling, witness capping, worker-count determinism, and the enumerator."""

import json
from collections import Counter
from pathlib import Path

import pytest

import isk4lab.lemmas as lemmas
import isk4lab.scan as scan
from isk4lab.coloring import Coloring, ColoringFailure
from isk4lab.graphs import Graph, has_k4_minor, parse_graph6, write_graph6
from isk4lab.scan import CHECKS, ScanConfig, enumerate_small, scan_stream

from oracles import has_isk4

FIXTURES = Path(__file__).parent / "fixtures"
SMALL = (FIXTURES / "small_graphs_n_le_5.g6").read_text().splitlines()


def run(lines, checks=("ISK4-FILTER", "CHI-LE-4"), **kw):
    return scan_stream(lines, ScanConfig(checks=tuple(checks), **kw))


class TestScanConfig:
    def test_checks_sorted_and_deduped(self):
        cfg = ScanConfig(checks=("L-VOH", "CHI-LE-4", "L-VOH"))
        assert cfg.checks == ("CHI-LE-4", "L-VOH")

    def test_rejects_empty_checks(self):
        with pytest.raises(ValueError):
            ScanConfig(checks=())

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError, match="unknown"):
            ScanConfig(checks=("CHI-LE-4", "NOT-A-CHECK"))

    @pytest.mark.parametrize("kw", [{"budget": 0}, {"budget": -5},
                                    {"parallelism": 0}])
    def test_rejects_bad_numbers(self, kw):
        with pytest.raises(ValueError):
            ScanConfig(checks=CHECKS, **kw)


class TestStreamExamples:
    def test_small_fixture_all_pass(self):
        report = run(SMALL)
        assert report.totals()["read"] == len(SMALL) == 52
        assert report.failures == []
        assert report.parse_failures == 0
        assert report.consistent()

    def test_small_fixture_counts_by_n(self):
        report = run(SMALL)
        assert {n: c["read"] for n, c in report.per_n.items()} == {
            1: 1, 2: 2, 3: 4, 4: 11, 5: 34}

    def test_k4_counted_not_free_and_chi_skipped(self):
        report = run(["C~"])
        counters = report.per_n[4]
        assert counters["read"] == 1
        assert counters["isk4_free"] == 0
        assert counters["checks"]["ISK4-FILTER"] == {
            "pass": 0, "fail": 0, "skip": 1, "budget": 0}
        assert counters["checks"]["CHI-LE-4"]["skip"] == 1

    def test_empty_stream(self):
        report = run([])
        assert report.per_n == {}
        assert report.failures == []
        tot = report.totals()
        assert tot["read"] == 0 and tot["parse_failures"] == 0
        assert report.consistent()


class TestCounters:
    def test_isk4_free_matches_oracle(self):
        report = run(SMALL)
        expect = sum(not has_isk4(parse_graph6(line)) for line in SMALL)
        assert sum(c["isk4_free"] for c in report.per_n.values()) == expect

    def test_no_k123_below_six_vertices(self):
        report = run(SMALL)
        assert all(c["contains_k123"] == 0 for c in report.per_n.values())

    def test_k123_counter(self):
        g6 = write_graph6(Graph.complete_multipartite((1, 2, 3)))
        report = run([g6])
        assert report.per_n[6]["contains_k123"] == 1

    def test_all_checks_on_fixture_no_failures(self):
        report = run(SMALL, checks=CHECKS)
        assert report.failures == []
        assert report.consistent()

    def test_one_counter_block_per_n(self, monkeypatch):
        blocks = []
        blank = scan._blank_counters
        monkeypatch.setattr(scan, "_blank_counters",
                            lambda checks: blocks.append(checks)
                            or blank(checks))
        lines = [line for n in range(1, 5) for line in enumerate_small(n)]
        report = run(lines, checks=("ISK4-FILTER",))
        assert len(lines) == 75 and sorted(report.per_n) == [1, 2, 3, 4]
        # one block per n, plus the totals() that consistent() builds
        assert len(blocks) == 5

    def test_budget_exceeded_is_counted_not_failed(self):
        bowtie = write_graph6(Graph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]))
        report = run([bowtie], checks=("L-LINK",), budget=1)
        assert report.per_n[5]["checks"]["L-LINK"] == {
            "pass": 0, "fail": 0, "skip": 0, "budget": 1}
        assert report.failures == []
        assert report.consistent()


class TestParseFailures:
    def test_bad_lines_counted_and_scan_continues(self):
        report = run(["C~", "this is not graph6", "CK", ""])
        assert report.parse_failures == 2
        assert report.totals()["read"] == 2
        assert [w["line_no"] for w in report.failures] == [2, 4]
        assert all(w["check"] == "parse" for w in report.failures)
        assert report.consistent()

    def test_truncated_line_is_parse_failure(self):
        report = run(["E"])
        assert report.parse_failures == 1
        assert "reason" in report.failures[0]["evidence"]

    def test_witness_cap_suppresses_overflow(self, monkeypatch):
        monkeypatch.setattr(scan, "WITNESS_CAP", 2)
        report = run(["x"] * 5)
        assert report.parse_failures == 5
        assert len(report.failures) == 2
        assert report.suppressed == {"parse": 3}
        assert report.totals()["witnesses_suppressed"] == {"parse": 3}
        assert report.consistent()


class TestInternalErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_check_is_recorded_and_scan_continues(self, monkeypatch, jobs):
        target = SMALL[7]
        original = scan.chromatic_number_exact

        def flaky(g, bound):
            if write_graph6(g) == target:
                raise RuntimeError("planted fault")
            return original(g, bound)

        monkeypatch.setattr(scan, "chromatic_number_exact", flaky)
        report = run(SMALL, parallelism=jobs)
        assert report.failures == [{
            "line_no": 8, "graph6": target, "check": "internal_error",
            "evidence": {"type": "RuntimeError", "message": "planted fault"}}]
        assert report.internal_errors == 1
        assert report.totals()["read"] == len(SMALL) - 1
        assert report.consistent()
        monkeypatch.setattr(scan, "chromatic_number_exact", original)
        clean = json.loads(run(SMALL).to_json())
        assert clean["failures"] == []
        assert clean["totals"]["read"] == len(SMALL)

    def test_internal_errors_are_capped_like_other_witnesses(self, monkeypatch):
        def broken(g):
            raise KeyError(g.n)

        # every parsed line asks for the K4-minor verdict
        monkeypatch.setattr(lemmas, "has_k4_minor", broken)
        monkeypatch.setattr(scan, "WITNESS_CAP", 2)
        report = run(SMALL[:5])
        assert [w["evidence"]["type"] for w in report.failures] == ["KeyError"] * 2
        assert report.suppressed == {"internal_error": 3}
        assert report.internal_errors == 5 and report.consistent()


class TestReportDocument:
    def test_json_shape(self):
        doc = json.loads(run(SMALL[:10]).to_json())
        assert set(doc) == {"meta", "per_n", "failures", "totals"}
        assert set(doc["meta"]) == {"version", "checks", "budget",
                                    "witness_cap"}
        assert "parallelism" not in json.dumps(doc)
        assert "wall_time" not in json.dumps(doc)

    def test_failures_keep_input_order(self):
        report = run(["A_", "zz", "A?", "yy"])
        assert [w["line_no"] for w in report.failures] == [2, 4]
        assert report.failures[0]["graph6"] == "zz"


class TestDeterminism:
    def test_one_vs_two_workers_byte_identical(self):
        lines = SMALL + ["garbage line", "C~"]
        solo = run(lines, checks=CHECKS, parallelism=1)
        duo = run(lines, checks=CHECKS, parallelism=2)
        assert solo.to_json() == duo.to_json()

    def test_rerun_is_byte_identical(self):
        assert run(SMALL).to_json() == run(SMALL).to_json()

    def test_rerun_gives_an_equal_report(self):
        # the report is a function of the lines and config: no clock reading
        assert run(SMALL, checks=CHECKS) == run(SMALL, checks=CHECKS)

    def test_accepts_any_line_iterable(self):
        with open(FIXTURES / "small_graphs_n_le_5.g6") as fh:
            from_file = run(fh)
        assert from_file.to_json() == run(SMALL).to_json()


class TestFactsOncePerGraph:
    def test_each_fact_computed_once(self, monkeypatch):
        """A scan with every check runs the K4-minor test once per graph,
        the ISK4 search once on a graph with a K4 minor and each shared
        lemma hypothesis at most once; on a K4-minor-free graph no search
        runs and L-LINK asks is_linked of no pair."""
        calls = Counter()

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[key(*args)] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        count(lemmas, "has_k4_minor", lambda g: "k4")
        count(lemmas, "contains_isk4", lambda g: "isk4")
        count(lemmas, "contains_fixed", lambda g, which: which)
        count(lemmas, "iter_maximal_k12n", lambda g, n_min: "k12n")
        count(lemmas, "is_linked", lambda g, cycle, v: "linked")
        applicable = Counter()
        lines = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
        for line in lines[:700]:
            calls.clear()
            counters = run([line], checks=CHECKS).totals()["checks"]
            minor = has_k4_minor(parse_graph6(line))
            assert calls["k4"] == 1 and calls["isk4"] == minor, line
            searches = ("K33", "K222", "prism", "k12n")
            assert all(calls[k] <= minor for k in searches), line
            assert minor or calls["linked"] == 0, line
            applicable.update(c for c in ("L-VOH", "L-COMP")
                              if counters[c]["skip"] == 0)
            applicable["free"] += not minor
            applicable["linked"] += calls["linked"] > 0
        # the window reaches both attachment lemmas past their hypotheses,
        # and holds K4-minor-free graphs and pairs that is_linked is asked of
        assert applicable["L-VOH"] > 0 and applicable["L-COMP"] > 0
        assert applicable["free"] > 0 and applicable["linked"] > 0


COLOUR_BOTH = ("ISK4-FILTER", "CHI-LE-4", "STRUCTURAL-COLOR")


class TestColourOnce:
    """With STRUCTURAL-COLOR selected, CHI-LE-4 takes its verdict from the
    structural colouring and runs the exact search only where that failed."""

    # the last ISK4-free graph of the small fixture, and its line number
    line_no, target = [(i, line) for i, line in enumerate(SMALL, start=1)
                       if not has_isk4(parse_graph6(line))][-1]

    def test_chi_counters_match_without_structural(self):
        fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
        universe = [line for n in range(1, 7) for line in enumerate_small(n)]
        for lines in (universe, fixture[:2000]):
            alone = run(lines, checks=("ISK4-FILTER", "CHI-LE-4"))
            both = run(lines, checks=COLOUR_BOTH)
            assert alone.per_n.keys() == both.per_n.keys()
            for n, counters in alone.per_n.items():
                assert counters["checks"]["CHI-LE-4"] == \
                    both.per_n[n]["checks"]["CHI-LE-4"], n
            assert [w for w in both.failures if w["check"] == "CHI-LE-4"] == \
                alone.failures

    def count_calls(self, monkeypatch, plant=None):
        """Count the scan's colouring calls; plant(g, out) may replace the
        structural colouring's outcome."""
        calls = Counter()
        exact, structural = scan.chromatic_number_exact, scan.structural_four_coloring

        def counted_exact(g, bound):
            calls["exact"] += 1
            return exact(g, bound)

        def counted_structural(g, pieces=None):
            calls["structural"] += 1
            out = structural(g, pieces=pieces)
            return out if plant is None else plant(g, out)

        monkeypatch.setattr(scan, "chromatic_number_exact", counted_exact)
        monkeypatch.setattr(scan, "structural_four_coloring", counted_structural)
        return calls

    def test_one_structural_and_no_exact_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
        tot = run(SMALL + fixture[:500], checks=COLOUR_BOTH).totals()
        assert tot["checks"]["STRUCTURAL-COLOR"]["fail"] == 0
        assert tot["checks"]["CHI-LE-4"]["pass"] == tot["isk4_free"] > 300
        assert calls == {"structural": tot["isk4_free"]}

    def test_one_piece_memo_per_scan(self, monkeypatch):
        seen = []
        structural = scan.structural_four_coloring

        def recorded(g, pieces=None):
            seen.append((pieces, len(pieces)))
            return structural(g, pieces=pieces)

        monkeypatch.setattr(scan, "structural_four_coloring", recorded)
        scan._PIECES[("stale",)] = None
        fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()
        run(fixture[:300], checks=COLOUR_BOTH)
        assert len(seen) > 100 and seen[0][1] == 0  # emptied at the start
        assert all(p is scan._PIECES for p, _ in seen)
        assert max(size for _, size in seen) > 0
        assert scan._PIECES == {}  # and at the end

    def test_a_raising_scan_still_empties_the_memo(self):
        fixture = (FIXTURES / "scan_stream_100k.g6").read_text().splitlines()

        def lines():
            yield from fixture[:300]
            raise OSError("planted read error")

        with pytest.raises(OSError, match="planted"):
            run(lines(), checks=COLOUR_BOTH, parallelism=1)
        assert scan._PIECES == {}

    def test_failed_colouring_falls_back_to_exact(self, monkeypatch):
        target = self.target

        def plant(g, out):
            if write_graph6(g) != target:
                return out
            return ColoringFailure("hypothesis_violation", 5, g.vertex_mask,
                                   {"planted": True})

        calls = self.count_calls(monkeypatch, plant)
        report = run(SMALL, checks=COLOUR_BOTH)
        tot = report.totals()
        assert calls == {"structural": tot["isk4_free"], "exact": 1}
        assert tot["checks"]["CHI-LE-4"] == \
            run(SMALL).totals()["checks"]["CHI-LE-4"]
        assert [(w["graph6"], w["check"]) for w in report.failures] == \
            [(target, "STRUCTURAL-COLOR")]

    def test_improper_colouring_fails_and_exact_decides(self, monkeypatch):
        target = self.target

        def plant(g, out):
            if write_graph6(g) != target:
                return out
            return Coloring((0,) * g.n, 1)  # target has edges

        calls = self.count_calls(monkeypatch, plant)
        report = run(SMALL, checks=COLOUR_BOTH)
        assert report.failures == [{
            "line_no": self.line_no, "graph6": target,
            "check": "STRUCTURAL-COLOR",
            "evidence": {"reason": "returned colouring failed validation"}}]
        tot = report.totals()
        assert calls == {"structural": tot["isk4_free"], "exact": 1}
        assert tot["checks"]["CHI-LE-4"]["fail"] == 0
        assert tot["checks"]["CHI-LE-4"]["pass"] == tot["isk4_free"]
        assert report.consistent()

    def test_exact_refusal_is_the_chi_le_4_witness(self, monkeypatch):
        # planted: the exact search finds no 4-colouring of any graph
        monkeypatch.setattr(scan, "chromatic_number_exact",
                            lambda g, bound: None)
        report = run(SMALL)
        free = report.totals()["isk4_free"]
        assert report.totals()["checks"]["CHI-LE-4"]["fail"] == free > 0
        assert report.failures[0] == {
            "line_no": 1, "graph6": SMALL[0], "check": "CHI-LE-4",
            "evidence": {"reason": "chromatic number exceeds four",
                         "bound": 4}}
        assert report.consistent()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_colouring_is_one_internal_error(self, monkeypatch, jobs):
        target = self.target

        def plant(g, out):
            if write_graph6(g) == target:
                raise RuntimeError("planted fault")
            return out

        self.count_calls(monkeypatch, plant)
        report = run(SMALL, checks=COLOUR_BOTH, parallelism=jobs)
        assert report.failures == [{
            "line_no": self.line_no, "graph6": target, "check": "internal_error",
            "evidence": {"type": "RuntimeError", "message": "planted fault"}}]
        assert report.internal_errors == 1
        assert report.totals()["read"] == len(SMALL) - 1


class TestEnumerateSmall:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_line_counts(self, n, count):
        lines = list(enumerate_small(n))
        assert len(lines) == count
        assert len(set(lines)) == count

    def test_n1_is_single_vertex(self):
        assert list(enumerate_small(1)) == ["@"]

    @pytest.mark.parametrize("bad", [0, 8, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            list(enumerate_small(bad))

    def test_lines_parse_back_in_code_order(self):
        for code, line in enumerate(enumerate_small(4)):
            assert parse_graph6(line) == Graph.from_code(4, code)

    @pytest.mark.parametrize("n,count", [(3, 4), (4, 38)])
    def test_connected_filter(self, n, count):
        assert len(list(enumerate_small(n, connected=True))) == count

    def test_scan_accepts_enumerator_output(self):
        report = run(enumerate_small(4), checks=("ISK4-FILTER",))
        assert report.totals()["read"] == 64
        assert report.per_n[4]["checks"]["ISK4-FILTER"]["skip"] == 1
