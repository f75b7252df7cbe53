"""CLI tests: exit-code taxonomy, JSON document shape, input plumbing and
the --budget flag.  Commands run in-process through main(argv); one
subprocess test covers the `isk4lab` entry point.  It runs the installed
console script if one is on PATH, else what such a script runs: the
[project.scripts] target from pyproject.toml, called as
`sys.exit(<attr>())`, so an uninstalled source tree is covered too."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import isk4lab
import isk4lab.cli as cli
import isk4lab.coloring as coloring
import isk4lab.scan as scan
from isk4lab.cli import main
from isk4lab.graphs import Graph, write_graph6
from isk4lab.lemmas import LemmaReport
from isk4lab.scan import ScanConfig

from test_patterns import K33, K123, K222, PRISM6

FIXTURE = str(Path(__file__).parent / "fixtures" / "small_graphs_n_le_5.g6")
PAST_N7 = str(Path(__file__).parent / "fixtures" / "past_n7.g6")
BOWTIE = write_graph6(Graph.from_edges(
    5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]))
K124_PENDANT = write_graph6(Graph.from_edges(
    8, Graph.complete_multipartite((1, 2, 4)).edges() + [(3, 7)]))
WHEEL5 = write_graph6(Graph.from_edges(
    6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]))
C5 = write_graph6(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))


def _src_env() -> dict:
    """The environment with the isk4lab this suite imports first on
    PYTHONPATH, so a subprocess runs it and not an older install."""
    src = str(Path(isk4lab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _entry_point_command():
    """argv prefix that runs the `isk4lab` console script: the installed one
    if found on PATH, else the declared target called the way a console-script
    wrapper calls it."""
    installed = shutil.which("isk4lab")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["isk4lab"]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


# `color D~{` (K5) byte for byte
K5_REFUSAL = """{
  "conjecture_counterexample": false,
  "evidence": {
    "bound": 4,
    "vertices": [
      0,
      1,
      2,
      3,
      4
    ]
  },
  "failure": "chromatic_bound_exceeded",
  "mode": "structural",
  "rule": 8
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestDetect:
    def test_isk4_in_k4(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "isk4", "C~")
        assert code == 0
        assert doc == {"found": True, "pattern": "isk4",
                       "vertices": [0, 1, 2, 3]}

    def test_isk4_absent(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "isk4", "DUW")
        assert code == 1
        assert doc == {"found": False, "pattern": "isk4"}

    @pytest.mark.parametrize("name,g", [
        ("k33", K33), ("k222", K222), ("prism", PRISM6)])
    def test_fixed_patterns(self, capsys, name, g):
        code, doc = run(capsys, "detect", "--pattern", name, write_graph6(g))
        assert code == 0
        assert doc["found"] and doc["vertices"] == list(range(6))

    def test_prism_absent_from_long_cycle(self, capsys):
        # C_30 has no K4 minor, so the search returns without walking subsets
        code, doc = run(capsys, "detect", "--pattern", "prism",
                        write_graph6(Graph.cycle(30)))
        assert code == 1
        assert doc == {"found": False, "pattern": "prism"}

    def test_wheel(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "wheel", WHEEL5)
        assert code == 0 and doc["found"]

    def test_k12n_default_floor(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "k12n",
                        write_graph6(K123))
        assert code == 0
        assert (doc["a"], doc["b"], doc["c"]) == (0, [1, 2], [3, 4, 5])

    def test_k12n_floor_excludes(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "k12n", "--n-min", "4",
                        write_graph6(K123))
        assert code == 1

    @pytest.mark.parametrize("n_min", ["1", "0", "-2"])
    def test_k12n_floor_below_two_is_input_error(self, capsys, n_min):
        assert main(["detect", "--pattern", "k12n", "--n-min", n_min,
                     write_graph6(K123)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_rich_square(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "rich-square",
                        write_graph6(K222))
        assert code == 0
        assert doc["whole"] and len(doc["links"]) == 2

    def test_unknown_pattern_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--pattern", "pentagon", "C~"])
        assert exc.value.code == 2

    def test_bad_graph_input(self, capsys):
        assert main(["detect", "--pattern", "isk4", "!!nope!!"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_input_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"\xff\n")
        assert main(["detect", "--pattern", "isk4", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read input:")

    @pytest.mark.parametrize("argv", [["detect", "--pattern", "isk4"],
                                      ["color"], ["decompose"]])
    def test_unreadable_path_is_input_error(self, capsys, tmp_path, argv):
        # a directory exists but cannot be read as a file
        assert main(argv + [str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read input:")


class TestColor:
    def test_exact_k4(self, capsys):
        code, doc = run(capsys, "color", "--mode", "exact", "C~")
        assert code == 0
        assert doc["k"] == 4 and sorted(doc["colors"]) == [0, 1, 2, 3]

    def test_exact_bound_exceeded(self, capsys):
        code, doc = run(capsys, "color", "--mode", "exact", "--bound", "2",
                        "DUW")
        assert code == 3
        assert doc["bound_exceeded"] and doc["bound"] == 2
        assert doc["conjecture_counterexample"] is False

    def test_exact_bound_zero_is_a_bound(self, capsys):
        code, doc = run(capsys, "color", "--mode", "exact", "--bound", "0",
                        "DUW")
        assert code == 3 and doc["bound"] == 0

    def test_exact_negative_bound_is_input_error(self, capsys):
        assert main(["color", "--mode", "exact", "--bound", "-1", "DUW"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_structural_multipartite(self, capsys):
        code, doc = run(capsys, "color", write_graph6(K222))
        assert code == 0
        assert doc["k"] == 3
        assert [s["rule"] for s in doc["trace"]] == ["Multipartite"]
        assert doc["trace"][0]["scope"] == list(range(6))

    def test_structural_fallback_still_succeeds(self, capsys):
        code, doc = run(capsys, "color", "DUW")
        assert code == 0 and doc["k"] == 3
        assert doc["trace"][-1]["rule"] == "LowDegreePeel"

    def test_structural_bound_exceeded_on_k5(self, capsys):
        assert main(["color", "D~{"]) == 3
        assert capsys.readouterr().out == K5_REFUSAL

    def test_structural_refusal_at_rule_8(self, capsys):
        # minimum degree 4 and an ISK4, yet four colours suffice: outside
        # the domain, not a bound exceeded
        code = main(["color", "F|\\kw"])
        captured = capsys.readouterr()
        assert code == 2 and "domain" in captured.err
        doc = json.loads(captured.out)
        assert doc["failure"] == "hypothesis_violation" and doc["rule"] == 8
        assert doc["conjecture_counterexample"] is False

    def test_structural_counterexample_candidate(self, capsys, monkeypatch):
        # planted: no rule takes C5 and the exact search finds no
        # 4-colouring, so the refusal names a counterexample candidate
        monkeypatch.setattr(coloring, "_TABLE", ())
        monkeypatch.setattr(coloring, "chromatic_number_exact",
                            lambda h, upper_bound=None: None)
        code, doc = run(capsys, "color", C5)
        assert code == cli.EXIT_BOUND
        assert doc == {
            "mode": "structural", "failure": "chromatic_bound_exceeded",
            "rule": 8, "conjecture_counterexample": True,
            "evidence": {"bound": 4, "vertices": [0, 1, 2, 3, 4],
                         "note": "needs five colours yet has no induced K4 "
                                 "subdivision: counterexample candidate"}}

    def test_structural_domain_violation(self, capsys):
        # K_{4,4} plus an edge: minimum degree 4, a K33, not multipartite
        host = write_graph6(Graph.from_edges(
            8, Graph.complete_multipartite([4, 4]).edges() + [(0, 1)]))
        code = main(["color", host])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["failure"] == "hypothesis_violation"
        assert "domain" in captured.err


class TestDecompose:
    def test_clique_cutset_two_k4(self, capsys):
        g = write_graph6(Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (4, 1), (4, 2), (4, 3)]))
        code, doc = run(capsys, "decompose", g)
        assert code == 0
        assert doc["clique_cutset"] == {"vertices": [1, 2, 3]}

    def test_multipartite_parts(self, capsys):
        code, doc = run(capsys, "decompose", write_graph6(K123))
        assert doc["complete_multipartite"] == {
            "parts": [[0], [1, 2], [3, 4, 5]]}

    def test_c6_is_only_a_line_graph(self, capsys):
        code, doc = run(capsys, "decompose", "EhEG")
        assert code == 0
        assert doc["subcubic_line_graph"] is not None
        assert doc["clique_cutset"] is None
        assert doc["proper_2cutset"] is None
        assert doc["rich_square"] is None
        assert doc["complete_multipartite"] is None


class TestCheckLemma:
    def test_voh_holds_on_k124_pendant(self, capsys):
        code, doc = run(capsys, "check-lemma", "--id", "l-voh", K124_PENDANT)
        assert code == 0
        assert doc["hypothesis_satisfied"] and doc["conclusion_holds"]
        assert doc["counterwitness"] is None

    def test_inapplicable_exits_clean(self, capsys):
        code, doc = run(capsys, "check-lemma", "--id", "l-voh", "C~")
        assert code == 0
        assert doc["hypothesis_satisfied"] is False

    def test_budget_flag(self, capsys):
        code, doc = run(capsys, "check-lemma", "--id", "l-link",
                        "--budget", "1", BOWTIE)
        assert code == 0
        assert doc["budget_exceeded"] and doc["checked"] == 1

    @pytest.mark.parametrize("lemma", ["link", "voh", "comp"])
    def test_id_either_case(self, capsys, lemma):
        lower = run(capsys, "check-lemma", "--id", "l-" + lemma, K124_PENDANT)
        upper = run(capsys, "check-lemma", "--id", "L-" + lemma.upper(), K124_PENDANT)
        assert upper == lower and lower[1]["lemma"] == "L-" + lemma.upper()

    def test_counterwitness_exit_code(self, capsys, monkeypatch):
        forged = LemmaReport("L-VOH", True, False,
                             counterwitness={"vertex": 0}, checked=7)
        monkeypatch.setattr(cli, "check_lemma", lambda *a, **k: forged)
        code, doc = run(capsys, "check-lemma", "--id", "l-voh", "C~")
        assert code == 4
        assert doc["counterwitness"] == {"vertex": 0}


class TestScanCommand:
    def test_clean_file_scan(self, capsys):
        code, doc = run(capsys, "scan", "--checks", "isk4-filter,chi-le-4",
                        FIXTURE)
        assert code == 0
        assert doc["meta"]["checks"] == ["CHI-LE-4", "ISK4-FILTER"]
        assert doc["totals"]["read"] == 52

    def test_past_n7_colours_all_and_fails_l_comp(self, capsys):
        # every graph is coloured and every graph is an L-COMP counterwitness
        code, doc = run(capsys, "scan", "--checks",
                        "ISK4-FILTER,STRUCTURAL-COLOR,L-COMP", PAST_N7)
        assert code == 4
        totals = doc["totals"]["checks"]
        assert totals["STRUCTURAL-COLOR"] == \
            {"budget": 0, "fail": 0, "pass": 9, "skip": 0}
        assert totals["L-COMP"] == {"budget": 0, "fail": 9, "pass": 0, "skip": 0}
        assert [f["check"] for f in doc["failures"]] == ["L-COMP"] * 9

    def test_stdin_stream(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nDUW\n"))
        code, doc = run(capsys, "scan", "--checks", "ISK4-FILTER")
        assert code == 0 and doc["totals"]["read"] == 2

    def test_failures_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nnot graph6\n"))
        code, doc = run(capsys, "scan", "--checks", "ISK4-FILTER")
        assert code == 4
        assert doc["totals"]["parse_failures"] == 1

    def test_undecodable_line_is_a_parse_failure(self, capsys, monkeypatch,
                                                 tmp_path):
        data = b"C~\n\xff\xfe\nBw\n"
        path = tmp_path / "mixed.g6"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        for source in (str(path), "-"):
            code, doc = run(capsys, "scan", "--checks", "ISK4-FILTER", source)
            assert code == 4
            assert doc["totals"]["parse_failures"] == 1
            assert doc["totals"]["read"] == 2
            assert doc["failures"][0]["line_no"] == 2

    def test_chi_le_4_failure_exit_code(self, capsys, monkeypatch):
        # planted: the exact search finds no 4-colouring of C5
        monkeypatch.setattr(scan, "chromatic_number_exact",
                            lambda g, bound: None)
        monkeypatch.setattr("sys.stdin", io.StringIO(C5 + "\n"))
        code, doc = run(capsys, "scan", "--checks", "chi-le-4")
        assert code == cli.EXIT_WITNESS
        assert doc["failures"] == [{
            "line_no": 1, "graph6": C5, "check": "CHI-LE-4",
            "evidence": {"reason": "chromatic number exceeds four",
                         "bound": 4}}]

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("planted fault")

        monkeypatch.setattr("isk4lab.lemmas.has_k4_minor", broken)
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        code, doc = run(capsys, "scan", "--checks", "ISK4-FILTER")
        assert code == 4
        assert [w["check"] for w in doc["failures"]] == ["internal_error"]

    # only --budget sets the cap; ISK4LAB_BUDGET, which older releases
    # read, is ignored
    @pytest.mark.parametrize("flag,env,want", [
        (None, None, ScanConfig.budget), ("5", "7", 5)])
    def test_budget_sources(self, capsys, monkeypatch, flag, env, want):
        monkeypatch.delenv("ISK4LAB_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("ISK4LAB_BUDGET", env)
        argv = ["scan", "--checks", "L-LINK", FIXTURE]
        if flag is not None:
            argv[1:1] = ["--budget", flag]
        code, doc = run(capsys, *argv)
        assert doc["meta"]["budget"] == want

    def test_wall_time_on_stderr_only(self, capsys):
        assert main(["scan", "--checks", "ISK4-FILTER", FIXTURE]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"scanned 52 graphs in \d+\.\ds\n", captured.err)
        assert "scanned" not in captured.out
        assert json.loads(captured.out)["totals"]["read"] == 52

    def test_unknown_check_rejected(self, capsys):
        assert main(["scan", "--checks", "chi-le-5", FIXTURE]) == 2

    def test_missing_file(self, capsys):
        assert main(["scan", "--checks", "CHI-LE-4", "no/such/file.g6"]) == 2


BUDGET_ARGV = pytest.mark.parametrize("argv", [
    ["check-lemma", "--id", "l-link", BOWTIE],
    ["scan", "--checks", "L-LINK", FIXTURE]], ids=["check-lemma", "scan"])


@BUDGET_ARGV
@pytest.mark.parametrize("flag,env", [
    ("0", None), ("-3", None), ("x", None), ("0", "7")])
def test_budget_must_be_positive(capsys, monkeypatch, argv, flag, env):
    # one rule for --budget on both subcommands; a valid ISK4LAB_BUDGET
    # does not stand in for a bad flag
    if env is not None:
        monkeypatch.setenv("ISK4LAB_BUDGET", env)
    argv = [argv[0], "--budget", flag, *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@BUDGET_ARGV
def test_budget_environment_ignored(capsys, monkeypatch, argv):
    # ISK4LAB_BUDGET=1 would cut both documents short if it were read
    monkeypatch.delenv("ISK4LAB_BUDGET", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("ISK4LAB_BUDGET", "1")
    assert run(capsys, *argv) == unset


class TestEnumerateCommand:
    def test_n3_lines(self, capsys):
        assert main(["enumerate", "--n", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and len(set(lines)) == 8

    def test_connected_filter(self, capsys):
        main(["enumerate", "--n", "3", "--connected"])
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_out_of_range(self, capsys):
        assert main(["enumerate", "--n", "0"]) == 2

    def test_closed_pipe_exits_quietly(self):
        # the reader stops after one line, as `| head -1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "isk4lab.cli", "enumerate", "--n", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first == b"E???\n"
        assert proc.returncode == cli.EXIT_ERROR and err == b""


class TestQuiet:
    def test_quiet_suppresses_stdout_keeps_exit(self, capsys):
        assert main(["--quiet", "detect", "--pattern", "isk4", "DUW"]) == 1
        assert capsys.readouterr().out == ""

    def test_quiet_scan(self, capsys):
        assert main(["--quiet", "scan", "--checks", "CHI-LE-4", FIXTURE]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestDeterminismAndEntryPoint:
    def test_repeat_invocations_byte_identical(self, capsys):
        main(["color", write_graph6(K123)])
        first = capsys.readouterr().out
        main(["color", write_graph6(K123)])
        assert capsys.readouterr().out == first

    def test_installed_script(self):
        script = _entry_point_command()
        env = _src_env()

        def run_script(*argv):
            return subprocess.run(script + list(argv), capture_output=True,
                                  text=True, env=env, timeout=60)

        proc = run_script("detect", "--pattern", "isk4", "C~")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["found"] is True
        # The exit status must come from main(), not from the wrapper.
        proc = run_script("detect", "--pattern", "isk4", "!!nope!!")
        assert proc.returncode == cli.EXIT_ERROR
        assert proc.stderr.startswith("error:")

    def test_version_is_read_from_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] \
            == {"attr": "isk4lab.__version__"}

    def test_edgelist_format(self, capsys):
        code, doc = run(capsys, "detect", "--pattern", "isk4",
                        "--format", "edgelist",
                        "4 6 0 1 0 2 0 3 1 2 1 3 2 3")
        assert code == 0 and doc["vertices"] == [0, 1, 2, 3]

    def test_edgelist_past_the_size_limit_is_input_error(self, capsys):
        # the header's n is checked before any allocation
        assert main(["detect", "--pattern", "isk4", "--format", "edgelist",
                     "1000000000000000000 0"]) == 2
        assert capsys.readouterr().err.startswith("error:")
