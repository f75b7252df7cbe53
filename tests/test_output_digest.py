"""scripts/output_digest.py on a few lines of each input."""

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import isk4lab.cli as cli
from scripts.output_digest import FAMILIES, ROOT, _child, digests

LIMIT = 3

# what output_digest.py --rev reads from its checkout: the scripts, the
# package (also in the archived revision), the ladders and the inputs
READ = ("scripts/output_digest.py", "scripts/bench_pairs.py", "src/isk4lab",
        "bench/ladders.py", *(f"tests/fixtures/{name}.g6" for name in (
            "scan_stream_100k", "past_n7", "four_cores", "comp_n9")))


def test_equal_trees_give_equal_digests():
    here = digests(LIMIT)
    assert list(here) == list(FAMILIES)
    assert _child(ROOT / "src", LIMIT) == here


def test_a_changed_colouring_changes_only_the_color_family(monkeypatch):
    before = digests(LIMIT)
    exact = cli.chromatic_number_exact

    def renamed(g, bound=None):
        col = exact(g, bound)
        return col and dataclasses.replace(
            col, color=tuple(col.k - 1 - c for c in col.color))

    monkeypatch.setattr(cli, "chromatic_number_exact", renamed)
    after = digests(LIMIT)
    assert {f for f in FAMILIES if after[f] != before[f]} == {"color"}


def _holding(text: str) -> list[int]:
    """The processes whose command line holds the text."""
    pids = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() \
                    and text.encode() in (proc / "cmdline").read_bytes():
                pids.append(int(proc.name))
        except OSError:  # the process ended while being read
            pass
    return pids


def _tail(f, size: int = 2000) -> str:
    """The last size bytes written to the file f, as text."""
    f.seek(0)
    return f.read()[-size:].decode(errors="replace")


def _repository(into: Path) -> Path:
    """A git repository of one commit holding the files READ names, so
    that --rev HEAD works in a checkout without .git too."""
    for name in READ:
        (into / name).parent.mkdir(parents=True, exist_ok=True)
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(ROOT / name, into / name)
    git = ["git", "-c", "user.name=isk4lab", "-c", "user.email=isk4lab@test",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "copy"]):
        subprocess.run(git + args, cwd=into, check=True, capture_output=True)
    return into


def test_sigterm_removes_the_extracted_tree_and_its_child(tmp_path,
                                                          tmp_path_factory):
    """Stopped by SIGTERM while it digests the extracted revision,
    output_digest.py --rev exits and leaves neither the git archive copy
    nor the child digesting it behind."""
    repo = _repository(tmp_path_factory.mktemp("repo"))
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    with tempfile.TemporaryFile() as err:  # tmp_path must end empty
        proc = subprocess.Popen(
            [sys.executable, str(repo / "scripts" / "output_digest.py"),
             "--rev", "HEAD", "--limit", str(LIMIT)],
            env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 120
            while not _holding(str(tmp_path)):  # the child digesting the copy
                assert proc.poll() is None, \
                    "finished before its child started:\n" + _tail(err)
                assert time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            proc.kill()
    deadline = time.monotonic() + 10
    while _holding(str(tmp_path)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _holding(str(tmp_path)) == []
    assert list(tmp_path.iterdir()) == []
