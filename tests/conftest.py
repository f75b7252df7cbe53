import sys
from pathlib import Path

# the repository root, so tests can build graphs with the benchmark's seeded
# generators in bench/ladders.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _accept import SUMMARY  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if SUMMARY:
        terminalreporter.section("acceptance summary")
        for line in SUMMARY:
            terminalreporter.write_line(line)
