import sys

import pytest

from _accept import SUMMARY

# The isk4lab modules the test modules imported, as collection left them.
# bench/run.py's import_fresh re-imports the package, so a test that runs
# after the benchmark's tests would otherwise find other module objects in
# sys.modules than the ones its module bound, and pickle, which looks a
# function up there by name, would refuse to send it to a worker.
_IMPORTED = pytest.StashKey[dict]()


def pytest_collection_finish(session):
    session.config.stash[_IMPORTED] = {
        name: module for name, module in sys.modules.items()
        if name.split(".")[0] == "isk4lab"}


@pytest.fixture(autouse=True)
def _collected_isk4lab(request):
    sys.modules.update(request.config.stash[_IMPORTED])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if SUMMARY:
        terminalreporter.section("acceptance summary")
        for line in SUMMARY:
            terminalreporter.write_line(line)
