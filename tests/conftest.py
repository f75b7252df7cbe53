from _accept import SUMMARY


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if SUMMARY:
        terminalreporter.section("acceptance summary")
        for line in SUMMARY:
            terminalreporter.write_line(line)
