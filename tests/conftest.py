"""Shared pytest hooks.

The acceptance tests in test_acceptance.py each attach a one-line verdict via
the acceptance_line fixture. The summary hook replays those lines (or a FAIL
line for criteria that did not pass) in a summary section, so a plain
`pytest -v` run always ends with one explicit line per criterion.
"""

import re

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")


@pytest.fixture
def acceptance_line(request):
    """Attach a verdict line to the test's report.

    Appends to user_properties directly rather than through record_property,
    which warns (an error under this suite's filterwarnings) whenever a JUnit
    XML report in the default xunit2 family is written.
    """
    def record(line):
        request.node.user_properties.append(("acceptance_line", line))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = _CRITERION.search(nodeid)
            if not m:
                continue
            num = int(m.group(1))
            if getattr(rep, "when", "call") == "call" and rep.passed:
                recorded = dict(rep.user_properties).get("acceptance_line")
                lines[num] = recorded or f"ACCEPTANCE {num}: PASS"
            elif not rep.passed:
                lines[num] = (f"ACCEPTANCE {num}: FAIL "
                              f"({nodeid.split('::')[-1]}, {outcome} at {rep.when})")
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
