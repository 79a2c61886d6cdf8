"""Shared fixtures for the test suite.

The ``acceptance`` fixture records one verdict line per acceptance criterion
and replays the lines into the terminal summary, so they are visible even
when pytest captures stdout.

The driver compiles each gadget's outcome rows once per process
(``driver._ROWS``, with each key's greedy path operator in
``driver._GREEDY`` and its rows' scores in ``driver._SCORES``) and the
exact walk checks each key's rows once (``driver._CHECKED``); the
no-signaling audit compiles each octant's server views
(``blindness._VIEWS``) and interns their blocks (``blindness._BLOCKS``),
as rows of per-dimension stacks (``blindness._STACKS``), and their server
records (``blindness._SLOTS``). Rows and views both come from the one walk
of a step, ``driver.walk_gadget``. A test that patches a gadget, or the
``drive_gadget`` the walk calls, must compile and check its own rows and
views and leave none behind, so all eight tables are emptied around every
test.
"""

import pytest

from adbqc import blindness
from adbqc.protocols import driver

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    def report(number: int, name: str, passed: bool) -> str:
        line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        return line

    return report


@pytest.fixture(autouse=True)
def fresh_gadget_rows():
    tables = (driver._ROWS, driver._GREEDY, driver._SCORES, driver._CHECKED, blindness._VIEWS,
              blindness._BLOCKS, blindness._STACKS, blindness._SLOTS)
    for table in tables:
        table.clear()
    yield
    for table in tables:
        table.clear()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
