import sys
from pathlib import Path

import pytest

try:
    import cuberow  # noqa: F401
except ImportError:
    # Allow running the suite from a fresh checkout without installing; the
    # package is pure Python, so the source tree imports as is.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_ACCEPTANCE_RESULTS: dict[str, tuple[bool, int]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        title = (item.function.__doc__ or item.name).strip().splitlines()[0]
        # parametrized criteria collapse to one line; any failing case fails it
        passed, seen = _ACCEPTANCE_RESULTS.get(title, (True, 0))
        _ACCEPTANCE_RESULTS[title] = (passed and report.outcome == "passed", seen + 1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for title in sorted(_ACCEPTANCE_RESULTS):
        passed, _ = _ACCEPTANCE_RESULTS[title]
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {title}")
