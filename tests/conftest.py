import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Echo the acceptance criterion verdicts where they are visible even
    # when per-test stdout is captured.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def kernel_min(request, monkeypatch):
    """jsonutil's cutoff for one test: the shipped _KERNEL_MIN, or the test's
    param (1 sends every plain-float column through the decimal kernel)."""
    import bjaudit.jsonutil as jsonutil

    size = getattr(request, "param", jsonutil._KERNEL_MIN)
    monkeypatch.setattr(jsonutil, "_KERNEL_MIN", size)
    return size
