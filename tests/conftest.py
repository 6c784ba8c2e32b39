from __future__ import annotations

from pathlib import Path

import pytest

from nsra.registry import builtin_crypto_profile

GOLDEN = Path(__file__).parent / "golden"

# What real CodeQL files put before the query: nothing, an import line, or
# QLDoc metadata, imports and a line comment.  The reader skips comments and
# reads the imports apart from the query.
QL_PREAMBLES = ("", "import java\n", "/** @kind problem */\nimport java\n// note\n")

# Criterion name -> PASS / FAIL / SKIP, in the order the criteria ran.
_acceptance_results: dict[str, str] = {}


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def registry():
    return builtin_crypto_profile()


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def pytest_runtest_logreport(report):
    """Fold the setup, call and teardown reports of each criterion into one
    label: a failure in any phase is a FAIL, a skip in any phase a SKIP."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.failed:
        _acceptance_results[name] = "FAIL"
    elif report.skipped:
        _acceptance_results.setdefault(name, "SKIP")
    elif report.when == "call":
        _acceptance_results.setdefault(name, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in _acceptance_results.items():
        terminalreporter.write_line(f"{label}  {name}")
