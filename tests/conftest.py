"""Shared set-up for the test suite."""

import pytest

from hooklab import hooks


@pytest.fixture(autouse=True)
def _empty_census_memo(monkeypatch):
    """An empty census memo for every test, the process's own restored
    after, so each census a test asks for is scanned at its own shape
    unless the test itself repeats one."""
    monkeypatch.setattr(hooks, "_CENSUS_MEMO", {})
