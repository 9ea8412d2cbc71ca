"""Fixtures shared by the test modules."""

import pytest

from qgordon import harness


@pytest.fixture
def serial(monkeypatch):
    """Sweep every weight class in the test's own process, so that what
    a test records in its memory during a sweep is all the sweep did."""
    monkeypatch.setattr(harness, "_workers", lambda: 1)
