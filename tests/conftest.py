"""Fixtures shared by the test modules."""

import pytest

import eventseg.detection as detection


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so detection deals its blocks
    to two threads and training runs its two branches on two threads."""
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 2)
