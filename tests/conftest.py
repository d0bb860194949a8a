"""Fixtures shared by the test modules."""

import sys

import pytest

import eventseg.detection as detection


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so detection deals its blocks
    to two threads and training runs its two branches on two threads."""
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 2)


@pytest.fixture
def fast_switching():
    """Threads switch as often as the interpreter allows, so a thread that
    wrote into another's state would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
