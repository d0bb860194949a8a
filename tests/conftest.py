"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventseg.detection as detection

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.fixture
def fresh_python(tmp_path):
    """Runs ``python *argv`` in a fresh interpreter that imports the package
    from ``src``, in ``tmp_path``, and returns the completed process with
    its text output. The variables named in ``unset`` are removed from the
    child's environment."""

    def run(*argv, unset=(), timeout=300) -> subprocess.CompletedProcess:
        env = {name: value for name, value in os.environ.items() if name not in unset}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *map(str, argv)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=timeout)

    return run
