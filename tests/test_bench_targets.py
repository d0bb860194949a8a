"""The benchmark's per-layer hooks still name real package attributes.

``bench/tracer.py`` wraps the functions listed in its ``TARGETS`` table and
silently skips a name that no longer resolves, which would leave a per-layer
metric empty. This test loads the table (without installing anything) and
resolves every entry, so a rename or move fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    for span, (module_name, qualname, _, _) in targets.items():
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{qualname}"
