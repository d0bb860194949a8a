"""Every function and method of the package is reached by the commands.

The guard runs ``synth -> train -> detect --dump-trajectory -> eval`` and
one failing command in-process, on the tiny configuration of
``test_cli.py``, under a profile hook on every thread, and collects the
code objects that were called. Every module-level function and method
defined in ``src/eventseg`` must be among them or be listed in
``ALLOWED`` with the reason it is kept: code that no command reaches and
no reason keeps should go.
"""

import importlib
import inspect
import pkgutil
import sys
import threading
from pathlib import Path

import eventseg
from eventseg.cli import main

from test_cli import TINY_CONFIG

# qualified name -> why it stays although no command below reaches it.
ALLOWED = {
    "eventseg._one_blas_thread": "import-time policy: runs once, before any command",
    "eventseg._keep_freed_memory": "import-time policy: runs once, before any command",
    "eventseg.reconstruction.compute_losses": "bench/tracer.py target; the joint-graph oracle",
    "eventseg.detection.error_trajectory": "bench/tracer.py target; one video's trajectory",
    "eventseg.metrics.match_boundaries": "bench/tracer.py target; the matched pairs",
    "eventseg.data.Annotation.frames": "bench/tracer.py target; boundaries as a list",
    "eventseg.tensor.Tensor.__matmul__": "the product the composed test oracles are built from",
    "eventseg.tensor.Tensor.item": "public scalar accessor; the tests read losses with it",
    "eventseg.tensor.ParameterArena.first_non_finite": "reached only by a non-finite update",
}

ALLOWED_NAMES = {"__repr__": "debugging aid", "__len__": "container protocol"}


def _package_functions() -> dict:
    """Code object -> qualified name of every function and method written
    in the package's source files, properties' getters included."""
    modules = [eventseg] + [
        importlib.import_module(f"eventseg.{info.name}")
        for info in pkgutil.iter_modules(eventseg.__path__)
    ]
    found = {}

    def add(owner_name, name, obj, filename):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            obj = obj.fget
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == filename:
            found[code] = f"{owner_name}.{name}"

    for module in modules:
        filename = module.__file__
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    add(f"{module.__name__}.{name}", attr, member, filename)
            else:
                add(module.__name__, name, obj, filename)
    return found


def _run_commands(tmp_path) -> set:
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    text = TINY_CONFIG.format(data_dir=out / "features", annotations=out / "annotations.json")
    text = text.replace("seed = 3\n\n[paths]", "seed = 3\nlog_every = 1\n\n[paths]")
    config.write_text(text + "\n[evaluation]\nthresholds = 0.05,0.1\n")
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    commands = [
        (["synth", "--config", config, "--out", out], 0),
        (["train", "--config", config, "--out", out], 0),
        (["detect", "--config", config, "--out", out,
          "--checkpoint", out / "checkpoint.bin", "--dump-trajectory"], 0),
        (["eval", "--config", config, "--out", out], 0),
        (["detect", "--config", config, "--out", out], 2),
    ]
    codes = []
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for argv, _ in commands:
            codes.append(main([str(a) for a in argv]))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [code for _, code in commands]
    return reached


def test_every_package_function_is_reached_or_allowed(tmp_path, capsys):
    functions = _package_functions()
    names = set(functions.values())
    assert set(ALLOWED) <= names, sorted(set(ALLOWED) - names)
    reached = _run_commands(tmp_path)
    capsys.readouterr()
    unreached = sorted(
        name for code, name in functions.items()
        if code not in reached and name not in ALLOWED
        and name.rsplit(".", 1)[1] not in ALLOWED_NAMES)
    assert unreached == [], unreached
    # An allowlist entry that the commands do reach no longer needs a reason.
    reached_names = {name for code, name in functions.items() if code in reached}
    assert sorted(set(ALLOWED) & reached_names) == []


def test_the_guard_sees_package_source_files():
    functions = _package_functions()
    files = {Path(code.co_filename).name for code in functions}
    assert {"cli.py", "tensor.py", "reconstruction.py", "detection.py"} <= files
    assert "eventseg.embedding.MemoryQueue.extend" in functions.values()
