"""What a fresh interpreter gets from ``import eventseg``.

The package runs without scipy. numpy is the package's one runtime
dependency; scipy serves only the tests as an oracle. A fresh interpreter
that cannot import scipy runs ``synth``, ``train``, ``detect`` and ``eval``
and lists the matched boundary pairs with ``match_boundaries``. Its
``metrics.json`` and pairs must equal those of the same scoring in this test
process, which has scipy loaded. The third-party modules that the package
imports are exactly the runtime dependencies that ``pyproject.toml``
declares.

Importing the package gives BLAS one thread unless the user set the count,
since the package's own threads are its parallelism, also when numpy was
imported first.
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest
import scipy.optimize  # noqa: F401

from eventseg import annotations_by_id, load_annotations, match_boundaries
from eventseg.cli import main

from test_cli import TINY_CONFIG

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

sys.modules["scipy"] = None  # every import of scipy or a submodule now fails

import eventseg.cli
from eventseg import annotations_by_id, load_annotations, match_boundaries

config, out = sys.argv[1:]
common = ["--config", config, "--out", out]
assert eventseg.cli.main(["synth", *common]) == 0
assert eventseg.cli.main(["train", *common]) == 0
assert eventseg.cli.main(["detect", *common, "--checkpoint", out + "/checkpoint.bin"]) == 0
assert eventseg.cli.main(["eval", *common]) == 0
detections = annotations_by_id(load_annotations(out + "/detections.json"))
truths = load_annotations(out + "/annotations.json")
print(json.dumps([match_boundaries(detections[gt.video_id], gt, 0.5) for gt in truths]))
"""


def test_commands_and_matching_run_without_scipy(tmp_path, fresh_python):
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        TINY_CONFIG.format(data_dir=out / "features", annotations=out / "annotations.json")
    )
    result = fresh_python("-c", SCRIPT, config, out)
    assert result.returncode == 0, result.stderr
    pairs = json.loads(result.stdout.splitlines()[-1])

    # The same scoring in a process that has scipy loaded.
    without_scipy = (out / "metrics.json").read_bytes()
    assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.json").read_bytes() == without_scipy
    detections = annotations_by_id(load_annotations(out / "detections.json"))
    truths = load_annotations(out / "annotations.json")
    assert any(pairs)
    assert pairs == [
        [list(pair) for pair in match_boundaries(detections[gt.video_id], gt, 0.5)]
        for gt in truths
    ]


def test_package_imports_exactly_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    imported = set()
    for path in (ROOT / "src" / "eventseg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"eventseg"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert third_party == declared == {"numpy"}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PRINT_BLAS_THREADS = f"""
import os
import eventseg
print(*(os.environ.get(name) for name in {BLAS_THREADS!r}))
"""


def test_import_gives_blas_one_thread_unless_the_user_chose(fresh_python):
    result = fresh_python("-c", PRINT_BLAS_THREADS, unset=BLAS_THREADS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "1", "1"]

    chosen = f"import os; os.environ['OPENBLAS_NUM_THREADS'] = '3'\n{PRINT_BLAS_THREADS}"
    result = fresh_python("-c", chosen, unset=BLAS_THREADS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["3", "1", "1"]


LOADED_BLAS_THREADS = """
import ctypes
import os
import sys

chosen, package = sys.argv[1:]
if chosen:
    os.environ["OPENBLAS_NUM_THREADS"] = chosen
import numpy
if package == "eventseg":
    import eventseg
blas = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
getter = getattr(blas, "scipy_openblas_get_num_threads64_", None)
print(getter() if getter is not None else "unknown")
"""


def test_import_after_numpy_gives_blas_one_thread_unless_the_user_chose(fresh_python):
    def threads(chosen, package):
        result = fresh_python("-c", LOADED_BLAS_THREADS, chosen, package, unset=BLAS_THREADS)
        assert result.returncode == 0, result.stderr
        return result.stdout.strip()

    if threads("", "numpy") == "unknown":
        pytest.skip("numpy's BLAS does not report its thread count")
    assert threads("", "eventseg") == "1"
    # A count the user chose is what numpy alone gets: 2 on a host of two
    # or more CPUs.
    assert threads("2", "eventseg") == threads("2", "numpy")
