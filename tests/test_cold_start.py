"""Start-up cost: no command loads ``scipy.optimize``.

``scipy.optimize`` takes longer to import than the rest of the package, and
only ``match_boundaries`` needs it, so ``synth``, ``train``, ``detect`` and
``eval`` must all run without it. The check needs a fresh interpreter,
because this test process already imports scipy through ``test_metrics.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

from eventseg.cli import main

from test_cli import TINY_CONFIG

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

import eventseg.cli

config, out = sys.argv[1:]
common = ["--config", config, "--out", out]
assert eventseg.cli.main(["synth", *common]) == 0
assert eventseg.cli.main(["train", *common]) == 0
assert eventseg.cli.main(["detect", *common, "--checkpoint", out + "/checkpoint.bin"]) == 0
assert eventseg.cli.main(["eval", *common]) == 0
assert "scipy.optimize" not in sys.modules, "a command loaded scipy.optimize"
"""


def test_no_command_imports_the_assignment_solver(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        TINY_CONFIG.format(data_dir=out / "features", annotations=out / "annotations.json")
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr

    # The same scoring in a process that has the solver loaded.
    lazy = (out / "metrics.json").read_bytes()
    assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.json").read_bytes() == lazy
