"""Benchmark steps in a fresh process.

Usage: python3 worker.py SPEC.json

SPEC names the package's source directory, whether to trace, the steps to
run in order, an optional loop (run the steps again, pass after pass,
until ``seconds`` have passed and at least ``min`` passes ran; ``{pass}``
in an argument becomes the pass number) and the file to write the result
to. Steps are CLI commands
(run through ``eventseg.cli.main`` in this process, the way the console
script runs them) or input generation from ``inputs``; a step with
``repeat_s`` runs again until that many seconds have passed. The first
failing step ends the pass and the loop. The result records, per pass, each
step's start, the end of its first run, the duration of every run, the exit
code and, for the first run of a CLI command, when each training progress
line (``step N: ...``) was printed; the process's peak RSS; when asked,
the times of the reference kernel (see ``Reference``); and, when tracing,
every span. Times are ``perf_counter`` readings of this process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs

# Each reference kernel runs REFERENCE_RUNS times back to back, at most once
# every REFERENCE_EVERY_S: before each run of a step and at each training
# progress line.
REFERENCE_EVERY_S = 0.1
REFERENCE_RUNS = 2


class Reference:
    """Two fixed kernels whose times say how fast the CPU the worker runs on
    is at that moment, for two kinds of work (NOTES.md says which kernel
    follows which command best when the host slows down):

    * ``numeric``: Python integer arithmetic, small numpy matrix products
      and numpy work on 1 MB arrays (~8 ms on the reference machine);
    * ``io``: write 300 annotation-like records as JSON to a file, read the
      file back and parse it (~4 ms).

    They depend on nothing in the package, so a change to the package does
    not change their times. ``blocks`` holds ``[start, end, {kernel:
    shortest run}]`` of each time they ran; ``run.py`` scales each timing by
    the blocks around it. A disabled reference never runs."""

    def __init__(self, enabled: bool, kernel_file: Path):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 32)) * 0.1
        self.b = rng.standard_normal((32, 32)) * 0.1
        self.rows = rng.standard_normal((2000, 64))
        self.w = rng.standard_normal((64, 64)) * 0.1
        self.records = [
            {"video_id": f"v{i}", "num_frames": 190, "fps": 30.0,
             "boundaries": list(range(0, 190, 17)), "scores": [0.5] * 12}
            for i in range(300)
        ]
        self.kernel_file = kernel_file
        self.kernels = {"numeric": self.numeric, "io": self.io}
        self.enabled = enabled
        self.blocks: list[list] = []

    def numeric(self) -> float:
        import numpy as np

        total = 0
        for i in range(50_000):
            total += (i * i) % 7
        m = self.a
        for _ in range(80):
            m = np.tanh(m @ self.b + self.a)
        x = self.rows
        for _ in range(5):
            x = np.tanh(x @ self.w)
        return total + float(np.abs(np.diff(x, axis=0)).sum())

    def io(self) -> int:
        self.kernel_file.write_text(json.dumps(self.records), encoding="utf-8")
        return len(json.loads(self.kernel_file.read_text(encoding="utf-8")))

    def maybe(self, force: bool = False) -> float:
        """Run the kernels if they are due; returns the seconds spent."""
        start = perf_counter()
        if not self.enabled or (
                not force and self.blocks and start - self.blocks[-1][1] < REFERENCE_EVERY_S):
            return 0.0
        best = {}
        # Without the collector, whose passes cost in proportion to what the
        # package keeps alive, the kernels' times depend on the CPU alone.
        gc.disable()
        try:
            for name, kernel in self.kernels.items():
                for _ in range(REFERENCE_RUNS):
                    t0 = perf_counter()
                    kernel()
                    best[name] = min(best.get(name, float("inf")), perf_counter() - t0)
        finally:
            gc.enable()
        end = perf_counter()
        self.blocks.append([start, end, best])
        return end - start


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def slice_oracle(step: dict) -> dict:
    """Compare the long-video error trajectory with the same frames
    reconstructed from window-length slices of the video."""
    import numpy as np

    from eventseg.checkpoint import load_model
    from eventseg.config import load_config
    from eventseg.data import FrameFeatureSequence, load_corpus
    from eventseg.detection import error_trajectory

    run_cfg = load_config(step["config"])
    cfg = run_cfg.detector
    enc, rec, _, _ = load_model(step["checkpoint"])
    video = load_corpus(Path(run_cfg.paths.data_dir))[0]
    full = error_trajectory(video, enc, rec, cfg).values
    T, mid = cfg.window, cfg.window // 2
    first, last = mid, video.num_frames - T + mid
    rng = np.random.default_rng(step["seed"])
    frames = sorted({first, last, *rng.integers(first, last + 1, size=step["frames"] - 2).tolist()})
    worst = 0.0
    for f in frames:
        window = FrameFeatureSequence("slice", video.fps, video.features[f - mid : f - mid + T])
        value = float(error_trajectory(window, enc, rec, cfg).values[mid])
        worst = max(worst, abs(value - float(full[f])) / max(abs(float(full[f])), 1e-12))
    return {"frames": len(frames), "worst_rel_err": worst}


class ProgressClock(io.TextIOBase):
    """Stands in for stdout during a CLI command: discards the output and,
    at each training progress line, notes the time and lets the reference
    kernel run if it is due. ``marks`` holds ``[step, time, resumed]``;
    ``paused`` the seconds the kernel took."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.marks: list[list[float]] = []
        self.paused = 0.0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if text.startswith("step ") and ":" in text:
            step = text[5:text.index(":")]
            if step.isdigit():
                t = perf_counter()
                spent = self.reference.maybe()
                self.paused += spent
                self.marks.append([int(step), t, t + spent])
        return len(text)


def run_step(step: dict, tracer, clock: ProgressClock) -> tuple[object, dict]:
    """Run one step; returns (exit code, extra result fields)."""
    kind = step["kind"]
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if kind == "cli":
        import eventseg.cli

        with span("cli." + step["argv"][0]), contextlib.redirect_stdout(clock):
            return eventseg.cli.main(step["argv"]), {"progress": clock.marks}
    if kind == "ini":
        inputs.write_ini(Path(step["path"]), Path(step["data_dir"]),
                         Path(step["annotations"]), step["steps"])
        return 0, {}
    if kind == "corpus":
        with span("bench.make_corpus"):
            frames = inputs.make_detect_corpus(step["seed"], Path(step["out"]))
        return 0, {"frames": frames}
    if kind == "probe_corpus":
        inputs.make_probe_corpus(step["seed"], step["frames"], Path(step["out"]))
        return 0, {}
    if kind == "slice_oracle":
        return 0, slice_oracle(step)
    raise ValueError(f"unknown step kind {kind!r}")


def run_pass(steps: list[dict], tracer, reference: Reference) -> list[dict]:
    """Run the steps once, in order, up to the first failure."""
    done = []
    for step in steps:
        start = perf_counter()
        samples, runs, first = [], [], {}
        while True:
            reference.maybe()
            clock = ProgressClock(reference)
            t0 = perf_counter()
            try:
                # Command output is not part of the result; the tables
                # printed outside a CLI command go to stdout, which the
                # caller discards.
                code, extra = run_step(step, tracer, clock)
            except SystemExit as exc:
                code, extra = exc.code, {}
            except Exception:  # noqa: BLE001 - any crash is a failed step, reported
                traceback.print_exc()
                code, extra = "exception", {}
            t1 = perf_counter()
            samples.append(t1 - t0 - clock.paused)
            runs.append([t0, t1])
            first = first if samples[1:] else extra
            if code != 0 or perf_counter() - start >= step.get("repeat_s", 0.0):
                break
        done.append({"name": step.get("name", step["kind"]), "kind": step["kind"],
                     "start": start, "end": start + samples[0], "samples": samples,
                     "runs": runs, "code": code, **first})
        if code != 0:
            break
    return done


def _numbered(steps: list[dict], k: int) -> list[dict]:
    """The steps with ``{pass}`` in their arguments replaced by ``k``."""
    return [{**s, "argv": [a.replace("{pass}", str(k)) for a in s["argv"]]} if "argv" in s
            else s for s in steps]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    # Import before the first step so that step times exclude it.
    import eventseg.cli  # noqa: F401

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loop = spec.get("loop", {"seconds": 0, "min": 1, "budget": float("inf")})
    reference = Reference(spec.get("reference", False),
                          Path(spec["result"]).with_suffix(".kernel.json"))
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(_numbered(spec["steps"], len(passes)), tracer, reference))
        failed = len(passes[-1]) != len(spec["steps"])
        elapsed, last = perf_counter() - start, perf_counter() - t0
        if failed or (len(passes) >= loop["min"] and
                      (elapsed >= loop["seconds"] or elapsed + last > loop["budget"])):
            break
    reference.maybe(force=True)
    from eventseg.config import ModelConfig

    result = {
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reference": reference.blocks,
        "versions": _versions(),
        "queue_capacity": ModelConfig().queue_capacity,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
