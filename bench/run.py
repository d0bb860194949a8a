"""eventseg benchmark: one workload, one seed, timed or traced.

Usage, from the root of the repository:

    python3 bench/run.py --workload pipeline --seed 7 --seconds 35 --trace 0

Workloads (see NOTES.md for why each exists):

* ``pipeline``     - default corpus; train, detect and eval in one closed loop.
* ``detect-long``  - two 12k-frame videos; detect and eval with a checkpoint
  from a short seeded training made in set-up.

With ``--trace 0`` the benchmark sets the inputs up ``SETUP_REPS`` times, each
in a fresh process, then starts one fresh process that runs the workload's
CLI commands pass after pass (one client, closed loop: each command starts
when the previous one ends) until ``--seconds`` have passed and at least
``MIN_PASSES`` ran; ``detect`` and ``eval`` repeat within each pass for
``REPEAT_S``. The host this was written on switches each of its CPUs
between a fast and a slow speed, for seconds to minutes at a time
(NOTES.md), so the worker times two fixed reference kernels, at most every
0.1 s (before command runs, and at the training progress lines), and
each timing is scaled by the speed, just before and just after it, of the
kernel that follows its command best: ``detect`` and ``eval`` run by run,
``train`` segment by segment between its progress lines. The benchmark reports medians of the scaled times;
unscaled medians are in the ``detail`` line. The peak RSS is that of the
timed process. With ``--trace 1`` it runs the set-up and the commands once
untraced and once traced (layer functions wrapped by ``tracer.py``), each in
a fresh process and without repeats, checks that both produce the same
bytes, and adds a detection memory-scaling probe.

Both modes check outputs: every command exits 0, set-up and command outputs
are byte-identical across repetitions of the seed, detections cover the
corpus, quality figures are finite ratios, and on ``detect-long`` the
long-video error trajectory agrees with window-length slices. The last
stdout line is the JSON result; the lines before it give the environment and
every raw figure.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
MIN_PASSES = 2
# One BLAS thread: the matrices are small, and on the reference machine
# (nproc 2) a second thread did not change the training step time.
BLAS_THREADS = 1
# Run-time budget: workers are stopped at it, and the timed loop starts no
# pass expected to end later than RESERVE_S before it.
BUDGET_S = 170.0
RESERVE_S = 20.0
# Timed runs repeat `detect` and `eval` for this long within each pass: on
# `pipeline` they take ~0.4 s and ~20 ms, on `detect-long` ~2 s and ~0.6 s;
# the medians need many samples of each.
REPEAT_S = {"pipeline": 1.0, "detect-long": 2.0}
# Timings are scaled to a machine on which the worker's reference kernels
# take this long (about the reference machine's fast speed), each command by
# the kernel that follows it best when the host slows down (NOTES.md).
REFERENCE_S = {"numeric": 0.008, "io": 0.004}
KERNEL_OF = {"train": "numeric", "detect": "numeric", "eval": "io"}
SLICE_FRAMES = 16
SLICE_RTOL = 1e-4
PROBE_FRAMES = (10_000, 100_000)
BIG_PROBE_FRAMES = 1_000_000
# Window for train_loss_last: the default [training] log_every.
TRAIN_LOSS_WINDOW = 100


class Ledger:
    """Counts operations (commands and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def cli(*argv, repeat_s: float = 0.0) -> dict:
    """A CLI command step; with ``repeat_s`` the worker runs it again until
    that many seconds have passed."""
    return {"kind": "cli", "name": str(argv[0]), "argv": [str(a) for a in argv],
            "repeat_s": repeat_s}


def ini(path: Path, data: Path, steps: int) -> dict:
    return {"kind": "ini", "path": str(path), "data_dir": str(data / "features"),
            "annotations": str(data / "annotations.json"), "steps": steps}


def setup_steps(workload: str, seed: int, d: Path) -> list[dict]:
    """Corpus generation, feature files and INI; for `detect-long` also the
    short training that makes the checkpoint, and the corpus to detect on."""
    if workload == "pipeline":
        return [ini(d / "run.ini", d, inputs.PIPELINE_STEPS),
                cli("synth", "--config", d / "run.ini", "--seed", seed, "--out", d)]
    train, det = d / "train", d / "detect"
    return [
        ini(d / "train.ini", train, inputs.SHORT_TRAIN_STEPS),
        cli("synth", "--config", d / "train.ini", "--seed", seed, "--out", train),
        cli("train", "--config", d / "train.ini", "--seed", seed, "--out", train),
        {"kind": "corpus", "seed": seed, "out": str(det)},
        ini(d / "detect.ini", det, inputs.SHORT_TRAIN_STEPS),
    ]


def checkpoint_of(workload: str, d: Path, out: Path) -> Path:
    return out / "checkpoint.bin" if workload == "pipeline" else d / "train" / "checkpoint.bin"


def timed_steps(workload: str, seed: int, d: Path, out: Path,
                repeat_s: float = 0.0) -> list[dict]:
    """The commands a user runs on the set-up inputs; ``detect`` and
    ``eval`` each repeat for ``repeat_s`` seconds."""
    cfg = d / ("run.ini" if workload == "pipeline" else "detect.ini")
    train = [cli("train", "--config", cfg, "--seed", seed, "--out", out)]
    return (train if workload == "pipeline" else []) + [
        cli("detect", "--config", cfg, "--out", out,
            "--checkpoint", checkpoint_of(workload, d, out), repeat_s=repeat_s),
        cli("eval", "--config", cfg, "--out", out, repeat_s=repeat_s),
    ]


def setup_outputs(workload: str, d: Path) -> list[Path]:
    if workload == "pipeline":
        return [d / "features", d / "annotations.json"]
    return [d / "train" / "features", d / "train" / "checkpoint.bin",
            d / "detect" / "features", d / "detect" / "annotations.json"]


def run_outputs(workload: str, d: Path, out: Path) -> list[Path]:
    return [checkpoint_of(workload, d, out), out / "detections.json", out / "metrics.json"]


def corpus_annotations(workload: str, d: Path) -> list[dict]:
    path = d / "annotations.json" if workload == "pipeline" else d / "detect" / "annotations.json"
    return json.loads(path.read_text())


def digest(paths: list[Path]) -> str:
    """SHA-256 over the files (and the files under the directories) given;
    a missing path hashes differently from any file."""
    h = hashlib.sha256()
    for base in paths:
        if not base.exists():
            h.update(b"\0missing\0")
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for f in files:
            if f.is_file():
                h.update(f.relative_to(base).as_posix().encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts workers in fresh processes and waits for each to end."""

    def __init__(self, work: Path, ledger: Ledger):
        self.work = work
        self.ledger = ledger
        self.start = perf_counter()
        self.env = dict(os.environ, **{
            var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        })

    def left(self) -> float:
        return BUDGET_S - (perf_counter() - self.start)

    def __call__(self, name: str, steps: list[dict], trace: bool = False,
                 loop: dict | None = None, reference: bool = False):
        """Run ``steps`` in a worker, with the reference kernel if asked;
        returns (result or None, wall seconds). Every step of every pass,
        and the worker itself, count as operations."""
        spec = {"src": str(ROOT / "src"), "trace": trace, "steps": steps,
                "reference": reference, "result": str(self.work / f"{name}.result.json")}
        if loop:
            spec["loop"] = loop
        spec_path = self.work / f"{name}.spec.json"
        spec_path.write_text(json.dumps(spec))
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, self.left()),
            )
        except subprocess.TimeoutExpired:
            self.ledger.check(False, f"{name}: worker timed out")
            return None, perf_counter() - t0
        wall = perf_counter() - t0
        result_path = Path(spec["result"])
        if not self.ledger.check(proc.returncode == 0 and result_path.is_file(),
                                 f"{name}: worker exit {proc.returncode}: {proc.stderr[-400:]}"):
            return None, wall
        result = json.loads(result_path.read_text())
        for done in result["passes"]:
            for step in done:
                self.ledger.check(step["code"] == 0, f"{name}.{step['name']}: exit "
                                  f"{step['code']} {proc.stderr[-400:]}")
        if len(result["passes"][-1]) != len(steps):
            return None, wall
        return result, wall


def samples(done: list[dict], name: str) -> list[float]:
    """Durations of every run of the named step in one pass."""
    return step_of(done, name)["samples"]


def step_of(done: list[dict], name: str) -> dict:
    """The named step of one pass."""
    return next(s for s in done if s["name"] == name)


def step_s(done: list[dict], name: str) -> float:
    """Duration of the first run of the named step in one pass."""
    return samples(done, name)[0]


class Speed:
    """One reference kernel's blocks in one worker (see worker.Reference)."""

    def __init__(self, result: dict, kernel: str):
        blocks = result["reference"]
        self.kernel = kernel
        self.starts = [b[0] for b in blocks]
        self.ends = [b[1] for b in blocks]
        self.best = [b[2][kernel] for b in blocks]

    def factor(self, a: float, b: float) -> float:
        """Factor that takes a timing from ``a`` to ``b`` to the reference
        speed: REFERENCE_S over the mean kernel time of the last block
        before ``a`` and the first after ``b``."""
        i = bisect.bisect_right(self.ends, a) - 1
        j = bisect.bisect_left(self.starts, b)
        near = [self.best[k] for k in (i, j) if 0 <= k < len(self.best)]
        return REFERENCE_S[self.kernel] / statistics.fmean(near)

    def busy_s(self) -> float:
        """Seconds the worker spent in the reference kernels."""
        return sum(e - s for s, e in zip(self.starts, self.ends))


def scaled(step: dict, speed: Speed) -> list[float]:
    """Every run of a step, scaled to the reference speed. The first run of
    ``train`` is scaled segment by segment: from its start to the first
    progress line, from there (after the kernel, if it ran) to the next,
    and from the last to its end."""
    times = []
    for k, ((t0, t1), length) in enumerate(zip(step["runs"], step["samples"])):
        marks = step.get("progress", []) if k == 0 else []
        if not marks:
            times.append(length * speed.factor(t0, t1))
            continue
        total, a = 0.0, t0
        for _, t, resumed in marks:
            total += (t - a) * speed.factor(a, t)
            a = resumed
        times.append(total + (t1 - a) * speed.factor(a, t1))
    return times


def span_s(done: list[dict]) -> float:
    """Time of one run of each command, up to and including the first
    ``eval``: one pass through the workload's commands without repeats."""
    total = 0.0
    for step in done:
        if step["kind"] == "cli":
            total += step["samples"][0]
            if step["name"] == "eval":
                return total
    raise ValueError("pass has no eval")


def train_loss_last(log: Path, ledger: Ledger, steps: int) -> float | None:
    with open(log, newline="", encoding="utf-8") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    ledger.check(len(totals) == steps, f"{log}: {len(totals)} logged steps, expected {steps}")
    value = statistics.fmean(totals[-TRAIN_LOSS_WINDOW:]) if totals else math.nan
    return value if ledger.check(math.isfinite(value), f"{log}: non-finite loss") else None


def check_outputs(workload: str, d: Path, out: Path, ledger: Ledger) -> dict:
    """Detections cover the corpus; quality figures are finite ratios."""
    truth = {a["video_id"]: a["num_frames"] for a in corpus_annotations(workload, d)}
    found = {a["video_id"]: a["num_frames"] for a in json.loads((out / "detections.json").read_text())}
    ledger.check(found == truth, "detections do not cover the corpus video for video")
    report = json.loads((out / "metrics.json").read_text())
    quality = {
        "f1_at_0.05": report["f1"][report["thresholds"].index(0.05)],
        "avg_f1": report["avg_f1"],
        "mof": report["mof"],
    }
    for name, value in quality.items():
        ledger.check(0.0 <= value <= 1.0, f"{name} = {value} is not a ratio")
    return quality


def mem_available_kb() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1])
    return 0


def timed(workload: str, seed: int, seconds: int, run: Runner, ledger: Ledger):
    setup_walls, setup_results, setup_digests = [], [], []
    for r in range(SETUP_REPS):
        d = run.work / f"setup{r}"
        result, wall = run(f"setup{r}", setup_steps(workload, seed, d), reference=True)
        if result is None:
            return None, None
        # The reference kernel is the benchmark's, not part of the set-up.
        setup_walls.append(wall - Speed(result, "numeric").busy_s())
        setup_results.append(result)
        setup_digests.append(digest(setup_outputs(workload, d)))
    ledger.check(len(set(setup_digests)) == 1, "set-up outputs differ between repetitions")

    d = run.work / "setup0"
    annotations = corpus_annotations(workload, d)
    frames = sum(a["num_frames"] for a in annotations)
    out = run.work / "pass{pass}"
    loop = {"seconds": seconds, "min": MIN_PASSES, "budget": run.left() - RESERVE_S}
    result, _ = run("timed", timed_steps(workload, seed, d, out, REPEAT_S[workload]),
                    loop=loop, reference=True)
    if result is None:
        return None, None
    ledger.check(len(result["passes"]) >= MIN_PASSES, f"fewer than {MIN_PASSES} timed passes")
    passes = [{"wall_s": span_s(done), "detect_s": samples(done, "detect"),
               "eval_s": samples(done, "eval")} for done in result["passes"]]
    run_digests = [digest(run_outputs(workload, d, run.work / f"pass{k}"))
                   for k in range(len(passes))]
    ledger.check(len(set(run_digests)) == 1,
                 "checkpoint, detections or metrics differ between runs of one seed")

    first = run.work / "pass0"
    quality = check_outputs(workload, d, first, ledger)
    if workload == "pipeline":
        # Training is timed in the loop; on `detect-long` only in set-up.
        trains = [(step_of(done, "train"), result) for done in result["passes"]]
        steps = inputs.PIPELINE_STEPS
        loss = train_loss_last(first / "training_log.csv", ledger, steps)
    else:
        trains = [(step_of(r["passes"][0], "train"), r) for r in setup_results]
        steps = inputs.SHORT_TRAIN_STEPS
        loss = train_loss_last(d / "train" / "training_log.csv", ledger, steps)
    train_all = [scaled(step, Speed(r, KERNEL_OF["train"]))[0] for step, r in trains]

    def timed_runs(name: str) -> list[float]:
        speed = Speed(result, KERNEL_OF[name])
        return [t for done in result["passes"] for t in scaled(step_of(done, name), speed)]

    detect_all, eval_all = timed_runs("detect"), timed_runs("eval")
    train_s, detect_s, eval_s = (statistics.median(v) for v in (train_all, detect_all, eval_all))
    slice_err = slice_check(seed, d, run, ledger) if workload == "detect-long" else None
    metrics = {
        "setup_s": statistics.median(setup_walls),
        # One pass through the timed commands.
        "wall_s": (train_s if workload == "pipeline" else 0.0) + detect_s + eval_s,
        "train_steps_per_s": steps / train_s,
        "detect_frames_per_s": frames / detect_s,
        "eval_s": eval_s,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        **quality,
        "train_loss_last": loss,
    }
    detail = {"frames": frames, "gt_boundaries": sum(len(a["boundaries"]) for a in annotations),
              "setup_s": setup_walls, "passes": passes,
              "train_s": train_all,
              "reference_kernel_s": {k: statistics.median(Speed(result, k).best)
                                     for k in REFERENCE_S},
              "unscaled_medians": {
                  "wall_s": statistics.median(p["wall_s"] for p in passes),
                  "train_s": statistics.median(step["samples"][0] for step, _ in trains),
                  "detect_s": statistics.median(t for p in passes for t in p["detect_s"]),
                  "eval_s": statistics.median(t for p in passes for t in p["eval_s"])},
              "output_sha256": run_digests[0],
              "slice_oracle_worst_rel_err": slice_err,
              "versions": setup_results[0]["versions"]}
    return metrics, detail


def slice_check(seed: int, d: Path, run: Runner, ledger: Ledger) -> float | None:
    """Window-slice oracle: K frames of the first long video, each
    reconstructed from a window-length slice, against the full trajectory."""
    result, _ = run("slice", [{
        "kind": "slice_oracle", "config": str(d / "detect.ini"), "seed": seed,
        "checkpoint": str(d / "train" / "checkpoint.bin"), "frames": SLICE_FRAMES}])
    if result is None:
        return None
    err = result["passes"][0][0]["worst_rel_err"]
    ledger.check(err <= SLICE_RTOL, f"window-slice oracle: relative error {err:.3g} "
                 f"> {SLICE_RTOL:g}")
    return err


def traced(workload: str, seed: int, run: Runner, ledger: Ledger):
    walls, digests, results = {}, {}, {}
    for name, trace in (("plain", False), ("traced", True)):
        d = run.work / name
        out = d / "out"
        result, _ = run(name, setup_steps(workload, seed, d) + timed_steps(workload, seed, d, out),
                        trace=trace)
        if result is None:
            return None, None
        walls[name] = span_s(result["passes"][0])
        digests[name] = {p.name: digest([p]) for p in run_outputs(workload, d, out)}
        results[name] = result
    ledger.check(digests["plain"] == digests["traced"],
                 "tracing changed the checkpoint, detections or metrics bytes")
    d = run.work / "traced"
    check_outputs(workload, d, d / "out", ledger)
    slice_err = slice_check(seed, d, run, ledger) if workload == "detect-long" else None
    spans = results["traced"]["spans"]
    metrics = tracer.layer_metrics(spans, results["traced"]["queue_capacity"])
    metrics["trace_overhead_ratio"] = walls["traced"] / walls["plain"] - 1.0
    kb_per_frame, probe = memory_probe(seed, checkpoint_of(workload, d, d / "out"), run, ledger)
    metrics["detection.rss_kb_per_frame"] = kb_per_frame
    detail = {"walls": walls, "output_sha256": digests, "spans": len(spans),
              "missing_targets": results["traced"]["missing"], "probe": probe,
              "slice_oracle_worst_rel_err": slice_err,
              "versions": results["traced"]["versions"]}
    return metrics, detail


def memory_probe(seed: int, checkpoint: Path, run: Runner, ledger: Ledger):
    """Peak RSS of ``detect`` on one video of each probe size, each in a
    fresh process; the slope between the sizes is the per-frame cost. A
    size runs only if the slope so far says it fits in MemAvailable and
    the time left."""
    probe_dir = run.work / "probe"
    points, notes = {}, {}
    kb_per_frame = s_per_frame = None
    for frames in PROBE_FRAMES + (BIG_PROBE_FRAMES,):
        d = probe_dir / str(frames)
        if kb_per_frame is not None:
            need_kb, avail_kb = kb_per_frame * frames, mem_available_kb()
            need_s = 2 * s_per_frame * frames
            if need_kb > avail_kb:
                notes[frames] = (f"skipped: {kb_per_frame:.1f} KB/frame x {frames} frames = "
                                 f"{need_kb / 2**20:.1f} GB > MemAvailable {avail_kb / 2**20:.1f} GB")
                continue
            if need_s > run.left():
                notes[frames] = (f"skipped: ~{need_s:.0f} s to generate and detect > "
                                 f"{run.left():.0f} s left in the run")
                continue
        steps = [{"kind": "probe_corpus", "seed": seed, "frames": frames, "out": str(d)},
                 ini(d / "probe.ini", d, inputs.SHORT_TRAIN_STEPS)]
        if run(f"probe{frames}-inputs", steps)[0] is None:
            break
        result, _ = run(f"probe{frames}", [cli("detect", "--config", d / "probe.ini",
                                               "--out", d / "out", "--checkpoint", checkpoint)])
        if result is None:
            break
        points[frames] = {"rss_kb": result["maxrss_kb"],
                          "detect_s": step_s(result["passes"][0], "detect")}
        notes[frames] = points[frames]
        if len(points) == 1:
            # Upper bound until a second point gives the slope.
            kb_per_frame = result["maxrss_kb"] / frames
        else:
            (f0, p0), (f1, p1) = list(points.items())[0], list(points.items())[-1]
            kb_per_frame = (p1["rss_kb"] - p0["rss_kb"]) / (f1 - f0)
        s_per_frame = points[frames]["detect_s"] / frames
        shutil.rmtree(d, ignore_errors=True)
    ledger.check(len(points) >= 2, "memory probe: fewer than two sizes ran")
    return kb_per_frame or 0.0, notes


def environment(seed: int) -> dict:
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git_sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            git_sha = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha,
        "src_sha256": digest([ROOT / "src" / "eventseg"]),
        "seed": seed,
        "mem_available_kb": mem_available_kb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "eventseg" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: no eventseg sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    ledger = Ledger()
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Runner(work, ledger)
    try:
        env = environment(args.seed)
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, run, ledger)
        else:
            metrics, detail = timed(args.workload, args.seed, args.seconds, run, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = metrics or {}
    result_metrics = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if ledger.check(value is not None and math.isfinite(value), f"{m['name']}: not measured"):
            result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    env["versions"] = (detail or {}).pop("versions", None)
    print("env " + json.dumps({**env, "workload": args.workload, "trace": args.trace}))
    print("detail " + json.dumps({**(detail or {}), "problems": ledger.problems}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
