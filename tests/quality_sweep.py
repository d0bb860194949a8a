"""Detection quality over seeds and synthetic regimes, one CSV row per run.

Each run builds the corpus of one (seed, regime) pair, trains on it, detects
every video and scores the detections, all in one process, the way
``synth``, ``train``, ``detect`` and ``eval`` would in sequence. A regime is
``default`` or one ``[synth]`` key set to a value, for instance
``noise_std=0.3``; the seed replaces the training and synthesis seeds, as
``--seed`` does on the command line. Runs are deterministic, so two rows of
one (seed, regime, steps) differ only in ``wall_s``.

Run from the repository root, one argument per seed and per regime::

    python3 tests/quality_sweep.py --seeds 7 8 --steps 2000 \\
        --regimes default noise_std=0.3 events_per_video=10,20 --out sweep.csv

Runs go to ``min(usable CPUs, runs)`` worker processes, and each run sizes
its training and detection threads by its share of the CPUs, so workers do
not contend for them; ``wall_s`` is a run's wall time on that share. A
2000-step run of the default corpus takes about 25 s on one CPU. Every
(seed, regime) builds its configuration before any run starts, so a bad
regime stops the sweep at once.

The acceptance criteria share two helpers with the sweep:
``random_detector_f1``, the F1 of a detector that places the same number
of detections uniformly (criterion 7b's baseline), and ``step_one_losses``,
the loss of step 1's batch under the initial and the trained models
(criterion 7a).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# The package from this checkout, also when the sweep runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eventseg import (  # noqa: E402
    MemoryQueue,
    RunConfig,
    annotations_by_id,
    build_models,
    compute_losses,
    detect_corpus,
    evaluate_corpus,
    f1_score,
    load_config,
    run_training,
    sample_batch,
    synth_generate,
)
import eventseg.detection as detection  # noqa: E402
from eventseg.config import _parse_value  # noqa: E402
from eventseg.detection import _usable_cpus  # noqa: E402

# ROADMAP item 1's rows: noisier frames, faster drift, two prototypes (many
# false negatives in the queue) and long videos.
REGIMES = ["default", "noise_std=0.3", "drift_std=0.05", "num_prototypes=2",
           "events_per_video=10,20"]
# Every run scores at the default thresholds.
COLUMNS = ["seed", "regime", *(f"f1@{t:g}" for t in RunConfig().evaluation.thresholds),
           "avg_f1", "mof", "iou", "random_f1@0.05", "ratio_to_random", "loss_ratio_7a",
           "detections", "truths", "wall_s"]


def random_detector_f1(annotations, detections, threshold):
    """Expected F1 of a detector placing each video's detections uniformly.

    Per ground-truth boundary b the tolerance window is [b-w, b+w] clipped to
    the video, w = floor(threshold * F); with n uniform detections the chance
    at least one lands inside is 1 - (1 - a_b)^n. Tolerance windows of
    adjacent boundaries may overlap, so summing per-boundary hit rates is an
    upper bound for the expected matched count (a conservative baseline).
    """
    expected_tp = 0.0
    total_det = 0
    total_gt = 0
    for vid, ann in annotations.items():
        F = ann.num_frames
        n_det = len(detections[vid].boundaries)
        total_det += n_det
        total_gt += len(ann.boundaries)
        w = math.floor(threshold * F)
        for b in ann.boundaries:
            a_b = (min(F - 1, b + w) - max(0, b - w) + 1) / F
            expected_tp += 1.0 - (1.0 - a_b) ** n_det
    precision = expected_tp / total_det if total_det else 0.0
    recall = expected_tp / total_gt if total_gt else 0.0
    return f1_score(precision, recall)


def step_one_losses(cfg, corpus, result):
    """Total loss of step 1's batch and mask under the initial and the
    trained models, both with the empty queue of step 1.

    The logged losses are not one function at both ends: InfoNCE grows with
    the log of the negative count, and the memory queue is empty at step 1
    but full later. So the step-1 batch and mask are redrawn from the seed in
    ``run_training``'s order (models, batch, mask rows); the first value
    equals the logged step-1 total.
    """
    rng = np.random.default_rng(cfg.training.seed)
    enc0, rec0, _ = build_models(cfg.model, corpus[0].dim, rng)
    batch = sample_batch(
        corpus, cfg.training.batch_videos, cfg.training.snippets_per_video,
        cfg.detector.window, rng,
    )
    num_snippets, window, _ = batch.shape
    mask_rows = rng.integers(0, window, size=num_snippets)

    def total(enc, rec):
        return compute_losses(
            batch, enc, MemoryQueue(cfg.model.queue_capacity, cfg.model.embedding_dim), rec,
            cfg.contrastive, cfg.reconstruction, mask_rows,
        )[2].item()

    return total(enc0, rec0), total(result.encoders, result.reconstructor)


def run_config(seed: int, regime: str, steps: int) -> RunConfig:
    cfg = load_config(seed=seed)
    cfg.training = dataclasses.replace(cfg.training, steps=steps)
    if regime != "default":
        key, _, raw = regime.partition("=")
        fields = {f.name: f for f in dataclasses.fields(cfg.synth)}
        if key not in fields:
            raise ValueError(f"regime {regime!r}: [synth] has no key {key!r}")
        value = _parse_value(raw, fields[key].type, "synth", key)
        cfg.synth = dataclasses.replace(cfg.synth, **{key: value})
    cfg.validate()
    return cfg


def run_one(seed: int, regime: str, steps: int) -> dict:
    """synth -> train -> detect -> eval for one seed and regime."""
    start = time.perf_counter()
    cfg = run_config(seed, regime, steps)
    corpus, annotations = synth_generate(cfg.synth)
    truth = annotations_by_id(annotations)
    result = run_training(corpus, cfg)
    detections, _ = detect_corpus(corpus, result.encoders, result.reconstructor, cfg.detector)
    report = evaluate_corpus(detections, truth, cfg.evaluation.thresholds)
    first, last = step_one_losses(cfg, corpus, result)
    if first != result.history[0]["total"]:
        raise RuntimeError(f"seed {seed}, {regime}: step-1 batch does not reproduce the log")
    baseline = random_detector_f1(truth, detections, 0.05)
    values = [seed, regime, *report.f1, report.avg_f1, report.mof, report.iou, baseline,
              report.f1[0] / baseline if baseline else math.nan, last / first,
              sum(len(d.boundaries) for d in detections.values()),
              sum(len(a.boundaries) for a in annotations),
              time.perf_counter() - start]
    return dict(zip(COLUMNS, values))


def _share_cpus(share: int) -> None:
    """Worker initializer: training and detection size their threads by
    ``detection._usable_cpus``, which would count every CPU in each worker."""
    detection._usable_cpus = lambda: share


def sweep(seeds, regimes, steps) -> list[dict]:
    """One row per (seed, regime), seeds outermost; one worker runs every
    run in the calling process."""
    runs = [(seed, regime, steps) for seed in seeds for regime in regimes]
    for run in runs:
        run_config(*run)
    cpus = _usable_cpus()
    workers = max(1, min(cpus, len(runs)))
    if workers == 1:
        return [run_one(*run) for run in runs]
    # Spawned workers: training and detection start threads, and a forked
    # child of a process with threads can deadlock.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_share_cpus, initargs=(cpus // workers,)) as pool:
        return list(pool.map(run_one, *zip(*runs)))


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[7], help="seeds")
    parser.add_argument("--steps", type=int, default=2000, help="training steps per run")
    parser.add_argument("--regimes", nargs="+", default=REGIMES,
                        help="regimes: default or [synth] key=value")
    parser.add_argument("--out", default="sweep.csv", help="CSV file to write")
    args = parser.parse_args(argv)
    rows = sweep(args.seeds, args.regimes, args.steps)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
