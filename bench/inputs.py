"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed writes
byte-identical feature files, annotations and INI files. The training corpus
of every workload is the default ``RunConfig`` corpus, written by the CLI's
``synth`` command. The `detect-long` corpus is built here with the library's
``synth_generate`` under the same seed, so it shares the prototypes the
checkpoint was trained on.
"""

from __future__ import annotations

import math
from pathlib import Path

# The `detect-long` corpus: two videos of 12,000 frames.
LONG_VIDEOS = 2
LONG_FRAMES = 12_000
# Training length of the `pipeline` workload. The default 4096-entry queue
# fills after 128 steps (32 snippets a step), so 192 of these steps, and
# about two thirds of the training time, run with a full queue.
PIPELINE_STEPS = 320
# Seeded short training that produces the `detect-long` checkpoint:
# long enough to fill the queue, short enough to repeat in set-up.
SHORT_TRAIN_STEPS = 136
# Training prints a progress line every this many steps; the benchmark times
# training segment by segment from these lines (see run.py).
PROGRESS_EVERY = 8
# Default synthetic videos are ~190 frames long; the random-walk drift of a
# long video is scaled so its end-to-end spread matches a default video's.
DEFAULT_VIDEO_FRAMES = 190
DEFAULT_DRIFT_STD = 0.02

WORKLOADS = ("pipeline", "detect-long")


def write_ini(path: Path, data_dir: Path, annotations: Path, steps: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "[paths]\n"
        f"data_dir = {data_dir}\n"
        f"annotations = {annotations}\n"
        "\n[training]\n"
        f"steps = {steps}\n"
        f"log_every = {PROGRESS_EVERY}\n",
        encoding="utf-8",
    )


def long_drift_std(frames: int) -> float:
    """Drift per frame whose random walk over ``frames`` spreads as far as
    the default drift does over a default-length video."""
    return DEFAULT_DRIFT_STD * math.sqrt(DEFAULT_VIDEO_FRAMES / frames)


def _trim(seq, ann, frames: int):
    """Cut one synthetic video (and its annotation) to its first ``frames``."""
    from eventseg.data import Annotation, FrameFeatureSequence

    seq = FrameFeatureSequence(seq.video_id, seq.fps, seq.features[:frames])
    ann = Annotation(ann.video_id, frames, ann.fps, [b for b in ann.boundaries if b < frames])
    return seq, ann


def long_videos(seed: int, videos: int, frames: int):
    """``videos`` synthetic videos of exactly ``frames`` frames each, with
    default event lengths and the drift scaled by ``long_drift_std``."""
    import eventseg.data as data

    cfg = data.SynthConfig()
    events = math.ceil(frames / cfg.event_length[0]) + 1
    corpus, annotations = data.synth_generate(data.SynthConfig(
        num_videos=videos,
        events_per_video=(events, events),
        drift_std=long_drift_std(frames),
        seed=seed,
    ))
    pairs = [_trim(s, a, frames) for s, a in zip(corpus, annotations)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def make_detect_corpus(seed: int, out: Path) -> int:
    """Write the `detect-long` feature files and annotations under ``out``;
    returns the number of frames."""
    import eventseg.data as data

    corpus, annotations = long_videos(seed, LONG_VIDEOS, LONG_FRAMES)
    data.save_corpus(corpus, out / "features")
    data.save_annotations(annotations, out / "annotations.json")
    return sum(seq.num_frames for seq in corpus)


def make_probe_corpus(seed: int, frames: int, out: Path) -> None:
    """One long video for the detection memory-scaling probe."""
    import eventseg.data as data

    corpus, annotations = long_videos(seed, 1, frames)
    data.save_corpus(corpus, out / "features")
    data.save_annotations(annotations, out / "annotations.json")
