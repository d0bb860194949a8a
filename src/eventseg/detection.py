"""Boundary detection from reconstruction-error trajectories.

A window of ``window`` frames slides over the video; for every center
position the middle frame is masked and reconstructed, and its squared
reconstruction error becomes one point of the error trajectory. The first
and last few frames, where no full window fits, replicate the nearest
computed value. The trajectory is box-filtered, differentiated with central
differences, and boundaries are the points of the gradient that strictly
dominate every neighbour within ``extrema_range`` on both sides. Positions
with fewer than ``extrema_range`` neighbours on either side are ineligible,
so no detection lies within that range of the trajectory ends. A video
shorter than the window has no trajectory and is a ``DataError``.

``error_trajectory`` walks the windows in blocks of ``BLOCK_WINDOWS``: each
block encodes only the frames its windows cover and writes its errors into
its own slice of the preallocated trajectory. No block depends on another,
so up to ``MAX_THREADS`` blocks run at once, one in the calling thread and
the rest in worker threads; the bytes are those of running the blocks one
after another. Working memory is bounded by ``MAX_THREADS`` blocks, and only
the O(frames) float32 trajectory grows with the video.

``detect_boundaries`` returns each video's boundaries, a ``data.Annotation``
with one gradient-magnitude score per boundary, together with the raw,
smoothed, and gradient signals they came from; ``detect_corpus`` does the
same for a corpus. Everything here is pure over a frozen model, so videos
are processed independently: ``detect_corpus`` runs a video that
``error_trajectory`` splits into threads on its own, and runs up to
``MAX_THREADS`` of the shorter videos at once, one per thread. Either way no
more than ``MAX_THREADS`` blocks are in flight, and the bytes are those of
running the videos one after another.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Annotation, FrameFeatureSequence, SynthConfig
from .embedding import EncoderPair, encode_query
from .errors import ConfigError, DataError
from .reconstruction import Reconstructor, masked_reconstruct
from .tensor import no_grad

# Windows per block of ``error_trajectory``: working memory is O(block) per
# block in flight and only the trajectory grows with the video. On 20k frames
# (default model, one BLAS thread, one thread) 256 and 512 were fastest, within
# 2% of each other, against +31% at 64, +5% at 1024 and +29% at 4096; the
# smaller keeps memory lower. On two threads 256 ran 51.6k frames/s against
# 43.1k at 128 (two 12k-frame videos, median of 16 alternating rounds).
BLOCK_WINDOWS = 256

# Most blocks of ``error_trajectory`` in flight at once, the calling thread
# included; fewer when fewer CPUs are usable or the video has fewer full
# blocks. Attention blocks are large numpy calls that release the GIL: on two
# 12k-frame videos (default model, one BLAS thread, 2 CPUs) two threads ran
# about 1.6x the frames/s of one. Each block holds about 4 MB while it runs.
MAX_THREADS = 2


@dataclass
class DetectorConfig:
    """Defaults sized for the synthetic events, 30-60 frames long rather than
    full-length activities (the paper smooths with half-width 5 and takes
    extrema over a range of 70). Two true boundaries one minimum synthetic
    event apart must both be able to win as strict maxima, so the extrema
    range is one below the minimum event length."""

    window: int = 10
    fir_half_width: int = 3
    extrema_range: int = SynthConfig().event_length[0] - 1

    def __post_init__(self):
        if self.window < 3:
            raise ConfigError(f"window must be >= 3, got {self.window}")
        if self.fir_half_width < 0:
            raise ConfigError(f"fir_half_width must be >= 0, got {self.fir_half_width}")
        if self.extrema_range < 1:
            raise ConfigError(f"extrema_range must be >= 1, got {self.extrema_range}")


@dataclass
class ErrorTrajectory:
    """Per-frame reconstruction errors; length equals the video length."""

    video_id: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 1:
            raise DataError("error trajectory must be 1-d")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise DataError(f"trajectory for {self.video_id!r} must be finite and >= 0")


def error_trajectory(
    video: FrameFeatureSequence,
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> ErrorTrajectory:
    """Reconstruction error of every frame, masked at the window center.

    Centers range over every position with a full window; edge frames copy
    the nearest computed value. Windows are processed ``BLOCK_WINDOWS`` at a
    time, so working memory does not grow with the video. Blocks are dealt
    round-robin to up to ``MAX_THREADS`` threads, the calling thread first,
    and each thread gets at least one full block: a video of fewer than two
    full blocks starts no thread. A block's error reaches the caller once
    every thread has stopped.
    """
    T = cfg.window
    n = video.num_frames
    if n < T:
        raise DataError(f"video {video.video_id!r} has {n} frames, needs >= {T}")
    mid = T // 2
    # Window s covers frames [s, s + T) and is centred on frame s + mid.
    count = n - T + 1
    values = np.empty(n, dtype=np.float32)
    starts = range(0, count, BLOCK_WINDOWS)

    def run_blocks(k: int, failed: threading.Event) -> None:
        # Recording is per thread, so every thread turns it off itself.
        with no_grad():
            for s in starts[k::threads]:
                if failed.is_set():
                    return
                b = min(BLOCK_WINDOWS, count - s)
                embeddings = encode_query(video.features[s : s + b + T - 1], enc).data
                windows = sliding_window_view(embeddings, T, axis=0).transpose(0, 2, 1)
                recon_mid = masked_reconstruct(windows, np.full(b, mid), rec).data
                originals = embeddings[mid : mid + b]
                values[mid + s : mid + s + b] = ((recon_mid - originals) ** 2).sum(axis=1)

    # Starting and joining a worker takes about 0.5 ms, so a worker left with
    # a part block loses: a 273-window video, the longest of the seed-7 default
    # corpus, ran 5-16% slower on two threads.
    threads = max(1, min(MAX_THREADS, _usable_cpus(), count // BLOCK_WINDOWS))
    _share_out(threads, run_blocks)
    values[:mid] = values[mid]
    values[mid + count :] = values[mid + count - 1]
    return ErrorTrajectory(video.video_id, values)


def _share_out(threads: int, share: Callable[[int, threading.Event], None]) -> None:
    """Run ``share(k, failed)`` for every ``k`` below ``threads``: share 0 in
    the calling thread, the others in worker threads. A share that raises
    sets ``failed``, so the others stop at their next unit of work, and its
    error reaches the caller once every thread has stopped. The pool starts
    a thread only when a share is submitted, so one share starts none, and
    leaving the block joins the workers."""
    failed = threading.Event()

    def guarded(k: int) -> None:
        try:
            share(k, failed)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        workers = [pool.submit(guarded, k) for k in range(1, threads)]
        guarded(0)
        for worker in workers:
            worker.result()


def _usable_cpus() -> int:
    """CPUs this process may run on; ``error_trajectory``, ``detect_corpus``
    and ``training.run_training`` size their threads by it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fir_smooth(values: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average of width 2*half_width+1 with replicate padding."""
    values = np.asarray(values, dtype=np.float64)
    if half_width < 0:
        raise ConfigError("half_width must be >= 0")
    padded = np.concatenate(
        [np.full(half_width, values[0]), values, np.full(half_width, values[-1])]
    )
    kernel = np.full(2 * half_width + 1, 1.0 / (2 * half_width + 1))
    return np.convolve(padded, kernel, mode="valid")


def gradient(values: np.ndarray) -> np.ndarray:
    """Central differences inside, one-sided differences at the ends."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise DataError("gradient needs at least 2 samples")
    return np.gradient(values)


def relative_extrema(values: np.ndarray, extrema_range: int) -> np.ndarray:
    """Indices strictly greater than every value within ``extrema_range`` on
    both sides. Ties suppress detection; positions without a full
    neighbourhood on either side are ineligible."""
    if extrema_range < 1:
        raise ConfigError("extrema_range must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    n, r = values.size, extrema_range
    if n < 2 * r + 1:
        return np.empty(0, dtype=np.int64)
    # block_max[i] is the maximum of values[i : i + r]; a NaN anywhere in a
    # block makes its maximum NaN, and every comparison with NaN is false.
    block_max = sliding_window_view(values, r).max(axis=1)
    center = values[r : n - r]
    fires = (center > block_max[: n - 2 * r]) & (center > block_max[r + 1 :])
    return (np.flatnonzero(fires) + r).astype(np.int64)


def detect_boundaries(
    video: FrameFeatureSequence,
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> tuple[Annotation, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Full pipeline: error trajectory -> smoothing -> gradient -> extrema.

    Returns the boundaries, scored by the gradient magnitude at each
    detected frame, and the raw, smoothed, and gradient trajectories they
    came from (for CSV dumps and plotting).
    """
    trajectory = error_trajectory(video, enc, rec, cfg)
    smoothed = fir_smooth(trajectory.values, cfg.fir_half_width)
    grad = gradient(smoothed)
    frames = relative_extrema(grad, cfg.extrema_range)
    scores = [float(abs(grad[t])) for t in frames]
    boundaries = Annotation(video.video_id, video.num_frames, video.fps, frames, scores)
    return boundaries, (trajectory.values, smoothed, grad)


def detect_corpus(
    corpus: list[FrameFeatureSequence],
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> tuple[dict[str, Annotation], dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Detections and signals for every video, keyed in sorted video-id order.

    A video of at least ``2 * BLOCK_WINDOWS`` windows, which
    ``error_trajectory`` splits across threads, runs alone, one such video
    after another. The shorter videos go longest first, each to whichever of
    up to ``MAX_THREADS`` threads (the calling thread and workers) is free
    first; one usable CPU or a single short video starts no thread. After an
    error on one thread the others start no further video, and the error
    reaches the caller once every thread has stopped.
    """
    order = sorted(range(len(corpus)), key=lambda i: corpus[i].video_id)
    results: list = [None] * len(corpus)
    short = []
    for i in order:
        if corpus[i].num_frames - cfg.window + 1 >= 2 * BLOCK_WINDOWS:
            results[i] = detect_boundaries(corpus[i], enc, rec, cfg)
        else:
            short.append(i)
    short.sort(key=lambda i: -corpus[i].num_frames)
    pending = iter(short)
    lock = threading.Lock()

    def run_videos(_k: int, failed: threading.Event) -> None:
        while not failed.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                return
            results[i] = detect_boundaries(corpus[i], enc, rec, cfg)

    # The seed-7 default corpus's videos have 107-273 windows, too few for
    # ``error_trajectory`` to start a thread, so whole videos are shared out.
    _share_out(max(1, min(MAX_THREADS, _usable_cpus(), len(short))), run_videos)
    detections: dict[str, Annotation] = {}
    signals: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for i in order:
        detections[corpus[i].video_id], signals[corpus[i].video_id] = results[i]
    return detections, signals
