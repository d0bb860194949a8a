"""Boundary detection from reconstruction-error trajectories.

A window of ``window`` frames slides over the video; for every center
position the middle frame is masked and reconstructed, and its squared
reconstruction error, the per-snippet error training averages
(``reconstruction.masked_errors``), becomes one point of the error
trajectory. The first and last few frames, where no full window fits,
replicate the nearest computed value. The trajectory is box-filtered,
differentiated with central differences, and boundaries are the points of
the gradient that strictly dominate every neighbour within
``extrema_range`` on both sides. Positions with fewer than
``extrema_range`` neighbours on either side are ineligible, so no
detection lies within that range of the trajectory ends.

One gate checks every video before any block runs: a video whose feature
width is not the encoder's input width is a ``ShapeError``, and one shorter
than the window a ``DataError``, each naming the video. The gate reads only
a video's id, width and frame count, the fields of a CSGF header. Features
are finite, so a non-finite trajectory means the model overflows: a
``NumericsError`` naming the video, without numpy's warnings.

Every trajectory is computed in blocks of ``BLOCK_WINDOWS`` windows: each
block encodes only the frames its windows cover and writes its errors into
its own slice of its video's preallocated trajectory. Everything here is
pure over a frozen model, so no block depends on another, and one scheduler
serves a single video (``error_trajectory``) and a corpus
(``detect_corpus``) alike: the blocks of every video form one list, and up
to ``MAX_THREADS`` threads, the calling thread and workers, take them from
it in turn. The bytes are those of running the blocks one after another.
Working memory is bounded by ``MAX_THREADS`` blocks, and only the
O(frames) float32 trajectories grow with the corpus. A block's temporaries
are freed when it ends and stay on the heap for the next block under the
heap policy that ``import eventseg`` sets, so a block does not fault its
memory in afresh.

``detect_corpus`` returns every video's boundaries, a ``data.Annotation``
with one gradient-magnitude score per boundary, together with the raw,
smoothed, and gradient signals they came from. One video is the corpus
``[video]``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Annotation, FrameFeatureSequence, SynthConfig
from .embedding import EncoderPair, encode_query
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .reconstruction import Reconstructor, masked_errors
from .tensor import no_grad

# Windows per block of a trajectory: working memory is O(block) per
# block in flight and only the trajectory grows with the video. Larger
# blocks run faster but hold more. Default model, one BLAS thread, 2-vCPU
# host, in-process medians of interleaved rounds: on a 20k-frame video and
# one thread, 512 and 1024 took 0.93x and 0.87x the time of 256, 64 took
# 1.28x and 4096 1.06x; on two 12k-frame videos and two threads, 128, 512
# and 1024 took 1.44x, 0.83x and 0.75x. But a fresh process detecting those
# two videos peaked at 47.4 MB RSS at 256, 54.3 MB at 512 (+15%) and
# 67.5 MB at 1024, so 256 stays.
BLOCK_WINDOWS = 256

# Most blocks in flight at once, the calling thread included; fewer when
# fewer CPUs are usable or the videos have fewer full blocks in all.
# Attention blocks are large numpy calls that release the GIL: on two
# 12k-frame videos (default model, one BLAS thread, 2 CPUs) two threads ran
# 1.68x the frames/s of one. Each block holds about 3.4 MB while it runs.
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
        if not np.isfinite(self.values).all():
            raise NumericsError(
                f"trajectory for {self.video_id!r} is not finite: the model overflows")


def error_trajectory(
    video: FrameFeatureSequence,
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> ErrorTrajectory:
    """Reconstruction error of every frame, masked at the window center.

    Centers range over every position with a full window; edge frames copy
    the nearest computed value. The video passes the module's gate first,
    and the windows run in blocks, shared out as ``_trajectories`` describes.
    """
    return _trajectories([video], enc, rec, cfg)[0]


def _trajectories(
    videos: list[FrameFeatureSequence],
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> list[ErrorTrajectory]:
    """Error trajectories of ``videos``, in their order.

    Every video passes the module's gate first. One list then holds the
    blocks of ``BLOCK_WINDOWS`` windows of every video, video after video.
    The calling thread and up to ``MAX_THREADS - 1`` workers take blocks
    from it in list order, each to whichever thread is free first, and each
    thread gets at least one full block of windows: videos of fewer than
    two full blocks in all start no thread. After an error on one thread
    the others start no further block, and the error reaches the caller
    once every thread has stopped.
    """
    T = cfg.window
    mid = T // 2
    for video in videos:
        if video.dim != enc.in_dim:
            raise ShapeError(
                f"video {video.video_id!r} has {video.dim}-wide features, "
                f"the encoder expects input_dim {enc.in_dim}")
        if video.num_frames < T:
            raise DataError(
                f"video {video.video_id!r} has {video.num_frames} frames, "
                f"shorter than the detector window {T}")
    # Window s of a video covers frames [s, s + T) and is centred on frame s + mid.
    counts = [video.num_frames - T + 1 for video in videos]
    values = [np.empty(video.num_frames, dtype=np.float32) for video in videos]
    pending = iter([(k, s) for k, n in enumerate(counts) for s in range(0, n, BLOCK_WINDOWS)])
    lock = threading.Lock()
    failed = threading.Event()

    def run_blocks() -> None:
        try:
            # Recording and numpy's error state are per thread, so every
            # thread sets both itself (overflow: see the module docstring).
            with no_grad(), np.errstate(over="ignore", invalid="ignore"):
                while not failed.is_set():
                    with lock:
                        k, s = next(pending, (None, None))
                    if k is None:
                        return
                    b = min(BLOCK_WINDOWS, counts[k] - s)
                    embeddings = encode_query(videos[k].features[s : s + b + T - 1], enc).data
                    windows = sliding_window_view(embeddings, T, axis=0).transpose(0, 2, 1)
                    errors = masked_errors(windows, np.full(b, mid), rec).data
                    values[k][mid + s : mid + s + b] = errors
        except BaseException:
            failed.set()
            raise

    # Starting and joining a worker takes about 0.5 ms, so a worker left with
    # a part block loses: a 273-window video, the longest of the seed-7 default
    # corpus, ran 5-16% slower on two threads.
    threads = max(1, min(MAX_THREADS, _usable_cpus(), sum(counts) // BLOCK_WINDOWS))
    # The pool starts a thread only when a task is submitted, so one thread
    # starts none, and leaving the block joins the workers.
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        workers = [pool.submit(run_blocks) for _ in range(threads - 1)]
        run_blocks()
        for worker in workers:
            worker.result()
    for count, trajectory in zip(counts, values):
        trajectory[:mid] = trajectory[mid]
        trajectory[mid + count :] = trajectory[mid + count - 1]
    return [ErrorTrajectory(video.video_id, v) for video, v in zip(videos, values)]


def _usable_cpus() -> int:
    """CPUs this process may run on; ``_trajectories`` and
    ``training.run_training`` size their threads by it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fir_smooth(values: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average of width 2*half_width+1 with replicate padding."""
    values = np.asarray(values, dtype=np.float64)
    if half_width < 0:
        raise ConfigError("half_width must be >= 0")
    if values.size < 1:
        raise DataError("fir_smooth needs at least 1 sample")
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


def detect_corpus(
    corpus: list[FrameFeatureSequence],
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
) -> tuple[dict[str, Annotation], dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Boundaries and signals of every video, keyed in sorted video-id order.

    Per video: error trajectory -> smoothing -> gradient -> extrema, each
    boundary scored by the gradient magnitude there; the signals are the raw,
    smoothed, and gradient trajectories (for CSV dumps and plotting). Ids
    must be unique, a ``DataError`` otherwise, and every video passes the
    module's gate before any block runs. The blocks of all videos, in id
    order, share the threads of one ``_trajectories`` call, so a long video's
    blocks and short videos' blocks run side by side.
    """
    videos = sorted(corpus, key=lambda video: video.video_id)
    for first, second in zip(videos, videos[1:]):
        if first.video_id == second.video_id:
            raise DataError(f"video id {first.video_id!r} appears twice in the corpus")
    detections: dict[str, Annotation] = {}
    signals: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for video, trajectory in zip(videos, _trajectories(videos, enc, rec, cfg)):
        smoothed = fir_smooth(trajectory.values, cfg.fir_half_width)
        grad = gradient(smoothed)
        frames = relative_extrema(grad, cfg.extrema_range)
        scores = [float(abs(grad[t])) for t in frames]
        vid = video.video_id
        detections[vid] = Annotation(vid, video.num_frames, video.fps, frames, scores)
        signals[vid] = (trajectory.values, smoothed, grad)
    return detections, signals
