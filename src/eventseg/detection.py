"""Boundary detection from reconstruction-error trajectories.

A window of ``window`` frames slides over the video; for every center
position the middle frame is masked and reconstructed, and its squared
reconstruction error becomes one point of the error trajectory. The first
and last few frames, where no full window fits, replicate the nearest
computed value. The trajectory is box-filtered, differentiated with central
differences, and boundaries are the points of the gradient that strictly
dominate every neighbour within ``extrema_range`` on both sides. Positions
with fewer than ``extrema_range`` neighbours on either side are ineligible,
so no detection lies within that range of the trajectory ends.

Everything here is pure over a frozen model; videos can be processed
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import FrameFeatureSequence
from .embedding import EncoderPair, encode_query
from .errors import ConfigError, DataError
from .reconstruction import Reconstructor, masked_reconstruct, positional_embedding
from .tensor import no_grad


@dataclass
class DetectorConfig:
    window: int = 10
    fir_half_width: int = 5
    extrema_range: int = 70
    min_trajectory_len: int | None = None

    def __post_init__(self):
        if self.window < 3:
            raise ConfigError(f"window must be >= 3, got {self.window}")
        if self.fir_half_width < 0:
            raise ConfigError(f"fir_half_width must be >= 0, got {self.fir_half_width}")
        if self.extrema_range < 1:
            raise ConfigError(f"extrema_range must be >= 1, got {self.extrema_range}")
        if self.min_trajectory_len is None:
            self.min_trajectory_len = self.window


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


@dataclass
class BoundarySet:
    """Sorted boundary frame indices for one video."""

    video_id: str
    num_frames: int
    frames: list[int]
    scores: list[float] | None = None

    def __post_init__(self):
        self.frames = [int(f) for f in self.frames]
        for i, f in enumerate(self.frames):
            if not 0 <= f < self.num_frames:
                raise DataError(
                    f"{self.video_id!r}: boundary {f} outside [0, {self.num_frames})"
                )
            if i > 0 and f <= self.frames[i - 1]:
                raise DataError(f"{self.video_id!r}: boundaries must be strictly increasing")
        if self.scores is not None and len(self.scores) != len(self.frames):
            raise DataError(f"{self.video_id!r}: scores must align with boundaries")


def error_trajectory(
    video: FrameFeatureSequence,
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
    pos: np.ndarray | None = None,
) -> ErrorTrajectory:
    """Reconstruction error of every frame, masked at the window center.

    Centers range over every position with a full window; edge frames copy
    the nearest computed value.
    """
    T = cfg.window
    n = video.num_frames
    if n < max(T, cfg.min_trajectory_len):
        raise DataError(
            f"video {video.video_id!r} has {n} frames, needs >= "
            f"{max(T, cfg.min_trajectory_len)}"
        )
    if pos is None:
        pos = positional_embedding(T, enc.dim)
    mid = T // 2
    first = mid
    last = n - 1 - (T - 1 - mid)
    with no_grad():
        embeddings = encode_query(video.features, enc).data
        starts = np.arange(first - mid, last - mid + 1)
        windows = embeddings[starts[:, None] + np.arange(T)[None, :]]
        recon_mid = masked_reconstruct(windows, np.full((len(starts), 1), mid), pos, rec).data
    originals = embeddings[first : last + 1]
    core = ((recon_mid - originals) ** 2).sum(axis=1)
    values = np.empty(n, dtype=np.float32)
    values[first : last + 1] = core
    values[:first] = core[0]
    values[last + 1 :] = core[-1]
    return ErrorTrajectory(video.video_id, values)


def fir_smooth(values: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average of width 2*half_width+1 with replicate padding."""
    values = np.asarray(values, dtype=np.float64)
    if half_width < 0:
        raise ConfigError("half_width must be >= 0")
    if half_width == 0:
        return values.copy()
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
    pos: np.ndarray | None = None,
    return_signals: bool = False,
):
    """Full pipeline: error trajectory -> smoothing -> gradient -> extrema.

    Boundary scores are the gradient magnitude at the detected frame. With
    ``return_signals`` the raw, smoothed, and gradient trajectories come back
    too (for CSV dumps and plotting).
    """
    trajectory = error_trajectory(video, enc, rec, cfg, pos)
    smoothed = fir_smooth(trajectory.values, cfg.fir_half_width)
    grad = gradient(smoothed)
    frames = relative_extrema(grad, cfg.extrema_range)
    scores = [float(abs(grad[t])) for t in frames]
    boundaries = BoundarySet(video.video_id, video.num_frames, list(frames), scores)
    if return_signals:
        return boundaries, trajectory.values, smoothed, grad
    return boundaries


def detect_corpus(
    corpus: list[FrameFeatureSequence],
    enc: EncoderPair,
    rec: Reconstructor,
    cfg: DetectorConfig,
    return_signals: bool = False,
):
    """Detections for every video, merged in sorted video-id order."""
    pos = positional_embedding(cfg.window, enc.dim)
    detections: dict[str, BoundarySet] = {}
    signals: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for video in sorted(corpus, key=lambda s: s.video_id):
        if return_signals:
            bset, raw, smoothed, grad = detect_boundaries(
                video, enc, rec, cfg, pos, return_signals=True
            )
            signals[video.video_id] = (raw, smoothed, grad)
        else:
            bset = detect_boundaries(video, enc, rec, cfg, pos)
        detections[video.video_id] = bset
    if return_signals:
        return detections, signals
    return detections
