"""Feature-sequence ingestion, annotation I/O, and a synthetic event stream.

The synthetic generator is the desk-scale stand-in for real video corpora:
each video concatenates a few events, each event is one prototype vector plus
per-frame Gaussian noise plus a slow per-video random-walk drift, and the
ground-truth boundaries are the prototype switch points. A boundary index b
marks the first frame of the new event; the generator, the detector output,
and the evaluator all share that convention.

CSGF feature file (little-endian): magic "CSGF", u16 version=1, u32 dim,
u32 num_frames, f32 fps, then num_frames x dim float32 values row-major.

Annotation JSON: a list of ``{"video_id": str, "num_frames": int,
"fps": number, "boundaries": [int, ...]}`` objects; detection files use the
same schema plus ``"scores"`` aligned with ``"boundaries"``. Both load into
``Annotation``, the one boundary record, which needs ``num_frames`` in
[1, 2**32 - 1] (the CSGF header's range), a finite ``fps`` > 0 (as a feature
sequence does), boundaries strictly increasing inside [1, num_frames) and
finite scores. Frame 0 starts the first event, so it is never a boundary.

``load_feature_file`` names the video after the file stem, checks the
declared size against the file's before it reads, and reads the payload
straight into the feature matrix, so a video is held in memory once.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import BadMagicError, ConfigError, DataError, TruncatedError, VersionError

CSGF_MAGIC = b"CSGF"
CSGF_VERSION = 1
_CSGF_HEAD = struct.Struct("<4sHIIf")
# The header's u32 frame count; also the most frames an annotation may name.
_MAX_FRAMES = 2**32 - 1
# The header's f32 frame rate: the positive values it can hold.
_FPS_RANGE = (float(np.finfo(np.float32).smallest_subnormal), float(np.finfo(np.float32).max))


@dataclass
class FrameFeatureSequence:
    """One video as a (num_frames x dim) float32 feature matrix."""

    video_id: str
    fps: float
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise DataError(
                f"features for {self.video_id!r} must be a 2-d matrix of at least "
                f"one frame and one dimension, got shape {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            raise DataError(f"non-finite feature values in {self.video_id!r}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise DataError(f"fps must be finite and positive for {self.video_id!r}")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Annotation:
    """One video's boundary frames: ground truth, or detections with scores."""

    video_id: str
    num_frames: int
    fps: float
    boundaries: list[int]
    scores: list[float] | None = None

    def __post_init__(self):
        # Messages start with the field, so the JSON loader can prefix the
        # record's path to them.
        video = f"(video {self.video_id!r})"
        if self.num_frames < 1:
            raise DataError(f"num_frames = {self.num_frames} is below 1 {video}")
        if self.num_frames > _MAX_FRAMES:
            raise DataError(f"num_frames is above the CSGF limit {_MAX_FRAMES} {video}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise DataError(f"fps = {self.fps} is not finite and positive {video}")
        self.boundaries = [int(b) for b in self.boundaries]
        for i, b in enumerate(self.boundaries):
            if not 1 <= b < self.num_frames:
                raise DataError(
                    f"boundaries[{i}] = {b} outside [1, {self.num_frames}) {video}"
                )
            if i > 0 and b <= self.boundaries[i - 1]:
                raise DataError(f"boundaries[{i}] = {b} not strictly increasing {video}")
        if self.scores is None:
            return
        if len(self.scores) != len(self.boundaries):
            raise DataError(
                f"scores has length {len(self.scores)}, boundaries "
                f"{len(self.boundaries)} {video}"
            )
        for i, score in enumerate(self.scores):
            if not math.isfinite(score):
                raise DataError(f"scores[{i}] = {score} is not finite {video}")

    @property
    def frames(self) -> list[int]:
        # bench/tracer.py reads the boundaries of match_boundaries' and
        # segment_scores' arguments under this name.
        return self.boundaries


@dataclass
class SynthConfig:
    num_videos: int = 32
    events_per_video: tuple[int, int] = (3, 5)
    event_length: tuple[int, int] = (30, 60)
    feature_dim: int = 32
    num_prototypes: int = 12
    noise_std: float = 0.1
    drift_std: float = 0.02
    seed: int = 7
    fps: float = 25.0

    def __post_init__(self):
        if self.num_videos < 1:
            raise ConfigError("num_videos must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"synth seed must be >= 0, got {self.seed}")
        lo, hi = self.events_per_video
        if not 1 <= lo <= hi:
            raise ConfigError(f"invalid events_per_video range {self.events_per_video}")
        llo, lhi = self.event_length
        if not 1 <= llo <= lhi:
            raise ConfigError(f"invalid event_length range {self.event_length}")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.num_prototypes < 2:
            raise ConfigError("num_prototypes must be >= 2")
        for key in ("noise_std", "drift_std"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not _FPS_RANGE[0] <= self.fps <= _FPS_RANGE[1]:
            raise ConfigError(
                f"fps must be finite, positive and within float32 range, got {self.fps}"
            )


def synth_generate(cfg: SynthConfig) -> tuple[list[FrameFeatureSequence], list[Annotation]]:
    """Build a seeded synthetic corpus with known event boundaries.

    Prototypes are unit vectors drawn once per corpus. Each video picks a
    random number of events with distinct consecutive prototypes; every frame
    is prototype + N(0, noise_std) + cumulative N(0, drift_std) drift. The
    boundary list holds the first frame index of every event but the first.
    """
    rng = np.random.default_rng(cfg.seed)
    prototypes = rng.normal(size=(cfg.num_prototypes, cfg.feature_dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)

    corpus: list[FrameFeatureSequence] = []
    annotations: list[Annotation] = []
    for v in range(cfg.num_videos):
        n_events = int(rng.integers(cfg.events_per_video[0], cfg.events_per_video[1] + 1))
        lengths = rng.integers(cfg.event_length[0], cfg.event_length[1] + 1, size=n_events)
        proto_ids = [int(rng.integers(cfg.num_prototypes))]
        for _ in range(n_events - 1):
            # Draw from the other prototypes so consecutive events differ.
            r = int(rng.integers(cfg.num_prototypes - 1))
            proto_ids.append(r if r < proto_ids[-1] else r + 1)
        total = int(lengths.sum())
        base = np.repeat(prototypes[proto_ids], lengths, axis=0)
        video_id = f"synth{v:04d}"
        # A finite but huge spread overflows the sum or the float32 cast:
        # one config error instead of numpy's warnings and non-finite data.
        with np.errstate(over="ignore", invalid="ignore"):
            noise = rng.normal(0.0, cfg.noise_std, size=(total, cfg.feature_dim))
            drift = np.cumsum(
                rng.normal(0.0, cfg.drift_std, size=(total, cfg.feature_dim)), axis=0
            )
            features = (base + noise + drift).astype(np.float32)
        if not np.isfinite(features).all():
            raise ConfigError(
                f"[synth] noise_std / drift_std too large: the features of "
                f"{video_id!r} overflow float32"
            )
        boundaries = [int(b) for b in np.cumsum(lengths)[:-1]]
        corpus.append(FrameFeatureSequence(video_id, cfg.fps, features))
        annotations.append(Annotation(video_id, total, cfg.fps, boundaries))
    return corpus, annotations


# -- CSGF feature files -----------------------------------------------------


def save_feature_file(seq: FrameFeatureSequence, path) -> None:
    if not _FPS_RANGE[0] <= seq.fps <= _FPS_RANGE[1]:
        raise DataError(f"fps {seq.fps} of {seq.video_id!r} is outside a CSGF header's f32 range")
    payload = np.ascontiguousarray(seq.features, dtype="<f4").tobytes(order="C")
    header = _CSGF_HEAD.pack(CSGF_MAGIC, CSGF_VERSION, seq.dim, seq.num_frames, seq.fps)
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_feature_file(path) -> FrameFeatureSequence:
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_CSGF_HEAD.size)
        if len(head) < _CSGF_HEAD.size:
            raise TruncatedError(f"{path.name}: file shorter than the CSGF header")
        magic, version, dim, num_frames, fps = _CSGF_HEAD.unpack(head)
        if magic != CSGF_MAGIC:
            raise BadMagicError(f"{path.name}: bad magic {magic!r}, expected {CSGF_MAGIC!r}")
        if version != CSGF_VERSION:
            raise VersionError(f"{path.name}: unsupported version {version}")
        expected = _CSGF_HEAD.size + 4 * dim * num_frames
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TruncatedError(
                f"{path.name}: payload size mismatch, declared {num_frames}x{dim} "
                f"needs {expected} bytes, file has {size}"
            )
        features = np.empty((num_frames, dim), dtype="<f4")
        if fh.readinto(features.data) != features.nbytes:
            raise TruncatedError(f"{path.name}: file shrank while it was read")
    return FrameFeatureSequence(path.stem, float(fps), features)


def save_corpus(corpus: list[FrameFeatureSequence], directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for seq in corpus:
        save_feature_file(seq, directory / f"{seq.video_id}.csgf")


def load_corpus(directory, allow_empty: bool = False) -> list[FrameFeatureSequence]:
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"corpus directory {directory} does not exist")
    paths = sorted(directory.glob("*.csgf"))
    if not paths and not allow_empty:
        raise DataError(f"no .csgf files in {directory}")
    return [load_feature_file(p) for p in paths]


# -- annotation / detection JSON ----------------------------------------------


def _float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise DataError(f"{where}: integer too large for a float") from exc


def _parse_annotation(obj, where: str) -> Annotation:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object")
    for key, kind in (("video_id", str), ("num_frames", int), ("fps", (int, float))):
        if key not in obj:
            raise DataError(f"{where}.{key}: missing")
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise DataError(f"{where}.{key}: expected {kind}, got {type(obj[key]).__name__}")
    fps = _float(obj["fps"], f"{where}.fps")
    raw = obj.get("boundaries")
    if not isinstance(raw, list):
        raise DataError(f"{where}.boundaries: expected a list")
    for i, b in enumerate(raw):
        if not isinstance(b, int) or isinstance(b, bool):
            raise DataError(f"{where}.boundaries[{i}]: expected an integer")
    scores = obj.get("scores")
    if scores is not None:
        if not isinstance(scores, list) or not all(
            isinstance(s, (int, float)) and not isinstance(s, bool) for s in scores
        ):
            raise DataError(f"{where}.scores: expected a list of numbers")
        scores = [_float(s, f"{where}.scores[{i}]") for i, s in enumerate(scores)]
    try:
        return Annotation(obj["video_id"], obj["num_frames"], fps, raw, scores)
    except DataError as exc:
        raise DataError(f"{where}.{exc}") from exc


def load_annotations(path) -> list[Annotation]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"annotations: {path} is not UTF-8: {exc}") from exc
        except ValueError as exc:
            # JSONDecodeError, or an integer longer than Python's digit limit.
            raise DataError(f"annotations: invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise DataError("annotations: top-level value must be a list")
    return [_parse_annotation(obj, f"annotations[{i}]") for i, obj in enumerate(payload)]


def save_annotations(annotations: Iterable[Annotation], path) -> None:
    payload = []
    for ann in annotations:
        obj = {
            "video_id": ann.video_id,
            "num_frames": ann.num_frames,
            "fps": ann.fps,
            "boundaries": list(ann.boundaries),
        }
        if ann.scores is not None:
            obj["scores"] = [float(s) for s in ann.scores]
        payload.append(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def annotations_by_id(annotations: list[Annotation]) -> dict[str, Annotation]:
    out: dict[str, Annotation] = {}
    for ann in annotations:
        if ann.video_id in out:
            raise DataError(f"duplicate annotation for video {ann.video_id!r}")
        out[ann.video_id] = ann
    return out
