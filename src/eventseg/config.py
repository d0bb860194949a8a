"""Run configuration: dataclasses per subsystem plus an INI loader.

Every INI section is a field of ``RunConfig`` holding one dataclass, and
every key is a field of that dataclass with its default; one rule loads them
all, and each dataclass checks its own values when it is built. The detector
defaults are sized for the synthetic events (see ``DetectorConfig``). The
memory queue keeps its standard capacity of 4096. The one snippet length is
``[detector] window``: training samples snippets of it for both losses,
masking one frame of each, and detection slides a window of it. The
encoder's input width is not configured: training takes it from the feature
files, and a checkpoint records it. The output directory and the checkpoint
are command-line flags, not keys. ``RunConfig.validate`` checks the one
cross-section rule, that synthetic events are long enough for the window;
``eventseg synth`` applies it, since only synthesis reads both sections.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .data import SynthConfig
from .detection import DetectorConfig
from .embedding import ContrastiveConfig
from .errors import ConfigError
from .metrics import EvaluationConfig
from .optim import Optimizer
from .reconstruction import ReconstructionConfig


@dataclass
class ModelConfig:
    embedding_dim: int = 16
    heads: int = 8
    layers: int = 2
    alpha: float = 0.999
    queue_capacity: int = 4096

    def __post_init__(self):
        # The positional sin/cos table pairs the embedding's columns.
        if self.embedding_dim < 2 or self.embedding_dim % 2 != 0:
            raise ConfigError(f"embedding_dim must be even and >= 2, got {self.embedding_dim}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.embedding_dim % self.heads != 0:
            raise ConfigError(
                f"embedding_dim {self.embedding_dim} must be divisible by heads {self.heads}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        # A checkpoint keeps each setting in a float32 record, which holds
        # every integer only up to 2**24: a larger capacity would load as
        # another one.
        if self.queue_capacity > 2**24:
            raise ConfigError(f"queue_capacity must be <= 2**24, got {self.queue_capacity}")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")


@dataclass
class TrainingConfig:
    steps: int = 2000
    batch_videos: int = 16
    snippets_per_video: int = 2
    seed: int = 7
    log_every: int = 100

    def __post_init__(self):
        if self.steps < 1 or self.batch_videos < 1 or self.snippets_per_video < 1:
            raise ConfigError("steps, batch_videos, snippets_per_video must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"training seed must be >= 0, got {self.seed}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class PathsConfig:
    data_dir: str = "data"
    detections: str = ""
    annotations: str = ""


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    reconstruction: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    optimizer: Optimizer = field(default_factory=Optimizer)
    synth: SynthConfig = field(default_factory=SynthConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    def validate(self) -> None:
        window = self.detector.window
        if self.synth.event_length[0] < window:
            raise ConfigError(
                f"synthetic event_length minimum {self.synth.event_length[0]} is "
                f"shorter than the window {window}"
            )


# INI section name -> its dataclass, one per RunConfig field.
_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _int_pair(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return int(parts[0]), int(parts[1])


def _float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


# Parser per field annotation. The config modules use postponed annotations,
# so dataclass field types are these strings.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, int]": _int_pair,
    "tuple[float, ...]": _float_tuple,
}


def _parse_value(raw: str, annotation, section: str, key: str):
    parse = _PARSERS.get(annotation)
    if parse is None:
        raise ConfigError(f"[{section}] {key}: unsupported option type {annotation!r}")
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc


def load_config(path: str | Path | None = None, seed: int | None = None) -> RunConfig:
    """Build a RunConfig from defaults plus an optional INI file.

    Values are read literally (``%`` is an ordinary character). Unknown
    sections or keys, ``[DEFAULT]`` included, are configuration errors (they
    are usually typos). ``seed`` overrides the training and synthesis seeds.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is malformed: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
        # configparser keeps [DEFAULT] out of sections() and merges its keys
        # into every other section.
        if parser.defaults():
            raise ConfigError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            cls = _SECTIONS[section]
            fields = {f.name: f for f in dataclasses.fields(cls)}
            current = dataclasses.asdict(getattr(cfg, section))
            for key, raw in parser[section].items():
                if key not in fields:
                    raise ConfigError(f"[{section}] unknown key {key!r}")
                current[key] = _parse_value(raw, fields[key].type, section, key)
            setattr(cfg, section, cls(**current))
    if seed is not None:
        cfg.training = dataclasses.replace(cfg.training, seed=seed)
        cfg.synth = dataclasses.replace(cfg.synth, seed=seed)
    return cfg

