"""Run configuration: dataclasses per subsystem plus an INI loader.

Every hyperparameter is a named key with its standard default. ``RunConfig``
overrides two detector fields because the synthetic events are 30-60 frames
long rather than full-length activities: ``extrema_range`` (29 instead of
70; the prior is stated at ``RunConfig``) and ``fir_half_width`` (3 instead
of 5). The memory queue keeps its standard capacity of 4096. Cross-field
consistency (all three window lengths equal, embedding dim divisible by
heads, synthetic events long enough for the window) is validated whenever a
config is built.
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
from .optim import Optimizer
from .reconstruction import ReconstructionConfig


@dataclass
class ModelConfig:
    input_dim: int = 32
    embedding_dim: int = 16
    heads: int = 8
    layers: int = 2
    alpha: float = 0.999
    queue_capacity: int = 4096

    def __post_init__(self):
        if self.embedding_dim % self.heads != 0:
            raise ConfigError(
                f"embedding_dim {self.embedding_dim} must be divisible by heads {self.heads}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
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


@dataclass
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    checkpoint: str = ""
    detections: str = ""
    annotations: str = ""


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    reconstruction: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    # Prior for the extrema range: two true boundaries one minimum synthetic
    # event (30 frames) apart must both be able to win as strict maxima, so
    # the range is one below the minimum event length.
    detector: DetectorConfig = field(
        default_factory=lambda: DetectorConfig(
            extrema_range=SynthConfig().event_length[0] - 1, fir_half_width=3
        )
    )
    optimizer: Optimizer = field(default_factory=Optimizer)
    synth: SynthConfig = field(default_factory=SynthConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    thresholds: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 11))

    def validate(self) -> None:
        windows = {
            "contrastive": self.contrastive.window,
            "reconstruction": self.reconstruction.window,
            "detector": self.detector.window,
        }
        if len(set(windows.values())) != 1:
            raise ConfigError(f"window lengths must agree across sections, got {windows}")
        if self.synth.event_length[0] < self.contrastive.window:
            raise ConfigError(
                f"synthetic event_length minimum {self.synth.event_length[0]} is "
                f"shorter than the window {self.contrastive.window}"
            )
        if not self.thresholds or any(not 0 < t <= 1 for t in self.thresholds):
            raise ConfigError(f"thresholds must lie in (0, 1], got {self.thresholds}")


_SECTIONS = {
    "model": ("model", ModelConfig),
    "contrastive": ("contrastive", ContrastiveConfig),
    "reconstruction": ("reconstruction", ReconstructionConfig),
    "detector": ("detector", DetectorConfig),
    "optimizer": ("optimizer", Optimizer),
    "synth": ("synth", SynthConfig),
    "training": ("training", TrainingConfig),
    "paths": ("paths", PathsConfig),
}


def _int_pair(raw: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return int(parts[0]), int(parts[1])


def _optional_int(raw: str) -> int | None:
    return None if raw.lower() in ("", "none") else int(raw)


# Parser per field annotation. The config modules use postponed annotations,
# so dataclass field types are these strings.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": _optional_int,
    "tuple[int, int]": _int_pair,
}


def _parse_value(raw: str, annotation, section: str, key: str):
    parse = _PARSERS.get(annotation)
    if parse is None:
        raise ConfigError(f"[{section}] {key}: unsupported option type {annotation!r}")
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc


def parse_thresholds(raw: str) -> tuple[float, ...]:
    """Comma-separated Rel.Dis thresholds, each in (0, 1]."""
    try:
        values = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse thresholds {raw!r}: {exc}") from exc
    if not values or any(not 0 < t <= 1 for t in values):
        raise ConfigError(f"thresholds must lie in (0, 1], got {raw!r}")
    return values


def load_config(path: str | Path | None = None, seed: int | None = None) -> RunConfig:
    """Build a RunConfig from defaults plus an optional INI file.

    Unknown sections or keys are configuration errors (they are usually
    typos). ``seed`` overrides the training and synthesis seeds.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
        overrides: dict[str, dict] = {}
        for section in parser.sections():
            if section == "evaluation":
                raw = parser[section].get("thresholds")
                extra = set(parser[section]) - {"thresholds"}
                if extra:
                    raise ConfigError(f"[evaluation] unknown keys: {sorted(extra)}")
                if raw:
                    cfg.thresholds = parse_thresholds(raw)
                continue
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            attr, cls = _SECTIONS[section]
            fields = {f.name: f for f in dataclasses.fields(cls)}
            current = dataclasses.asdict(getattr(cfg, attr))
            for key, raw in parser[section].items():
                if key not in fields:
                    raise ConfigError(f"[{section}] unknown key {key!r}")
                current[key] = _parse_value(raw, fields[key].type, section, key)
            overrides[attr] = (cls, current)
        for attr, (cls, values) in overrides.items():
            setattr(cfg, attr, cls(**values))
    if seed is not None:
        cfg.training = dataclasses.replace(cfg.training, seed=seed)
        cfg.synth = dataclasses.replace(cfg.synth, seed=seed)
    cfg.validate()
    return cfg


def write_config_template(path: str | Path) -> None:
    """Emit an INI file holding every option at its default value."""
    cfg = RunConfig()
    lines = []
    for section, (attr, _) in _SECTIONS.items():
        lines.append(f"[{section}]")
        for f in dataclasses.fields(getattr(cfg, attr)):
            value = getattr(getattr(cfg, attr), f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            if value is None:
                value = ""
            lines.append(f"{f.name} = {value}")
        lines.append("")
    lines.append("[evaluation]")
    lines.append("thresholds = " + ",".join(f"{t:g}" for t in cfg.thresholds))
    lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")
