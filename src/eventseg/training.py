"""Training driver: wires batch sampling, the joint step, and bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, RunConfig
from .data import FrameFeatureSequence
from .embedding import EncoderPair, MemoryQueue, sample_batch
from .errors import NumericsError
from .reconstruction import Reconstructor, train_step


@dataclass
class TrainingResult:
    encoders: EncoderPair
    reconstructor: Reconstructor
    queue: MemoryQueue
    history: list[dict[str, float]]
    completed_steps: int
    diverged: bool

    @property
    def first_loss(self) -> float:
        return self.history[0]["total"]

    @property
    def last_loss(self) -> float:
        return self.history[-1]["total"]


def build_models(model: ModelConfig, rng: np.random.Generator) -> tuple[EncoderPair, Reconstructor, MemoryQueue]:
    enc = EncoderPair(model.input_dim, model.embedding_dim, model.alpha, rng)
    rec = Reconstructor(model.embedding_dim, model.heads, model.layers, rng)
    queue = MemoryQueue(model.queue_capacity, model.embedding_dim)
    return enc, rec, queue


def run_training(
    corpus: list[FrameFeatureSequence],
    cfg: RunConfig,
    progress=None,
) -> TrainingResult:
    """Run the configured number of joint steps over the corpus.

    Fully deterministic under the training seed: one generator drives the
    model init, batch sampling, mask choice, and queue insertion in a fixed
    order. On divergence (non-finite loss) training stops with the parameters
    from before the failed step, marked ``diverged``.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.training.seed)
    enc, rec, queue = build_models(cfg.model, rng)
    history: list[dict[str, float]] = []
    diverged = False
    steps_done = 0
    for step in range(1, cfg.training.steps + 1):
        batch = sample_batch(
            corpus,
            cfg.training.batch_videos,
            cfg.training.snippets_per_video,
            cfg.detector.window,
            rng,
        )
        try:
            losses = train_step(
                batch, enc, queue, rec, cfg.contrastive, cfg.reconstruction,
                cfg.optimizer, rng,
            )
        except NumericsError:
            diverged = True
            break
        history.append({"step": step, **losses})
        steps_done = step
        if progress is not None and step % cfg.training.log_every == 0:
            progress(step, losses)
    return TrainingResult(enc, rec, queue, history, steps_done, diverged)


def write_loss_csv(history: list[dict[str, float]], path) -> None:
    lines = ["step,contrastive,reconstruction,total"]
    for row in history:
        lines.append(
            f"{int(row['step'])},{row['contrastive']:.8f},"
            f"{row['reconstruction']:.8f},{row['total']:.8f}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
