"""Training driver: wires batch sampling, the joint step, and bookkeeping."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detection
from .config import ModelConfig, RunConfig
from .data import FrameFeatureSequence
from .embedding import EncoderPair, MemoryQueue, sample_batch
from .errors import DataError, NumericsError
from .reconstruction import Reconstructor, train_step


@dataclass
class TrainingResult:
    encoders: EncoderPair
    reconstructor: Reconstructor
    queue: MemoryQueue
    history: list[dict[str, float]]
    diverged: bool

    @property
    def completed_steps(self) -> int:
        return len(self.history)


def build_models(model: ModelConfig, input_dim: int, rng: np.random.Generator) -> tuple[EncoderPair, Reconstructor, MemoryQueue]:
    enc = EncoderPair(input_dim, model.embedding_dim, model.alpha, rng)
    rec = Reconstructor(model.embedding_dim, model.heads, model.layers, rng)
    queue = MemoryQueue(model.queue_capacity, model.embedding_dim)
    return enc, rec, queue


def run_training(
    corpus: list[FrameFeatureSequence],
    cfg: RunConfig,
    progress=None,
) -> TrainingResult:
    """Run the configured number of joint steps over the corpus.

    The encoders take the corpus's feature width; a corpus with no videos,
    or with videos of different widths, is a ``DataError``. Fully
    deterministic under the training seed: one generator drives the
    model init, batch sampling, mask choice, and queue insertion in a fixed
    order. On divergence training stops, marked ``diverged``: a non-finite
    loss leaves the parameters from before the failed step, and a non-finite
    key embedding leaves the step's update applied but the queue unchanged.

    With two or more usable CPUs the run owns one worker thread, started
    with the first step and joined before this returns, also when a step
    raises; every step runs its reconstruction branch there (see
    ``train_step``). With one CPU every step runs in the calling thread. The
    bytes are the same either way.
    """
    widths = sorted({seq.dim for seq in corpus})
    if len(widths) != 1:
        raise DataError(f"training needs one feature width, the corpus has widths {widths}")
    rng = np.random.default_rng(cfg.training.seed)
    enc, rec, queue = build_models(cfg.model, widths[0], rng)
    history: list[dict[str, float]] = []
    diverged = False
    # Starting and joining a thread costs about 0.5 ms against a step of
    # about 8 ms, so one worker serves the whole run. The pool starts its
    # thread at the first submit, so with one CPU it starts none.
    with ThreadPoolExecutor(1) as pool:
        worker = pool if detection._usable_cpus() >= 2 else None
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
                    cfg.optimizer, rng, worker,
                )
            except NumericsError:
                diverged = True
                break
            history.append({"step": step, **losses})
            if progress is not None and step % cfg.training.log_every == 0:
                progress(step, losses)
    return TrainingResult(enc, rec, queue, history, diverged)


def write_loss_csv(history: list[dict[str, float]], path) -> None:
    lines = ["step,contrastive,reconstruction,total"]
    for row in history:
        lines.append(
            f"{int(row['step'])},{row['contrastive']:.8f},"
            f"{row['reconstruction']:.8f},{row['total']:.8f}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
