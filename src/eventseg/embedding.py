"""Contrastive temporal feature embedding.

A query MLP and a structurally identical key MLP map raw frame features to
unit-norm embeddings. The key encoder is never touched by gradients; it
trails the query encoder through an exponential moving average. Negatives
come from other snippets in the batch (including other snippets of the same
video) and from a FIFO memory queue of past key embeddings. The loss treats
every other frame of the query's own snippet as a positive, one at a time,
against the shared pool of negatives.

``info_nce_loss`` and the encoders are pure given parameters; the training
loss on a snippet batch is put together in ``reconstruction.compute_losses``.
``momentum_update`` and ``enqueue_memory`` mutate shared state and expect a
single writer per training step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import FrameFeatureSequence
from .errors import ConfigError, DataError, ShapeError
from .tensor import Parameter, Tensor, l2_normalize, no_grad


@dataclass
class ContrastiveConfig:
    temperature: float = 0.2
    window: int = 10

    def __post_init__(self):
        if not self.temperature > 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.window < 3:
            raise ConfigError(f"window must be >= 3, got {self.window}")


class MlpEncoder:
    """One hidden layer of width 2*out_dim with ReLU, then a linear map."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 prefix: str, dtype=np.float32):
        hidden = 2 * out_dim
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w1 = Parameter(_uniform_init(rng, (in_dim, hidden), dtype), f"{prefix}.w1")
        self.b1 = Parameter(np.zeros(hidden, dtype=dtype), f"{prefix}.b1")
        self.w2 = Parameter(_uniform_init(rng, (hidden, out_dim), dtype), f"{prefix}.w2")
        self.b2 = Parameter(np.zeros(out_dim, dtype=dtype), f"{prefix}.b2")

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.w1 + self.b1).relu() @ self.w2 + self.b2

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy_values_from(self, other: "MlpEncoder") -> None:
        for dst, src in zip(self.parameters(), other.parameters()):
            dst.data[...] = src.data


def _uniform_init(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    scale = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


class EncoderPair:
    """Query encoder plus its momentum-updated key twin."""

    def __init__(self, in_dim: int, dim: int, alpha: float = 0.999,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.dim = dim
        self.alpha = alpha
        self.query = MlpEncoder(in_dim, dim, rng, "ctfe.query", dtype)
        self.key = MlpEncoder(in_dim, dim, rng, "ctfe.key", dtype)
        self.key.copy_values_from(self.query)

    def trainable_parameters(self) -> list[Parameter]:
        return self.query.parameters()

    def parameters(self) -> list[Parameter]:
        return self.query.parameters() + self.key.parameters()


def momentum_update(enc: EncoderPair) -> None:
    """key <- alpha * key + (1 - alpha) * query, elementwise."""
    a = enc.alpha
    for k, q in zip(enc.key.parameters(), enc.query.parameters()):
        k.data *= a
        k.data += (1.0 - a) * q.data


def _as_input(frames, enc: EncoderPair) -> Tensor:
    x = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames))
    if x.data.ndim != 2 or x.data.shape[1] != enc.in_dim:
        raise ShapeError(
            f"encoder expects n x {enc.in_dim} input, got shape {x.data.shape}"
        )
    return x


def encode_query(frames, enc: EncoderPair) -> Tensor:
    """Unit-norm embeddings from the query encoder; differentiable."""
    return l2_normalize(enc.query(_as_input(frames, enc)))


def encode_key(frames, enc: EncoderPair) -> Tensor:
    """Unit-norm embeddings from the key encoder; detached from the graph."""
    with no_grad():
        return l2_normalize(enc.key(_as_input(frames, enc)))


class MemoryQueue:
    """FIFO buffer of up to ``capacity`` unit-norm key embeddings."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, vector: np.ndarray) -> None:
        self._entries.append(np.asarray(vector, dtype=np.float32).copy())

    def as_array(self, dim: int | None = None) -> np.ndarray:
        if not self._entries:
            return np.zeros((0, dim if dim is not None else 0), dtype=np.float32)
        return np.stack(self._entries)

    def load(self, matrix: np.ndarray) -> None:
        self._entries.clear()
        for row in np.asarray(matrix, dtype=np.float32):
            self._entries.append(row.copy())


@dataclass
class SnippetBatch:
    """``num_snippets`` windows of ``window`` frames each, plus provenance."""

    frames: np.ndarray          # (L, T, in_dim) float32
    video_ids: list[str]        # one id per snippet
    starts: list[int]           # first frame index of each snippet in its video

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 3:
            raise ShapeError(f"batch frames must be 3-d, got {self.frames.shape}")
        n = self.frames.shape[0]
        if len(self.video_ids) != n or len(self.starts) != n:
            raise ShapeError("video_ids and starts must have one entry per snippet")
        window = self.frames.shape[1]
        spans: dict[str, list[tuple[int, int]]] = {}
        for vid, start in zip(self.video_ids, self.starts):
            spans.setdefault(vid, []).append((start, start + window))
        for vid, ranges in spans.items():
            ranges.sort()
            for (s0, e0), (s1, _) in zip(ranges, ranges[1:]):
                if s1 < e0:
                    raise DataError(f"overlapping snippets in video {vid!r}")

    @property
    def num_snippets(self) -> int:
        return self.frames.shape[0]

    @property
    def window(self) -> int:
        return self.frames.shape[1]


def sample_batch(
    corpus: list[FrameFeatureSequence],
    batch_videos: int,
    snippets_per_video: int,
    window: int,
    seed: int | np.random.Generator,
) -> SnippetBatch:
    """Draw ``batch_videos`` distinct videos and ``snippets_per_video``
    non-overlapping windows from each, deterministically under the seed.

    Videos shorter than ``snippets_per_video * window`` frames are skipped;
    if fewer than ``batch_videos`` remain, the corpus is too small.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    need = snippets_per_video * window
    eligible = [seq for seq in corpus if seq.num_frames >= need]
    if len(eligible) < batch_videos:
        raise DataError(
            f"corpus too small: {len(eligible)} videos with >= {need} frames, "
            f"need {batch_videos}"
        )
    chosen = rng.choice(len(eligible), size=batch_videos, replace=False)
    frames, video_ids, starts = [], [], []
    for idx in chosen:
        seq = eligible[int(idx)]
        slack = seq.num_frames - need
        # Sorted offsets into the slack, then each window shifted by its
        # predecessors' length: uniform non-overlapping windows.
        offsets = np.sort(rng.integers(0, slack + 1, size=snippets_per_video))
        for k, off in enumerate(offsets):
            start = int(off) + k * window
            frames.append(seq.features[start : start + window])
            video_ids.append(seq.video_id)
            starts.append(start)
    return SnippetBatch(np.stack(frames), video_ids, starts)


def info_nce_loss(
    queries: Tensor,
    keys: np.ndarray,
    snippet_ids: np.ndarray,
    queue_entries: np.ndarray | None,
    temperature: float,
    window: int,
) -> Tensor:
    """Loss over flattened per-frame embeddings.

    ``queries`` is (L*T, D) and differentiable, ``keys`` the matching
    detached key embeddings, ``snippet_ids`` the snippet index of every row.
    For each query row, every other row of the same snippet is a positive;
    rows of other snippets and all queue entries are negatives.
    """
    if window < 2:
        raise ConfigError("contrastive loss needs window >= 2 to form positives")
    n = queries.data.shape[0]
    keys_t = Tensor(keys)
    logits = (queries @ keys_t.swapaxes(0, 1)) * (1.0 / temperature)
    exp_logits = logits.exp()

    same = (snippet_ids[:, None] == snippet_ids[None, :]).astype(queries.data.dtype)
    negatives_mask = Tensor(1.0 - same)
    positives_mask = Tensor(same - np.eye(n, dtype=queries.data.dtype))

    q1 = (exp_logits * negatives_mask).sum(axis=1, keepdims=True)
    if queue_entries is not None and len(queue_entries) > 0:
        queue_logits = (queries @ Tensor(queue_entries.T)) * (1.0 / temperature)
        q2 = queue_logits.exp().sum(axis=1, keepdims=True)
        denom = exp_logits + q1 + q2
    else:
        denom = exp_logits + q1
    log_p = logits - denom.log()
    total = (positives_mask * log_p).sum()
    return -total * (1.0 / (n * (window - 1)))


def enqueue_memory(
    batch: SnippetBatch,
    enc: EncoderPair,
    queue: MemoryQueue,
    rng: np.random.Generator,
) -> None:
    """Key-encode one uniformly chosen frame per snippet and push it."""
    picks = rng.integers(0, batch.window, size=batch.num_snippets)
    selected = batch.frames[np.arange(batch.num_snippets), picks]
    encoded = encode_key(selected, enc).data
    for row in encoded:
        queue.push(row)
