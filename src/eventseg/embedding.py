"""Contrastive temporal feature embedding.

A query MLP and a structurally identical key MLP map raw frame features to
unit-norm embeddings. The key encoder is never touched by gradients; it
trails the query encoder through an exponential moving average. Negatives
come from other snippets in the batch (including other snippets of the same
video) and from a FIFO memory queue of past key embeddings. The loss treats
every other frame of the query's own snippet as a positive, one at a time,
against the shared pool of negatives.

``info_nce_loss`` is one autodiff node. Its forward pass is a single matmul
of the queries against ``[keys; queue]`` into one buffer that is turned in
place from logits into the exponentials of exactly the negatives. Its
backward pass uses the closed-form softmax gradient (van den Oord et al.,
2018): ``p - 1`` on each positive logit and the negative's share of each
positive's denominator on each negative logit, mapped back to the queries
with one matmul against the same pool. The keys and the queue get no
gradient. ``MemoryQueue(capacity, dim)`` is a ring buffer allocated when it
is built; ``as_array`` returns its rows oldest first, which is the checkpoint
layout.

``info_nce_loss`` and the encoders are pure given parameters; the training
losses on a snippet batch are put together in ``reconstruction``.
``momentum_update`` and ``enqueue_memory`` mutate shared state and expect a
single writer per training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FrameFeatureSequence
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .tensor import Parameter, Tensor, _accumulate, l2_normalize, no_grad


@dataclass
class ContrastiveConfig:
    temperature: float = 0.2

    def __post_init__(self):
        # An infinite temperature makes every logit 0: the loss then carries
        # no gradient and training would run on without learning.
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(
                f"temperature must be finite and positive, got {self.temperature}"
            )


class MlpEncoder:
    """One hidden layer of width 2*out_dim with ReLU, then a linear map."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, prefix: str):
        hidden = 2 * out_dim
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w1 = Parameter(_uniform_init(rng, (in_dim, hidden)), f"{prefix}.w1")
        self.b1 = Parameter(np.zeros(hidden, dtype=np.float32), f"{prefix}.b1")
        self.w2 = Parameter(_uniform_init(rng, (hidden, out_dim)), f"{prefix}.w2")
        self.b2 = Parameter(np.zeros(out_dim, dtype=np.float32), f"{prefix}.b2")

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.w1 + self.b1).relu() @ self.w2 + self.b2

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy_values_from(self, other: "MlpEncoder") -> None:
        for dst, src in zip(self.parameters(), other.parameters()):
            dst.data[...] = src.data


def _uniform_init(rng: np.random.Generator, shape) -> np.ndarray:
    scale = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-scale, scale, size=shape).astype(np.float32)


class EncoderPair:
    """Query encoder plus its momentum-updated key twin."""

    def __init__(self, in_dim: int, dim: int, alpha: float = 0.999,
                 rng: np.random.Generator | None = None):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.dim = dim
        self.alpha = alpha
        self.query = MlpEncoder(in_dim, dim, rng, "ctfe.query")
        self.key = MlpEncoder(in_dim, dim, rng, "ctfe.key")
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
    """FIFO buffer of up to ``capacity`` unit-norm key embeddings.

    A ``(capacity, dim)`` ring allocated here: ``_head`` is the row of the
    oldest entry and a push overwrites it once the ring is full.
    """

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rows = np.empty((capacity, dim), dtype=np.float32)
        self._head = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def push(self, vector: np.ndarray) -> None:
        row = np.asarray(vector, dtype=np.float32)
        if row.shape != self._rows.shape[1:]:
            raise ShapeError(
                f"queue holds rows of width {self._rows.shape[1]}, got shape {row.shape}"
            )
        self._rows[(self._head + self._len) % self.capacity] = row
        if self._len < self.capacity:
            self._len += 1
        else:
            self._head = (self._head + 1) % self.capacity

    def as_array(self) -> np.ndarray:
        """A fresh (len, dim) copy, oldest entry first."""
        order = np.arange(self._head, self._head + self._len)
        return self._rows.take(order, axis=0, mode="wrap")

    def load(self, matrix: np.ndarray) -> None:
        """Replace the contents with the newest ``capacity`` rows of ``matrix``."""
        rows = np.asarray(matrix, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[1] != self._rows.shape[1]:
            raise ShapeError(
                f"queue holds rows of width {self._rows.shape[1]}, got shape {rows.shape}"
            )
        kept = rows[max(0, len(rows) - self.capacity):]
        self._rows[: len(kept)] = kept
        self._head = 0
        self._len = len(kept)


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
) -> Tensor:
    """Loss over flattened per-frame embeddings, as one autodiff node.

    ``queries`` is (L*T, D) and differentiable, ``keys`` the matching
    detached key embeddings, ``snippet_ids`` the snippet index of every row.
    For each query row, every other row of the same snippet is a positive;
    rows of other snippets and all queue entries are negatives. With logits
    ``l = q . k / temperature`` and ``N_i`` the summed exponentials of row
    i's negatives, the loss is the mean over positives (i, j) of
    ``-(l_ij - log(exp(l_ij) + N_i))``. The gradient flows into ``queries``
    only. Without a positive pair the loss is undefined: ``ConfigError``.
    """
    q = queries.data
    n = q.shape[0]
    keys = np.asarray(keys)
    ids = np.asarray(snippet_ids)
    if keys.shape[0] != n or ids.shape != (n,):
        raise ShapeError(
            f"{n} queries need as many keys and snippet ids, got {keys.shape[0]} "
            f"and {ids.shape}"
        )
    pool = keys
    if queue_entries is not None and len(queue_entries) > 0:
        pool = np.concatenate((keys, queue_entries))
    same = ids[:, None] == ids[None, :]
    rows, cols = np.nonzero(same & ~np.eye(n, dtype=bool))
    if not rows.size:
        raise ConfigError("contrastive loss needs a snippet of >= 2 frames to form positives")

    # One n x (n + Q) buffer: logits, then their exponentials, then (with the
    # same-snippet block zeroed) exactly the negatives' exponentials.
    e = q @ pool.T
    e *= 1.0 / temperature
    l_pos = e[rows, cols].astype(np.float64)
    np.exp(e, out=e)
    e[:, :n][same] = 0.0
    negatives = e.sum(axis=1, dtype=np.float64)
    exp_pos = np.exp(l_pos)
    denom = exp_pos + negatives[rows]
    scale = 1.0 / rows.size
    loss = -scale * np.sum(l_pos - np.log(denom))

    def backward(g):
        # d loss / d logit: (p_ij - 1) on a positive; e_ik * sum_j 1/denom_ij
        # on a negative k of row i. Both are scaled by 1/temperature.
        c = float(g) * scale / temperature
        weight = c * np.bincount(rows, weights=1.0 / denom, minlength=n)
        grad = (e @ pool) * weight[:, None]
        d_pos = np.zeros((n, n))
        d_pos[rows, cols] = c * (exp_pos / denom - 1.0)
        grad += d_pos @ keys
        _accumulate(queries, grad)

    return queries._result(np.asarray(loss, dtype=q.dtype), (queries,), backward)


def enqueue_memory(
    batch: SnippetBatch,
    enc: EncoderPair,
    queue: MemoryQueue,
    rng: np.random.Generator,
) -> None:
    """Key-encode one uniformly chosen frame per snippet and push it.

    A non-finite key is a ``NumericsError`` raised before any push, so the
    queue never holds a value a checkpoint could not store.
    """
    picks = rng.integers(0, batch.window, size=batch.num_snippets)
    selected = batch.frames[np.arange(batch.num_snippets), picks]
    encoded = encode_key(selected, enc).data
    if not np.isfinite(encoded).all():
        raise NumericsError("non-finite key embedding")
    for row in encoded:
        queue.push(row)
