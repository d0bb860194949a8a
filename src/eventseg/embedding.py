"""Contrastive temporal feature embedding.

A query MLP and a structurally identical key MLP map raw frame features to
unit-norm embeddings. The key encoder is never touched by gradients; it
trails the query encoder through an exponential moving average. Negatives
come from other snippets in the batch (including other snippets of the same
video) and from a FIFO memory queue of past key embeddings. The loss treats
every other frame of the query's own snippet as a positive, one at a time,
against the shared pool of negatives.

``info_nce_loss`` is one autodiff node over rows laid out as L snippets of T
consecutive frames, so its positives lie in the L diagonal T x T blocks of
the logits. Its forward pass is one matmul of the queries, scaled by
1/temperature, against ``[keys; queue]`` into a buffer turned in place from
logits into the exponentials of exactly the negatives, then one matmul of
that buffer against ``[keys; queue | 1]``, which gives each row's negative
sum and the product the backward pass needs; the buffer is freed then.
Its backward pass uses the closed-form softmax gradient (van den Oord et
al., 2018): ``p - 1`` on each positive logit and the negative's share of
each positive's denominator on each negative logit, mapped back through
that product and one T x T product per snippet. It computes in the
queries' dtype. The keys and the queue get no gradient.
``MemoryQueue(capacity, dim)`` is a ring buffer allocated when it is built;
``as_array`` returns its rows oldest first, which is the checkpoint layout.
``extend``, its only append, writes a block of rows in at most two slice
assignments, evicting the oldest once full; ``enqueue_memory`` appends a
step's L keys that way.

Each encoder packs its parameters into one arena (``tensor.ParameterArena``)
in ``parameters()`` order, which owns their values, gradients and momentum
buffers; the query and key encoders' arenas share a layout, so
``momentum_update`` is two whole-array calls on the key arena.

A training batch is a plain (L, T, in_dim) float32 array of L snippets of
T frames: ``sample_batch`` draws it, non-overlapping within each video by
construction, with one ``rng.integers`` call and one sort for the offsets
of every chosen video (the values one call per video would draw).
``info_nce_loss`` and the encoders are pure given parameters; the training
losses on a batch are put together in ``reconstruction``.
``momentum_update`` and ``enqueue_memory`` mutate shared state and expect a
single writer per training step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FrameFeatureSequence
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .tensor import (
    Parameter, ParameterArena, Tensor, _accumulate, l2_normalize, linear, no_grad,
)


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
        self.w1 = uniform_weight(rng, in_dim, hidden, f"{prefix}.w1")
        self.b1 = Parameter(np.zeros(hidden, dtype=np.float32), f"{prefix}.b1")
        self.w2 = uniform_weight(rng, hidden, out_dim, f"{prefix}.w2")
        self.b2 = Parameter(np.zeros(out_dim, dtype=np.float32), f"{prefix}.b2")
        self.arena = ParameterArena(self.parameters())

    def __call__(self, x: Tensor) -> Tensor:
        return linear(linear(x, self.w1, self.b1).relu(), self.w2, self.b2)

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


def uniform_weight(rng: np.random.Generator, fan_in: int, fan_out: int, name: str) -> Parameter:
    """Every weight matrix of both models: float32, U(+-1/sqrt(fan_in))."""
    scale = 1.0 / np.sqrt(fan_in)
    return Parameter(rng.uniform(-scale, scale, size=(fan_in, fan_out)).astype(np.float32), name)


class EncoderPair:
    """Query encoder plus its momentum-updated key twin."""

    def __init__(self, in_dim: int, dim: int, alpha: float, rng: np.random.Generator):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        self.in_dim = in_dim
        self.dim = dim
        self.alpha = alpha
        self.query = MlpEncoder(in_dim, dim, rng, "ctfe.query")
        self.key = MlpEncoder(in_dim, dim, rng, "ctfe.key")
        self.key.arena.values[...] = self.query.arena.values

    def parameters(self) -> list[Parameter]:
        return self.query.parameters() + self.key.parameters()


def momentum_update(enc: EncoderPair) -> None:
    """key <- alpha * key + (1 - alpha) * query, elementwise, over the two
    encoders' arenas, which have the same layout."""
    a, key = enc.alpha, enc.key.arena.values
    key *= a
    key += (1.0 - a) * enc.query.arena.values


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
    oldest entry and ``extend`` overwrites it once the ring is full.
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

    def extend(self, matrix: np.ndarray) -> None:
        """Append the rows of a (k, dim) ``matrix`` in order, evicting the
        oldest rows once full, in at most two slice assignments into the
        ring."""
        rows = self._as_rows(matrix)
        # Row i of k lands at (head + len + i) % capacity, so of more than
        # capacity rows only the last capacity survive.
        end = self._head + self._len + len(rows)
        kept = rows[max(0, len(rows) - self.capacity):]
        start = (end - len(kept)) % self.capacity
        split = min(len(kept), self.capacity - start)
        self._rows[start : start + split] = kept[:split]
        self._rows[: len(kept) - split] = kept[split:]
        self._len = min(self._len + len(rows), self.capacity)
        self._head = (end - self._len) % self.capacity

    def as_array(self) -> np.ndarray:
        """A fresh (len, dim) copy, oldest entry first: the rows from the
        head to the ring's end, then those that wrapped to its start."""
        end = self._head + self._len
        return np.concatenate(
            [self._rows[self._head : end], self._rows[: max(0, end - self.capacity)]])

    def load(self, matrix: np.ndarray) -> None:
        """Replace the contents with the newest ``capacity`` rows of ``matrix``.

        A non-finite row is a ``NumericsError`` raised before any change, as
        in ``enqueue_memory``.
        """
        rows = self._as_rows(matrix)
        if not np.isfinite(rows).all():
            raise NumericsError("non-finite queue row")
        self._head = self._len = 0
        self.extend(rows)

    def _as_rows(self, matrix) -> np.ndarray:
        rows = np.asarray(matrix, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[1] != self._rows.shape[1]:
            raise ShapeError(
                f"queue holds rows of width {self._rows.shape[1]}, got shape {rows.shape}"
            )
        return rows


def sample_batch(
    corpus: list[FrameFeatureSequence],
    batch_videos: int,
    snippets_per_video: int,
    window: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``batch_videos`` distinct videos and ``snippets_per_video``
    non-overlapping windows from each: the (L, window, dim) float32 frames,
    L = ``batch_videos * snippets_per_video``, video by video in draw order.

    Videos shorter than ``snippets_per_video * window`` frames are skipped;
    if fewer than ``batch_videos`` remain, the corpus is too small.
    """
    need = snippets_per_video * window
    eligible = [seq for seq in corpus if seq.num_frames >= need]
    if len(eligible) < batch_videos:
        raise DataError(
            f"corpus too small: {len(eligible)} videos with >= {need} frames, "
            f"need {batch_videos}"
        )
    chosen = [eligible[i] for i in rng.choice(len(eligible), size=batch_videos, replace=False)]
    # Sorted offsets into each video's slack, then each window shifted by its
    # predecessors' length: uniform non-overlapping windows. One draw for
    # all videos takes the same values from the stream as one per video.
    slack = np.array([seq.num_frames - need for seq in chosen])
    offsets = np.sort(rng.integers(0, slack[:, None] + 1, size=(batch_videos, snippets_per_video)))
    starts = offsets + np.arange(snippets_per_video) * window
    frames = [seq.features[s : s + window] for seq, row in zip(chosen, starts.tolist()) for s in row]
    return np.concatenate(frames).reshape(len(frames), window, -1)


def info_nce_loss(
    queries: Tensor,
    keys: np.ndarray,
    window: int,
    queue_entries: np.ndarray,
    temperature: float,
) -> Tensor:
    """Loss over flattened per-frame embeddings, as one autodiff node.

    ``queries`` is (n, D) and differentiable, ``keys`` the matching detached
    key embeddings, ``queue_entries`` the (Q, D) queue (Q may be 0). The rows
    are n / ``window`` snippets of ``window`` consecutive frames, as
    ``sample_batch`` lays them out. For each query row, every other row of
    the same snippet is a positive; rows of other snippets and all queue
    entries are negatives. With logits ``l = q . k / temperature`` and ``N_i``
    the summed exponentials of row i's negatives, the loss is the mean over
    positives (i, j) of ``-(l_ij - log(exp(l_ij) + N_i))``, computed in the
    dtype of ``queries``. The gradient flows into ``queries`` only. Without a
    positive pair: ``ConfigError``.
    """
    q = queries.data
    keys, queue_entries = np.asarray(keys), np.asarray(queue_entries)
    if q.ndim != 2 or keys.shape != q.shape or queue_entries.shape[1:] != q.shape[1:]:
        raise ShapeError(f"queries {q.shape} need keys of that shape and queue rows as "
                         f"wide, got keys {keys.shape} and queue {queue_entries.shape}")
    n, dim = q.shape
    if window < 2 or n == 0:
        raise ConfigError("contrastive loss needs a snippet of >= 2 frames to form positives")
    if n % window:
        raise ShapeError(f"{n} query rows are not whole snippets of {window} frames")
    L, T = n // window, window
    snippets, off_diagonal = np.arange(L), ~np.eye(T, dtype=bool)
    # [keys; queue] next to a column of ones: one product with it gives the
    # negatives' row sums and the backward's product with the pool at once.
    pool = np.empty((n + len(queue_entries), dim + 1), q.dtype)
    pool[:n, :dim], pool[n:, :dim], pool[:, dim] = keys, queue_entries, 1.0

    # One n x (n + Q) buffer: logits, then their exponentials, then (with the
    # same-snippet blocks zeroed) exactly the negatives' exponentials. In its
    # no-copy (L, T, L, T) view, [l, :, l] is snippet l against its own keys.
    # It is dropped once multiplied into ``summed``, so the backward pass
    # holds only n x (D + 1) of it.
    e = (q * (1.0 / temperature)) @ pool[:, :dim].T
    blocks = e[:, :n].reshape(L, T, L, T)
    l_pos = blocks[snippets, :, snippets][:, off_diagonal].reshape(n, T - 1)
    np.exp(e, out=e)
    blocks[snippets, :, snippets] = 0.0
    summed = e @ pool
    del e, blocks
    exp_pos = np.exp(l_pos)
    denom = exp_pos + summed[:, dim:]
    scale = 1.0 / l_pos.size
    loss = -scale * np.sum(l_pos - np.log(denom))

    def backward(g):
        # d loss / d logit: (p_ij - 1) on a positive; e_ik * sum_j 1/denom_ij
        # on a negative k of row i. Both are scaled by 1/temperature. cumsum
        # adds a row's terms in order; np.sum pairs them from 8 terms on.
        c = float(g) * scale / temperature
        weight = c * np.cumsum(1.0 / denom, axis=1)[:, -1]
        grad = summed[:, :dim] * weight[:, None]
        d_pos = np.zeros((L, T, T), q.dtype)
        d_pos[:, off_diagonal] = (c * (exp_pos / denom - 1.0)).reshape(L, -1)
        grad += (d_pos @ keys.reshape(L, T, dim)).reshape(n, dim)
        _accumulate(queries, grad)

    return queries._result(np.asarray(loss, dtype=q.dtype), (queries,), backward)


def enqueue_memory(
    batch: np.ndarray,
    enc: EncoderPair,
    queue: MemoryQueue,
    rng: np.random.Generator,
) -> None:
    """Key-encode one uniformly chosen frame of each snippet of the
    (L, T, dim) ``batch`` and append the L keys to the queue.

    A non-finite key is a ``NumericsError`` raised before the queue
    changes, so the queue never holds a value a checkpoint could not store.
    """
    L, T, _ = batch.shape
    picks = rng.integers(0, T, size=L)
    selected = batch[np.arange(L), picks]
    encoded = encode_key(selected, enc).data
    if not np.isfinite(encoded).all():
        raise NumericsError("non-finite key embedding")
    queue.extend(encoded)
