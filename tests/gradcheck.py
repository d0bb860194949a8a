"""Gradient-check helpers shared by the test modules.

``finite_difference`` gives central-difference gradients to compare with
the autodiff ones, ``gradients_close`` compares the two, and ``dot``
reduces two tensors to a scalar loss.

``exp``, ``log``, ``div``, ``power`` and ``clamp_min`` are autodiff nodes
that the oracles below need and no package path uses. The package's
fused ``linear``, ``layer_norm``, ``softmax`` and ``l2_normalize`` replay
the arithmetic of ``composed_linear``, ``composed_layer_norm``,
``composed_softmax`` and ``composed_l2_normalize``, which build those ops
from ``@``, ``+``, ``sum`` and such nodes: the bit-exact oracles for the
fused nodes. Each takes its fused node's arguments, and the three
normalisations act on the last axis, as the fused nodes do.
``id_mask_info_nce`` is the bit-exact oracle for ``info_nce_loss``, whose
arithmetic, like every node's, runs in the queries' dtype.

``loop_sgd_step``, ``loop_momentum_update`` and ``loop_sample_batch`` are
the per-parameter and per-video loops that the package's whole-array
``sgd_step``, ``momentum_update`` and ``sample_batch`` replace: their
bit-exact oracles. ``wrap_gather_queue`` is the index gather that
``MemoryQueue.as_array``'s two slices replace.
"""

from typing import Iterable

import numpy as np

from eventseg import NumericsError, Tensor
from eventseg.tensor import _accumulate


def dot(a: Tensor, b: Tensor) -> Tensor:
    return (a * b).sum()


def exp(t: Tensor) -> Tensor:
    data = np.exp(t.data)

    def backward(g):
        _accumulate(t, g * data)

    return t._result(data, (t,), backward)


def log(t: Tensor) -> Tensor:
    def backward(g):
        _accumulate(t, g / t.data)

    return t._result(np.log(t.data), (t,), backward)


def div(a: Tensor, b) -> Tensor:
    return a._binary(b, np.true_divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def power(t: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    data = t.data ** p

    def backward(g):
        _accumulate(t, g * p * t.data ** (p - 1.0))

    return t._result(data, (t,), backward)


def clamp_min(t: Tensor, floor: float) -> Tensor:
    """max(t, floor); the clamped region is treated as constant."""
    def backward(g):
        _accumulate(t, g * (t.data > floor))

    return t._result(np.maximum(t.data, floor), (t,), backward)


def composed_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def composed_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    scale = 1.0 / x.data.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * scale
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    normalized = centered * power(var + eps, -0.5)
    return normalized * gamma + beta


def composed_softmax(x: Tensor) -> Tensor:
    shift = Tensor(np.max(x.data, axis=-1, keepdims=True))
    exps = exp(x - shift)
    return div(exps, exps.sum(axis=-1, keepdims=True))


def composed_l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    inv = power(clamp_min(norm_sq, eps * eps), -0.5)
    return x * inv


def id_mask_info_nce(queries, keys, snippet_ids, queue_entries, temperature):
    """``info_nce_loss`` with its positives given by a per-row snippet id
    instead of the layout: an n x n same-snippet mask, its ``np.nonzero``
    pairs, ``np.add.at`` row sums over them, and a dense n x n ``d_pos`` in
    the backward pass, multiplied into the keys one id's block at a time.
    Its pool is a contiguous ``[keys; queue]``, joined to a column of ones
    by a second concatenation, where the node writes one array and reads
    its first D columns as a strided view.

    Every sum runs in the node's order and dtype, so the two agree bit for
    bit. ``d_pos @ keys`` as one dense product would not: BLAS rounds an
    n-deep product with zeros differently from the T-deep ones.
    """
    q = queries.data
    n = q.shape[0]
    ids = np.asarray(snippet_ids)
    pool = np.concatenate((keys, queue_entries)).astype(q.dtype)
    same = ids[:, None] == ids[None, :]
    rows, cols = np.nonzero(same & ~np.eye(n, dtype=bool))

    e = (q * (1.0 / temperature)) @ pool.T
    l_pos = e[rows, cols]
    np.exp(e, out=e)
    e[:, :n][same] = 0.0
    summed = e @ np.concatenate((pool, np.ones((len(pool), 1), q.dtype)), axis=1)
    exp_pos = np.exp(l_pos)
    denom = exp_pos + summed[rows, -1]
    scale = 1.0 / rows.size
    loss = -scale * np.sum(l_pos - np.log(denom))

    def backward(g):
        c = float(g) * scale / temperature
        per_row = np.zeros(n, q.dtype)
        np.add.at(per_row, rows, 1.0 / denom)
        weight = c * per_row
        grad = summed[:, :-1] * weight[:, None]
        d_pos = np.zeros((n, n), q.dtype)
        d_pos[rows, cols] = c * (exp_pos / denom - 1.0)
        for i in np.unique(ids):
            block = np.flatnonzero(ids == i)
            grad[block] += d_pos[np.ix_(block, block)] @ keys[block]
        _accumulate(queries, grad)

    return queries._result(np.asarray(loss, dtype=q.dtype), (queries,), backward)


def finite_difference(fn, arrays: Iterable[np.ndarray], epsilon: float = 1e-3):
    """Central-difference gradients of scalar ``fn()`` w.r.t. entries of ``arrays``.

    ``fn`` must recompute its value from the arrays' current contents.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros(arr.shape, dtype=np.float64)
        for i in range(arr.size):
            original = arr.flat[i]
            arr.flat[i] = original + epsilon
            hi = fn()
            arr.flat[i] = original - epsilon
            lo = fn()
            arr.flat[i] = original
            grad.flat[i] = (hi - lo) / (2.0 * epsilon)
        grads.append(grad)
    return grads


def gradients_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel_tol: float = 1e-3,
    abs_tol: float = 1e-5,
) -> bool:
    """True when every entry agrees within rel_tol (abs_tol near zero)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(np.all(diff <= np.maximum(rel_tol * scale, abs_tol)))


def loop_sgd_step(params, opt) -> None:
    """``sgd_step`` one parameter at a time: every gradient, then every new
    buffer and value, is checked before any is written."""
    params = list(params)
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NumericsError(f"non-finite gradient for parameter {p.name!r}")
    updates = []
    for p in params:
        buf = p.momentum_buffer * opt.momentum
        buf += p.grad + opt.weight_decay * p.data
        updates.append((buf, p.data - opt.learning_rate * buf))
    for p, (_, value) in zip(params, updates):
        if not np.isfinite(value).all():
            raise NumericsError(f"update overflows parameter {p.name!r}")
    for p, (buf, value) in zip(params, updates):
        p.momentum_buffer[...] = buf
        p.data[...] = value
        p.grad[...] = 0.0


def loop_momentum_update(enc) -> None:
    """``momentum_update`` one key parameter at a time."""
    a = enc.alpha
    for k, q in zip(enc.key.parameters(), enc.query.parameters()):
        k.data *= a
        k.data += (1.0 - a) * q.data


def loop_sample_batch(corpus, batch_videos, snippets_per_video, window, rng) -> np.ndarray:
    """``sample_batch`` with one offset draw and one sort per video."""
    need = snippets_per_video * window
    eligible = [seq for seq in corpus if seq.num_frames >= need]
    frames = []
    for idx in rng.choice(len(eligible), size=batch_videos, replace=False):
        seq = eligible[int(idx)]
        offsets = np.sort(rng.integers(0, seq.num_frames - need + 1, size=snippets_per_video))
        for k, off in enumerate(offsets):
            start = int(off) + k * window
            frames.append(seq.features[start : start + window])
    return np.stack(frames)


def wrap_gather_queue(queue) -> np.ndarray:
    """``MemoryQueue.as_array`` as one gather of the ring's live rows,
    indices taken modulo the capacity."""
    order = np.arange(queue._head, queue._head + len(queue))
    return queue._rows.take(order, axis=0, mode="wrap")
