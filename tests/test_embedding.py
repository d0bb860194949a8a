"""Encoders, momentum update, memory queue, batch sampling, and the
contrastive loss against an independent pure-Python double-loop oracle."""

import math

import numpy as np
import pytest

from eventseg import (
    ConfigError,
    ContrastiveConfig,
    DataError,
    EncoderPair,
    FrameFeatureSequence,
    MemoryQueue,
    Parameter,
    ReconstructionConfig,
    Reconstructor,
    SnippetBatch,
    Tensor,
    compute_losses,
    encode_key,
    encode_query,
    enqueue_memory,
    finite_difference,
    gradients_close,
    info_nce_loss,
    momentum_update,
    positional_embedding,
    sample_batch,
)


def brute_force_loss(h, z, snippet_ids, queue, tau, window):
    """O(n^2) re-computation of the loss with scalar math only."""
    n = len(h)
    total = 0.0
    for a in range(n):
        q1 = 0.0
        for b in range(n):
            if snippet_ids[b] != snippet_ids[a]:
                q1 += math.exp(float(np.dot(h[a], z[b])) / tau)
        q2 = 0.0
        for row in queue:
            q2 += math.exp(float(np.dot(h[a], row)) / tau)
        inner = 0.0
        for b in range(n):
            if snippet_ids[b] == snippet_ids[a] and b != a:
                q_pos = math.exp(float(np.dot(h[a], z[b])) / tau)
                inner += -math.log(q_pos / (q_pos + q1 + q2))
        total += inner / (window - 1)
    return total / n


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def test_encode_query_unit_norm_and_deterministic():
    rng = np.random.default_rng(0)
    enc = EncoderPair(6, 8, rng=rng)
    frames = rng.normal(size=(5, 6)).astype(np.float32)
    out = encode_query(frames, enc)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(5), atol=1e-5)

    doubled = np.vstack([frames[:1], frames[:1]])
    out2 = encode_query(doubled, enc)
    np.testing.assert_array_equal(out2.data[0], out2.data[1])


def test_encode_query_rejects_width_mismatch():
    enc = EncoderPair(6, 8, rng=np.random.default_rng(0))
    with pytest.raises(Exception):
        encode_query(np.zeros((3, 5), dtype=np.float32), enc)


def test_encode_query_gradient():
    rng = np.random.default_rng(1)
    enc = EncoderPair(4, 4, rng=rng)
    for p in enc.query.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)
    frames = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))

    def fn():
        return float((encode_query(frames, enc) * Tensor(w)).sum().data)

    (encode_query(frames, enc) * Tensor(w)).sum().backward()
    fds = finite_difference(fn, [p.data for p in enc.query.parameters()])
    for p, fd in zip(enc.query.parameters(), fds):
        assert gradients_close(p.grad, fd), p.name


def test_encode_key_is_detached_and_copy_matches_query():
    rng = np.random.default_rng(2)
    enc = EncoderPair(6, 8, alpha=0.0, rng=rng)
    # alpha=0 copies query into key outright.
    enc.key.w1.data += 1.0
    momentum_update(enc)
    frames = rng.normal(size=(4, 6)).astype(np.float32)
    np.testing.assert_allclose(
        encode_key(frames, enc).data, encode_query(frames, enc).data, atol=1e-6
    )

    key_out = encode_key(frames, enc)
    assert not key_out.requires_grad
    loss = (key_out * 2.0).sum()
    loss.backward()
    for p in enc.key.parameters():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))


def test_momentum_update_formula():
    rng = np.random.default_rng(3)
    enc = EncoderPair(4, 4, alpha=1.0, rng=rng)
    before = [p.data.copy() for p in enc.key.parameters()]
    enc.query.w1.data += 3.0
    momentum_update(enc)
    for p, b in zip(enc.key.parameters(), before):
        np.testing.assert_array_equal(p.data, b)

    enc.alpha = 0.999
    for p in enc.key.parameters():
        p.data[...] = 0.0
    for p in enc.query.parameters():
        p.data[...] = 1.0
    momentum_update(enc)
    for p in enc.key.parameters():
        np.testing.assert_allclose(p.data, np.full_like(p.data, 0.001), rtol=1e-5)


def test_momentum_update_is_contraction():
    rng = np.random.default_rng(4)
    enc = EncoderPair(4, 4, alpha=0.9, rng=rng)
    enc.key.w1.data += rng.normal(size=enc.key.w1.data.shape).astype(np.float32)
    gap_before = np.linalg.norm(enc.key.w1.data - enc.query.w1.data)
    momentum_update(enc)
    gap_after = np.linalg.norm(enc.key.w1.data - enc.query.w1.data)
    assert gap_after < gap_before


def test_queue_fifo_and_capacity():
    queue = MemoryQueue(4)
    for i in range(6):
        queue.push(np.full(3, float(i), dtype=np.float32))
    assert len(queue) == 4
    np.testing.assert_array_equal(queue.as_array(3)[:, 0], [2.0, 3.0, 4.0, 5.0])


def test_enqueue_memory_contract():
    rng = np.random.default_rng(5)
    enc = EncoderPair(6, 8, rng=rng)
    frames = rng.normal(size=(3, 4, 6)).astype(np.float32)
    batch = SnippetBatch(frames, ["a", "b", "c"], [0, 0, 0])
    queue = MemoryQueue(64)
    enqueue_memory(batch, enc, queue, np.random.default_rng(6))
    assert len(queue) == 3
    norms = np.linalg.norm(queue.as_array(8), axis=1)
    np.testing.assert_allclose(norms, np.ones(3), atol=1e-5)

    small = MemoryQueue(4)
    for i in range(4):
        small.push(np.full(8, float(i), dtype=np.float32))
    enqueue_memory(batch, enc, small, np.random.default_rng(7))
    assert len(small) == 4
    # The three oldest seeded rows were evicted.
    assert small.as_array(8)[0, 0] == 3.0


def test_contrastive_perfect_alignment_floor():
    # One snippet, no queue: no negatives at all, so P = 1 and the loss is 0.
    rng = np.random.default_rng(8)
    h = Tensor(_unit_rows(rng, 2, 8))
    z = _unit_rows(rng, 2, 8)
    ids = np.zeros(2, dtype=np.int64)
    loss = info_nce_loss(h, z, ids, None, 0.2, 2)
    assert abs(loss.item()) < 1e-6


def test_contrastive_scalar_hand_case():
    # Every query has one positive at similarity 1 and one queue negative at
    # similarity 0: loss is -log(e^5 / (e^5 + 1)).
    e1 = np.array([1.0, 0.0], dtype=np.float32)
    e2 = np.array([0.0, 1.0], dtype=np.float32)
    h = Tensor(np.stack([e1, e1]))
    z = np.stack([e1, e1])
    queue = np.stack([e2])
    loss = info_nce_loss(h, z, np.zeros(2, dtype=np.int64), queue, 0.2, 2)
    expected = -math.log(math.exp(5.0) / (math.exp(5.0) + 1.0))
    assert abs(loss.item() - expected) < 1e-6
    assert abs(expected - 0.006715) < 5e-7


def test_contrastive_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        L = int(rng.integers(1, 5))
        T = int(rng.integers(2, 5))
        dim = 6
        queue_len = int(rng.integers(0, 9))
        h = Tensor(_unit_rows(rng, L * T, dim))
        z = _unit_rows(rng, L * T, dim)
        queue = _unit_rows(rng, queue_len, dim) if queue_len else None
        ids = np.repeat(np.arange(L), T)
        tau = float(rng.uniform(0.1, 1.0))
        fast = info_nce_loss(h, z, ids, queue, tau, T).item()
        slow = brute_force_loss(
            h.data, z, ids, queue if queue is not None else [], tau, T
        )
        assert abs(fast - slow) < 1e-5


def test_contrastive_high_temperature_limit():
    rng = np.random.default_rng(10)
    L, T, dim, queue_len = 3, 4, 6, 5
    h = Tensor(_unit_rows(rng, L * T, dim))
    z = _unit_rows(rng, L * T, dim)
    queue = _unit_rows(rng, queue_len, dim)
    ids = np.repeat(np.arange(L), T)
    loss = info_nce_loss(h, z, ids, queue, 1e6, T).item()
    n_negatives = (L - 1) * T + queue_len
    assert abs(loss - math.log(1 + n_negatives)) < 1e-3


def test_contrastive_loss_is_nonnegative_and_needs_positives():
    rng = np.random.default_rng(11)
    enc = EncoderPair(6, 8, rng=rng)
    frames = rng.normal(size=(4, 3, 6)).astype(np.float32)
    batch = SnippetBatch(frames, ["a", "a", "b", "c"], [0, 3, 0, 0])
    queue = MemoryQueue(16)
    cfg = ContrastiveConfig(temperature=0.2, window=3)
    rec = Reconstructor(8, 4, 1, rng)
    loss, _, _ = compute_losses(
        batch, enc, queue, rec, cfg, ReconstructionConfig(window=3),
        positional_embedding(3, 8), np.ones((4, 1), dtype=np.int64),
    )
    assert loss.item() >= 0.0

    with pytest.raises(ConfigError):
        info_nce_loss(
            Tensor(_unit_rows(rng, 2, 4)), _unit_rows(rng, 2, 4),
            np.array([0, 1]), None, 0.2, 1,
        )


def test_queue_entries_receive_no_gradient():
    rng = np.random.default_rng(12)
    h = Tensor(_unit_rows(rng, 4, 6), requires_grad=True)
    queue = Parameter(_unit_rows(rng, 3, 6), "queue_probe")
    # The loss consumes the queue as raw values only.
    loss = info_nce_loss(h, _unit_rows(rng, 4, 6), np.repeat(np.arange(2), 2),
                         queue.data, 0.2, 2)
    loss.backward()
    np.testing.assert_array_equal(queue.grad, np.zeros_like(queue.data))


def _corpus(rng, sizes, dim=6):
    out = []
    for i, n in enumerate(sizes):
        feats = rng.normal(size=(n, dim)).astype(np.float32)
        out.append(FrameFeatureSequence(f"v{i:02d}", 25.0, feats))
    return out


def test_sample_batch_contract():
    rng = np.random.default_rng(13)
    corpus = _corpus(rng, [40] * 20)
    batch = sample_batch(corpus, 16, 2, 10, 99)
    assert batch.num_snippets == 32
    assert batch.window == 10

    batch2 = sample_batch(corpus, 16, 2, 10, 99)
    np.testing.assert_array_equal(batch.frames, batch2.frames)
    assert batch.video_ids == batch2.video_ids and batch.starts == batch2.starts

    spans = {}
    for vid, start in zip(batch.video_ids, batch.starts):
        spans.setdefault(vid, []).append((start, start + 10))
    for ranges in spans.values():
        ranges.sort()
        for (s0, e0), (s1, _) in zip(ranges, ranges[1:]):
            assert s1 >= e0


def test_sample_batch_skips_short_videos_and_errors_when_too_few():
    rng = np.random.default_rng(14)
    corpus = _corpus(rng, [40, 40, 5, 40])
    batch = sample_batch(corpus, 3, 2, 10, 0)
    assert "v02" not in batch.video_ids

    with pytest.raises(DataError):
        sample_batch(corpus, 4, 2, 10, 0)


def test_snippet_batch_rejects_overlap():
    rng = np.random.default_rng(15)
    frames = rng.normal(size=(2, 10, 6)).astype(np.float32)
    with pytest.raises(DataError):
        SnippetBatch(frames, ["a", "a"], [0, 5])
