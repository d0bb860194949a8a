"""Encoders, momentum update, memory queue, batch sampling, and the
contrastive loss against hand cases, the same loss composed from autodiff
primitives and the id-mask reference. The scalar double-loop oracle is
acceptance criterion 2's."""

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
    NumericsError,
    Parameter,
    ReconstructionConfig,
    Reconstructor,
    ShapeError,
    Tensor,
    compute_losses,
    encode_key,
    encode_query,
    enqueue_memory,
    info_nce_loss,
    load_model,
    momentum_update,
    sample_batch,
    save_model,
)

from gradcheck import (
    exp,
    finite_difference,
    gradients_close,
    id_mask_info_nce,
    log,
    loop_momentum_update,
    loop_sample_batch,
    wrap_gather_queue,
)


def composed_info_nce(queries, keys, snippet_ids, queue_entries, temperature, window):
    """The loss built from generic autodiff ops (exp, masked sums, log): the
    gradient oracle for the fused ``info_nce_loss``."""
    n = queries.data.shape[0]
    logits = (queries @ Tensor(keys.T)) * (1.0 / temperature)
    exp_logits = exp(logits)

    same = (snippet_ids[:, None] == snippet_ids[None, :]).astype(queries.data.dtype)
    negatives_mask = Tensor(1.0 - same)
    positives_mask = Tensor(same - np.eye(n, dtype=queries.data.dtype))

    q1 = (exp_logits * negatives_mask).sum(axis=1, keepdims=True)
    if queue_entries is not None and len(queue_entries) > 0:
        queue_logits = (queries @ Tensor(queue_entries.T)) * (1.0 / temperature)
        q2 = exp(queue_logits).sum(axis=1, keepdims=True)
        denom = exp_logits + q1 + q2
    else:
        denom = exp_logits + q1
    log_p = logits - log(denom)
    total = (positives_mask * log_p).sum()
    return total * (-1.0 / (n * (window - 1)))


def _unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def test_encode_query_unit_norm_and_deterministic():
    rng = np.random.default_rng(0)
    enc = EncoderPair(6, 8, 0.999, rng)
    frames = rng.normal(size=(5, 6)).astype(np.float32)
    out = encode_query(frames, enc)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(5), atol=1e-5)

    doubled = np.vstack([frames[:1], frames[:1]])
    out2 = encode_query(doubled, enc)
    np.testing.assert_array_equal(out2.data[0], out2.data[1])


def test_encode_query_rejects_width_mismatch():
    enc = EncoderPair(6, 8, 0.999, np.random.default_rng(0))
    with pytest.raises(Exception):
        encode_query(np.zeros((3, 5), dtype=np.float32), enc)


def test_encode_query_gradient():
    rng = np.random.default_rng(1)
    enc = EncoderPair(4, 4, 0.999, rng)
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


def test_momentum_update_matches_the_per_parameter_loop_bit_for_bit():
    packed, oracle = (EncoderPair(6, 8, 0.99, np.random.default_rng(3)) for _ in range(2))
    rng = np.random.default_rng(4)
    for _ in range(5):
        for p, q in zip(packed.query.parameters(), oracle.query.parameters()):
            p.data[...] = q.data[...] = rng.normal(size=p.data.shape)
        momentum_update(packed)
        loop_momentum_update(oracle)
        for p, q in zip(packed.key.parameters(), oracle.key.parameters()):
            assert p.data.tobytes() == q.data.tobytes(), p.name


@pytest.mark.parametrize("capacity", [1, 2, 5])
def test_block_push_matches_one_push_per_row(capacity):
    """``extend`` of a block against one row at a time, from every fill
    level and head position, with blocks that wrap the ring and blocks of
    capacity rows or more."""
    rng = np.random.default_rng(capacity)
    for pushed_before in range(2 * capacity):
        for rows in sorted({0, 1, capacity - 1, capacity, capacity + 1, 2 * capacity + 3}):
            block, single = MemoryQueue(capacity, 3), MemoryQueue(capacity, 3)
            for row in rng.normal(size=(pushed_before, 3)).astype(np.float32):
                block.extend(row[None])
                single.extend(row[None])
            new = rng.normal(size=(rows, 3)).astype(np.float32)
            block.extend(new)
            for row in new:
                single.extend(row[None])
            assert (block._head, len(block)) == (single._head, len(single))
            assert block.as_array().tobytes() == single.as_array().tobytes()


@pytest.mark.parametrize("pushed", [0, 3, 5, 7, 13], ids=[
    "empty", "partial", "full", "wrapped", "wrapped-twice"])
def test_as_array_equals_the_wrapping_gather(pushed):
    queue = MemoryQueue(5, 3)
    queue.extend(np.random.default_rng(pushed).normal(size=(pushed, 3)).astype(np.float32))
    for _ in range(2):  # and once more after one row more
        rows = queue.as_array()
        oracle = wrap_gather_queue(queue)
        assert rows.shape == oracle.shape == (len(queue), 3)
        assert rows.dtype == oracle.dtype and rows.tobytes() == oracle.tobytes()
        queue.extend(np.full((1, 3), -1.0, dtype=np.float32))


def test_queue_fifo_and_capacity():
    queue = MemoryQueue(4, 3)
    for i in range(6):
        queue.extend(np.full((1, 3), float(i), dtype=np.float32))
    assert len(queue) == 4
    np.testing.assert_array_equal(queue.as_array()[:, 0], [2.0, 3.0, 4.0, 5.0])


def test_queue_fifo_after_wrapping_twice():
    queue = MemoryQueue(5, 2)
    for i in range(13):
        queue.extend(np.full((1, 2), float(i), dtype=np.float32))
        expected = np.arange(max(0, i - 4), i + 1, dtype=np.float32)
        assert len(queue) == len(expected)
        np.testing.assert_array_equal(queue.as_array()[:, 0], expected)


def test_queue_load_keeps_newest_rows_oldest_first():
    rows = np.arange(14, dtype=np.float32).reshape(7, 2)
    queue = MemoryQueue(4, 2)
    queue.load(rows)
    assert len(queue) == 4
    np.testing.assert_array_equal(queue.as_array(), rows[3:])
    queue.extend(np.array([[99.0, 99.0]], dtype=np.float32))
    np.testing.assert_array_equal(queue.as_array()[:, 0], [8.0, 10.0, 12.0, 99.0])

    queue.load(rows[:2])
    np.testing.assert_array_equal(queue.as_array(), rows[:2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queue_load_refuses_a_non_finite_row_before_any_change(bad):
    # A wrapped queue: the refused load must keep its rows, head and length.
    queue = MemoryQueue(4, 2)
    for i in range(6):
        queue.extend(np.full((1, 2), float(i), dtype=np.float32))
    rows, head, length = queue._rows.copy(), queue._head, len(queue)
    # The bad row is among the kept ones in one case and dropped in the other.
    for matrix in ([[bad, 1.0]], [[bad, 1.0]] + [[0.0, 1.0]] * 4):
        with pytest.raises(NumericsError):
            queue.load(matrix)
        assert queue._rows.tobytes() == rows.tobytes()
        assert (queue._head, len(queue)) == (head, length)


def test_queue_as_array_is_a_copy():
    queue = MemoryQueue(3, 2)
    for i in range(4):
        queue.extend(np.full((1, 2), float(i), dtype=np.float32))
    snapshot = queue.as_array()
    snapshot[...] = -1.0
    np.testing.assert_array_equal(queue.as_array()[:, 0], [1.0, 2.0, 3.0])


def test_queue_rejects_row_of_other_width():
    queue = MemoryQueue(3, 4)
    queue.extend(np.zeros((1, 4), dtype=np.float32))
    # Both take a (k, 4) block: a wider or narrower row, a bare (4,) row
    # and a stack of blocks are refused, and the queue keeps its one row.
    for bad in (np.zeros((1, 5)), np.zeros((2, 3)), np.zeros(4), np.zeros((1, 1, 4))):
        with pytest.raises(ShapeError, match="queue holds rows of width 4"):
            queue.extend(bad)
        with pytest.raises(ShapeError, match="queue holds rows of width 4"):
            queue.load(bad)
    assert len(queue) == 1 and queue.as_array().tobytes() == bytes(16)


def test_wrapped_queue_round_trips_through_checkpoint(tmp_path):
    rng = np.random.default_rng(16)
    enc = EncoderPair(6, 8, 0.99, rng)
    rec = Reconstructor(8, 4, 1, rng)
    queue = MemoryQueue(5, 8)
    for _ in range(12):
        queue.extend(_unit_rows(rng, 1, 8))
    save_model(tmp_path / "model.bin", enc, rec, queue, 5)
    _, _, loaded, _ = load_model(tmp_path / "model.bin")
    assert len(loaded) == 5
    np.testing.assert_array_equal(loaded.as_array(), queue.as_array())


def test_enqueue_memory_contract():
    rng = np.random.default_rng(5)
    enc = EncoderPair(6, 8, 0.999, rng)
    batch = rng.normal(size=(3, 4, 6)).astype(np.float32)
    queue = MemoryQueue(64, 8)
    enqueue_memory(batch, enc, queue, np.random.default_rng(6))
    assert len(queue) == 3
    norms = np.linalg.norm(queue.as_array(), axis=1)
    np.testing.assert_allclose(norms, np.ones(3), atol=1e-5)

    small = MemoryQueue(4, 8)
    for i in range(4):
        small.extend(np.full((1, 8), float(i), dtype=np.float32))
    enqueue_memory(batch, enc, small, np.random.default_rng(7))
    assert len(small) == 4
    # The three oldest seeded rows were evicted.
    assert small.as_array()[0, 0] == 3.0


def test_enqueue_memory_rejects_a_non_finite_key_before_any_push():
    rng = np.random.default_rng(5)
    enc = EncoderPair(6, 8, 0.999, rng)
    enc.key.b2.data[3] = np.nan
    batch = rng.normal(size=(3, 4, 6)).astype(np.float32)
    queue = MemoryQueue(64, 8)
    queue.extend(np.ones((1, 8), dtype=np.float32))
    with pytest.raises(NumericsError, match="non-finite key"):
        enqueue_memory(batch, enc, queue, np.random.default_rng(6))
    np.testing.assert_array_equal(queue.as_array(), np.ones((1, 8), dtype=np.float32))


def test_contrastive_perfect_alignment_floor():
    # One snippet, no queue: no negatives at all, so P = 1 and the loss is 0.
    rng = np.random.default_rng(8)
    h = Tensor(_unit_rows(rng, 2, 8))
    z = _unit_rows(rng, 2, 8)
    loss = info_nce_loss(h, z, 2, np.zeros((0, 8), np.float32), 0.2)
    assert abs(loss.item()) < 1e-6


def test_contrastive_scalar_hand_case():
    # Every query has one positive at similarity 1 and one queue negative at
    # similarity 0: loss is -log(e^5 / (e^5 + 1)).
    e1 = np.array([1.0, 0.0], dtype=np.float32)
    e2 = np.array([0.0, 1.0], dtype=np.float32)
    h = Tensor(np.stack([e1, e1]))
    z = np.stack([e1, e1])
    queue = np.stack([e2])
    loss = info_nce_loss(h, z, 2, queue, 0.2)
    expected = -math.log(math.exp(5.0) / (math.exp(5.0) + 1.0))
    assert abs(loss.item() - expected) < 1e-6
    assert abs(expected - 0.006715) < 5e-7


def _assert_matches_composed(h, z, ids, queue, tau, window):
    fused_q = Tensor(h.copy(), requires_grad=True)
    fused = info_nce_loss(fused_q, z, window, queue, tau)
    fused.backward()
    oracle_q = Tensor(h.copy(), requires_grad=True)
    oracle = composed_info_nce(oracle_q, z, ids, queue, tau, window)
    oracle.backward()
    assert abs(fused.item() - oracle.item()) < 1e-5
    # Entries that cancel to near zero carry the float32 rounding of their
    # whole row (about 1e-9 here), hence the small absolute floor.
    np.testing.assert_allclose(fused_q.grad, oracle_q.grad, rtol=1e-4, atol=1e-7)


def test_fused_info_nce_matches_composed_on_random_shapes():
    rng = np.random.default_rng(17)
    for _ in range(25):
        L = int(rng.integers(1, 6))
        T = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 9))
        queue_len = int(rng.integers(0, 12))
        queue = _unit_rows(rng, queue_len, dim)
        _assert_matches_composed(
            _unit_rows(rng, L * T, dim), _unit_rows(rng, L * T, dim),
            np.repeat(np.arange(L), T), queue, float(rng.uniform(0.1, 1.0)), T,
        )


def test_fused_info_nce_matches_composed_at_training_size():
    # The default training shape: 32 snippets of 10 frames, a full queue.
    rng = np.random.default_rng(18)
    L, T, dim = 32, 10, 16
    _assert_matches_composed(
        _unit_rows(rng, L * T, dim), _unit_rows(rng, L * T, dim),
        np.repeat(np.arange(L), T), _unit_rows(rng, 4096, dim), 0.2, T,
    )


@pytest.mark.parametrize("L, T, queue_len", [
    (3, 4, 0),   # empty queue: batch negatives only
    (1, 6, 7),   # one snippet: queue negatives only
    (1, 5, 0),   # one snippet, empty queue: no negatives at all
    (4, 2, 5),   # window 2: one positive per query
])
def test_fused_info_nce_matches_composed_on_edge_cases(L, T, queue_len):
    rng = np.random.default_rng(19)
    dim = 6
    queue = _unit_rows(rng, queue_len, dim)
    _assert_matches_composed(
        _unit_rows(rng, L * T, dim), _unit_rows(rng, L * T, dim),
        np.repeat(np.arange(L), T), queue, 0.3, T,
    )


def _id_mask_cases():
    yield 32, 10, 16, 4096  # the training shape, full queue
    yield 32, 10, 16, 0     # the training shape, empty queue
    yield 1, 6, 8, 7        # one snippet
    yield 4, 2, 6, 5        # window 2
    rng = np.random.default_rng(23)
    for _ in range(20):
        yield tuple(int(rng.integers(lo, hi)) for lo, hi in ((1, 9), (2, 13), (2, 17), (0, 65)))


@pytest.mark.parametrize("L, T, dim, queue_len", list(_id_mask_cases()))
def test_info_nce_matches_the_id_mask_reference_bit_for_bit(L, T, dim, queue_len):
    # The layout view must alias the logits: were it a copy, the positives
    # would stay among the negatives and the bytes would part.
    rng = np.random.default_rng([L, T, dim, queue_len])
    h, z = _unit_rows(rng, L * T, dim), _unit_rows(rng, L * T, dim)
    queue = _unit_rows(rng, queue_len, dim)
    fused_q = Tensor(h.copy(), requires_grad=True)
    fused = info_nce_loss(fused_q, z, T, queue, 0.2)
    fused.backward()
    oracle_q = Tensor(h.copy(), requires_grad=True)
    oracle = id_mask_info_nce(oracle_q, z, np.repeat(np.arange(L), T), queue, 0.2)
    oracle.backward()
    assert fused.data.tobytes() == oracle.data.tobytes()
    assert fused_q.grad.tobytes() == oracle_q.grad.tobytes()


def test_info_nce_backward_holds_no_logit_sized_array():
    # The n x (n + Q) exponentials are multiplied into an n x (D + 1)
    # product in the forward pass and freed, so the graph kept until the
    # walk holds nothing of that size.
    rng = np.random.default_rng(24)
    L, T, dim, queue_len = 32, 10, 16, 4096
    h = Tensor(_unit_rows(rng, L * T, dim), requires_grad=True)
    loss = info_nce_loss(h, _unit_rows(rng, L * T, dim), T, _unit_rows(rng, queue_len, dim), 0.2)
    held = [cell.cell_contents for cell in loss._backward_fn.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, Tensor)]
    assert arrays and max(a.size for a in arrays) < L * T * (L * T + queue_len)


def test_info_nce_rejects_keys_or_ids_not_matching_queries():
    rng = np.random.default_rng(21)
    h = Tensor(_unit_rows(rng, 6, 4))
    queue = _unit_rows(rng, 5, 4)
    with pytest.raises(ShapeError):
        info_nce_loss(h, _unit_rows(rng, 4, 4), 2, queue, 0.2)
    with pytest.raises(ShapeError):  # 6 rows are not whole snippets of 4
        info_nce_loss(h, _unit_rows(rng, 6, 4), 4, queue, 0.2)
    with pytest.raises(ShapeError):
        info_nce_loss(h, _unit_rows(rng, 6, 5), 2, queue, 0.2)
    with pytest.raises(ShapeError):
        info_nce_loss(h, _unit_rows(rng, 6, 4), 2, _unit_rows(rng, 5, 5), 0.2)


def test_info_nce_query_gradient_finite_difference():
    rng = np.random.default_rng(20)
    L, T, dim = 3, 3, 5
    h = _unit_rows(rng, L * T, dim).astype(np.float64)
    z = _unit_rows(rng, L * T, dim).astype(np.float64)
    queue = _unit_rows(rng, 4, dim).astype(np.float64)
    q = Tensor(h, requires_grad=True)
    info_nce_loss(q, z, T, queue, 0.5).backward()
    (numeric,) = finite_difference(
        lambda: float(info_nce_loss(Tensor(h), z, T, queue, 0.5).data), [h], 1e-6
    )
    assert gradients_close(q.grad, numeric, rel_tol=1e-6, abs_tol=1e-9)


def test_contrastive_high_temperature_limit():
    rng = np.random.default_rng(10)
    L, T, dim, queue_len = 3, 4, 6, 5
    h = Tensor(_unit_rows(rng, L * T, dim))
    z = _unit_rows(rng, L * T, dim)
    queue = _unit_rows(rng, queue_len, dim)
    loss = info_nce_loss(h, z, T, queue, 1e6).item()
    n_negatives = (L - 1) * T + queue_len
    assert abs(loss - math.log(1 + n_negatives)) < 1e-3


def test_contrastive_loss_is_nonnegative_and_needs_positives():
    rng = np.random.default_rng(11)
    enc = EncoderPair(6, 8, 0.999, rng)
    batch = rng.normal(size=(4, 3, 6)).astype(np.float32)
    queue = MemoryQueue(16, 8)
    cfg = ContrastiveConfig(temperature=0.2)
    rec = Reconstructor(8, 4, 1, rng)
    loss, _, _ = compute_losses(
        batch, enc, queue, rec, cfg, ReconstructionConfig(),
        np.ones(4, dtype=np.int64),
    )
    assert loss.item() >= 0.0

    with pytest.raises(ConfigError):
        info_nce_loss(
            Tensor(_unit_rows(rng, 2, 4)), _unit_rows(rng, 2, 4),
            1, np.zeros((0, 4), np.float32), 0.2,
        )


def test_queue_entries_receive_no_gradient():
    rng = np.random.default_rng(12)
    h = Tensor(_unit_rows(rng, 4, 6), requires_grad=True)
    queue = Parameter(_unit_rows(rng, 3, 6), "queue_probe")
    # The loss consumes the queue as raw values only.
    loss = info_nce_loss(h, _unit_rows(rng, 4, 6), 2, queue.data, 0.2)
    loss.backward()
    assert h.grad is not None and queue.grad is None


def _corpus(rng, sizes, dim=6):
    out = []
    for i, n in enumerate(sizes):
        feats = rng.normal(size=(n, dim)).astype(np.float32)
        out.append(FrameFeatureSequence(f"v{i:02d}", 25.0, feats))
    return out


def _provenance(batch, corpus):
    """(video id, start) of every snippet, found by exact match of its
    frames in the corpus; random features make every match unique."""
    found = [[(seq.video_id, s) for seq in corpus for s in range(seq.num_frames - len(w) + 1)
              if np.array_equal(seq.features[s : s + len(w)], w)] for w in batch]
    assert all(len(hits) == 1 for hits in found), found
    return [hits[0] for hits in found]


def test_sample_batch_contract():
    rng = np.random.default_rng(13)
    corpus = _corpus(rng, [40] * 20)
    batch = sample_batch(corpus, 16, 2, 10, np.random.default_rng(99))
    assert batch.shape == (32, 10, 6) and batch.dtype == np.float32

    batch2 = sample_batch(corpus, 16, 2, 10, np.random.default_rng(99))
    np.testing.assert_array_equal(batch, batch2)

    spans = {}
    for vid, start in _provenance(batch, corpus):
        spans.setdefault(vid, []).append((start, start + 10))
    assert len(spans) == 16
    for ranges in spans.values():
        assert len(ranges) == 2
        ranges.sort()
        for (s0, e0), (s1, _) in zip(ranges, ranges[1:]):
            assert s1 >= e0


def test_sample_batch_skips_short_videos_and_errors_when_too_few():
    rng = np.random.default_rng(14)
    corpus = _corpus(rng, [40, 40, 5, 40])
    batch = sample_batch(corpus, 3, 2, 10, np.random.default_rng(0))
    videos = {vid for vid, _ in _provenance(batch, corpus)}
    assert videos == {"v00", "v01", "v03"}

    with pytest.raises(DataError):
        sample_batch(corpus, 4, 2, 10, np.random.default_rng(0))


@pytest.mark.parametrize("snippets", [1, 2, 3])
def test_one_call_offset_draws_match_one_draw_per_video(snippets):
    # Videos of exactly snippets * 10 frames have zero slack.
    sizes = [10 * snippets, 10 * snippets, 10 * snippets + 1, 10 * snippets + 3, 5,
             10 * snippets + 40, 10 * snippets + 97, 10 * snippets]
    corpus = _corpus(np.random.default_rng(20 + snippets), sizes)
    for seed in range(200):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sample_batch(corpus, 5, snippets, 10, rng)
        expected = loop_sample_batch(corpus, 5, snippets, 10, oracle_rng)
        assert batch.shape == expected.shape and batch.dtype == expected.dtype
        assert batch.tobytes() == expected.tobytes(), seed
        assert rng.integers(0, 2**62, size=4).tolist() == oracle_rng.integers(0, 2**62, size=4).tolist()
