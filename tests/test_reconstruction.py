"""Positional table, masked assembly, the attention encoder, the losses,
and the joint training step."""

import numpy as np
import pytest

from eventseg import (
    ConfigError,
    ContrastiveConfig,
    EncoderPair,
    MemoryQueue,
    Optimizer,
    ReconstructionConfig,
    Reconstructor,
    ShapeError,
    SnippetBatch,
    Tensor,
    assemble_masked_input,
    compute_losses,
    encode_query,
    finite_difference,
    gradients_close,
    masked_reconstruct,
    positional_embedding,
    sample_mask_rows,
    train_step,
)


def test_positional_row_zero_alternates_zero_one():
    table = positional_embedding(5, 6)
    np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-7)


def test_positional_closed_form_row():
    table = positional_embedding(4, 4)
    expected = [np.sin(2.0), np.cos(2.0), np.sin(0.02), np.cos(0.02)]
    np.testing.assert_allclose(table[2], expected, atol=1e-4)
    np.testing.assert_allclose(
        table[2], [0.9093, -0.4161, 0.0200, 0.9998], atol=1e-4
    )


def test_positional_range_and_odd_dim():
    table = positional_embedding(50, 16)
    assert table.min() >= -1.0 and table.max() <= 1.0
    with pytest.raises(ShapeError):
        positional_embedding(10, 5)


def _reconstructor(dim=8, heads=4, layers=2, seed=0):
    return Reconstructor(dim, heads, layers, np.random.default_rng(seed))


def _pass_through(rec):
    """Zero weights and an identity head: the output equals the assembled
    input (layer norms stay zeroed, so each block adds nothing)."""
    for p in rec.parameters():
        p.data[...] = 0.0
    rec.head_w.data[...] = np.eye(rec.dim, dtype=np.float32)
    return rec


def _full_output(h, t, rec, pos):
    """Every output row of one (T x D) snippet with row ``t`` masked."""
    return rec.forward(assemble_masked_input(h[None], [[t]], pos, rec)).data[0]


def _masked_loss(h, t, rec, pos):
    """Squared distance of the reconstructed row ``t`` to the detached
    embedding row, for one (T x D) snippet."""
    recon = masked_reconstruct(h.reshape((1,) + h.data.shape), [[t]], pos, rec)
    diff = recon - Tensor(h.data[[t]])
    return (diff * diff).sum(axis=-1).mean()


def test_assemble_no_mask_adds_positional_rows():
    rng = np.random.default_rng(1)
    rec = _reconstructor()
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    out = assemble_masked_input(h[None], [[]], pos, rec)
    np.testing.assert_allclose(out.data[0], h + pos, atol=1e-6)


def test_assemble_masked_row_is_mask_token():
    rng = np.random.default_rng(2)
    rec = _reconstructor()
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    out = assemble_masked_input(h[None], [[2]], pos, rec)
    np.testing.assert_array_equal(out.data[0, 2], rec.mask_token.data)

    h2 = h.copy()
    h2[2] = 99.0
    out2 = assemble_masked_input(h2[None], [[2]], pos, rec)
    np.testing.assert_array_equal(out.data, out2.data)


def test_assemble_masks_each_snippet_at_its_own_rows():
    rng = np.random.default_rng(12)
    rec = _reconstructor()
    h = rng.normal(size=(3, 5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    rows = np.array([[0, 4], [1, 2], [3, 1]])
    out = assemble_masked_input(h, rows, pos, rec).data
    for i, masked in enumerate(rows):
        for t in range(5):
            expected = rec.mask_token.data if t in masked else h[i, t] + pos[t]
            np.testing.assert_allclose(out[i, t], expected, atol=1e-6)


def test_assemble_rejects_out_of_range_index():
    rec = _reconstructor()
    pos = positional_embedding(5, 8)
    with pytest.raises(ShapeError):
        assemble_masked_input(np.zeros((1, 5, 8), dtype=np.float32), [[5]], pos, rec)
    with pytest.raises(ShapeError):
        assemble_masked_input(np.zeros((1, 5, 8), dtype=np.float32), [[-1]], pos, rec)


def test_zero_weights_identity_head_passes_input_through():
    rec = _pass_through(_reconstructor())
    rng = np.random.default_rng(3)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    assembled = assemble_masked_input(h[None], [[2]], pos, rec)
    out = rec.forward(assembled)
    np.testing.assert_allclose(out.data, assembled.data, atol=1e-6)


def test_masked_reconstruct_returns_masked_rows_snippet_major():
    rec = _reconstructor(seed=13)
    rng = np.random.default_rng(14)
    h = rng.normal(size=(3, 5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    rows = np.array([[1, 4], [0, 2], [3, 2]])
    recon = masked_reconstruct(h, rows, pos, rec).data
    assert recon.shape == (6, 8)
    for i in range(3):
        full = rec.forward(assemble_masked_input(h[i : i + 1], rows[i : i + 1], pos, rec))
        np.testing.assert_allclose(recon[2 * i : 2 * i + 2], full.data[0, rows[i]], atol=1e-5)


def test_position_sensitivity_and_permutation_covariance():
    rec = _reconstructor(seed=4)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    baseline = _full_output(h, 2, rec, pos)

    # Swapping two unmasked frames (but not their positional rows) changes
    # the output.
    perm = np.array([1, 0, 2, 3, 4])
    swapped = _full_output(h[perm], 2, rec, pos)
    assert not np.allclose(swapped[2], baseline[2], atol=1e-5)

    # Permuting frames together with their positional rows permutes the
    # output rows identically.
    covariant = _full_output(h[perm], 2, rec, pos[perm])
    np.testing.assert_allclose(covariant, baseline[perm], atol=1e-5)


def test_attention_rows_sum_to_one():
    rec = _reconstructor(seed=6)
    rng = np.random.default_rng(7)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    attention = []
    rec.forward(assemble_masked_input(h[None], [[1]], pos, rec), attention)
    assert len(attention) == 2
    for block_attention in attention:
        assert block_attention.shape == (1, 4, 5, 5)
        np.testing.assert_allclose(
            block_attention[0].sum(axis=-1), np.ones((4, 5)), atol=1e-6
        )


def test_reconstruction_loss_cases():
    # A pass-through reconstructor outputs the mask token (zero here) at every
    # masked row, so fixed targets set each row's squared error exactly.
    enc, rec, queue, batch, ccfg, _, pos = _training_setup(seed=8, videos=2)
    _pass_through(rec)

    def recon_loss(mask_rows, targets):
        rcfg = ReconstructionConfig(window=5, mask_size=np.shape(mask_rows)[1])
        return compute_losses(batch, enc, queue, rec, ccfg, rcfg, pos,
                              np.asarray(mask_rows), targets)[1].item()

    assert recon_loss([[2], [2]], np.zeros((2, 8), dtype=np.float32)) == 0.0

    offset = np.zeros((2, 8), dtype=np.float32)
    offset[:, 0] = 1.0
    assert abs(recon_loss([[2], [2]], offset) - 1.0) < 1e-6

    targets = np.zeros((4, 8), dtype=np.float32)
    targets[0::2, 0] = 1.0           # row 1 of each snippet: squared error 1
    targets[1::2, 1] = np.sqrt(3.0)  # row 3 of each snippet: squared error 3
    assert abs(recon_loss([[1, 3], [1, 3]], targets) - 2.0) < 1e-5

    with pytest.raises(ConfigError):
        compute_losses(batch, enc, queue, rec, ccfg, ReconstructionConfig(window=5),
                       pos, np.zeros((2, 0), dtype=np.int64))


def test_joint_loss_cases():
    # total = contrastive + beta * reconstruction
    enc, rec, queue, batch, ccfg, _, pos = _training_setup(seed=9)
    mask_rows = sample_mask_rows(np.random.default_rng(0), batch.num_snippets, 5, 1)
    for beta in (1.0, 0.0, 2.0):
        rcfg = ReconstructionConfig(window=5, mask_size=1, beta=beta)
        lc, lr, total = compute_losses(batch, enc, queue, rec, ccfg, rcfg, pos, mask_rows)
        assert lr.item() > 0
        assert abs(total.item() - (lc.item() + beta * lr.item())) < 1e-6


def test_reconstruction_gradient_matches_finite_differences():
    dim, window = 8, 5
    enc = EncoderPair(dim, dim, rng=np.random.default_rng(9))
    rec = Reconstructor(dim, 4, 2, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    # Central differences need the token at activation scale: layer norm of
    # the near-zero init row has curvature ~ 1/scale^3, which swamps the
    # finite-difference oracle without touching the analytic gradient.
    rec.mask_token.data = rng.uniform(-0.5, 0.5, size=dim)
    for p in rec.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)
    frames = rng.normal(size=(window, dim))
    pos = positional_embedding(window, dim).astype(np.float64)

    def forward():
        return _masked_loss(encode_query(frames, enc).detach(), 2, rec, pos)

    forward().backward()
    params = rec.parameters()
    fds = finite_difference(lambda: float(forward().data), [p.data for p in params])
    for p, fd in zip(params, fds):
        assert gradients_close(p.grad, fd), p.name


def _training_setup(seed=0, dim=8, window=5, videos=6):
    master = np.random.default_rng(seed)
    enc = EncoderPair(dim, dim, rng=master)
    rec = Reconstructor(dim, 4, 2, master)
    queue = MemoryQueue(32)
    frames = master.normal(size=(videos, window, dim)).astype(np.float32)
    batch = SnippetBatch(frames, [f"v{i}" for i in range(videos)], [0] * videos)
    ccfg = ContrastiveConfig(temperature=0.2, window=window)
    rcfg = ReconstructionConfig(window=window, mask_size=1, beta=1.0)
    pos = positional_embedding(window, dim)
    return enc, rec, queue, batch, ccfg, rcfg, pos


def test_train_step_deterministic():
    results = []
    for _ in range(2):
        enc, rec, queue, batch, ccfg, rcfg, pos = _training_setup(seed=42)
        rng = np.random.default_rng(7)
        opt = Optimizer()
        losses = [
            train_step(batch, enc, queue, rec, ccfg, rcfg, opt, rng, pos)
            for _ in range(3)
        ]
        results.append((losses, enc.query.w1.data.copy()))
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_train_step_zero_lr_keeps_parameters():
    enc, rec, queue, batch, ccfg, rcfg, pos = _training_setup(seed=1)
    before = [p.data.copy() for p in enc.trainable_parameters() + rec.parameters()]
    opt = Optimizer(learning_rate=0.0, weight_decay=0.0)
    losses = train_step(batch, enc, queue, rec, ccfg, rcfg, opt,
                        np.random.default_rng(0), pos)
    assert losses["total"] > 0
    for p, b in zip(enc.trainable_parameters() + rec.parameters(), before):
        np.testing.assert_array_equal(p.data, b)
    # The step still feeds the queue and reports all three losses.
    assert len(queue) == batch.num_snippets
    assert set(losses) == {"contrastive", "reconstruction", "total"}


def test_train_step_updates_parameters_and_key_encoder():
    enc, rec, queue, batch, ccfg, rcfg, pos = _training_setup(seed=2)
    q_before = enc.query.w1.data.copy()
    k_before = enc.key.w1.data.copy()
    train_step(batch, enc, queue, rec, ccfg, rcfg, Optimizer(),
               np.random.default_rng(0), pos)
    assert not np.array_equal(enc.query.w1.data, q_before)
    assert not np.array_equal(enc.key.w1.data, k_before)
    # Key encoder moved by the momentum rule, not by a gradient step.
    np.testing.assert_allclose(
        enc.key.w1.data,
        0.999 * k_before + 0.001 * enc.query.w1.data,
        atol=1e-6,
    )


def test_masked_row_input_gets_no_reconstruction_gradient():
    # The reconstruction loss must not see the masked frame through the
    # input path: its only appearance is the detached target.
    dim, window = 8, 5
    enc = EncoderPair(dim, dim, rng=np.random.default_rng(3))
    rec = _reconstructor(dim=dim, seed=4)
    pos = positional_embedding(window, dim)
    frames = Tensor(
        np.random.default_rng(5).normal(size=(window, dim)).astype(np.float32),
        requires_grad=True,
    )
    loss = _masked_loss(encode_query(frames, enc), 2, rec, pos)
    loss.backward()
    np.testing.assert_array_equal(frames.grad[2], np.zeros(dim, dtype=np.float32))
    assert np.abs(frames.grad[[0, 1, 3, 4]]).sum() > 0


def test_mask_rows_distinct_without_replacement():
    rng = np.random.default_rng(6)
    rows = sample_mask_rows(rng, 50, 6, 3)
    assert rows.shape == (50, 3)
    for row in rows:
        assert len(set(row.tolist())) == 3
        assert all(0 <= t < 6 for t in row)
