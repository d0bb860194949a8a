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
    RunConfig,
    ShapeError,
    Tensor,
    assemble_masked_input,
    build_models,
    compute_losses,
    encode_query,
    masked_reconstruct,
    positional_embedding,
    train_step,
)
from eventseg.reconstruction import reconstruction_loss

from gradcheck import finite_difference, gradients_close


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


def _full_output(h, t, rec):
    """Every output row of one (T x D) snippet with row ``t`` masked."""
    return rec.forward(assemble_masked_input(h[None], [t], rec)).data[0]


def _masked_loss(h, t, rec):
    """Squared distance of the reconstructed row ``t`` to the detached
    embedding row, for one (T x D) snippet."""
    recon = masked_reconstruct(h.reshape((1,) + h.data.shape), [t], rec)
    diff = recon - Tensor(h.data[[t]])
    return (diff * diff).sum(axis=-1).mean()


def test_assemble_no_mask_adds_positional_rows():
    # Every row but the masked one is embedding + positional row.
    rng = np.random.default_rng(1)
    rec = _reconstructor()
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    out = assemble_masked_input(h[None], [2], rec)
    kept = [0, 1, 3, 4]
    np.testing.assert_allclose(out.data[0, kept], (h + pos)[kept], atol=1e-6)


def test_assemble_masked_row_is_mask_token():
    rng = np.random.default_rng(2)
    rec = _reconstructor()
    h = rng.normal(size=(5, 8)).astype(np.float32)
    out = assemble_masked_input(h[None], [2], rec)
    np.testing.assert_array_equal(out.data[0, 2], rec.mask_token.data)

    h2 = h.copy()
    h2[2] = 99.0
    out2 = assemble_masked_input(h2[None], [2], rec)
    np.testing.assert_array_equal(out.data, out2.data)


def test_assemble_masks_each_snippet_at_its_own_rows():
    rng = np.random.default_rng(12)
    rec = _reconstructor()
    h = rng.normal(size=(3, 5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    rows = np.array([4, 1, 3])
    out = assemble_masked_input(h, rows, rec).data
    for i, masked in enumerate(rows):
        for t in range(5):
            expected = rec.mask_token.data if t == masked else h[i, t] + pos[t]
            np.testing.assert_allclose(out[i, t], expected, atol=1e-6)


def test_assemble_rejects_out_of_range_index():
    rec = _reconstructor()
    with pytest.raises(ShapeError):
        assemble_masked_input(np.zeros((1, 5, 8), dtype=np.float32), [5], rec)
    with pytest.raises(ShapeError):
        assemble_masked_input(np.zeros((1, 5, 8), dtype=np.float32), [-1], rec)
    with pytest.raises(ShapeError):
        assemble_masked_input(np.zeros((2, 5, 8), dtype=np.float32), [[1], [2]], rec)


def test_zero_weights_identity_head_passes_input_through():
    rec = _pass_through(_reconstructor())
    rng = np.random.default_rng(3)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    assembled = assemble_masked_input(h[None], [2], rec)
    out = rec.forward(assembled)
    np.testing.assert_allclose(out.data, assembled.data, atol=1e-6)


def test_masked_reconstruct_returns_masked_rows_snippet_major():
    rec = _reconstructor(seed=13)
    rng = np.random.default_rng(14)
    h = rng.normal(size=(3, 5, 8)).astype(np.float32)
    rows = np.array([4, 0, 2])
    recon = masked_reconstruct(h, rows, rec).data
    assert recon.shape == (3, 8)
    for i in range(3):
        full = rec.forward(assemble_masked_input(h[i : i + 1], rows[i : i + 1], rec))
        np.testing.assert_allclose(recon[i], full.data[0, rows[i]], atol=1e-5)


def test_forward_rows_match_full_forward():
    # The row-limited last block gives the full forward's rows, for any
    # shape, number of rows, row order and depth.
    rng = np.random.default_rng(15)
    for trial in range(40):
        heads = int(rng.choice([1, 2, 4]))
        dim = heads * int(rng.integers(1, 5)) * 2
        layers = 1 + trial % 2
        L, T = int(rng.integers(1, 5)), int(rng.integers(2, 10))
        m = int(rng.integers(1, T))
        rec = Reconstructor(dim, heads, layers, np.random.default_rng(trial))
        x = Tensor(rng.normal(size=(L, T, dim)).astype(np.float32))
        rows = np.stack([rng.permutation(T)[:m] for _ in range(L)])
        full = rec.forward(x).data
        limited = rec.forward(x, rows=rows).data
        assert limited.shape == (L, m, dim)
        np.testing.assert_allclose(
            limited, full[np.arange(L)[:, None], rows], atol=1e-5, err_msg=str(trial)
        )


def test_reconstructor_needs_a_block():
    with pytest.raises(ConfigError):
        Reconstructor(8, 4, 0, np.random.default_rng(0))


@pytest.mark.parametrize("layers", [1, 2])
def test_row_limited_forward_gradient_matches_finite_differences(layers):
    dim, window = 8, 5
    rng = np.random.default_rng(16 + layers)
    rec = Reconstructor(dim, 4, layers, np.random.default_rng(layers))
    for p in rec.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)
    x = Tensor(rng.normal(size=(2, window, dim)), requires_grad=True)
    rows = np.array([[3, 1], [0, 4]])
    weights = Tensor(rng.normal(size=(2, 2, dim)))

    def forward():
        return (rec.forward(x, rows=rows) * weights).sum()

    forward().backward()
    params = rec.parameters()[1:] + [x]   # the mask token is not used here
    fds = finite_difference(lambda: float(forward().data), [p.data for p in params])
    for p, fd in zip(params, fds):
        assert gradients_close(p.grad, fd), getattr(p, "name", "input")


def test_position_sensitivity_and_permutation_covariance():
    rec = _reconstructor(seed=4)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(5, 8)).astype(np.float32)
    pos = positional_embedding(5, 8)
    baseline = _full_output(h, 2, rec)

    # Swapping two unmasked frames (but not their positional rows) changes
    # the output.
    perm = np.array([1, 0, 2, 3, 4])
    swapped = _full_output(h[perm], 2, rec)
    assert not np.allclose(swapped[2], baseline[2], atol=1e-5)

    # Permuting frames together with their positional rows permutes the
    # output rows identically. The input is assembled by hand, since the
    # assembly always adds the rows in their own order.
    permuted = (h + pos)[perm]
    permuted[2] = rec.mask_token.data
    covariant = rec.forward(Tensor(permuted[None])).data[0]
    np.testing.assert_allclose(covariant, baseline[perm], atol=1e-5)


def test_reconstruction_loss_cases():
    # A pass-through reconstructor outputs the mask token (zero here) at every
    # masked row, so the embeddings' masked rows, the targets, set each row's
    # squared error exactly.
    enc, rec, queue, batch, ccfg, _ = _training_setup(seed=8, videos=2)
    _pass_through(rec)

    def recon_loss(mask_rows, targets):
        h3 = np.zeros((2, 5, 8), dtype=np.float32)
        h3[np.arange(2), mask_rows] = targets
        return reconstruction_loss(Tensor(h3), np.asarray(mask_rows), rec).item()

    assert recon_loss([2, 2], np.zeros((2, 8), dtype=np.float32)) == 0.0

    offset = np.zeros((2, 8), dtype=np.float32)
    offset[:, 0] = 1.0
    assert abs(recon_loss([2, 2], offset) - 1.0) < 1e-6

    targets = np.zeros((2, 8), dtype=np.float32)
    targets[0, 0] = 1.0           # row 1 of snippet 0: squared error 1
    targets[1, 1] = np.sqrt(3.0)  # row 3 of snippet 1: squared error 3
    assert abs(recon_loss([1, 3], targets) - 2.0) < 1e-5

    with pytest.raises(ShapeError):
        compute_losses(batch, enc, queue, rec, ccfg, ReconstructionConfig(),
                       np.zeros((2, 0), dtype=np.int64))


def test_joint_loss_cases():
    # total = contrastive + beta * reconstruction
    enc, rec, queue, batch, ccfg, _ = _training_setup(seed=9)
    mask_rows = np.random.default_rng(0).integers(0, 5, size=len(batch))
    for beta in (1.0, 0.0, 2.0):
        rcfg = ReconstructionConfig(beta=beta)
        lc, lr, total = compute_losses(batch, enc, queue, rec, ccfg, rcfg, mask_rows)
        assert lr.item() > 0
        assert abs(total.item() - (lc.item() + beta * lr.item())) < 1e-6


def test_reconstruction_gradient_matches_finite_differences():
    dim, window = 8, 5
    enc = EncoderPair(dim, dim, 0.999, np.random.default_rng(9))
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

    def forward():
        return _masked_loss(Tensor(encode_query(frames, enc).data), 2, rec)

    forward().backward()
    params = rec.parameters()
    fds = finite_difference(lambda: float(forward().data), [p.data for p in params])
    for p, fd in zip(params, fds):
        assert gradients_close(p.grad, fd), p.name


def _training_setup(seed=0, dim=8, window=5, videos=6):
    master = np.random.default_rng(seed)
    enc = EncoderPair(dim, dim, 0.999, master)
    rec = Reconstructor(dim, 4, 2, master)
    queue = MemoryQueue(32, dim)
    batch = master.normal(size=(videos, window, dim)).astype(np.float32)
    ccfg = ContrastiveConfig(temperature=0.2)
    rcfg = ReconstructionConfig(beta=1.0)
    return enc, rec, queue, batch, ccfg, rcfg


def test_train_step_deterministic():
    results = []
    for _ in range(2):
        enc, rec, queue, batch, ccfg, rcfg = _training_setup(seed=42)
        rng = np.random.default_rng(7)
        opt = Optimizer()
        losses = [
            train_step(batch, enc, queue, rec, ccfg, rcfg, opt, rng)
            for _ in range(3)
        ]
        results.append((losses, enc.query.w1.data.copy()))
    assert results[0][0] == results[1][0]
    np.testing.assert_array_equal(results[0][1], results[1][1])


def test_train_step_zero_lr_keeps_parameters():
    enc, rec, queue, batch, ccfg, rcfg = _training_setup(seed=1)
    before = [p.data.copy() for p in enc.query.parameters() + rec.parameters()]
    opt = Optimizer(learning_rate=0.0, weight_decay=0.0)
    losses = train_step(batch, enc, queue, rec, ccfg, rcfg, opt,
                        np.random.default_rng(0))
    assert losses["total"] > 0
    for p, b in zip(enc.query.parameters() + rec.parameters(), before):
        np.testing.assert_array_equal(p.data, b)
    # The step still feeds the queue and reports all three losses.
    assert len(queue) == len(batch)
    assert set(losses) == {"contrastive", "reconstruction", "total"}


def test_train_step_updates_parameters_and_key_encoder():
    enc, rec, queue, batch, ccfg, rcfg = _training_setup(seed=2)
    q_before = enc.query.w1.data.copy()
    k_before = enc.key.w1.data.copy()
    train_step(batch, enc, queue, rec, ccfg, rcfg, Optimizer(),
               np.random.default_rng(0))
    assert not np.array_equal(enc.query.w1.data, q_before)
    assert not np.array_equal(enc.key.w1.data, k_before)
    # Key encoder moved by the momentum rule, not by a gradient step.
    np.testing.assert_allclose(
        enc.key.w1.data,
        0.999 * k_before + 0.001 * enc.query.w1.data,
        atol=1e-6,
    )


def test_reconstruction_branch_graph_stays_small():
    # The reconstruction branch of train_step on the default model: every
    # recorded tensor costs bookkeeping on each training step.
    cfg = RunConfig()
    rng = np.random.default_rng(0)
    _, rec, _ = build_models(cfg.model, 8, rng)
    L = cfg.training.batch_videos * cfg.training.snippets_per_video
    T, D = cfg.detector.window, cfg.model.embedding_dim
    h3 = Tensor(rng.normal(size=(L, T, D)).astype(np.float32), requires_grad=True)
    lr = reconstruction_loss(h3, rng.integers(0, T, size=L), rec)
    weighted = lr * float(cfg.reconstruction.beta)
    seen, stack = set(), [weighted]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) <= 74


def test_masked_row_input_gets_no_reconstruction_gradient():
    # The reconstruction loss must not see the masked frame through the
    # input path: its only appearance is the detached target.
    dim, window = 8, 5
    enc = EncoderPair(dim, dim, 0.999, np.random.default_rng(3))
    rec = _reconstructor(dim=dim, seed=4)
    frames = Tensor(
        np.random.default_rng(5).normal(size=(window, dim)).astype(np.float32),
        requires_grad=True,
    )
    loss = _masked_loss(encode_query(frames, enc), 2, rec)
    loss.backward()
    np.testing.assert_array_equal(frames.grad[2], np.zeros(dim, dtype=np.float32))
    assert np.abs(frames.grad[[0, 1, 3, 4]]).sum() > 0

