"""The fused ``linear``, ``layer_norm``, ``attention`` and ``l2_normalize`` nodes
against their composed oracles in ``gradcheck``: the forward values and the
gradient of every input must be the same bits, not merely close, so that
training and detection give byte-identical checkpoints and trajectories.
``gradcheck.softmax``, the fused last-axis softmax of the heads-first oracle,
is held to ``composed_softmax`` the same way."""

import numpy as np
import pytest

import eventseg.embedding as embedding
import eventseg.reconstruction as reconstruction
from eventseg import (
    FrameFeatureSequence,
    NumericsError,
    Parameter,
    RunConfig,
    ShapeError,
    Tensor,
    build_models,
    error_trajectory,
    l2_normalize,
    layer_norm,
    sample_batch,
    synth_generate,
    train_step,
)
from eventseg.detection import BLOCK_WINDOWS
from eventseg.tensor import attention, linear

from gradcheck import (
    composed_attention,
    composed_l2_normalize,
    composed_layer_norm,
    composed_linear,
    composed_softmax,
    finite_difference,
    gradients_close,
    heads_first_attention,
    softmax,
)

DTYPES = [np.float32, np.float64]

# Score blocks of the heads-first oracle's softmax: a detection block of 256
# windows (all rows, then the last block's masked row only) and a training batch.
SOFTMAX_SHAPES = [(256, 8, 10, 10), (256, 8, 1, 10), (32, 8, 10, 10), (32, 8, 1, 10)]
# Queries of the attention node, against keys and values of (B, 10, 16): a
# detection block (all rows, then the masked row only) and a training batch.
ATTENTION_SHAPES = [(256, 10, 16), (256, 1, 16), (32, 10, 16), (32, 1, 16)]
# One head of 16 columns, the default 8 of 2, and between.
HEADS = [1, 2, 8]
# Residual streams at the layer norms, in detection and in training.
LAYER_NORM_SHAPES = [(256, 10, 16), (256, 1, 16), (32, 10, 16), (32, 1, 16)]
# Encoder outputs: a detection block's frames, a training batch, an enqueue.
L2_SHAPES = [(265, 16), (320, 16), (32, 16)]
# Inputs of the attention projections in detection and in training, and of
# the encoder on a training batch.
LINEAR_SHAPES = [(256, 10, 16), (32, 10, 16), (320, 32)]


def _assert_same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _value_and_grads(op, arrays, weights, residual=False, leaf=Tensor):
    """``op``'s output and the gradients of ``sum(weights * out)`` w.r.t.
    every input; with ``residual`` the loss reads ``x + op(x, ...)``, so x
    has a second consumer whose gradient arrives first."""
    if leaf is Parameter:
        inputs = [Parameter(a.copy(), f"input{i}") for i, a in enumerate(arrays)]
    else:
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*inputs)
    if residual:
        out = inputs[0] + out
    (out * Tensor(weights)).sum().backward()
    return out.data, [t.grad for t in inputs]


def _assert_matches_composed(fused, composed, arrays, weights, **kw):
    got, got_grads = _value_and_grads(fused, arrays, weights, **kw)
    want, want_grads = _value_and_grads(composed, arrays, weights, **kw)
    _assert_same_bits(got, want, "forward")
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        _assert_same_bits(g, w, f"gradient of input {i}")


def _layer_norm_inputs(rng, shape, dtype):
    dim = shape[-1]
    return [
        rng.normal(size=shape).astype(dtype),
        rng.uniform(0.5, 1.5, size=dim).astype(dtype),
        rng.uniform(-0.5, 0.5, size=dim).astype(dtype),
    ]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", LAYER_NORM_SHAPES)
def test_layer_norm_matches_composed(shape, dtype):
    rng = np.random.default_rng(31)
    arrays = _layer_norm_inputs(rng, shape, dtype)
    weights = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(layer_norm, composed_layer_norm, arrays, weights)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", LINEAR_SHAPES)
def test_linear_matches_composed(shape, dtype):
    rng = np.random.default_rng(30)
    dim = shape[-1]
    arrays = [rng.normal(size=shape).astype(dtype), rng.normal(size=(dim, dim)).astype(dtype),
              rng.normal(size=dim).astype(dtype)]
    weights = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(linear, composed_linear, arrays, weights)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_softmax_matches_composed(shape, dtype, axis):
    # softmax normalises the last axis: the tested axis is moved there.
    rng = np.random.default_rng(32)
    x = np.moveaxis((3.0 * rng.normal(size=shape)).astype(dtype), axis, -1).copy()
    weights = rng.normal(size=x.shape).astype(dtype)
    _assert_matches_composed(softmax, composed_softmax, [x], weights)


def _attention_inputs(rng, shape, dtype, magnitude=1.0):
    batch, _, dim = shape
    return [(magnitude * rng.normal(size=s)).astype(dtype)
            for s in (shape, (batch, 10, dim), (batch, 10, dim))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("shape", ATTENTION_SHAPES)
def test_attention_matches_composed(shape, heads, dtype):
    rng = np.random.default_rng(36)
    arrays = _attention_inputs(rng, shape, dtype)
    weights = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(
        lambda q, k, v: attention(q, k, v, heads),
        lambda q, k, v: composed_attention(q, k, v, heads),
        arrays, weights,
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("heads", HEADS)
def test_attention_agrees_with_the_heads_first_arithmetic(heads, dtype):
    # The (B, heads, rows, head_dim) products and last-axis softmax that the
    # node replaced round differently, so they agree to the dtype's precision.
    rng = np.random.default_rng(37)
    shape = (32, 10, 16)
    arrays = _attention_inputs(rng, shape, dtype)
    weights = rng.normal(size=shape).astype(dtype)
    got, got_grads = _value_and_grads(lambda q, k, v: attention(q, k, v, heads), arrays, weights)
    want, want_grads = _value_and_grads(
        lambda q, k, v: heads_first_attention(q, k, v, heads), arrays, weights)
    tol = {"rtol": 1e-4, "atol": 1e-5} if dtype == np.float32 else {"rtol": 1e-10, "atol": 1e-12}
    np.testing.assert_allclose(got, want, **tol)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, **tol)


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_gradient_matches_finite_differences(heads):
    rng = np.random.default_rng(38)
    q, k, v = (Parameter(rng.uniform(-1, 1, size=s), name)
               for s, name in [((2, 3, 4), "q"), ((2, 5, 4), "k"), ((2, 5, 4), "v")])
    weights = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)))

    def loss_value():
        return float((attention(q, k, v, heads) * weights).sum().data)

    (attention(q, k, v, heads) * weights).sum().backward()
    for p, fd in zip((q, k, v), finite_difference(loss_value, [q.data, k.data, v.data], 1e-6)):
        assert gradients_close(p.grad, fd, rel_tol=1e-6, abs_tol=1e-9), p.name


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_matches_composed_when_weights_underflow(dtype):
    # Scores hundreds of units apart: some attention weights underflow to
    # exactly zero, and their gradients are zeros of either sign.
    rng = np.random.default_rng(39)
    for shape in [(4, 10, 16), (4, 1, 16)]:
        arrays = _attention_inputs(rng, shape, dtype, magnitude=12.0)
        weights = rng.normal(size=shape).astype(dtype)
        with np.errstate(under="ignore"):
            _assert_matches_composed(
                lambda q, k, v: attention(q, k, v, 8),
                lambda q, k, v: composed_attention(q, k, v, 8),
                arrays, weights,
            )


@pytest.mark.parametrize("q_shape, kv_shape, heads", [
    ((2, 3, 16), (2, 5, 16), 3),      # heads do not divide the width
    ((2, 3, 16), (3, 5, 16), 8),      # batch sizes differ
    ((2, 3, 16), (2, 5, 8), 8),       # widths differ
    ((2, 3, 16), (2, 0, 16), 8),      # no keys
    ((6, 16), (6, 16), 8),            # not (batch, rows, width)
])
def test_attention_rejects_disagreeing_shapes(q_shape, kv_shape, heads):
    q = Tensor(np.zeros(q_shape, dtype=np.float32))
    kv = Tensor(np.zeros(kv_shape, dtype=np.float32))
    with pytest.raises(ShapeError):
        attention(q, kv, kv, heads)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", L2_SHAPES)
def test_l2_normalize_matches_composed(shape, dtype):
    rng = np.random.default_rng(33)
    x = rng.normal(size=shape).astype(dtype)
    weights = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(l2_normalize, composed_l2_normalize, [x], weights)


def _awkward_rows(dtype):
    """Rows holding NaN, +-inf, all zeros, mixed signed zeros, values whose
    squares overflow float32, norms below ``L2_NORM_EPS``, and one entry
    that dominates its row."""
    rows = np.array([
        [0.3, -1.2, 2.0, 0.7, -0.1, 1.5],
        [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0],
        [1.0, 2.0, np.nan, np.nan, 0.0, -1.0],
        [np.inf, 1.0, 2.0, -3.0, 0.5, 0.0],
        [-np.inf, 1.0, 2.0, -3.0, 0.5, 0.0],
        [-np.inf] * 6,
        [np.inf, -np.inf, 0.0, 1.0, 2.0, 3.0],
        [0.0] * 6,
        [-0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
        [3e19, -2e19, 1e19, 0.0, 5.0, -4e19],
        [1e-14, -2e-14, 0.0, 3e-14, 0.0, 0.0],
        [80.0, 0.0, -80.0, 1.0, 2.0, 3.0],
    ])
    return rows.astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_fused_ops_match_composed_on_awkward_rows(dtype):
    rng = np.random.default_rng(34)
    x = _awkward_rows(dtype)
    weights = rng.normal(size=x.shape).astype(dtype)
    with np.errstate(all="ignore"):
        for axis in (0, 1, -1):
            _assert_matches_composed(
                softmax, composed_softmax,
                [np.moveaxis(x, axis, -1).copy()], np.moveaxis(weights, axis, -1).copy(),
            )
        # l2_normalize refuses a row whose squared norm is infinite: those
        # holding an infinity and, in float32, the one whose squares
        # overflow. The other rows still match the composition bit for bit.
        refused = [3, 4, 5, 6] + ([9] if dtype == np.float32 else [])
        for row in refused:
            with pytest.raises(NumericsError, match="l2_normalize"):
                l2_normalize(Tensor(x[row:row + 1]))
        kept = np.setdiff1d(np.arange(len(x)), refused)
        _assert_matches_composed(
            l2_normalize, composed_l2_normalize, [x[kept]], weights[kept]
        )
        gamma_beta = _layer_norm_inputs(rng, x.shape, dtype)[1:]
        _assert_matches_composed(layer_norm, composed_layer_norm, [x, *gamma_beta], weights)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("leaf", [Tensor, Parameter])
def test_fused_ops_accumulate_after_a_second_consumer(dtype, leaf):
    # The residual add hands x its gradient before the fused node does; the
    # node must then add its terms in the composed graph's order. Parameter
    # leaves start from a zero gradient, Tensor leaves from none.
    rng = np.random.default_rng(35)
    shape = (32, 10, 16)
    weights = rng.normal(size=shape).astype(dtype)
    kw = {"residual": True, "leaf": leaf}
    _assert_matches_composed(
        layer_norm, composed_layer_norm, _layer_norm_inputs(rng, shape, dtype), weights, **kw
    )
    x = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(l2_normalize, composed_l2_normalize, [x], weights, **kw)
    scores = rng.normal(size=(32, 8, 10, 10)).astype(dtype)
    _assert_matches_composed(
        softmax, composed_softmax, [scores], rng.normal(size=scores.shape).astype(dtype), **kw
    )
    _assert_matches_composed(
        lambda q, k, v: attention(q, k, v, 8),
        lambda q, k, v: composed_attention(q, k, v, 8),
        _attention_inputs(rng, shape, dtype), weights, **kw,
    )


def test_softmax_rejects_an_empty_or_missing_axis():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((3, 0))))
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((4, 0, 0))))
    with pytest.raises(ShapeError):
        softmax(Tensor(np.float32(1.0)))
    # An empty axis other than the last is just an empty result.
    out = softmax(Tensor(np.zeros((0, 4), dtype=np.float32)))
    assert out.data.shape == (0, 4)


def _train_then_detect():
    """Three joint steps of the default model on the default corpus, then
    the error trajectory of a 600-frame video cut from that corpus."""
    cfg = RunConfig()
    corpus, _ = synth_generate(cfg.synth)
    rng = np.random.default_rng(cfg.training.seed)
    enc, rec, queue = build_models(cfg.model, corpus[0].dim, rng)
    losses = []
    for _ in range(3):
        batch = sample_batch(
            corpus, cfg.training.batch_videos, cfg.training.snippets_per_video,
            cfg.detector.window, rng,
        )
        losses.append(train_step(
            batch, enc, queue, rec, cfg.contrastive, cfg.reconstruction, cfg.optimizer, rng,
        ))
    frames = np.concatenate([v.features for v in corpus])[:600]
    assert len(frames) - cfg.detector.window + 1 > 2 * BLOCK_WINDOWS
    video = FrameFeatureSequence("joined", 25.0, frames)
    trajectory = error_trajectory(video, enc, rec, cfg.detector).values
    params = enc.parameters() + rec.parameters()
    buffers = [model.arena.buffers for model in (enc.query, enc.key, rec)]
    return params, buffers, queue.as_array(), losses, trajectory


def test_training_and_detection_identical_with_composed_ops(monkeypatch):
    fused = _train_then_detect()
    monkeypatch.setattr(embedding, "linear", composed_linear)
    monkeypatch.setattr(reconstruction, "linear", composed_linear)
    monkeypatch.setattr(reconstruction, "layer_norm", composed_layer_norm)
    monkeypatch.setattr(reconstruction, "attention", composed_attention)
    monkeypatch.setattr(embedding, "l2_normalize", composed_l2_normalize)
    composed = _train_then_detect()

    (params, buffers, queue, losses, trajectory) = fused
    (params0, buffers0, queue0, losses0, trajectory0) = composed
    assert losses == losses0
    for p, p0 in zip(params, params0):
        assert p.name == p0.name
        _assert_same_bits(p.data, p0.data, p.name)
    for model, b, b0 in zip(("query", "key", "reconstructor"), buffers, buffers0):
        _assert_same_bits(b, b0, f"{model} momentum buffers")
    _assert_same_bits(queue, queue0, "queue")
    _assert_same_bits(trajectory, trajectory0, "trajectory")
