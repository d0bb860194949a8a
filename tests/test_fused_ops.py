"""The fused ``layer_norm``, ``softmax`` and ``l2_normalize`` nodes against
their composed oracles in ``gradcheck``: the forward values and the gradient
of every input must be the same bits, not merely close, so that training and
detection give byte-identical checkpoints and trajectories."""

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
    softmax,
    synth_generate,
    train_step,
)
from eventseg.detection import BLOCK_WINDOWS

from gradcheck import composed_l2_normalize, composed_layer_norm, composed_softmax

DTYPES = [np.float32, np.float64]

# Score blocks of the attention softmax: a detection block of 256 windows
# (all rows, then the last block's masked row only) and a training batch.
SOFTMAX_SHAPES = [(256, 8, 10, 10), (256, 8, 1, 10), (32, 8, 10, 10), (32, 8, 1, 10)]
# Residual streams at the layer norms, in detection and in training.
LAYER_NORM_SHAPES = [(256, 10, 16), (256, 1, 16), (32, 10, 16), (32, 1, 16)]
# Encoder outputs: a detection block's frames, a training batch, an enqueue.
L2_SHAPES = [(265, 16), (320, 16), (32, 16)]


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
@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_softmax_matches_composed(shape, dtype, axis):
    rng = np.random.default_rng(32)
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    weights = rng.normal(size=shape).astype(dtype)
    _assert_matches_composed(
        lambda t: softmax(t, axis), lambda t: composed_softmax(t, axis), [x], weights
    )


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
                lambda t: softmax(t, axis), lambda t: composed_softmax(t, axis), [x], weights
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


def test_softmax_rejects_an_empty_or_missing_axis():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((3, 0))), axis=-1)
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((0, 4))), axis=0)
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros((2, 3))), axis=2)
    # An empty axis other than the softmax axis is just an empty result.
    out = softmax(Tensor(np.zeros((0, 4), dtype=np.float32)), axis=-1)
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
    return params, queue.as_array(), losses, trajectory


def test_training_and_detection_identical_with_composed_ops(monkeypatch):
    fused = _train_then_detect()
    monkeypatch.setattr(reconstruction, "layer_norm", composed_layer_norm)
    monkeypatch.setattr(reconstruction, "softmax", composed_softmax)
    monkeypatch.setattr(embedding, "l2_normalize", composed_l2_normalize)
    composed = _train_then_detect()

    (params, queue, losses, trajectory), (params0, queue0, losses0, trajectory0) = fused, composed
    assert losses == losses0
    for p, p0 in zip(params, params0):
        assert p.name == p0.name
        _assert_same_bits(p.data, p0.data, p.name)
        _assert_same_bits(p.momentum_buffer, p0.momentum_buffer, p.name)
    _assert_same_bits(queue, queue0, "queue")
    _assert_same_bits(trajectory, trajectory0, "trajectory")
