"""SGD update rule against hand-unrolled recurrences, and the whole-arena
update against the per-parameter loop."""

import numpy as np
import pytest

from eventseg import (
    ConfigError,
    ModelConfig,
    NumericsError,
    Optimizer,
    Parameter,
    ShapeError,
    build_models,
    load_model,
    save_model,
    sgd_step,
)

from gradcheck import loop_sgd_step


def _param(value, grad):
    p = Parameter(np.array(value, dtype=np.float32), "p")
    p.grad[...] = np.array(grad, dtype=np.float32)
    return p


def test_zero_learning_rate_is_identity_on_values():
    p = _param([1.0, -2.0], [5.0, 5.0])
    sgd_step([p], Optimizer(learning_rate=0.0, weight_decay=0.0, momentum=0.5))
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])


def test_plain_gradient_step():
    p = _param([1.0], [2.0])
    sgd_step([p], Optimizer(learning_rate=0.5, weight_decay=0.0, momentum=0.0))
    np.testing.assert_allclose(p.data, [0.0])


def test_two_momentum_steps_match_hand_unrolled_recurrence():
    lr, wd, mom = 0.1, 0.01, 0.9
    value = 1.5
    grads = [0.3, -0.2]

    p = _param([value], [grads[0]])
    opt = Optimizer(learning_rate=lr, weight_decay=wd, momentum=mom)
    sgd_step([p], opt)
    p.grad[...] = grads[1]
    sgd_step([p], opt)

    buf = 0.0
    v = value
    for g in grads:
        buf = np.float32(mom) * np.float32(buf) + (np.float32(g) + np.float32(wd) * np.float32(v))
        v = np.float32(v) - np.float32(lr) * np.float32(buf)
    np.testing.assert_allclose(p.data, [v], rtol=1e-6)


def test_grads_zeroed_after_step():
    p = _param([1.0], [2.0])
    sgd_step([p], Optimizer())
    np.testing.assert_array_equal(p.grad, [0.0])


def test_non_finite_grad_aborts_without_mutation():
    p = _param([1.0], [np.nan])
    q = _param([2.0], [1.0])
    with pytest.raises(NumericsError):
        sgd_step([q, p], Optimizer())
    np.testing.assert_array_equal(p.data, [1.0])
    np.testing.assert_array_equal(q.data, [2.0])
    np.testing.assert_array_equal(q.grad, [1.0])


def test_optimizer_validation():
    with pytest.raises(ConfigError):
        Optimizer(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        Optimizer(momentum=1.0)
    with pytest.raises(ConfigError):
        Optimizer(weight_decay=-0.1)


@pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "momentum"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_optimizer_rejects_non_finite_values(key, value):
    with pytest.raises(ConfigError, match=key):
        Optimizer(**{key: value})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_update_aborts_without_mutation():
    # q's update is fine, p's overflows float32: neither may be written.
    q = _param([2.0], [1.0])
    q.momentum_buffer[...] = 0.5
    p = _param([-3e38], [1e38])
    with pytest.raises(NumericsError, match="'p'"):
        sgd_step([q, p], Optimizer(learning_rate=1.0, weight_decay=0.0, momentum=0.0))
    for param, value, grad, buf in [(q, 2.0, 1.0, 0.5), (p, -3e38, 1e38, 0.0)]:
        np.testing.assert_array_equal(param.data, np.float32([value]))
        np.testing.assert_array_equal(param.grad, np.float32([grad]))
        np.testing.assert_array_equal(param.momentum_buffer, np.float32([buf]))


def _models(seed=0, input_dim=12):
    return build_models(ModelConfig(embedding_dim=8, heads=2), input_dim, np.random.default_rng(seed))


def _trainable(enc, rec):
    return enc.query.parameters() + rec.parameters()


def _state(params):
    return [(p.data.tobytes(), p.grad.tobytes(), p.momentum_buffer.tobytes()) for p in params]


def _assert_packed(model):
    """Every parameter's value, gradient and buffer is its own span, in
    ``parameters()`` order, of the model's three flat float32 arrays."""
    arena, params = model.arena, model.parameters()
    assert arena.params == tuple(params)
    for field, flat in (("data", arena.values), ("grad", arena.grads),
                        ("momentum_buffer", arena.buffers)):
        assert flat.dtype == np.float32 and flat.ndim == 1
        assert flat.size == sum(p.data.size for p in params)
        base = flat.__array_interface__["data"][0]
        offset = 0
        for p in params:
            view = getattr(p, field)
            assert p.arena is arena, p.name
            assert view.shape == p.data.shape and view.flags.c_contiguous, p.name
            assert np.shares_memory(view, flat), p.name
            assert view.__array_interface__["data"][0] == base + 4 * offset, p.name
            offset += view.size


def test_every_model_parameter_is_a_view_of_its_models_arena(tmp_path):
    enc, rec, queue = _models()
    for model in (enc.query, enc.key, rec):
        _assert_packed(model)
    save_model(tmp_path / "model.bin", enc, rec, queue, 5)
    loaded_enc, loaded_rec, _, _ = load_model(tmp_path / "model.bin")
    for model, saved in ((loaded_enc.query, enc.query), (loaded_enc.key, enc.key),
                         (loaded_rec, rec)):
        _assert_packed(model)
        assert model.arena.values.tobytes() == saved.arena.values.tobytes()


def test_arena_sgd_matches_the_per_parameter_loop_bit_for_bit():
    opt = Optimizer(learning_rate=0.05, weight_decay=1e-3, momentum=0.9)
    packed, oracle = _models(3), _models(3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        for p, q in zip(_trainable(*packed[:2]), _trainable(*oracle[:2])):
            p.grad[...] = q.grad[...] = rng.normal(size=p.data.shape).astype(np.float32)
        sgd_step(_trainable(*packed[:2]), opt)
        loop_sgd_step(_trainable(*oracle[:2]), opt)
        assert _state(_trainable(*packed[:2])) == _state(_trainable(*oracle[:2]))
    params = _trainable(*packed[:2])
    assert not any(p.grad.any() for p in params)
    assert all(p.momentum_buffer.any() for p in params)


@pytest.mark.parametrize("cut", ["last", "first", "swap", "rec part"])
def test_sgd_step_refuses_a_list_that_covers_part_of_an_arena(cut):
    enc, rec, _ = _models()
    params = _trainable(enc, rec)
    for p in params:
        p.grad[...] = 1.0
    before = _state(params)
    given = {
        "last": params[:-1],
        "first": params[1:],
        "swap": [params[1], params[0], *params[2:]],
        "rec part": rec.parameters()[:5],
    }[cut]
    with pytest.raises(ShapeError, match="whole parameter arenas"):
        sgd_step(given, Optimizer())
    assert _state(params) == before


@pytest.mark.parametrize("bad", [
    ["ffr.layer1.msa.wk", "ffr.head.b"],
    ["ctfe.query.b2", "ffr.mask_token"],
    ["ffr.head.b"],
])
def test_a_non_finite_gradient_in_a_packed_model_names_the_first_and_writes_nothing(bad):
    enc, rec, _ = _models()
    params = _trainable(enc, rec)
    rng = np.random.default_rng(5)
    for p in params:
        p.grad[...] = rng.normal(size=p.data.shape)
        p.momentum_buffer[...] = rng.normal(size=p.data.shape)
        if p.name in bad:
            p.grad.flat[-1] = np.nan if p.name == bad[0] else np.inf
    before = _state(params)
    with pytest.raises(NumericsError, match=f"gradient for parameter '{bad[0]}'"):
        sgd_step(params, Optimizer())
    assert _state(params) == before


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [["ffr.layer0.msa.bq", "ffr.head.w"], ["ctfe.query.w1", "ffr.layer1.ln2.beta"]])
def test_an_overflowing_update_in_a_packed_model_names_the_first_and_writes_nothing(bad):
    enc, rec, _ = _models()
    params = _trainable(enc, rec)
    for p in params:
        p.grad[...] = 0.5
        if p.name in bad:
            p.data.flat[0], p.grad.flat[0] = -3e38, 1e38
    before = _state(params)
    with pytest.raises(NumericsError, match=f"overflows parameter '{bad[0]}'"):
        sgd_step(params, Optimizer(learning_rate=1.0, weight_decay=0.0, momentum=0.0))
    assert _state(params) == before
