"""SGD update rule against hand-unrolled recurrences."""

import numpy as np
import pytest

from eventseg import ConfigError, NumericsError, Optimizer, Parameter, sgd_step


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
