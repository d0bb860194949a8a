"""Core tensor ops: values against closed forms, gradients against central
finite differences (the independent oracle for every differentiable op)."""

import threading
import warnings

import numpy as np
import pytest

from eventseg import (
    NumericsError,
    Parameter,
    ShapeError,
    Tensor,
    l2_normalize,
    layer_norm,
    no_grad,
    softmax,
)

from gradcheck import div, dot, exp, finite_difference, gradients_close, power


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)).astype(np.float32)
    out = Tensor(np.eye(3, dtype=np.float32)) @ Tensor(x)
    np.testing.assert_array_equal(out.data, x)


def test_matmul_zeros():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.random.default_rng(1).normal(size=(3, 4)).astype(np.float32))
    out = a @ b
    np.testing.assert_array_equal(out.data, np.zeros((2, 4), dtype=np.float32))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = Parameter(rng.uniform(-1, 1, size=(4, 4)).astype(np.float64), "a")
    b = Parameter(rng.uniform(-1, 1, size=(4, 4)).astype(np.float64), "b")
    weights = rng.uniform(-1, 1, size=(4, 4))

    def loss_value():
        return float(((a @ b) * Tensor(weights)).sum().data)

    loss = ((a @ b) * Tensor(weights)).sum()
    loss.backward()
    fd_a, fd_b = finite_difference(loss_value, [a.data, b.data])
    assert gradients_close(a.grad, fd_a)
    assert gradients_close(b.grad, fd_b)


def test_batched_matmul_gradient():
    rng = np.random.default_rng(3)
    a = Parameter(rng.uniform(-1, 1, size=(2, 3, 4)).astype(np.float64), "a")
    b = Parameter(rng.uniform(-1, 1, size=(4, 5)).astype(np.float64), "b")

    def loss_value():
        return float((a @ b).sum().data)

    (a @ b).sum().backward()
    fd_a, fd_b = finite_difference(loss_value, [a.data, b.data])
    assert gradients_close(a.grad, fd_a)
    assert gradients_close(b.grad, fd_b)


def test_backward_sum_gives_ones():
    x = Parameter(np.arange(6, dtype=np.float32).reshape(2, 3), "x")
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_quadratic_gives_two_x():
    x = Parameter(np.array([1.0, -2.0, 0.5], dtype=np.float32), "x")
    dot(x, x).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_backward_rejects_non_scalar():
    x = Parameter(np.ones(3, dtype=np.float32), "x")
    with pytest.raises(ShapeError):
        (x * 2.0).backward()


def _seeded_graph(x, w, gamma, beta):
    y = layer_norm(x @ w, gamma, beta).relu()
    return l2_normalize(softmax(y, axis=-1) + y)


def test_seeded_backward_matches_the_weighted_sum():
    # Seeding the walk with g gives the leaves the bytes that backpropagating
    # sum(t * g) does: the product hands t exactly g.
    rng = np.random.default_rng(21)
    values = [rng.normal(size=shape).astype(np.float32)
              for shape in [(6, 5), (5, 4), (4,), (4,)]]
    seed = rng.normal(size=(6, 4)).astype(np.float32)

    seeded = [Parameter(v, f"p{i}") for i, v in enumerate(values)]
    _seeded_graph(*seeded).backward(seed)
    summed = [Parameter(v, f"p{i}") for i, v in enumerate(values)]
    (_seeded_graph(*summed) * Tensor(seed)).sum().backward()
    for a, b in zip(seeded, summed):
        assert np.any(a.grad != 0), a.name
        assert a.grad.tobytes() == b.grad.tobytes(), a.name


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 3), ()])
def test_backward_rejects_a_seed_of_another_shape(shape):
    x = Parameter(np.ones((3,), dtype=np.float32), "x")
    with pytest.raises(ShapeError):
        (x * 2.0).reshape((3, 1)).backward(np.ones(shape, dtype=np.float32))
    assert not np.any(x.grad)


def test_gradient_accumulates_across_uses():
    x = Parameter(np.array([2.0], dtype=np.float32), "x")
    y = x * 3.0 + x * 5.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [8.0])


def _no_term(g, a, b):
    raise AssertionError("backward term built for a constant operand")


def test_binary_skips_the_constant_operands_term():
    x = Parameter(np.array([1.0, 2.0], dtype=np.float32), "x")
    c = Tensor(np.array([3.0, 4.0], dtype=np.float32))
    x._binary(c, np.multiply, lambda g, a, b: g * b, _no_term).sum().backward()
    c._binary(x, np.multiply, _no_term, lambda g, a, b: g * a).sum().backward()
    np.testing.assert_array_equal(x.grad, [6.0, 8.0])


class _NoTranspose(np.ndarray):
    """An array whose transpose fails: only the constant operand's matmul
    term transposes the parameter."""

    def swapaxes(self, *axes):
        raise AssertionError("backward term built for a constant operand")


def test_matmul_skips_the_constant_operands_term():
    x = Parameter(np.ones((2, 3), dtype=np.float32).view(_NoTranspose), "x")
    c = np.arange(12, dtype=np.float32).reshape(3, 4)
    (x @ Tensor(c)).sum().backward()
    np.testing.assert_array_equal(np.asarray(x.grad), np.tile(c.sum(axis=1), (2, 1)))


def test_elementwise_ops_against_finite_differences():
    rng = np.random.default_rng(4)
    w = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)))
    cases = {
        "exp": lambda t: (exp(t) * w).sum(),
        "relu": lambda t: (t.relu() * w).sum(),
        "pow": lambda t: (power(t + 2.0, -0.5) * w).sum(),
        "div": lambda t: div(w, t + 3.0).sum(),
        "mean": lambda t: (t * t).mean(),
    }
    for name, fn in cases.items():
        values = rng.uniform(-1, 1, size=(3, 4))
        # Central differences that straddle relu's kink at 0 are wrong, so
        # every entry stays well outside the finite-difference step.
        x = Parameter(np.where(np.abs(values) < 0.01, 0.5, values), name)
        fn(x).backward()
        (fd,) = finite_difference(lambda: float(fn(x).data), [x.data])
        assert gradients_close(x.grad, fd), name


def test_getitem_gradient_scatters():
    x = Parameter(np.arange(12, dtype=np.float64).reshape(3, 4), "x")
    rows = np.array([0, 2, 2])
    cols = np.array([1, 3, 3])
    y = x[(rows, cols)].sum()
    y.backward()
    expected = np.zeros((3, 4))
    expected[0, 1] = 1
    expected[2, 3] = 2
    np.testing.assert_array_equal(x.grad, expected)


def test_softmax_uniform_and_shift_invariance():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-7)

    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6)).astype(np.float32)
    shifted = softmax(Tensor(x + 3.7)).data
    base = softmax(Tensor(x)).data
    np.testing.assert_allclose(shifted, base, atol=1e-6)
    np.testing.assert_allclose(base.sum(axis=1), np.ones(4), atol=1e-6)


def test_softmax_closed_form():
    x = np.log(np.array([1.0, 2.0, 3.0], dtype=np.float64))
    out = softmax(Tensor(x))
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-9)


def test_softmax_gradient():
    rng = np.random.default_rng(6)
    x = Parameter(rng.uniform(-1, 1, size=(2, 5)).astype(np.float64), "x")
    w = rng.uniform(-1, 1, size=(2, 5))

    def fn():
        return float((softmax(x, axis=-1) * Tensor(w)).sum().data)

    (softmax(x, axis=-1) * Tensor(w)).sum().backward()
    (fd,) = finite_difference(fn, [x.data])
    assert gradients_close(x.grad, fd)


def test_layer_norm_constant_row_centers_to_zero():
    gamma = Tensor(np.ones(3, dtype=np.float32))
    beta = Tensor(np.zeros(3, dtype=np.float32))
    out = layer_norm(Tensor([[1.0, 1.0, 1.0]]), gamma, beta)
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-3)


def test_layer_norm_unit_variance_row():
    gamma = Tensor(np.ones(2, dtype=np.float32))
    beta = Tensor(np.zeros(2, dtype=np.float32))
    out = layer_norm(Tensor([[1.0, -1.0]]), gamma, beta)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(4)))


def test_layer_norm_gradient():
    rng = np.random.default_rng(7)
    x = Parameter(rng.uniform(-1, 1, size=(3, 6)).astype(np.float64), "x")
    gamma = Parameter(rng.uniform(0.5, 1.5, size=6).astype(np.float64), "gamma")
    beta = Parameter(rng.uniform(-0.5, 0.5, size=6).astype(np.float64), "beta")
    w = rng.uniform(-1, 1, size=(3, 6))

    def fn():
        return float((layer_norm(x, gamma, beta) * Tensor(w)).sum().data)

    (layer_norm(x, gamma, beta) * Tensor(w)).sum().backward()
    fds = finite_difference(fn, [x.data, gamma.data, beta.data])
    for param, fd in zip([x, gamma, beta], fds):
        assert gradients_close(param.grad, fd)


def test_l2_normalize_cases():
    out = l2_normalize(Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-6)

    unit = np.array([[1.0, 0.0]], dtype=np.float32)
    np.testing.assert_allclose(l2_normalize(Tensor(unit)).data, unit, atol=1e-6)

    out = l2_normalize(Tensor([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(out.data[0], [0.0, 0.0])


@pytest.mark.parametrize("row", [
    [2e19, 0.0, 1.0],  # one square overflows float32
    [1.5e19, 1.5e19, 1.5e19],  # each square is finite, their sum is not
])
def test_l2_normalize_refuses_a_squared_norm_that_overflows(row):
    # Such a row used to normalise to zeros with numpy's overflow warning.
    x = Tensor(np.array([[1.0, 2.0, 2.0], row], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="l2_normalize"):
            l2_normalize(x)
        # Just below the limit the row still normalises.
        big = Tensor(np.array([[1e19, 0.0, 1.0]], dtype=np.float32))
        np.testing.assert_allclose(l2_normalize(big).data, [[1.0, 0.0, 0.0]], atol=1e-6)


def test_l2_normalize_gradient():
    rng = np.random.default_rng(8)
    x = Parameter(rng.uniform(-1, 1, size=(4, 5)).astype(np.float64), "x")
    w = rng.uniform(-1, 1, size=(4, 5))

    def fn():
        return float((l2_normalize(x) * Tensor(w)).sum().data)

    (l2_normalize(x) * Tensor(w)).sum().backward()
    (fd,) = finite_difference(fn, [x.data])
    assert gradients_close(x.grad, fd)


def test_no_grad_blocks_recording():
    x = Parameter(np.ones(3, dtype=np.float32), "x")
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad
    y2 = (x * 2.0).sum()
    assert y2.requires_grad


def test_no_grad_is_per_thread():
    # Overlapping no_grad blocks in two threads: A enters, B enters, A leaves
    # while B is still inside, then B leaves. A shared flag would leave B
    # recording inside its block and neither thread recording afterwards.
    x = Parameter(np.ones(3, dtype=np.float32), "x")
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def records() -> bool:
        return (x * 2.0).sum().requires_grad

    def thread_a():
        with no_grad():
            a_in.set()
            b_in.wait(10)
        seen["a after"] = records()
        a_out.set()

    def thread_b():
        a_in.wait(10)
        with no_grad():
            b_in.set()
            a_out.wait(10)
            seen["b inside"] = records()
        seen["b after"] = records()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {"a after": True, "b inside": False, "b after": True}
    assert records()


def test_ops_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(8, 8)).astype(np.float32)
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x)).data
    np.testing.assert_array_equal(a, b)
    m1 = (Tensor(x) @ Tensor(x)).data
    m2 = (Tensor(x) @ Tensor(x)).data
    np.testing.assert_array_equal(m1, m2)
