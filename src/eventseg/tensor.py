"""Dense tensors with reverse-mode automatic differentiation.

Small and deliberately explicit: every operation records a closure that
scatters the upstream gradient back to its operands, and ``backward`` walks
the recorded graph once in reverse topological order. Tensors wrap numpy
arrays, float32 by default (float64 is supported for high-precision gradient
checks); a plain number or array operand of ``+``, ``-``, ``*`` or ``@``
becomes a constant of the tensor's dtype, and every sum and product runs in
the arrays' own dtype, so float32 training computes in float32 and the
float64 gradient checks in float64. Storage is row-major throughout. A
tensor holding NaN or Inf is an error state; callers that can produce one
(losses, optimizer steps) check explicitly.

The node set is what training and detection record: ``+``, ``-``, ``*``,
``@``, ``reshape``, ``transpose``, indexing, ``relu``, ``sum`` (over any
axes), ``mean`` (over every entry) and the fused nodes below, of which
``softmax`` normalises the last axis only.

Gradient accumulation is additive across uses of a tensor; ``sgd_step``
resets parameter gradients after each update. The gradient of a 2-D right
operand of a product, a weight matrix, is one 2-D product over all rows of
the left operand, whatever its leading axes.

``linear``, ``layer_norm``, ``softmax`` and ``l2_normalize`` are fused: each
is one graph node instead of the two, eleven, four and five nodes that
composing them from elementwise nodes would record. Their forward passes
make the composition's numpy calls in the same order and dtypes (softmax
finds its row max by a sweep of ``np.maximum`` over the columns, which gives
the same values; ``linear`` adds the bias into the product in place). Their
backward passes replay the composed graph's gradient arithmetic step for
step, in the order the graph walk would accumulate it, rather than a closed
form, so outputs and gradients are bit-identical to the composition: one
code path serves training and ``no_grad`` detection alike. The composed
forms, and the ``exp``, ``div`` and ``power`` nodes that only they use, are
test oracles in ``tests/gradcheck.py``.

One recorded graph belongs to one thread. Separate graphs are independent.
Whether operations record is a per-thread flag: ``no_grad`` switches it off
for the calling thread only, so a thread that runs detection under
``no_grad`` cannot turn recording on or off for another, and a new thread
starts out recording.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Sequence

import numpy as np

from .errors import NumericsError, ShapeError

_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording in the calling thread inside the block
    (inference fast path)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _coerce(data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_TYPES:
        return data
    return np.asarray(data, dtype=np.float32)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out broadcasted axes so ``grad`` matches ``shape`` again."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _right_grad(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of ``b`` in ``a @ b`` given the output's gradient ``g``.

    A 2-D ``b`` gets one 2-D product over every row of ``a``'s leading
    axes, rather than one product per leading index summed afterwards.
    """
    if b.ndim == 2:
        return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)


def _accumulate(t: "Tensor", grad: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if grad.dtype != t.data.dtype:
        grad = grad.astype(t.data.dtype)
    if t.grad is None:
        t.grad = np.array(grad, dtype=t.data.dtype)
    else:
        t.grad += grad


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph machinery -------------------------------------------------------

    def _result(self, data, parents, backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out._parents = tuple(p for p in parents if p.requires_grad) if needs else ()
        out._backward_fn = backward_fn if needs else None
        return out

    def backward(self, grad=None) -> None:
        """Populate ``grad`` on every reachable tensor that requires one.

        Without ``grad`` only defined for scalars, seeded with one; ``grad``
        seeds the walk with a gradient of this tensor's shape. Gradients add
        into whatever is already in ``grad``, so repeated calls (or reuse of
        a tensor) accumulate.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward requires a scalar loss, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeError(
                f"backward seed of shape {np.shape(grad)} for a tensor of shape "
                f"{self.data.shape}"
            )
        if not self.requires_grad:
            return
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _accumulate(self, np.asarray(grad))
        for node in reversed(order):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- elementwise arithmetic ------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, self.data.dtype))
        data = fwd(self.data, other.data)

        def backward(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(bwd_self(g, self.data, other.data), self.data.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(bwd_other(g, self.data, other.data), other.data.shape))

        return self._result(data, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    # -- matrix product ----------------------------------------------------

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, self.data.dtype))
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError("matmul operands must have at least 2 dimensions")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
            )
        try:
            data = a @ b
        except ValueError as exc:
            raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}") from exc

        def backward(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g @ b.swapaxes(-1, -2), a.shape))
            if other.requires_grad:
                _accumulate(other, _right_grad(a, b, g))

        return self._result(data, (self, other), backward)

    # -- shape manipulation ------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        src_shape = self.data.shape
        data = self.data.reshape(shape)

        def backward(g):
            _accumulate(self, g.reshape(src_shape))

        return self._result(data, (self,), backward)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        data = self.data.transpose(axes)

        def backward(g):
            _accumulate(self, g.transpose(inverse))

        return self._result(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        if isinstance(data, np.ndarray) and data.base is not None:
            data = data.copy()
        src = self

        def backward(g):
            buf = np.zeros_like(src.data)
            np.add.at(buf, index, g)
            _accumulate(src, buf)

        return self._result(np.asarray(data), (self,), backward)

    # -- elementwise functions ----------------------------------------------

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(g):
            _accumulate(self, g * (self.data > 0.0))

        return self._result(data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = np.asarray(self.data.sum(axis=axis, keepdims=keepdims))
        src_shape = self.data.shape

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accumulate(self, np.broadcast_to(gg, src_shape))

        return self._result(data, (self,), backward)

    def mean(self) -> "Tensor":
        """The average of every entry: a 0-d tensor."""
        return self.sum() * (1.0 / self.data.size)


class Parameter(Tensor):
    """A named leaf tensor with a gradient buffer and a momentum buffer.

    ``grad`` and ``momentum_buffer`` always have the same shape as the value.
    All three are views of the flat arrays of ``arena``: a parameter built
    alone owns an arena of one, and a model packs its parameters into one
    arena (``ParameterArena``).
    """

    __slots__ = ("name", "momentum_buffer", "arena")

    def __init__(self, value, name: str = ""):
        super().__init__(value, requires_grad=True)
        self.name = name
        ParameterArena((self,))

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class ParameterArena:
    """Values, gradients and momentum buffers of a fixed list of parameters
    as three flat arrays: ``values``, ``grads`` and ``buffers``.

    Each parameter's ``data``, ``grad`` and ``momentum_buffer`` become views
    of its span of them, the spans laid out in list order, so a whole-array
    operation on the arena acts on every parameter at once (``sgd_step``,
    ``momentum_update``). Packing keeps the values and starts the gradients
    and buffers at zero; a model's parameters are all float32. Rebinding a
    parameter's ``data`` or ``grad`` to another array takes it out of the
    arena's reach, as the gradient checks do with throwaway float64 models.
    """

    __slots__ = ("params", "values", "grads", "buffers", "ends")

    def __init__(self, params: Sequence[Parameter]):
        self.params = tuple(params)
        self.values = np.concatenate([p.data.ravel() for p in self.params])
        self.grads = np.zeros_like(self.values)
        self.buffers = np.zeros_like(self.values)
        self.ends = np.cumsum([p.data.size for p in self.params])
        for p, end in zip(self.params, self.ends):
            span, shape = slice(end - p.data.size, end), p.data.shape
            p.data, p.grad, p.momentum_buffer = (
                flat[span].reshape(shape) for flat in (self.values, self.grads, self.buffers)
            )
            p.arena = self

    def first_non_finite(self, flat: np.ndarray) -> Parameter:
        """The first parameter whose span of ``flat``, an array laid out like
        ``values``, holds a non-finite value; ``flat`` must hold one."""
        index = np.flatnonzero(~np.isfinite(flat))[0]
        return self.params[int(np.searchsorted(self.ends, index, side="right"))]


# -- fused operations used throughout the model -------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` and a bias vector ``b``, as one
    node: the bias is added into the product in place."""
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear shapes disagree: {xd.shape} @ {wd.shape} + {b.data.shape}")
    data = xd @ wd
    data += b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ wd.T)
        if w.requires_grad:
            _accumulate(w, _right_grad(xd, wd, g))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return x._result(data, (x, w, b), backward)


LAYER_NORM_EPS = 1e-5  # the variance shift of LayerNorm (Ba et al., 2016)
L2_NORM_EPS = 1e-12  # the smallest row norm l2_normalize divides by


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    The variance is shifted by ``LAYER_NORM_EPS``. ``gamma`` and ``beta``
    must be vectors matching the last dimension of x.
    """
    dim = x.data.shape[-1]
    if gamma.data.shape != (dim,) or beta.data.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shape mismatch: x last dim {dim}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    xd = x.data
    scale = xd.dtype.type(1.0 / dim)
    mu = xd.sum(axis=-1, keepdims=True) * scale
    centered = xd - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    shifted_var = var + xd.dtype.type(LAYER_NORM_EPS)
    inv = shifted_var ** -0.5
    normalized = centered * inv
    data = normalized * gamma.data + beta.data

    def backward(g):
        _accumulate(beta, _unbroadcast(g, beta.data.shape))
        _accumulate(gamma, _unbroadcast(g * normalized, gamma.data.shape))
        g_normalized = g * gamma.data
        g_centered = g_normalized * inv
        g_inv = _unbroadcast(g_normalized * centered, inv.shape)
        g_sq = (g_inv * -0.5 * shifted_var ** -1.5) * scale
        # centered * centered sends its gradient to both operands in turn.
        g_sq_centered = g_sq * centered
        g_centered += g_sq_centered
        g_centered += g_sq_centered
        # x - mu reaches x directly, then again through the mean.
        _accumulate(x, g_centered)
        g_mu = _unbroadcast(-g_centered, mu.shape)
        _accumulate(x, np.broadcast_to(g_mu * scale, xd.shape))

    return x._result(data, (x, gamma, beta), backward)


def softmax(x: Tensor) -> Tensor:
    """Each row (last axis) sums to one; computed with (detached) max
    subtraction for stability. A 0-d input or an empty last axis is a
    ``ShapeError``.

    The max is a sweep of ``np.maximum`` over the columns: the same values
    as ``np.max`` (NaN propagates) at a tenth of its cost on the short
    attention rows.
    """
    xd = x.data
    if xd.ndim == 0 or xd.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {xd.shape}")
    shift = xd[..., 0:1]
    for i in range(1, xd.shape[-1]):
        shift = np.maximum(shift, xd[..., i:i + 1])
    exps = np.exp(xd - shift)
    total = exps.sum(axis=-1, keepdims=True)
    data = exps / total

    def backward(g):
        g_exps = g / total
        g_exps += np.broadcast_to(_unbroadcast(-g * exps / (total * total), total.shape), xd.shape)
        _accumulate(x, g_exps * exps)

    return x._result(data, (x,), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm.

    Rows with norm below ``L2_NORM_EPS`` are scaled by its inverse, so zero
    rows stay at zero; the clamp passes no gradient. A row whose squared
    norm is infinite, because an entry is or because its squares overflow
    the dtype, is a ``NumericsError``: scaled by 1/inf it would read as zeros.
    """
    xd = x.data
    floor = L2_NORM_EPS * L2_NORM_EPS
    with np.errstate(over="ignore"):
        norm_sq = (xd * xd).sum(axis=-1, keepdims=True)
    if np.isinf(norm_sq).any():
        raise NumericsError("l2_normalize: a squared row norm overflows; inputs too large")
    clamped = np.maximum(norm_sq, floor)
    inv = clamped ** -0.5
    data = xd * inv

    def backward(g):
        _accumulate(x, g * inv)
        g_inv = _unbroadcast(g * xd, inv.shape)
        g_norm_sq = (g_inv * -0.5 * clamped ** -1.5) * (norm_sq > floor)
        # x * x sends its gradient to both operands in turn.
        g_sq_x = np.broadcast_to(g_norm_sq, xd.shape) * xd
        _accumulate(x, g_sq_x)
        _accumulate(x, g_sq_x)

    return x._result(data, (x,), backward)
