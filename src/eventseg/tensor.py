"""Dense tensors with reverse-mode automatic differentiation.

Small and deliberately explicit: every operation records a closure that
scatters the upstream gradient back to its operands, and ``backward`` walks
the recorded graph once in reverse topological order. Tensors wrap numpy
arrays, float32 by default (float64 is supported for high-precision gradient
checks); reductions accumulate in float64 before casting back. Storage is
row-major throughout. A tensor holding NaN or Inf is an error state; callers
that can produce one (losses, optimizer steps) check explicitly.

Gradient accumulation is additive across uses of a tensor; ``sgd_step``
resets parameter gradients after each update.

One recorded graph belongs to one thread. Separate graphs are independent.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

from .errors import ShapeError

_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _coerce(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data).astype(dtype, copy=False)
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_TYPES:
        return data
    return np.asarray(data, dtype=np.float32)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out broadcasted axes so ``grad`` matches ``shape`` again."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph machinery -------------------------------------------------------

    def _result(self, data, parents, backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = _grad_enabled and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out._parents = tuple(p for p in parents if p.requires_grad) if needs else ()
        out._backward_fn = backward_fn if needs else None
        return out

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor that requires one.

        Only defined for scalars. Gradients add into whatever is already in
        ``grad``, so repeated calls (or reuse of a tensor) accumulate.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
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
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad += np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- elementwise arithmetic ------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = fwd(self.data, other.data)

        def backward(g):
            _accumulate(self, _unbroadcast(bwd_self(g, self.data, other.data), self.data.shape))
            _accumulate(other, _unbroadcast(bwd_other(g, self.data, other.data), other.data.shape))

        return self._result(data, (self, other), backward)

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    def __truediv__(self, other):
        return self._binary(
            other,
            np.true_divide,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
        )

    def __pow__(self, exponent: float):
        p = float(exponent)
        data = self.data ** p

        def backward(g):
            _accumulate(self, g * p * self.data ** (p - 1.0))

        return self._result(data, (self,), backward)

    # -- matrix product ----------------------------------------------------

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
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
            _accumulate(self, _unbroadcast(g @ b.swapaxes(-1, -2), a.shape))
            _accumulate(other, _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))

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

    def swapaxes(self, a: int, b: int) -> "Tensor":
        data = self.data.swapaxes(a, b)

        def backward(g):
            _accumulate(self, g.swapaxes(a, b))

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

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g):
            _accumulate(self, g * data)

        return self._result(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(g):
            _accumulate(self, g * (self.data > 0.0))

        return self._result(data, (self,), backward)

    def clamp_min(self, floor: float) -> "Tensor":
        """max(x, floor); the clamped region is treated as constant."""
        data = np.maximum(self.data, floor)

        def backward(g):
            _accumulate(self, g * (self.data > floor))

        return self._result(data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = np.asarray(
            self.data.sum(axis=axis, dtype=np.float64, keepdims=keepdims)
        ).astype(self.data.dtype)
        src_shape = self.data.shape

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            _accumulate(self, np.broadcast_to(gg, src_shape))

        return self._result(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def as_tensor(value, dtype=np.float32) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value), dtype=np.result_type(dtype))


class Parameter(Tensor):
    """A named leaf tensor with a gradient buffer and a momentum buffer.

    ``grad`` and ``momentum_buffer`` always have the same shape as the value.
    """

    __slots__ = ("name", "momentum_buffer")

    def __init__(self, value, name: str = ""):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.momentum_buffer = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


# -- composite operations used throughout the model ---------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    ``gamma`` and ``beta`` must be vectors matching the last dimension of x.
    """
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    dim = x.data.shape[-1]
    if gamma.data.shape != (dim,) or beta.data.shape != (dim,):
        raise ShapeError(
            f"layer_norm affine shape mismatch: x last dim {dim}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered * (var + eps) ** -0.5
    return normalized * gamma + beta


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Rows sum to one; computed with (detached) max subtraction for stability."""
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    exps = (x - shift).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (last axis) to unit Euclidean norm.

    Rows with norm below ``eps`` are scaled by ``1/eps``, so zero rows stay
    at zero.
    """
    norm_sq = (x * x).sum(axis=-1, keepdims=True)
    inv = norm_sq.clamp_min(eps * eps) ** -0.5
    return x * inv
