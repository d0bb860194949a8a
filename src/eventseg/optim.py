"""SGD with classic momentum and L2 weight decay folded into the gradient.

The update runs on whole parameter arenas (``tensor.ParameterArena``): each
model keeps its parameters' values, gradients and momentum buffers in three
flat arrays, so ``sgd_step`` updates a whole model in a few whole-array
numpy calls. Elementwise, these are the per-parameter update's float32
operations in the same order, so the bytes are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, NumericsError
from .tensor import ParameterArena


@dataclass
class Optimizer:
    """Hyperparameters of the update rule.

    buffer <- momentum * buffer + (grad + weight_decay * value)
    value  <- value - learning_rate * buffer
    """

    learning_rate: float = 0.002
    weight_decay: float = 1e-4
    momentum: float = 0.9

    def __post_init__(self):
        # learning_rate 0 is allowed: the step is then the identity on values.
        # A non-finite rate or decay would write non-finite parameters.
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


def sgd_step(arenas: Iterable[ParameterArena], opt: Optimizer) -> None:
    """Apply one update to every parameter of ``arenas``, then zero the
    gradients.

    Aborts before touching any state if a gradient is non-finite, or if the
    update would write a non-finite momentum buffer or value: every new
    buffer and value is built and checked before any is written, and the
    error names the first offending parameter, arena by arena in order.
    """
    arenas = tuple(arenas)
    for arena in arenas:
        if not np.isfinite(arena.grads).all():
            name = arena.first_non_finite(arena.grads).name
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
    updates = []
    for arena in arenas:
        buf = arena.buffers * opt.momentum
        buf += arena.grads + opt.weight_decay * arena.values
        updates.append((buf, arena.values - opt.learning_rate * buf))
    # A non-finite buffer makes its value non-finite too (the rate is finite),
    # so checking the values covers both.
    for arena, (_, value) in zip(arenas, updates):
        if not np.isfinite(value).all():
            name = arena.first_non_finite(value).name
            raise NumericsError(f"update overflows parameter {name!r}")
    for arena, (buf, value) in zip(arenas, updates):
        arena.buffers[...] = buf
        arena.values[...] = value
        arena.grads[...] = 0.0
