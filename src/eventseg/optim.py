"""SGD with classic momentum and L2 weight decay folded into the gradient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, NumericsError
from .tensor import Parameter


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


def sgd_step(params: Iterable[Parameter], opt: Optimizer) -> None:
    """Apply one update to every parameter, then zero the gradients.

    Aborts before touching any state if a gradient is non-finite, or if the
    update would write a non-finite momentum buffer or value: every new
    buffer and value is built and checked before any is written.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise NumericsError(f"parameter {p.name!r} has no gradient buffer")
        if not np.isfinite(p.grad).all():
            raise NumericsError(f"non-finite gradient for parameter {p.name!r}")
    updates = []
    for p in params:
        buf = p.momentum_buffer * opt.momentum
        buf += p.grad + opt.weight_decay * p.data
        updates.append((buf, p.data - opt.learning_rate * buf))
    # A non-finite buffer makes its value non-finite too (the rate is finite),
    # so checking the values, all in one pass, covers both.
    if not np.isfinite(np.concatenate([value.ravel() for _, value in updates])).all():
        name = next(p.name for p, (_, value) in zip(params, updates)
                    if not np.isfinite(value).all())
        raise NumericsError(f"update overflows parameter {name!r}")
    for p, (buf, value) in zip(params, updates):
        p.momentum_buffer[...] = buf
        p.data[...] = value
        p.grad[...] = 0.0
