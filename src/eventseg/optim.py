"""SGD with classic momentum and L2 weight decay folded into the gradient."""

from __future__ import annotations

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
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def sgd_step(params: Iterable[Parameter], opt: Optimizer) -> None:
    """Apply one update to every parameter, then zero the gradients.

    Aborts before touching any state if a gradient is non-finite.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise NumericsError(f"parameter {p.name!r} has no gradient buffer")
        if not np.isfinite(p.grad).all():
            raise NumericsError(f"non-finite gradient for parameter {p.name!r}")
    for p in params:
        buf = p.momentum_buffer
        buf *= opt.momentum
        buf += p.grad + opt.weight_decay * p.data
        p.data -= opt.learning_rate * buf
        p.grad[...] = 0.0
