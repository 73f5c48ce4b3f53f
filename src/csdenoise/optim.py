"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


class Adam:
    """Bias-corrected Adam over an ordered parameter list.

    Gradients are read but never modified; the caller clears them
    between steps.
    """

    def __init__(self, params, learning_rate=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params: list[Tensor] = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """Apply one Adam update to every parameter in place."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"Adam.step: parameter {i} has no gradient")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
