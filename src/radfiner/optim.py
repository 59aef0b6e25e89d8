"""AdamW with decoupled weight decay.

Update per step t (bias-corrected moments mhat, vhat):

    theta <- theta - lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)

Decay multiplies the raw parameter, not the gradient, so it is
independent of the adaptive scaling.  step() consumes and zeroes the
accumulated gradients.

beta1 = 0.9, beta2 = 0.999, eps = 1e-8 and weight_decay = 0.01 are the
standard constants of Adam and AdamW (Loshchilov & Hutter, arXiv
1711.05101).  Training only ever tunes lr, and the checkpoints and
reference losses were made with these values, so they are class
constants, not options.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Param
from .errors import NumericsError


class AdamW:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    weight_decay = 0.01

    def __init__(self, params: list[Param], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError(f"lr must be positive, got {lr}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer")
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p in self.params:
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient for {p.name}")
            m = self.m[p.name]
            v = self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                 + self.weight_decay * p.data)
            p.zero_grad()
