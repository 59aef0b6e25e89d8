"""Linear and batch-norm layers built on the autodiff tape.

Every layer derives from `Module`, whose `params()` and `bn_layers()`
walk the instance's own attributes depth-first in the order they were
set: a `Param` is collected, a sub-`Module` recursed into and a
`BatchNorm` listed as a norm; any other value, `None` included, is
skipped.  Only direct attributes are walked, so a layer kept in a list
or dict would not be found.

BatchNorm here normalizes over every leading axis (all rows), with the
last axis as channels.  In training mode a BatchNorm call is one tape
node with the analytic backward; in eval mode it returns a constant.
The training math lives once, in `autodiff.bn_forward` and
`autodiff.bn_backward`: the BatchNorm node and the forward of
`attention.RadiusAttention` both call them, and both fold the batch
statistics into the running estimates through `BatchNorm.track`.  The
attention normalizes only its valid (anchor, slot) pairs, as it
gathers no padded slot.  The eval math lives once too, in
`BatchNorm.eval_affine`: the eval BatchNorm call, the attention's eval
norms and `fold_bn` all apply its affine map.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor


def glorot(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """(d_in, d_out) Glorot-uniform weights."""
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


class Module:
    """Base of every layer: parameters and norms found from attributes."""

    def _walk(self):
        for value in vars(self).values():
            if isinstance(value, Param):
                yield value
            elif isinstance(value, Module):
                yield value
                yield from value._walk()

    def params(self) -> list[Param]:
        return [v for v in self._walk() if isinstance(v, Param)]

    def bn_layers(self) -> list[BatchNorm]:
        return [v for v in self._walk() if isinstance(v, BatchNorm)]


class Linear(Module):
    """y = x @ W (+ b).  Glorot-uniform weights, zero bias."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Param(f"{name}.weight", glorot(rng, d_in, d_out))
        self.bias = Param(f"{name}.bias", np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray, bn: BatchNorm | None = None) -> np.ndarray:
        """Single-precision x @ W + b; an eval-mode `bn` after it is folded in."""
        weight, bias = self.weight.data, 0.0 if self.bias is None else self.bias.data
        if bn is not None:
            weight, bias = fold_bn(weight, bias, bn)
        return x @ weight.astype(np.float32) + np.asarray(bias, dtype=np.float32)


class BatchNorm(Module):
    """Per-channel normalization with running statistics.

    Training mode uses biased batch statistics over the rows and folds
    them into the running estimates with `momentum`; it records one tape
    node with the analytic backward (`autodiff.batch_norm`).
    Eval mode applies the running affine of `eval_affine` and returns a
    constant that records no tape node.  A training forward
    updates the running estimates but never reads them, so repeated
    training forwards (e.g. finite differencing) are bitwise identical.

    `eps` and `momentum` are the standard constants of Ioffe & Szegedy
    (arXiv 1502.03167).  Every norm of the network uses them, and the
    checkpoints and reference losses were made with them, so they are
    fixed rather than per-layer settings.
    """

    eps = 1e-8
    momentum = 0.1

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width
        self.gamma = Param(f"{name}.gamma", np.ones(width))
        self.beta = Param(f"{name}.beta", np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        if x.data.shape[-1] != self.width:
            raise ValueError(
                f"{self.name}: expected {self.width} channels, got {x.data.shape[-1]}")
        if training:
            out, mean, var = ad.batch_norm(x, self.gamma, self.beta, self.eps)
            self.track(mean, var)
            return out
        scale, shift = self.eval_affine()
        return Tensor(x.data * scale + shift)

    def track(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one training batch's statistics into the running estimates."""
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * mean.reshape(-1)
        self.running_var = (1.0 - m) * self.running_var + m * var.reshape(-1)

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode folded to one affine map: y = x * scale + shift."""
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        shift = self.beta.data - self.running_mean * scale
        return scale, shift


def fold_bn(weight: np.ndarray, bias, bn: BatchNorm) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode `bn` after `x @ weight + bias`, folded in float64 into
    one map `x @ weight' + bias'` from the current statistics."""
    scale, shift = bn.eval_affine()
    return weight * scale, bias * scale + shift
