"""Linear and batch-norm layers built on the autodiff tape.

BatchNorm here normalizes over every leading axis (all rows), with the
last axis as channels.  Neighborhood tensors carry padding, so the
statistics can be restricted to valid rows via a boolean mask; padded
rows are always excluded from the statistics and, by default, zeroed in
the output so downstream masked reductions stay exact.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor


class Linear:
    """y = x @ W (+ b).  Glorot-uniform weights, zero bias."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        limit = np.sqrt(6.0 / (d_in + d_out))
        self.name = name
        self.weight = Param(f"{name}.weight", rng.uniform(-limit, limit, size=(d_in, d_out)))
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

    def params(self) -> list[Param]:
        ps = [self.weight]
        if self.bias is not None:
            ps.append(self.bias)
        return ps


class BatchNorm:
    """Per-channel normalization with running statistics.

    Training mode uses biased batch statistics over the valid rows and
    folds them into the running estimates with the given momentum; eval
    mode applies the running affine only.  `track_stats` can be switched
    off to keep repeated forwards (e.g. finite differencing) from
    drifting the running estimates.
    """

    def __init__(self, name: str, width: int, eps: float = 1e-8, momentum: float = 0.1):
        self.name = name
        self.width = width
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Param(f"{name}.gamma", np.ones(width))
        self.beta = Param(f"{name}.beta", np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.track_stats = True

    def __call__(self, x: Tensor, valid: np.ndarray | None = None,
                 training: bool = False, zero_invalid: bool = True) -> Tensor:
        """`valid` marks rows that count; shape = x.shape[:-1].

        zero_invalid=False still excludes masked rows from the
        statistics but lets the affine transform act on them (used by
        the zero-padding ablation, where padded slots must keep flowing).
        """
        if x.data.shape[-1] != self.width:
            raise ValueError(
                f"{self.name}: expected {self.width} channels, got {x.data.shape[-1]}")
        if valid is not None:
            mask = np.asarray(valid, dtype=bool)
            if mask.shape != x.data.shape[:-1]:
                raise ValueError(f"{self.name}: mask shape {mask.shape} "
                                 f"does not match rows {x.data.shape[:-1]}")
            mask_col = mask[..., None].astype(np.float64)
            count = int(mask.sum())
        else:
            mask = None
            mask_col = None
            count = int(np.prod(x.data.shape[:-1]))
        if count == 0:
            raise ValueError(f"{self.name}: no valid rows to normalize")

        axes = tuple(range(x.data.ndim - 1))
        if training:
            xm = x * mask_col if mask_col is not None else x
            mean = ad.reduce_sum(xm, axis=axes, keepdims=True) * (1.0 / count)
            centered = x - mean
            if mask_col is not None:
                centered = centered * mask_col
            var = ad.reduce_sum(centered * centered, axis=axes, keepdims=True) * (1.0 / count)
            inv = (var + self.eps) ** -0.5
            if mask_col is not None and not zero_invalid:
                # let padded rows ride the batch affine instead of dying at 0
                centered = (x - mean)
            xhat = centered * inv
            if self.track_stats:
                m = self.momentum
                self.running_mean = (1.0 - m) * self.running_mean + m * mean.data.reshape(-1)
                self.running_var = (1.0 - m) * self.running_var + m * var.data.reshape(-1)
        else:
            inv_np = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) * inv_np

        out = xhat * self.gamma + self.beta
        if mask_col is not None and zero_invalid:
            out = out * mask_col
        return out

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval mode folded to one affine map: y = x * scale + shift."""
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        shift = self.beta.data - self.running_mean * scale
        return scale, shift

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def state(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}

    def load_state(self, entries: dict[str, np.ndarray]) -> None:
        self.running_mean = np.array(entries[f"{self.name}.running_mean"], dtype=np.float64)
        self.running_var = np.array(entries[f"{self.name}.running_var"], dtype=np.float64)
        if self.running_mean.shape != (self.width,) or self.running_var.shape != (self.width,):
            raise ValueError(f"{self.name}: running stats have wrong shape")


def fold_bn(weight: np.ndarray, bias, bn: BatchNorm) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode `bn` after `x @ weight + bias`, folded in float64 into
    one map `x @ weight' + bias'` from the current statistics."""
    scale, shift = bn.eval_affine()
    return weight * scale, bias * scale + shift
