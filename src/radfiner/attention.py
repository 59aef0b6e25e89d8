"""Radius-limited vector attention over ball-query neighborhoods.

Per point i with neighbor slots j (n_ij = index of the j-th neighbor,
n_i0 = i itself) the layer computes, channel-wise:

    A[i,j]   = (Q[n_ij] - K[n_ij]) + R[i,j]
    G        = relu(bn(A)) @ W1, then H = relu(bn(G)) @ W2
    W[i,j]   = softmax_j(H[i,j])
    out[i]   = sum_j W[i,j] * (V[n_ij] + R[i,j])

Q, K and V are bias-free linear maps of the input, all three gathered
at the neighbor; the anchor only enters through its own slot 0 and
through R, which encodes the relative position p_i - p_j via a tiny
MLP.  The attention MLP uses the pre-activation order (norm and
rectifier before each linear map) so it ends in a linear layer: a norm
directly in front of the softmax would make its shift parameter
invisible (softmax ignores uniform shifts).  The softmax runs over the
neighbor axis independently per channel, so each channel gets its own
attention pattern (vector attention rather than scalar scores).

Padding policy is selectable: "mask" removes padded slots from the
softmax (they contribute exactly zero), "zeropad" is the ablation where
padded slots enter as zero-valued Q/K/V and keep flowing through the
attention MLP, ending up with nonzero weight.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .errors import ConfigError
from .layers import BatchNorm
from .neighborhood import Neighborhood

PAD_MODES = ("mask", "zeropad")


class PositionalEncoder:
    """rel_pos (N, M, 2) -> (N, M, D): relu(bn(p @ W1)) @ W2, no biases."""

    def __init__(self, name: str, d_out: int, rng: np.random.Generator):
        def glorot(d_in, d_o):
            limit = np.sqrt(6.0 / (d_in + d_o))
            return rng.uniform(-limit, limit, size=(d_in, d_o))

        self.w1 = Param(f"{name}.w1", glorot(2, 2))
        self.bn = BatchNorm(f"{name}.bn", 2)
        self.w2 = Param(f"{name}.w2", glorot(2, d_out))

    def __call__(self, rel_pos: np.ndarray, valid: np.ndarray,
                 training: bool, zero_invalid: bool = True) -> Tensor:
        h = ad.matmul(Tensor(rel_pos), self.w1)
        h = self.bn(h, valid=valid, training=training, zero_invalid=zero_invalid)
        return ad.matmul(ad.relu(h), self.w2)

    def infer(self, rel_pos: np.ndarray) -> np.ndarray:
        """Eval-mode encoding in single precision, padding not zeroed
        (callers that need padded slots dead must mask downstream)."""
        h = rel_pos.astype(np.float32) @ self.w1.data.astype(np.float32)
        scale, shift = self.bn.eval_affine(np.float32)
        h *= scale
        h += shift
        np.maximum(h, 0.0, out=h)
        return h @ self.w2.data.astype(np.float32)

    def params(self):
        return [self.w1, *self.bn.params(), self.w2]

    def bn_layers(self):
        return [self.bn]


class RadiusAttention:
    def __init__(self, name: str, width: int, rng: np.random.Generator,
                 pad_mode: str = "mask"):
        if pad_mode not in PAD_MODES:
            raise ConfigError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
        self.width = width
        self.pad_mode = pad_mode

        def glorot(d_in, d_out):
            limit = np.sqrt(6.0 / (d_in + d_out))
            return rng.uniform(-limit, limit, size=(d_in, d_out))

        self.wq = Param(f"{name}.wq", glorot(width, width))
        self.wk = Param(f"{name}.wk", glorot(width, width))
        self.wv = Param(f"{name}.wv", glorot(width, width))
        self.pos = PositionalEncoder(f"{name}.pos", width, rng)
        self.mlp_w1 = Param(f"{name}.mlp_w1", glorot(width, width))
        self.mlp_bn1 = BatchNorm(f"{name}.mlp_bn1", width)
        self.mlp_w2 = Param(f"{name}.mlp_w2", glorot(width, width))
        self.mlp_bn2 = BatchNorm(f"{name}.mlp_bn2", width)

    def __call__(self, x: Tensor, nb: Neighborhood, training: bool = False,
                 return_weights: bool = False):
        if x.data.shape != (nb.n_points, self.width):
            raise ConfigError(
                f"attention input {x.data.shape} does not match "
                f"({nb.n_points}, {self.width})")
        masked = self.pad_mode == "mask"
        valid = nb.valid
        mask3 = valid[..., None].astype(np.float64)

        q = ad.matmul(x, self.wq)
        k = ad.matmul(x, self.wk)
        v = ad.matmul(x, self.wv)
        # gathering pulls row 0 into padded slots; zero them in either mode
        qk = ad.gather_rows(q - k, nb.indices) * mask3
        vg = ad.gather_rows(v, nb.indices) * mask3
        r_enc = self.pos(nb.rel_pos, valid, training, zero_invalid=masked)

        a = qk + r_enc
        a = self.mlp_bn1(a, valid=valid, training=training, zero_invalid=masked)
        a = ad.matmul(ad.relu(a), self.mlp_w1)
        a = self.mlp_bn2(a, valid=valid, training=training, zero_invalid=masked)
        a = ad.matmul(ad.relu(a), self.mlp_w2)

        softmax_valid = valid[..., None] if masked else np.ones_like(valid[..., None])
        weights = ad.masked_softmax(a, softmax_valid, axis=1)
        out = ad.reduce_sum(weights * (vg + r_enc), axis=1)
        if return_weights:
            return out, weights.data
        return out

    def infer(self, x: np.ndarray, nb: Neighborhood) -> np.ndarray:
        """Eval-mode attention in single precision without the tape.

        Same math as __call__ with training=False, restructured for
        speed: Q and K are gathered at the same indices, so (Q-K) is one
        matmul against (Wq - Wk) gathered once; in masked mode the
        values of padded slots never reach the output (the softmax and
        the weighted sum both zero them), so intermediate re-zeroing is
        skipped.  Gathered values at padded slots are copies of row 0,
        hence bounded, so the skipped masking cannot overflow the exp.
        """
        f32 = np.float32
        masked = self.pad_mode == "mask"
        n, m = nb.indices.shape
        flat = (n * m, self.width)

        dqk = x @ (self.wq.data - self.wk.data).astype(f32)
        v = x @ self.wv.data.astype(f32)
        a = dqk[nb.indices]
        vg = v[nb.indices]
        if not masked:
            mask3 = nb.valid[..., None]
            a *= mask3
            vg *= mask3
        r = self.pos.infer(nb.rel_pos)
        a += r

        scale, shift = self.mlp_bn1.eval_affine(f32)
        a *= scale
        a += shift
        np.maximum(a, 0.0, out=a)
        a = (a.reshape(flat) @ self.mlp_w1.data.astype(f32)).reshape(n, m, -1)
        scale, shift = self.mlp_bn2.eval_affine(f32)
        a *= scale
        a += shift
        np.maximum(a, 0.0, out=a)
        a = (a.reshape(flat) @ self.mlp_w2.data.astype(f32)).reshape(n, m, -1)

        # channel-wise softmax over the slot axis, padded slots excluded
        if masked:
            hi = np.where(nb.valid[..., None], a, -np.inf).max(axis=1, keepdims=True)
            np.subtract(a, np.where(np.isfinite(hi), hi, 0.0), out=a)
            np.exp(a, out=a)
            a *= nb.valid[..., None]
        else:
            np.subtract(a, a.max(axis=1, keepdims=True), out=a)
            np.exp(a, out=a)
        denom = a.sum(axis=1, keepdims=True)
        np.divide(a, np.where(denom > 0.0, denom, 1.0), out=a)

        vg += r
        return np.einsum("nmd,nmd->nd", a, vg)

    def params(self):
        return [self.wq, self.wk, self.wv, *self.pos.params(),
                self.mlp_w1, *self.mlp_bn1.params(),
                self.mlp_w2, *self.mlp_bn2.params()]

    def bn_layers(self):
        return [*self.pos.bn_layers(), self.mlp_bn1, self.mlp_bn2]
