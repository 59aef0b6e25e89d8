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

Both modes run one float64 numpy forward over only the (anchor, slot)
pairs that enter the softmax, flattened anchor by anchor: under "mask"
the valid pairs, under "zeropad" every pair.  The slot softmax and the
weighted slot sum are segment reductions (`np.maximum.reduceat`,
`np.add.reduceat`) over each anchor's contiguous run of pairs.  No run
is empty, because slot 0, the anchor itself, is always valid.  The modes
differ only in the norms.  In training mode they use the batch
statistics, taken over the valid rows, through
`autodiff.bn_forward`/`bn_backward` (shared with `BatchNorm`), and the
call records one tape node, with parents x and `self.params()` and an
analytic backward; the backward scatters the gathered rows' gradients
to the points with one `np.bincount` per array.  In eval mode
(training=False) each norm is the affine map of `BatchNorm.eval_affine`,
and the call returns a constant that nothing differentiates: it is the
reference that `infer` is tested against.

The tape-free `RadiusAttention.infer` computes the per-point maps once
per scan and then the per-(anchor, slot) rows in tiles of about
`TILE_ROWS` rows, so each tile's temporaries stay in cache.  Rows do
not interact across anchors, so the tile size sets the speed and
memory of a call, not its math.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .errors import ConfigError
from .layers import BatchNorm, Module, fold_bn, glorot
from .neighborhood import Neighborhood

PAD_MODES = ("mask", "zeropad")

# (anchor, slot) rows per tile of RadiusAttention.infer.  At width 256 a
# tile's float32 temporaries are ~0.8 MB each and stay in a core's L2
# cache across the elementwise passes; the whole-scan arrays (7.6 MB at
# 310 points and 24 slots) did not.  It stands for a cache size, not a
# model choice, and no caller needs another value, so it is a constant
# and not a config key.
TILE_ROWS = 768


class PositionalEncoder(Module):
    """W1, bn and W2 of R = relu(bn(rel_pos @ W1)) @ W2 (no biases), which
    `RadiusAttention.__call__` and `infer` compute."""

    def __init__(self, name: str, d_out: int, rng: np.random.Generator):
        self.w1 = Param(f"{name}.w1", glorot(rng, 2, 2))
        self.bn = BatchNorm(f"{name}.bn", 2)
        self.w2 = Param(f"{name}.w2", glorot(rng, 2, d_out))


class RadiusAttention(Module):
    def __init__(self, name: str, width: int, rng: np.random.Generator,
                 pad_mode: str = "mask"):
        if pad_mode not in PAD_MODES:
            raise ConfigError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
        self.width = width
        self.pad_mode = pad_mode
        self.wq = Param(f"{name}.wq", glorot(rng, width, width))
        self.wk = Param(f"{name}.wk", glorot(rng, width, width))
        self.wv = Param(f"{name}.wv", glorot(rng, width, width))
        self.pos = PositionalEncoder(f"{name}.pos", width, rng)
        self.mlp_w1 = Param(f"{name}.mlp_w1", glorot(rng, width, width))
        self.mlp_bn1 = BatchNorm(f"{name}.mlp_bn1", width)
        self.mlp_w2 = Param(f"{name}.mlp_w2", glorot(rng, width, width))
        self.mlp_bn2 = BatchNorm(f"{name}.mlp_bn2", width)

    def __call__(self, x: Tensor, nb: Neighborhood, training: bool = False,
                 return_weights: bool = False):
        if x.data.shape != (nb.n_points, self.width):
            raise ConfigError(
                f"attention input {x.data.shape} does not match "
                f"({nb.n_points}, {self.width})")
        n, m = nb.indices.shape
        pos, bn1, bn2 = self.pos, self.mlp_bn1, self.mlp_bn2
        if self.pad_mode == "mask":
            counts = nb.valid.sum(axis=1)
            stat = None  # every selected pair is valid
            nbr, rel = nb.indices[nb.valid], nb.rel_pos[nb.valid]
        else:
            counts = np.full(n, m)
            stat = nb.valid.reshape(-1)
            nbr, rel = nb.indices.reshape(-1), nb.rel_pos.reshape(-1, 2)
        # slot 0 is always valid, so every anchor's run is non-empty and
        # the run starts are strictly increasing, as reduceat needs
        starts = np.cumsum(counts) - counts
        anchor = np.repeat(np.arange(n), counts)
        caches = []

        def norm(h, bn):
            if not training:
                scale, shift = bn.eval_affine()
                return h * scale + shift
            out, mean, var, cache = ad.bn_forward(h, bn.gamma.data, bn.beta.data,
                                                  stat, BatchNorm.eps)
            bn.track(mean, var)
            caches.append(cache)
            return out

        xd = x.data
        wqk, wv = self.wq.data - self.wk.data, self.wv.data
        qk, vg = (xd @ wqk)[nbr], (xd @ wv)[nbr]
        if stat is not None:
            # gathering pulls row 0 into padded slots; zeropad sees zeros there
            keep = stat[:, None].astype(np.float64)
            qk *= keep
            vg *= keep
        rp = np.maximum(norm(rel @ pos.w1.data, pos.bn), 0.0)
        r = rp @ pos.w2.data
        h1 = np.maximum(norm(qk + r, bn1), 0.0)
        h2 = np.maximum(norm(h1 @ self.mlp_w1.data, bn2), 0.0)
        logits = h2 @ self.mlp_w2.data
        # channel-wise softmax over each anchor's run of pairs
        e = np.exp(logits - np.maximum.reduceat(logits, starts)[anchor])
        w = e / np.add.reduceat(e, starts)[anchor]
        vr = vg + r

        def backward(g):
            c0, c1, c2 = caches
            gp = g[anchor]
            dvr = w * gp
            # softmax backward in the form of autodiff.softmax
            dw = gp * vr
            dlogits = w * (dw - np.add.reduceat(dw * w, starts)[anchor])
            d_w2 = h2.T @ dlogits
            da2, dgamma2, dbeta2 = ad.bn_backward(
                (dlogits @ self.mlp_w2.data.T) * (h2 > 0.0), c2)
            d_w1 = h1.T @ da2
            da1, dgamma1, dbeta1 = ad.bn_backward(
                (da2 @ self.mlp_w1.data.T) * (h1 > 0.0), c1)
            dr = da1 + dvr
            d_pos_w2 = rp.T @ dr
            dhp, dgamma0, dbeta0 = ad.bn_backward((dr @ pos.w2.data.T) * (rp > 0.0), c0)
            dqk, dvg = (da1, dvr) if stat is None else (da1 * keep, dvr * keep)
            # scatter to the points: bincount adds into each point in pair
            # order, so the sum is bitwise that of np.add.at
            keys = (nbr[:, None] * self.width + np.arange(self.width)).reshape(-1)
            gqk, gv = (np.bincount(keys, weights=d.reshape(-1), minlength=n * self.width)
                       .reshape(n, self.width) for d in (dqk, dvg))
            d_wq = xd.T @ gqk
            # in the order of self.params(): the order the attributes are set
            grads = (d_wq, -d_wq, xd.T @ gv, rel.T @ dhp, dgamma0, dbeta0, d_pos_w2,
                     d_w1, dgamma1, dbeta1, d_w2, dgamma2, dbeta2)
            for p, grad in zip(self.params(), grads):
                p.accumulate_grad(grad)
            if x.requires_grad:
                x.accumulate_grad(gqk @ wqk.T + gv @ wv.T)

        out = Tensor(np.add.reduceat(w * vr, starts))
        if training:
            out = ad._record(out, (x, *self.params()), backward)
        if not return_weights:
            return out
        weights = w
        if stat is None:  # exact zeros at the padded slots
            weights = np.zeros((n * m, self.width))
            weights[nb.valid.reshape(-1)] = w
        return out, weights.reshape(n, m, self.width)

    def infer(self, x: np.ndarray, nb: Neighborhood) -> np.ndarray:
        """Eval-mode attention in single precision without the tape.

        Same math as __call__ with training=False.  Each eval-mode norm
        is folded into the linear map beside it on every call, in
        float64 and cast once to float32: mlp_bn1's scale into (Wq - Wk)
        (one gather, as Q and K share their indices) and into the
        positional W2 of the attention branch; mlp_bn2 into mlp_w1 plus
        a bias; the positional norm into its W1 plus a bias.  The folds
        and the per-point products x @ (Wq - Wk) and x @ Wv are made
        once per call; everything per (anchor, slot) row, from the
        positional MLP to the weighted slot sum, then runs over tiles of
        `TILE_ROWS // m` anchors of m slots, each writing its own rows
        of the output.  Slot 0, the anchor, is always valid, so each softmax
        row has a finite maximum and a denominator of at least 1: both
        pad modes share one softmax, masked mode setting the padded
        logits to -inf.
        """
        f32 = np.float32
        n, m = nb.indices.shape
        scale1, shift1 = self.mlp_bn1.eval_affine()
        pos_w1, pos_b1 = fold_bn(self.pos.w1.data, 0.0, self.pos.bn)
        mlp_w1, mlp_b1 = fold_bn(self.mlp_w1.data, 0.0, self.mlp_bn2)
        pos_w1, pos_b1 = pos_w1.astype(f32), pos_b1.astype(f32)
        pos_w2 = self.pos.w2.data.astype(f32)
        pos_w2_attn = (self.pos.w2.data * scale1).astype(f32)
        shift1 = shift1.astype(f32)
        mlp_w1, mlp_b1 = mlp_w1.astype(f32), mlp_b1.astype(f32)
        mlp_w2 = self.mlp_w2.data.astype(f32)
        qk = x @ ((self.wq.data - self.wk.data) * scale1).astype(f32)
        v = x @ self.wv.data.astype(f32)

        out = np.empty((n, self.width), dtype=f32)
        step = max(1, TILE_ROWS // m)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            idx, valid = nb.indices[rows], nb.valid[rows]
            t = len(idx)
            hp = nb.rel_pos[rows].reshape(t * m, 2).astype(f32) @ pos_w1
            hp += pos_b1
            np.maximum(hp, 0.0, out=hp)
            a, vg = qk[idx], v[idx]
            if self.pad_mode == "zeropad":
                a *= valid[..., None]
                vg *= valid[..., None]
            a = a.reshape(t * m, -1)
            a += hp @ pos_w2_attn
            a += shift1
            np.maximum(a, 0.0, out=a)
            a = a @ mlp_w1
            a += mlp_b1
            np.maximum(a, 0.0, out=a)
            a = (a @ mlp_w2).reshape(t, m, -1)

            # channel-wise softmax over the slot axis
            if self.pad_mode == "mask":
                a[~valid] = -np.inf
            a -= a.max(axis=1, keepdims=True)
            np.exp(a, out=a)
            a /= a.sum(axis=1, keepdims=True)
            vg += (hp @ pos_w2).reshape(t, m, -1)
            np.einsum("nmd,nmd->nd", a, vg, out=out[rows])
        return out
