"""Radius attention against an explicit loop-nest reference.

The reference below re-derives the layer from the written equations
with plain Python loops and its own batch-norm arithmetic, so the
vectorized implementation and the reference share no code.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radfiner import autodiff as ad
from radfiner.attention import RadiusAttention
from radfiner.autodiff import Param, Tensor
from radfiner.errors import ConfigError
from radfiner.gradcheck import gradient_check
from radfiner.neighborhood import ball_query


def _bn_ref(x, valid, bn, training, eps=1e-8):
    """Training mode: biased statistics of the valid rows; eval mode: the
    running statistics.  The padded rows are then zeroed (they carry no
    weight either way)."""
    if training:
        rows = x[valid]
        mean = rows.mean(axis=0)
        var = ((rows - mean) ** 2).mean(axis=0)
    else:
        mean, var = bn.running_mean, bn.running_var
    out = bn.gamma.data * (x - mean) / np.sqrt(var + eps) + bn.beta.data
    return np.where(valid[..., None], out, 0.0)


def _loop_attention(x, nb, layer, training=True):
    """Equation-by-equation reference, batch norm of the given mode."""
    n, d = x.shape
    m = nb.indices.shape[1]
    wq, wk, wv = layer.wq.data, layer.wk.data, layer.wv.data
    q, k, v = x @ wq, x @ wk, x @ wv

    pos_h = np.zeros((n, m, 2))
    for i in range(n):
        for j in range(m):
            pos_h[i, j] = nb.rel_pos[i, j] @ layer.pos.w1.data
    pos_h = _bn_ref(pos_h, nb.valid, layer.pos.bn, training)
    r_enc = np.maximum(pos_h, 0.0) @ layer.pos.w2.data

    a = np.zeros((n, m, d))
    for i in range(n):
        for j in range(m):
            if nb.valid[i, j]:
                nj = nb.indices[i, j]
                a[i, j] = (q[nj] - k[nj]) + r_enc[i, j]
    a = _bn_ref(a, nb.valid, layer.mlp_bn1, training)
    a = np.maximum(a, 0.0) @ layer.mlp_w1.data
    a = _bn_ref(a, nb.valid, layer.mlp_bn2, training)
    a = np.maximum(a, 0.0) @ layer.mlp_w2.data

    weights = np.zeros((n, m, d))
    out = np.zeros((n, d))
    for i in range(n):
        slots = [j for j in range(m) if nb.valid[i, j]]
        for c in range(d):
            logits = [a[i, j, c] for j in slots]
            e = np.exp(np.array(logits) - max(logits))
            w = e / e.sum()
            for j, wj in zip(slots, w):
                weights[i, j, c] = wj
        for j in slots:
            out[i] += weights[i, j] * (v[nb.indices[i, j]] + r_enc[i, j])
    return out, weights


def _random_setup(seed, n=9, d=6, radius=3.0, n_max=4):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4, 4, size=(n, 2))
    x = rng.normal(size=(n, d))
    nb = ball_query(pts, radius, n_max)
    layer = RadiusAttention("attn", d, np.random.default_rng(seed + 1))
    # nonzero beta/gamma jitter so the norm affine actually does something
    for bn in layer.bn_layers():
        bn.gamma.data += rng.normal(scale=0.1, size=bn.gamma.data.shape)
        bn.beta.data += rng.normal(scale=0.1, size=bn.beta.data.shape)
    # running statistics away from (0, 1), for the eval-mode norms
    for bn in layer.bn_layers():
        bn.running_mean = rng.normal(scale=0.5, size=bn.width)
        bn.running_var = np.exp(rng.normal(scale=0.5, size=bn.width))
    return x, nb, layer


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_loop_reference(seed):
    x, nb, layer = _random_setup(seed)
    out, weights = layer(Tensor(x), nb, training=True, return_weights=True)
    ref_out, ref_w = _loop_attention(x, nb, layer)
    assert np.allclose(weights, ref_w, atol=1e-9)
    assert np.allclose(out.data, ref_out, atol=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 10), n_max=st.integers(1, 6),
       d=st.integers(1, 5), radius=st.sampled_from([0.01, 1.0, 3.0, 100.0]),
       training=st.booleans())
@example(seed=0, n=1, n_max=3, d=2, radius=1.0, training=True)
@example(seed=1, n=6, n_max=1, d=3, radius=3.0, training=True)
@example(seed=2, n=5, n_max=4, d=3, radius=0.01, training=True)  # isolated
@example(seed=3, n=8, n_max=5, d=4, radius=100.0, training=True)  # full rows
@example(seed=4, n=1, n_max=3, d=2, radius=1.0, training=False)
@example(seed=5, n=7, n_max=4, d=3, radius=3.0, training=False)
def test_training_forward_matches_loop_reference_property(seed, n, n_max, d, radius,
                                                          training):
    x, nb, layer = _random_setup(seed, n=n, d=d, radius=radius, n_max=n_max)
    ref_out, ref_w = _loop_attention(x, nb, layer, training)
    out, weights = layer(Tensor(x), nb, training=training, return_weights=True)
    assert out.requires_grad == training
    assert weights.shape == (n, n_max, d)
    assert np.allclose(weights, ref_w, atol=1e-9)
    assert np.allclose(out.data, ref_out, atol=1e-9)
    assert np.all(weights[~nb.valid] == 0.0)


def test_eval_on_batch_statistics_equals_training():
    # eval mode differs from training mode only in where the norms take
    # their statistics: handed one training call's batch statistics as
    # running estimates, it must give that call's output
    x, nb, layer = _random_setup(16, n=14, d=5, n_max=5)
    assert np.any(~nb.valid), "setup must contain padded slots"
    for bn in layer.bn_layers():
        bn.momentum = 1.0  # the running estimates become the batch statistics
    layer(Tensor(x), nb, training=True)
    # the repeat call re-tracks the same batch statistics
    train_out, train_w = layer(Tensor(x), nb, training=True, return_weights=True)
    eval_out, eval_w = layer(Tensor(x), nb, training=False, return_weights=True)
    for got, want in ((eval_out.data, train_out.data), (eval_w, train_w)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_weights_sum_to_one_over_valid_slots():
    x, nb, layer = _random_setup(11)
    _, weights = layer(Tensor(x), nb, training=True, return_weights=True)
    sums = weights.sum(axis=1)  # (N, D)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(weights[~nb.valid] == 0.0)
    assert np.all(weights >= 0.0)


def test_isolated_point_attends_to_itself():
    pts = np.array([[0.0, 0.0], [50.0, 50.0], [50.0, 51.0]])
    nb = ball_query(pts, radius=2.0, n_max=3)
    d = 4
    x = np.random.default_rng(0).normal(size=(3, d))
    layer = RadiusAttention("attn", d, np.random.default_rng(1))
    out, weights = layer(Tensor(x), nb, training=True, return_weights=True)
    # point 0 has only slot 0 valid: full weight there
    assert np.allclose(weights[0, 0], 1.0, atol=1e-12)
    assert np.all(weights[0, 1:] == 0.0)


def test_permutation_consistency():
    x, nb, layer = _random_setup(13, n=12)
    rng = np.random.default_rng(99)
    pts = rng.uniform(-4, 4, size=(12, 2))
    feats = rng.normal(size=(12, 6))
    perm = rng.permutation(12)
    # freeze running stats and compare in eval mode: row order must not matter
    out_a = layer(Tensor(feats), ball_query(pts, 3.0, 4), training=False).data
    out_b = layer(Tensor(feats[perm]), ball_query(pts[perm], 3.0, 4),
                  training=False).data
    assert np.allclose(out_a[perm], out_b, atol=1e-9)


def test_attention_gradients():
    # every parameter of one block at D=8 over 12 points
    x, nb, layer = _random_setup(14, n=12, d=8, n_max=4)
    xt = Param("x", x)
    w = np.random.default_rng(5).normal(size=(12, 8))

    def loss_fn():
        return ad.reduce_sum(layer(xt, nb, training=True) * w)

    report = gradient_check(loss_fn, [xt, *layer.params()], h=1e-5)
    assert report.max_rel_error < 1e-4


def test_x_gradient_scatter_matches_add_at_bitwise(monkeypatch):
    # the backward scatters the pairs' gradients to their neighbours with
    # one np.bincount per array (q - k, then v), keyed point by point in
    # pair order; into each point it must add as np.add.at does.  Points on
    # a half-step grid repeat, so each is a neighbour many times over, and
    # the upstream gradient spans 16 decades, so another order of the sum
    # changes the bytes
    rng = np.random.default_rng(17)
    pts = rng.integers(0, 5, size=(40, 2)) * 0.5
    nb = ball_query(pts, 1.0, 7)
    d = 5
    layer = RadiusAttention("attn", d, np.random.default_rng(18))
    x = rng.normal(size=(40, d))
    w = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-8, 8, size=(40, d))
    pairs = nb.indices[nb.valid]
    pair_keys = (pairs[:, None] * d + np.arange(d)).reshape(-1)
    assert len(np.unique(pairs)) < len(pairs) // 4

    def x_grad():
        xt = Tensor(x, requires_grad=True)
        ad.backward(ad.reduce_sum(layer(xt, nb, training=True) * w))
        return xt.grad

    calls = []

    def add_at(keys, weights, minlength):
        calls.append(np.array_equal(keys, pair_keys))
        out = np.zeros(minlength)
        np.add.at(out, keys, weights)
        return out

    got = x_grad()
    monkeypatch.setattr(np, "bincount", add_at)
    want = x_grad()
    assert calls == [True, True]
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_cap_monotonicity():
    # once the cap exceeds every row population, widening it is a no-op
    rng = np.random.default_rng(21)
    pts = rng.uniform(-3, 3, size=(10, 2))
    feats = rng.normal(size=(10, 5))
    layer = RadiusAttention("attn", 5, np.random.default_rng(2))
    outs = []
    for n_max in (10, 17, 40):
        nb = ball_query(pts, 4.0, n_max)
        outs.append(layer(Tensor(feats), nb, training=False).data)
    assert np.allclose(outs[0], outs[1], atol=0)
    assert np.allclose(outs[1], outs[2], atol=0)


def test_locality_perturbation_outside_radius_changes_nothing():
    # two clusters farther apart than r: junk injected into one cluster's
    # features must leave the other cluster's rows bitwise unchanged
    rng = np.random.default_rng(22)
    left = rng.uniform(-1, 1, size=(5, 2))
    right = rng.uniform(-1, 1, size=(4, 2)) + 30.0
    pts = np.vstack([left, right])
    feats = rng.normal(size=(9, 6))
    layer = RadiusAttention("attn", 6, np.random.default_rng(3))
    nb = ball_query(pts, 2.5, 4)
    base = layer(Tensor(feats), nb, training=False).data
    poked = feats.copy()
    poked[5:] += rng.normal(scale=100.0, size=(4, 6))
    out = layer(Tensor(poked), nb, training=False).data
    assert np.array_equal(base[:5], out[:5])
    assert not np.allclose(base[5:], out[5:])


def test_shape_mismatch_rejected():
    x, nb, layer = _random_setup(15)
    with pytest.raises(ConfigError):
        layer(Tensor(np.zeros((3, 6))), nb)


def test_infer_peak_memory_is_bounded_by_the_tile():
    # criterion-8-sized block 2 (width 256, 24 slots, ~350 points): the
    # whole-scan (anchor, slot) temporaries would be 8.2 MB each, so a
    # peak under 8 MB shows that infer only holds one tile of them
    rng = np.random.default_rng(0)
    layer = RadiusAttention("attn", 256, rng)
    nb = ball_query(rng.uniform([0, -15], [30, 15], (350, 2)), 5.0, 24)
    x = rng.normal(size=(350, 256)).astype(np.float32)
    tracemalloc.start()
    try:
        out = layer.infer(x, nb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (350, 256)
    assert peak < 8 * 2**20, f"infer peaked at {peak / 2**20:.1f} MB"
