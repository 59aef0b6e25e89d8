"""BatchNorm, Linear, AdamW, and gradient_check unit tests."""

import numpy as np
import pytest

from radfiner import autodiff as ad
from radfiner.attention import PAD_MODES, RadiusAttention
from radfiner.autodiff import Param, Tensor
from radfiner.gradcheck import gradient_check
from radfiner.layers import BatchNorm, Linear
from radfiner.neighborhood import ball_query
from radfiner.optim import AdamW


def test_linear_shapes_and_init_determinism():
    lin1 = Linear("l", 5, 8, np.random.default_rng(3))
    lin2 = Linear("l", 5, 8, np.random.default_rng(3))
    assert np.array_equal(lin1.weight.data, lin2.weight.data)
    assert np.all(lin1.bias.data == 0.0)
    out = lin1(Tensor(np.ones((4, 5))))
    assert out.shape == (4, 8)
    limit = np.sqrt(6.0 / 13)
    assert np.max(np.abs(lin1.weight.data)) <= limit


def test_batchnorm_training_statistics():
    r = np.random.default_rng(0)
    x = r.normal(loc=3.0, scale=2.0, size=(64, 7))
    bn = BatchNorm("bn", 7)
    out = bn(Tensor(x), training=True).data
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6


def test_batchnorm_masked_stats_ignore_padded_rows():
    r = np.random.default_rng(1)
    x = r.normal(size=(5, 6, 4))
    valid = r.random((5, 6)) > 0.4
    valid[0, 0] = True
    poisoned = x.copy()
    poisoned[~valid] = 1e9  # junk in padded slots must not leak into stats
    bn1 = BatchNorm("a", 4)
    bn2 = BatchNorm("b", 4)
    out1 = bn1(Tensor(x), valid=valid, training=True).data
    out2 = bn2(Tensor(poisoned), valid=valid, training=True).data
    assert np.allclose(out1[valid], out2[valid], atol=1e-9)
    assert np.all(out2[~valid] == 0.0)
    assert np.allclose(bn1.running_mean, bn2.running_mean, atol=1e-12)
    # valid rows are normalized
    flat = out1[valid]
    assert np.max(np.abs(flat.mean(axis=0))) < 1e-9
    assert np.max(np.abs(flat.var(axis=0) - 1.0)) < 1e-6


def test_batchnorm_running_stats_update_and_eval():
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    bn = BatchNorm("bn", 2)
    bn(Tensor(x), training=True)
    # one step from (0, 1): 0.9*init + 0.1*batch
    assert np.allclose(bn.running_mean, 0.1 * np.array([2.0, 20.0]))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 100.0]))
    bn.track_stats = False
    before = bn.running_mean.copy()
    bn(Tensor(x), training=True)
    assert np.array_equal(bn.running_mean, before)
    # eval applies running affine, no batch stats involved
    bn.gamma.data[:] = 2.0
    bn.beta.data[:] = 1.0
    y = bn(Tensor(x), training=False).data
    expected = 2.0 * (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) + 1.0
    assert np.allclose(y, expected, atol=1e-12)


def test_batchnorm_zero_invalid_false_keeps_padded_rows_alive():
    r = np.random.default_rng(2)
    x = r.normal(size=(4, 3, 2))
    valid = np.ones((4, 3), dtype=bool)
    valid[:, 2] = False
    bn = BatchNorm("bn", 2)
    out = bn(Tensor(x), valid=valid, training=True, zero_invalid=False).data
    assert np.any(out[~valid] != 0.0)


def test_batchnorm_rejects_bad_shapes_and_empty_mask():
    bn = BatchNorm("bn", 3)
    with pytest.raises(ValueError):
        bn(Tensor(np.zeros((2, 4))), training=True)
    with pytest.raises(ValueError):
        bn(Tensor(np.zeros((2, 3))), valid=np.zeros((2,), dtype=bool), training=True)


def test_batchnorm_gradients_flow():
    r = np.random.default_rng(5)
    for masked, zero_invalid in [(False, True), (True, True), (True, False)]:
        x = r.normal(size=(4, 3, 3)) if masked else r.normal(size=(6, 3))
        w = r.normal(size=x.shape)
        valid = None
        if masked:
            valid = r.random(x.shape[:-1]) > 0.35
            valid[0, 0] = valid[1, 2] = False
            valid[0, 1] = True
        bn = BatchNorm("bn", 3)
        bn.track_stats = False
        bn.gamma.data[:] = r.normal(size=3)
        bn.beta.data[:] = r.normal(size=3)
        xt = Param("x", x)

        def loss_fn():
            out = bn(xt, valid=valid, training=True, zero_invalid=zero_invalid)
            return ad.reduce_sum(out * w)

        report = gradient_check(loss_fn, [xt, bn.gamma, bn.beta], h=1e-5)
        assert report.max_rel_error < 1e-6, (masked, zero_invalid)


def test_batchnorm_training_call_is_one_tape_node():
    r = np.random.default_rng(6)
    x = Param("x", r.normal(size=(5, 4, 3)))
    bn = BatchNorm("bn", 3)
    out = bn(x, valid=r.random((5, 4)) > 0.3, training=True)
    assert out.requires_grad and out._backward is not None
    assert len(out._parents) == 3
    assert all(a is b for a, b in zip(out._parents, (x, bn.gamma, bn.beta)))
    assert all(p._backward is None for p in out._parents)


@pytest.mark.parametrize("pad_mode", PAD_MODES)
def test_attention_training_call_is_one_tape_node(pad_mode):
    r = np.random.default_rng(7)
    nb = ball_query(r.uniform(-3, 3, size=(9, 2)), 2.0, 4)
    layer = RadiusAttention("attn", 5, r, pad_mode)
    x = Param("x", r.normal(size=(9, 5)))
    out = layer(x, nb, training=True)
    assert out.requires_grad and out._backward is not None
    assert len(out._parents) == 14
    assert all(a is b for a, b in zip(out._parents, (x, *layer.params())))
    assert all(p._backward is None for p in out._parents)


def _pow_node(a, c):
    """Tape node for a ** c, c constant: the op the reference below used."""
    def backward(g):
        a.accumulate_grad(g * c * a.data ** (c - 1.0))

    return ad._record(Tensor(a.data**c), (a,), backward)


def _primitive_bn(bn, x, valid, zero_invalid):
    """Training-mode BatchNorm composed from tape primitives, as it was
    before it became one node: the oracle for forward bytes and gradients."""
    if valid is not None:
        mask_col = valid[..., None].astype(np.float64)
        count = int(valid.sum())
    else:
        mask_col = None
        count = int(np.prod(x.data.shape[:-1]))
    axes = tuple(range(x.data.ndim - 1))
    xm = x * mask_col if mask_col is not None else x
    mean = ad.reduce_sum(xm, axis=axes, keepdims=True) * (1.0 / count)
    centered = x - mean
    if mask_col is not None:
        centered = centered * mask_col
    var = ad.reduce_sum(centered * centered, axis=axes, keepdims=True) * (1.0 / count)
    inv = _pow_node(var + bn.eps, -0.5)
    if mask_col is not None and not zero_invalid:
        centered = x - mean
    out = centered * inv * bn.gamma + bn.beta
    if mask_col is not None and zero_invalid:
        out = out * mask_col
    m = bn.momentum
    running_mean = (1.0 - m) * bn.running_mean + m * mean.data.reshape(-1)
    running_var = (1.0 - m) * bn.running_var + m * var.data.reshape(-1)
    return out, running_mean, running_var, inv.data


def _rel_err(got, want, scale=0.0):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), scale, 1e-300)


@pytest.mark.parametrize("mode", ["unmasked", "zero_invalid", "keep_invalid"])
def test_batchnorm_node_matches_primitive_graph(mode):
    r = np.random.default_rng(11)
    cases = [(int(r.integers(1, 8)), int(r.integers(1, 7)), int(r.integers(1, 6)))
             for _ in range(30)]
    for k, shape in enumerate(cases):
        x = r.normal(loc=r.normal(scale=3.0), scale=r.uniform(0.1, 5.0), size=shape)
        valid = None
        if mode != "unmasked":
            valid = r.random(shape[:2]) > r.uniform(0.1, 0.9)
            if k % 5 == 0:
                valid[:] = False  # exactly one valid row
            valid.flat[r.integers(valid.size)] = True
            x[~valid] = r.normal(scale=1e6, size=(int((~valid).sum()), shape[2]))
        w = r.normal(size=shape)
        fused, prim = BatchNorm("a", shape[2]), BatchNorm("b", shape[2])
        for bn in (fused, prim):
            bn.gamma.data[:] = np.linspace(0.5, 2.0, shape[2])
            bn.beta.data[:] = np.linspace(-1.0, 1.0, shape[2])
            bn.running_mean[:] = 0.25
        xf, xp = Param("xf", x), Param("xp", x)
        zero_invalid = mode != "keep_invalid"

        out_f = fused(xf, valid=valid, training=True, zero_invalid=zero_invalid)
        out_p, mean_p, var_p, inv = _primitive_bn(prim, xp, valid, zero_invalid)
        assert out_f.data.tobytes() == out_p.data.tobytes()
        assert fused.running_mean.tobytes() == mean_p.tobytes()
        assert fused.running_var.tobytes() == var_p.tobytes()

        ad.backward(ad.reduce_sum(out_f * w))
        ad.backward(ad.reduce_sum(out_p * w))
        # x.grad sums terms of size inv * |w * gamma| that cancel to O(eps)
        # where a channel has two valid rows; rounding is relative to them
        terms = np.max(inv * np.abs(w * prim.gamma.data))
        assert _rel_err(xf.grad, xp.grad, terms) <= 1e-12, (k, shape)
        assert _rel_err(fused.gamma.grad, prim.gamma.grad) <= 1e-12, (k, shape)
        assert _rel_err(fused.beta.grad, prim.beta.grad) <= 1e-12, (k, shape)
        if mode == "zero_invalid":
            assert np.all(xf.grad[~valid] == 0.0)


def test_adamw_single_step_matches_hand_formula():
    p = Param("p", np.array([1.0]))
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    p.grad[:] = 0.5
    opt.step()
    mhat = 0.5  # (0.1 * 0.5) / (1 - 0.9)
    vhat = 0.25  # (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.01 * 1.0)
    assert abs(p.data[0] - expected) < 1e-15
    assert np.all(p.grad == 0.0)  # step consumes the gradient


def test_adamw_decay_is_decoupled_from_gradient():
    p = Param("p", np.array([4.0]))
    opt = AdamW([p], lr=0.1, weight_decay=0.5)
    p.grad[:] = 0.0  # moments stay 0, only decay acts
    opt.step()
    assert abs(p.data[0] - (4.0 - 0.1 * 0.5 * 4.0)) < 1e-15


def test_adamw_constant_gradient_two_steps():
    p = Param("p", np.array([0.0]))
    opt = AdamW([p], lr=0.01, weight_decay=0.0)
    for _ in range(2):
        p.grad[:] = 1.0
        opt.step()
    # bias correction keeps mhat/sqrt(vhat) == 1 for a constant gradient
    assert abs(p.data[0] + 0.02) < 1e-9


def test_adamw_rejects_bad_hyperparams_and_nonfinite_grad():
    p = Param("p", np.array([1.0]))
    with pytest.raises(ValueError):
        AdamW([p], lr=0.0)
    with pytest.raises(ValueError):
        AdamW([p], weight_decay=-1.0)
    with pytest.raises(ValueError):
        AdamW([p, Param("p", np.array([2.0]))])
    opt = AdamW([p])
    p.grad[:] = np.nan
    with pytest.raises(FloatingPointError):
        opt.step()


def test_gradient_check_exact_on_quadratic():
    p = Param("p", np.array([1.0, -2.0, 3.0]))
    w = np.array([0.5, 1.5, -2.5])

    def loss_fn():
        return ad.reduce_sum(p * p * w)

    report = gradient_check(loss_fn, [p], h=1e-5)
    assert report.max_rel_error < 1e-9
    assert set(report.per_param) == {"p"}


def test_gradient_check_detects_mismatch_at_relu_kink():
    # analytic subgradient at 0 is 0; central difference sees 0.5
    p = Param("p", np.array([0.0]))

    def loss_fn():
        return ad.reduce_sum(ad.relu(p))

    report = gradient_check(loss_fn, [p], h=1e-5)
    assert report.max_rel_error > 0.9


def test_gradient_check_report_table():
    p = Param("alpha", np.array([2.0]))
    q = Param("beta", np.array([3.0]))

    def loss_fn():
        return ad.reduce_sum(p * p) + ad.reduce_sum(q * q * 2.0)

    report = gradient_check(loss_fn, [p, q], h=1e-5)
    table = report.format_table()
    assert "alpha" in table and "beta" in table and "WORST" in table
