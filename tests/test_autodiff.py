"""Finite-difference checks for every differentiable primitive.

Each op gets a central-difference oracle at h=1e-6 on random float64
inputs; relative error must stay below 1e-7 (float64 headroom is ~1e-10
for these sizes, so this margin is generous but still catches any wrong
Jacobian term).
"""

import gc
import weakref

import numpy as np
import pytest

from radfiner import autodiff as ad
from radfiner.losses import total_loss
from radfiner.network import RadFinerNet, toy_config


def _numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f1 = fn()
        flat[i] = orig - h
        f2 = fn()
        flat[i] = orig
        gflat[i] = (f1 - f2) / (2.0 * h)
    return g


def _check(build, *arrays, tol=1e-7):
    """build(tensors...) -> scalar Tensor; checks grad of every input."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    ad.backward(out)
    for t, a in zip(tensors, arrays):
        num = _numeric_grad(lambda: float(build(*[ad.Tensor(x.data) for x in tensors]).data), a)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-8)
        rel = np.max(np.abs(t.grad - num) / denom)
        assert rel < tol, f"rel err {rel:.3e}"


def _rng():
    return np.random.default_rng(7)


def test_add_sub_mul_div_broadcast():
    r = _rng()
    a = r.normal(size=(3, 4))
    b = r.normal(size=(4,))
    _check(lambda x, y: ad.reduce_sum(x + y), a, b)
    _check(lambda x, y: ad.reduce_sum(x - y), a, b)
    _check(lambda x, y: ad.reduce_sum(x * y), a, b)


def test_matmul_2d_and_batched():
    r = _rng()
    a = r.normal(size=(4, 3))
    w = r.normal(size=(3, 5))
    _check(lambda x, y: ad.reduce_sum(ad.matmul(x, y) * 0.1), a, w)
    batched = r.normal(size=(2, 4, 3))
    _check(lambda x, y: ad.reduce_sum(ad.matmul(x, y) * 0.1), batched, w)


def test_matmul_rejects_nd_rhs():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        ad.matmul(a, b)


def test_exp_log():
    r = _rng()
    a = r.normal(size=(6,))
    pos = np.abs(a) + 0.3
    _check(lambda x: ad.reduce_sum(ad.exp(x)), a)
    _check(lambda x: ad.reduce_sum(ad.log(x)), pos)


def test_gelu_point_values():
    assert float(ad.gelu(ad.Tensor(0.0)).data) == 0.0
    # gelu(1) = 1 * Phi(1)
    assert abs(float(ad.gelu(ad.Tensor(1.0)).data) - 0.8413447460685429) < 1e-12


def test_gelu_gradient():
    r = _rng()
    a = r.normal(size=(8,)) * 2.0
    _check(lambda x: ad.reduce_sum(ad.gelu(x)), a)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 2.0]])
    a = ad.softmax(ad.Tensor(x), axis=1).data
    b = ad.softmax(ad.Tensor(x + 500.0), axis=1).data
    assert np.allclose(a, b, atol=1e-12)
    assert np.all(np.isfinite(b))
    ref = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    assert np.allclose(a, ref, atol=1e-12)


def test_softmax_gradient():
    r = _rng()
    x = r.normal(size=(3, 5))
    w = r.normal(size=(3, 5))  # random linear functional downstream
    for axis in (0, 1):
        _check(lambda t: ad.reduce_sum(ad.softmax(t, axis=axis) * w), x)


def test_softmax_axis_out_of_range():
    with pytest.raises(ValueError):
        ad.softmax(ad.Tensor(np.zeros((2, 3))), axis=2)


def test_reduce_sum_axes_and_keepdims():
    r = _rng()
    a = r.normal(size=(2, 3, 4))
    w = r.normal(size=(3,))
    _check(lambda x: ad.reduce_sum(ad.reduce_sum(x, axis=(0, 2)) * w), a)
    w2 = r.normal(size=(2, 1, 4))
    _check(lambda x: ad.reduce_sum(ad.reduce_sum(x, axis=1, keepdims=True) * w2), a)


def test_backward_requires_scalar_root():
    t = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(t + t)


def test_backward_requires_recorded_graph():
    t = ad.Tensor(3.0)  # constant, nothing recorded
    with pytest.raises(ValueError):
        ad.backward(t * 2.0)


def test_grad_accumulates_across_backward_calls():
    p = ad.Param("p", np.array([2.0]))
    out1 = ad.reduce_sum(p * 3.0)
    ad.backward(out1)
    out2 = ad.reduce_sum(p * 3.0)
    ad.backward(out2)
    assert np.allclose(p.grad, 6.0)  # additive: callers own zeroing
    p.zero_grad()
    assert np.all(p.grad == 0.0)


def test_no_grad_suppresses_recording():
    p = ad.Param("p", np.array([1.0, 2.0]))
    with ad.no_grad():
        out = ad.reduce_sum(p * p)
    assert not out.requires_grad
    with pytest.raises(ValueError):
        ad.backward(out)


def test_quadratic_gradient_is_exact():
    # d/dx sum(x^2) = 2x; tape must agree to float64 roundoff
    r = _rng()
    x = r.normal(size=(10,))
    t = ad.Tensor(x, requires_grad=True)
    ad.backward(ad.reduce_sum(t * t))
    assert np.max(np.abs(t.grad - 2.0 * x)) < 1e-12


def test_diamond_graph_accumulates_once_per_path():
    p = ad.Param("p", np.array(1.5))
    b = p * 2.0
    c = p * 3.0
    out = b * c  # d/dp (6 p^2) = 12 p
    ad.backward(out)
    assert np.allclose(p.grad, 12.0 * 1.5)


def test_adopted_gradient_is_never_written_in_place():
    # both leaves of a sum adopt one gradient array; a later backward that
    # reaches one of them must leave the other's gradient as it was
    r = _rng()
    a = ad.Tensor(r.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(r.normal(size=(3, 4)), requires_grad=True)
    ad.backward(ad.reduce_sum(a + b))
    b_grad = b.grad.copy()
    ad.backward(ad.reduce_sum(a * 3.0))
    assert np.array_equal(b.grad, b_grad)
    assert np.array_equal(a.grad, np.full((3, 4), 4.0))


def test_every_gradient_has_its_data_shape_and_dtype():
    r = _rng()
    net = RadFinerNet(toy_config())
    coords = r.uniform(-5, 5, size=(11, 2))
    feats = np.zeros((11, 5))
    feats[:, 0:2] = coords
    logits = net.forward(coords, feats, training=True)
    loss, _ = total_loss(logits, r.integers(0, 6, 11), r.integers(0, 3, 11))
    ad.backward(loss)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert node.grad.shape == node.data.shape, repr(node)
        assert node.grad.dtype == np.float64, repr(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    assert len(seen) > 100


def test_graph_is_freed_by_reference_counting():
    # a backward closure that holds its own output node makes the graph a
    # reference cycle, which lives on until the cyclic collector runs
    r = _rng()
    gc.collect()
    gc.disable()
    try:
        probs = ad.softmax(ad.Tensor(r.normal(size=(3, 5)), requires_grad=True), axis=1)
        loss = ad.exp(ad.reduce_sum(probs * r.normal(size=(3, 5))))
        ad.backward(loss)
        # Tensor has no weakref slot; its data array dies with it
        alive = [weakref.ref(loss.data), weakref.ref(probs.data)]
        del loss, probs
        assert [ref() for ref in alive] == [None, None]

        # one whole training step leaves no cyclic garbage either
        net = RadFinerNet(toy_config())
        coords = r.uniform(-5, 5, size=(9, 2))
        feats = np.zeros((9, 5))
        feats[:, 0:2] = coords
        logits = net.forward(coords, feats, training=True)
        loss, _ = total_loss(logits, r.integers(0, 6, 9), r.integers(0, 3, 9))
        ad.backward(loss)
        del logits, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
