"""Finite-difference checks for every differentiable primitive.

Each op gets a central-difference oracle at h=1e-6 on random float64
inputs; relative error must stay below 1e-7 (float64 headroom is ~1e-10
for these sizes, so this margin is generous but still catches any wrong
Jacobian term).
"""

import numpy as np
import pytest

from radfiner import autodiff as ad


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
        num = _numeric_grad(lambda: build(*[ad.Tensor(x.data) for x in tensors]).item(), a)
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


def test_pow_const():
    r = _rng()
    a = np.abs(r.normal(size=(5,))) + 0.5
    _check(lambda x: ad.reduce_sum(x**-0.5), a)
    _check(lambda x: ad.reduce_sum(x**3), a)


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


def test_exp_log_relu():
    r = _rng()
    a = r.normal(size=(6,))
    pos = np.abs(a) + 0.3
    _check(lambda x: ad.reduce_sum(ad.exp(x)), a)
    _check(lambda x: ad.reduce_sum(ad.log(x)), pos)
    # keep relu inputs away from the kink where the subgradient is ambiguous
    off_kink = a + np.sign(a) * 0.05
    _check(lambda x: ad.reduce_sum(ad.relu(x)), off_kink)


def test_relu_and_gelu_point_values():
    assert ad.relu(ad.Tensor(-3.0)).item() == 0.0
    assert ad.gelu(ad.Tensor(0.0)).item() == 0.0
    # gelu(1) = 1 * Phi(1)
    assert abs(ad.gelu(ad.Tensor(1.0)).item() - 0.8413447460685429) < 1e-12


def test_gelu_gradient():
    r = _rng()
    a = r.normal(size=(8,)) * 2.0
    _check(lambda x: ad.reduce_sum(ad.gelu(x)), a)


def test_masked_softmax_forward_contracts():
    r = _rng()
    x = r.normal(size=(4, 6))
    valid = r.random(size=(4, 6)) > 0.3
    valid[0] = False  # an all-invalid row must come out all zero
    valid[1] = True
    out = ad.masked_softmax(ad.Tensor(x), valid, axis=1).data
    assert np.all(out[0] == 0.0)
    assert np.all(out[~valid] == 0.0)
    sums = out.sum(axis=1)
    assert np.allclose(sums[1:], 1.0, atol=1e-12)
    assert sums[0] == 0.0
    # plain softmax agreement when everything is valid
    ref = np.exp(x[1] - x[1].max())
    ref /= ref.sum()
    assert np.allclose(out[1], ref, atol=1e-12)


def test_masked_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]])
    valid = np.ones_like(x, dtype=bool)
    a = ad.masked_softmax(ad.Tensor(x), valid, axis=1).data
    b = ad.masked_softmax(ad.Tensor(x + 500.0), valid, axis=1).data
    assert np.allclose(a, b, atol=1e-12)
    assert np.all(np.isfinite(b))


def test_masked_softmax_gradient():
    r = _rng()
    x = r.normal(size=(3, 5))
    valid = np.ones((3, 5), dtype=bool)
    valid[1, 2:] = False
    w = r.normal(size=(3, 5))  # random linear functional downstream

    def build(t):
        return ad.reduce_sum(ad.masked_softmax(t, valid, axis=1) * w)

    _check(build, x)


def test_masked_softmax_axis_out_of_range():
    with pytest.raises(ValueError):
        ad.masked_softmax(ad.Tensor(np.zeros((2, 3))), np.ones((2, 3), bool), axis=2)


def test_gather_rows_accumulates_duplicates():
    r = _rng()
    a = r.normal(size=(5, 3))
    idx = np.array([[0, 0], [4, 2]])
    w = r.normal(size=(2, 2, 3))
    _check(lambda x: ad.reduce_sum(ad.gather_rows(x, idx) * w), a)
    t = ad.Tensor(a, requires_grad=True)
    out = ad.gather_rows(t, idx)
    ad.backward(ad.reduce_sum(out))
    assert np.allclose(t.grad[0], 2.0)  # row 0 gathered twice
    assert np.allclose(t.grad[1], 0.0)
    assert np.allclose(t.grad[3], 0.0)


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
