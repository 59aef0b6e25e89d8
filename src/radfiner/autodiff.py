"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps an ndarray together with a gradient buffer and a closure
that knows how to push its gradient into its parents.  Calling
``backward(root)`` on a scalar root topologically sorts the recorded
graph and runs the closures in reverse.  A node adopts the first
gradient it receives as its ``grad`` and adds each later one out of
place, so gradients still accumulate additively and callers own zeroing
between steps.  A gradient array may be shared, as the ``grad`` of a
child or of two parents at once, so no gradient array is ever written
in place.

The op set is deliberately small: exactly what a point-transformer
style network needs (matmul, broadcast arithmetic, relu/gelu,
masked softmax, masked training-mode batch norm, integer gathers, sum
reductions).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, exc_type, exc_value, tb):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Node in the computation graph.  Data is always float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    # -- operator sugar; non-Tensor operands become constants ------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Param(Tensor):
    """Named trainable leaf.  Grad buffer exists from construction."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.requires_grad = True  # params stay trainable even inside no_grad
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.data.shape})"


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _record(out: Tensor, parents, backward) -> Tensor:
    """Attach tape metadata if recording is on and any parent needs grad."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b where a is (..., k) and b is a 2-d matrix (k, m)."""
    if b.data.ndim != 2:
        raise ValueError(f"matmul rhs must be 2-d, got shape {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            ga = a.data.reshape(-1, a.data.shape[-1])
            gg = g.reshape(-1, g.shape[-1])
            b.accumulate_grad(ga.T @ gg)

    return _record(out, (a, b), backward)


# --------------------------------------------------------------------------
# elementwise nonlinearities


def exp(a: Tensor) -> Tensor:
    # backward closes over the array, not over `out`: a node whose closure
    # held the node itself would be a reference cycle
    y = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * y)

    return _record(Tensor(y), (a,), backward)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g / a.data)

    return _record(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0.0))

    return _record(out, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * phi_cdf)

    def backward(g):
        if a.requires_grad:
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            a.accumulate_grad(g * (phi_cdf + x * pdf))

    return _record(out, (a,), backward)


# --------------------------------------------------------------------------
# softmax


def masked_softmax(a: Tensor, valid: np.ndarray, axis: int) -> Tensor:
    """Softmax along `axis` restricted to slots where `valid` is true.

    Invalid slots come out exactly 0 and receive no gradient.  A slice
    with no valid slot at all yields all zeros instead of nan.  The max
    shift is treated as a constant, so the gradient is the usual
    softmax Jacobian applied within each slice.
    """
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax axis {axis} out of range for ndim {x.ndim}")
    mask = np.broadcast_to(np.asarray(valid, dtype=bool), x.shape)
    neg = np.where(mask, x, -np.inf)
    shift = np.max(neg, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)  # all-invalid slice
    # exp(-inf) is exactly 0: an invalid logit is never exponentiated,
    # so one far above the valid ones cannot overflow into inf * 0
    ex = np.exp(neg - shift)
    denom = ex.sum(axis=axis, keepdims=True)
    safe = np.where(denom > 0.0, denom, 1.0)
    s = ex / safe

    def backward(g):
        if a.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            a.accumulate_grad(s * (g - inner))

    return _record(Tensor(s), (a,), backward)


# --------------------------------------------------------------------------
# normalization


def bn_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               mask: np.ndarray | None, zero_invalid: bool, eps: float):
    """Numpy forward of training-mode batch norm over every leading axis.

    Returns ``(out, mean, var, cache)``: the normalized array, the biased
    batch mean and variance, kept-dims shaped (1, ..., 1, D), and what
    `bn_backward` needs.  `mask` (shape x.shape[:-1], at least one true
    row) restricts the statistics to the rows it marks; with
    ``zero_invalid`` the output of the other rows is 0 and they receive
    no gradient, otherwise the batch affine acts on them too.
    """
    axes = tuple(range(x.ndim - 1))
    if mask is None:
        m = None
        count = math.prod(x.shape[:-1])
        mean = x.sum(axis=axes, keepdims=True) * (1.0 / count)
        u = cu = x - mean
    else:
        m = mask[..., None].astype(np.float64)
        count = int(mask.sum())
        mean = (x * m).sum(axis=axes, keepdims=True) * (1.0 / count)
        u = x - mean
        cu = u * m
    var = (cu * cu).sum(axis=axes, keepdims=True) * (1.0 / count)
    inv = (var + eps) ** -0.5
    xhat = (cu if zero_invalid else u) * inv
    out = xhat * gamma + beta
    s = m if zero_invalid else None
    if s is not None:
        out = out * s
    return out, mean, var, (u, xhat, inv, m, s, count, gamma)


def bn_backward(g: np.ndarray, cache, need_dx: bool = True):
    """``(dx, dgamma, dbeta)`` of `bn_forward` for the output gradient g.

    The standard analytic backward (Ioffe & Szegedy, arXiv 1502.03167)
    over the valid rows, with s = mask under ``zero_invalid`` and 1
    otherwise: dx = inv * dxhat + m * (dmean + 2 * dvar * u) / count,
    where dxhat = g * s * gamma, dmean = -inv * sum(dxhat) and
    dvar = -inv**3 / 2 * sum(dxhat * u).  dx is None unless `need_dx`.
    """
    u, xhat, inv, m, s, count, gamma = cache
    axes = tuple(range(g.ndim - 1))
    gs = g if s is None else g * s
    dgamma = (gs * xhat).sum(axis=axes)
    dbeta = gs.sum(axis=axes)
    if not need_dx:
        return None, dgamma, dbeta
    dxhat = gs * gamma
    dmean = -inv * dxhat.sum(axis=axes, keepdims=True)
    dvar = -0.5 * inv**3 * (dxhat * u).sum(axis=axes, keepdims=True)
    shift = dmean + 2.0 * dvar * u
    if m is not None:
        shift = shift * m
    return inv * dxhat + shift * (1.0 / count), dgamma, dbeta


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mask: np.ndarray | None,
               zero_invalid: bool, eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm over every leading axis, as one node with
    parents (x, gamma, beta); `bn_forward` and `bn_backward` do the math.
    Returns ``(out, mean, var)``."""
    out, mean, var, cache = bn_forward(x.data, gamma.data, beta.data, mask,
                                       zero_invalid, eps)

    def backward(g):
        dx, dgamma, dbeta = bn_backward(g, cache, need_dx=x.requires_grad)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if dx is not None:
            x.accumulate_grad(dx)

    return _record(Tensor(out), (x, gamma, beta), backward), mean, var


# --------------------------------------------------------------------------
# indexing


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Advanced indexing a[indices] along axis 0; indices may be n-d.

    Indices must be non-negative, as ``ball_query``'s are (it pads with
    row 0): the backward scatters the gradient with one ``np.bincount``
    keyed by row * width + channel, which takes no negative key.
    bincount adds into each target in index order, as ``np.add.at``
    does, so the gradient is bitwise that of the ``np.add.at`` scatter.
    """
    idx = np.asarray(indices)
    if idx.size and idx.min() < 0:
        raise ValueError("gather_rows indices must be non-negative")
    out = Tensor(a.data[idx])

    def backward(g):
        if a.requires_grad:
            width = math.prod(a.data.shape[1:])
            keys = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            acc = np.bincount(keys, weights=g.reshape(-1),
                              minlength=a.data.shape[0] * width)
            # astype: bincount over no keys returns int64 even with weights
            a.accumulate_grad(acc.reshape(a.data.shape).astype(np.float64, copy=False))

    return _record(out, (a,), backward)


# --------------------------------------------------------------------------
# reductions


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())
                return
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                expand = [slice(None)] * a.data.ndim
                for ax in sorted(ax % a.data.ndim for ax in axes):
                    expand[ax] = None
                g = g[tuple(expand)]
            a.accumulate_grad(np.broadcast_to(g, a.data.shape).copy())

    return _record(out, (a,), backward)


# --------------------------------------------------------------------------
# backward driver


def backward(root: Tensor) -> None:
    """Run reverse accumulation from a scalar root."""
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ValueError("backward root is not connected to any recorded graph")

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:  # iterative DFS; graphs get deep at scan scale
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
