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

The op set is deliberately small: exactly what the network's tape
needs outside its attention layers (matmul, broadcast arithmetic, exp,
log, gelu, softmax, training-mode batch norm, sum reductions).  The
attention layers record one node each, computed in numpy; they share
the batch-norm math `bn_forward`/`bn_backward` with `batch_norm`.
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


def softmax(a: Tensor, axis: int) -> Tensor:
    """exp(x - max) / sum along `axis`.  The max shift is treated as a
    constant, so the gradient is the usual softmax Jacobian applied
    within each slice."""
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax axis {axis} out of range for ndim {x.ndim}")
    ex = np.exp(x - np.max(x, axis=axis, keepdims=True))
    s = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            a.accumulate_grad(s * (g - inner))

    return _record(Tensor(s), (a,), backward)


# --------------------------------------------------------------------------
# normalization


def bn_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               mask: np.ndarray | None, eps: float):
    """Numpy forward of training-mode batch norm over every leading axis.

    Returns ``(out, mean, var, cache)``: the normalized array, the biased
    batch mean and variance, kept-dims shaped (1, ..., 1, D), and what
    `bn_backward` needs.  `mask` (shape x.shape[:-1]) restricts the
    statistics to the rows it marks; the batch affine acts on every row.
    There must be at least one row to take statistics over.
    """
    axes = tuple(range(x.ndim - 1))
    if mask is None:
        m = None
        count = math.prod(x.shape[:-1])
    else:
        m = mask[..., None].astype(np.float64)
        count = int(mask.sum())
    if count == 0:
        raise ValueError("batch norm over no valid rows")
    xm = x if m is None else x * m
    mean = xm.sum(axis=axes, keepdims=True) * (1.0 / count)
    u = x - mean
    cu = u if m is None else u * m
    var = (cu * cu).sum(axis=axes, keepdims=True) * (1.0 / count)
    inv = (var + eps) ** -0.5
    xhat = u * inv
    return xhat * gamma + beta, mean, var, (u, xhat, inv, m, count, gamma)


def bn_backward(g: np.ndarray, cache):
    """``(dx, dgamma, dbeta)`` of `bn_forward` for the output gradient g.

    The standard analytic backward (Ioffe & Szegedy, arXiv 1502.03167)
    with the statistics over the valid rows (m = mask, or 1 without one):
    dx = inv * dxhat + m * (dmean + 2 * dvar * u) / count, where
    dxhat = g * gamma, dmean = -inv * sum(dxhat) and
    dvar = -inv**3 / 2 * sum(dxhat * u).
    """
    u, xhat, inv, m, count, gamma = cache
    axes = tuple(range(g.ndim - 1))
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma
    dmean = -inv * dxhat.sum(axis=axes, keepdims=True)
    dvar = -0.5 * inv**3 * (dxhat * u).sum(axis=axes, keepdims=True)
    shift = dmean + 2.0 * dvar * u
    if m is not None:
        shift = shift * m
    return inv * dxhat + shift * (1.0 / count), dgamma, dbeta


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm over every leading axis, as one node with
    parents (x, gamma, beta); `bn_forward` and `bn_backward` do the math.
    Returns ``(out, mean, var)``."""
    out, mean, var, cache = bn_forward(x.data, gamma.data, beta.data, None, eps)

    def backward(g):
        dx, dgamma, dbeta = bn_backward(g, cache)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if x.requires_grad:
            x.accumulate_grad(dx)

    return _record(Tensor(out), (x, gamma, beta), backward), mean, var


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
