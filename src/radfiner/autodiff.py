"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps an ndarray together with a gradient buffer and a closure
that knows how to push its gradient into its parents.  Calling
``backward(root)`` on a scalar root topologically sorts the recorded
graph and runs the closures in reverse.  Gradients accumulate
additively; callers own zeroing between steps.

The op set is deliberately small: exactly what a point-transformer
style network needs (matmul, broadcast arithmetic, relu/gelu,
masked softmax, integer gathers, sum reductions).
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

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    # -- operator sugar; non-Tensor operands become constants ------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __pow__(self, exponent):
        return pow_const(self, exponent)

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


def pow_const(a: Tensor, exponent: float) -> Tensor:
    """a ** c for a constant (non-Tensor) exponent."""
    c = float(exponent)
    out = Tensor(a.data**c)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * c * a.data ** (c - 1.0))

    return _record(out, (a,), backward)


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
    out = Tensor(np.exp(a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * out.data)

    return _record(out, (a,), backward)


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
    ex = np.exp(x - shift) * mask
    denom = ex.sum(axis=axis, keepdims=True)
    safe = np.where(denom > 0.0, denom, 1.0)
    out = Tensor(ex / safe)

    def backward(g):
        if a.requires_grad:
            s = out.data
            inner = (g * s).sum(axis=axis, keepdims=True)
            a.accumulate_grad(s * (g - inner))

    return _record(out, (a,), backward)


# --------------------------------------------------------------------------
# indexing


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Advanced indexing a[indices] along axis 0; indices may be n-d."""
    idx = np.asarray(indices)
    out = Tensor(a.data[idx])

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, idx, g)
            a.accumulate_grad(acc)

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
