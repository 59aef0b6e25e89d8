"""Training losses: cross-entropy, Lovász-softmax, instance consistency.

The total objective is the unweighted sum of the three.  Consistency
comes in two flavors: the hard count-based form used for reporting
(fraction-of-distinct-classes per instance, not differentiable) and a
soft surrogate used in the optimized objective, the expected pairwise
disagreement 1 - sum_c q_c^2 of the instance's mean class distribution
q.  Both are 0 exactly when every instance is predicted single-class.

Each loss is one whole-array tape expression: per-row, per-class and
per-instance choices enter as constant matrices (a one-hot target mask,
the sorted Jaccard weights, the instance-mean rows), never as Python
loops over classes or instances.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericsError, ValidationError


def softmax_probs(logits: Tensor) -> Tensor:
    """Row-wise class probabilities."""
    if not np.all(np.isfinite(logits.data)):
        raise NumericsError("non-finite logits")
    return ad.masked_softmax(logits, np.ones(logits.data.shape, dtype=bool), axis=1)


def _check_targets(n: int, classes: int, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if len(targets) != n:
        raise ValidationError(f"{n} rows but {len(targets)} targets")
    if n == 0:
        raise ValidationError("losses need at least one point")
    if np.any((targets < 0) | (targets >= classes)):
        raise ValidationError("target class out of range")
    return targets


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood; shift-stable log-softmax."""
    n, c = logits.data.shape
    targets = _check_targets(n, c, targets)
    if not np.all(np.isfinite(logits.data)):
        raise NumericsError("non-finite logits")
    shift = logits.data.max(axis=1, keepdims=True)  # constant: no gradient
    z = logits - shift
    lse = ad.log(ad.reduce_sum(ad.exp(z), axis=1))
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), targets] = 1.0
    nll = lse - ad.reduce_sum(z * one_hot, axis=1)
    return ad.reduce_sum(nll) * (1.0 / n)


def _jaccard_grad(fg_sorted: np.ndarray) -> np.ndarray:
    """Increments of the Jaccard loss along the sorted-error prefix
    (axis 0), one column per class."""
    total = fg_sorted.sum(axis=0)
    intersection = total - np.cumsum(fg_sorted, axis=0)
    union = total + np.cumsum(1.0 - fg_sorted, axis=0)
    jaccard = 1.0 - intersection / union
    grad = jaccard.copy()
    grad[1:] -= jaccard[:-1]
    return grad


def lovasz_softmax(probs: Tensor, targets) -> Tensor:
    """Lovász extension of the per-class Jaccard loss.

    Takes probabilities (rows on the simplex).  Classes considered are
    those present in the targets or in the argmax prediction; the loss
    is their mean.  The sorted Jaccard increments act as constants for
    the backward pass, which is exactly the extension's (sub)gradient.
    Once the sort is fixed the extension is linear in the
    probabilities: the errors |fg - p| are 1 - p on members and p
    elsewhere, so the loss is sum(probs * w) plus a constant.
    """
    n, c = probs.data.shape
    targets = _check_targets(n, c, targets)
    if not np.all(np.isfinite(probs.data)):
        raise NumericsError("non-finite probabilities")
    considered = np.zeros(c, dtype=bool)
    considered[targets] = True
    considered[np.argmax(probs.data, axis=1)] = True
    fg = np.zeros((n, c))
    fg[np.arange(n), targets] = 1.0
    signs = 1.0 - 2.0 * fg
    errors = probs.data * signs + fg
    order = np.argsort(-errors, axis=0, kind="stable")
    jac = np.empty((n, c))  # Jaccard increment of each (row, class) error
    np.put_along_axis(jac, order, _jaccard_grad(np.take_along_axis(fg, order, axis=0)),
                      axis=0)
    jac[:, ~considered] = 0.0
    loss = ad.reduce_sum(probs * (signs * jac)) + float(np.sum(fg * jac))
    return loss * (1.0 / int(considered.sum()))


def consistency_hard(codes: np.ndarray, instance_ids: np.ndarray) -> float:
    """Reporting form: mean over instances of 1 - 1/(distinct classes)."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    instance_ids = np.asarray(instance_ids, dtype=np.int64).reshape(-1)
    if len(codes) != len(instance_ids):
        raise ValidationError("codes/instance length mismatch")
    keep = instance_ids > 0
    if not np.any(keep):
        return 0.0
    codes = codes[keep] - codes[keep].min()
    span = codes.max() + 1  # one integer key per (instance, class) pair
    pairs = np.unique(instance_ids[keep] * span + codes)
    _, distinct = np.unique(pairs // span, return_counts=True)
    return float(np.mean(1.0 - 1.0 / distinct))


def consistency_soft(probs: Tensor, instance_ids) -> Tensor:
    """Differentiable surrogate: mean over instances of 1 - ||q||^2.

    q is the instance's mean predicted distribution; the term vanishes
    iff q is one-hot and approaches 1 - 1/C as the mix flattens, moving
    in lockstep with the hard count-based form.
    """
    n, c = probs.data.shape
    instance_ids = np.asarray(instance_ids, dtype=np.int64).reshape(-1)
    if len(instance_ids) != n:
        raise ValidationError("probs/instance length mismatch")
    if not np.all(np.isfinite(probs.data)):
        raise NumericsError("non-finite probabilities")
    members = np.flatnonzero(instance_ids > 0)
    if len(members) == 0:
        return Tensor(0.0)
    _, which, counts = np.unique(instance_ids[members], return_inverse=True,
                                 return_counts=True)
    h = len(counts)
    mean_rows = np.zeros((h, n))  # row j averages the points of instance j
    mean_rows[which, members] = 1.0 / counts[which]
    q = ad.matmul(Tensor(mean_rows), probs)
    return (h - ad.reduce_sum(q * q)) * (1.0 / h)


def total_loss(logits: Tensor, targets, instance_ids):
    """Sum of the three losses; returns (scalar Tensor, float parts)."""
    probs = softmax_probs(logits)
    ce = cross_entropy(logits, targets)
    lov = lovasz_softmax(probs, targets)
    con = consistency_soft(probs, instance_ids)
    total = ce + lov + con
    if not np.isfinite(total.data):
        raise NumericsError("non-finite training loss")
    parts = {"ce": float(ce.data), "lovasz": float(lov.data),
             "consistency": float(con.data)}
    return total, parts
