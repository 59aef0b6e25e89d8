"""Loss values against hand-derived numbers and an independent reference.

The Lovász reference below follows the prefix-Jaccard definition with
explicit loops (set sizes counted point by point), sharing nothing
with the implementation.
"""

import math

import numpy as np
import pytest

from radfiner import autodiff as ad
from radfiner import losses
from radfiner.autodiff import Param, Tensor
from radfiner.errors import NumericsError, ValidationError
from radfiner.gradcheck import gradient_check


def _lovasz_ref(probs: np.ndarray, targets: np.ndarray) -> float:
    n, c = probs.shape
    considered = sorted(set(targets.tolist()) | set(np.argmax(probs, 1).tolist()))
    total = 0.0
    for cls in considered:
        errors = []
        members = []
        for i in range(n):
            is_member = targets[i] == cls
            errors.append(1.0 - probs[i, cls] if is_member else probs[i, cls])
            members.append(is_member)
        order = sorted(range(n), key=lambda i: (-errors[i], i))
        # jaccard of ground-truth set vs the top-k prefix, k = 1..n
        gt = {i for i in range(n) if members[i]}
        prev = 0.0
        for k in range(1, n + 1):
            prefix = set(order[:k])
            inter = len(gt - prefix)  # members not yet absorbed
            union = len(gt) + k - len(gt & prefix)
            jac = 1.0 - (inter / union if union else 0.0)
            total += errors[order[k - 1]] * (jac - prev)
            prev = jac
    return total / len(considered)


def _consistency_refs(probs: np.ndarray, codes: np.ndarray, ids: np.ndarray):
    """Loop forms of both consistency losses and the soft form's
    gradient, one instance at a time."""
    n, c = probs.shape
    instances = sorted({int(h) for h in ids if h > 0})
    soft, hard = 0.0, 0.0
    grad = np.zeros((n, c))
    for h in instances:
        rows = [i for i in range(n) if ids[i] == h]
        q = [sum(probs[i, k] for i in rows) / len(rows) for k in range(c)]
        soft += 1.0 - sum(v * v for v in q)
        hard += 1.0 - 1.0 / len({int(codes[i]) for i in rows})
        for i in rows:  # d(-sum_k q_k^2)/dp_ik = -2 q_k / |rows|
            grad[i] = [-2.0 * q[k] / len(rows) for k in range(c)]
    if not instances:
        return 0.0, 0.0, grad
    h = len(instances)
    return soft / h, hard / h, grad / h


def _probs(rows) -> Tensor:
    return Tensor(np.array(rows, dtype=np.float64))


def test_cross_entropy_uniform_logits_is_log_c():
    logits = Tensor(np.zeros((5, 6)))
    val = float(losses.cross_entropy(logits, np.array([0, 1, 2, 3, 4])).data)
    assert abs(val - math.log(6)) < 1e-12


def test_cross_entropy_hand_value_and_shift_stability():
    logits = Tensor(np.array([[math.log(2.0), 0.0]]))
    val = float(losses.cross_entropy(logits, np.array([0])).data)
    assert abs(val - math.log(1.5)) < 1e-12  # p(target) = 2/3
    shifted = Tensor(np.array([[math.log(2.0) + 800.0, 800.0]]))
    val2 = float(losses.cross_entropy(shifted, np.array([0])).data)
    assert abs(val2 - math.log(1.5)) < 1e-9
    big = Tensor(np.full((3, 6), 1000.0))
    assert np.isfinite(float(losses.cross_entropy(big, np.array([0, 1, 2])).data))


def test_cross_entropy_validation():
    with pytest.raises(ValidationError):
        losses.cross_entropy(Tensor(np.zeros((2, 6))), np.array([0, 6]))
    with pytest.raises(ValidationError):
        losses.cross_entropy(Tensor(np.zeros((0, 6))), np.array([], dtype=int))
    with pytest.raises(NumericsError):
        losses.cross_entropy(Tensor(np.array([[np.nan, 0.0]])), np.array([0]))


def test_lovasz_perfect_hard_predictions_is_zero():
    probs = _probs([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]])
    targets = np.array([0, 1, 2, 1])
    assert float(losses.lovasz_softmax(probs, targets).data) == 0.0


def test_lovasz_binary_hand_value():
    # both classes: errors (0.25, 0.25); first prefix carries full jaccard 1
    probs = _probs([[0.75, 0.25], [0.25, 0.75]])
    val = float(losses.lovasz_softmax(probs, np.array([0, 1])).data)
    assert abs(val - 0.25) < 1e-12


def test_lovasz_matches_loop_reference_on_random_inputs():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        c = int(rng.integers(2, 7))
        raw = rng.random((n, c)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        targets = rng.integers(0, c, size=n)
        got = float(losses.lovasz_softmax(_probs(probs), targets).data)
        ref = _lovasz_ref(probs, targets)
        assert abs(got - ref) < 1e-12, f"trial {trial}"


def test_consistency_matches_loop_reference_on_random_inputs():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 14))
        c = int(rng.integers(2, 7))
        raw = rng.random((n, c)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        codes = rng.integers(0, c, size=n)
        # id 0 rows, gaps in the ids and one-point instances all occur
        ids = rng.choice([0, 1, 4, 9], size=n)
        soft_ref, hard_ref, grad_ref = _consistency_refs(probs, codes, ids)
        t = Tensor(probs, requires_grad=True)
        soft = losses.consistency_soft(t, ids)
        assert abs(float(soft.data) - soft_ref) < 1e-12, f"trial {trial}"
        if soft.requires_grad:
            ad.backward(soft)
            assert np.max(np.abs(t.grad - grad_ref)) < 1e-12, f"trial {trial}"
        else:
            assert not np.any(ids > 0)
        assert abs(losses.consistency_hard(codes, ids) - hard_ref) < 1e-12, f"trial {trial}"


def test_cross_entropy_matches_numpy_log_softmax():
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        c = int(rng.integers(2, 7))
        logits = rng.normal(scale=3.0, size=(n, c))
        targets = rng.integers(0, c, size=n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        t = Tensor(logits, requires_grad=True)
        ce = losses.cross_entropy(t, targets)
        assert abs(float(ce.data) + log_p[np.arange(n), targets].mean()) < 1e-12
        ad.backward(ce)
        expected = np.exp(log_p)
        expected[np.arange(n), targets] -= 1.0
        assert np.max(np.abs(t.grad - expected / n)) < 1e-12, f"trial {trial}"


def test_lovasz_counts_predicted_only_classes():
    # class 1 never in targets but argmax-predicted on row 1: it is
    # considered and contributes max p_1 = 0.6
    probs = _probs([[0.9, 0.1], [0.4, 0.6]])
    targets = np.array([0, 0])
    val = float(losses.lovasz_softmax(probs, targets).data)
    # class 0: errors (0.1, 0.6) -> sorted (0.6, 0.1), both members:
    #   jaccard increments (1-1/2, 1-2/2 minus prev) = (0.5, 0.5) -> wait,
    #   inter after k=1: 1 member left, union 2: jac = 0.5; k=2: 0 left,
    #   union 2: jac = 1 -> increments (0.5, 0.5): loss0 = 0.35
    # class 1: errors (0.1, 0.6); no members: jac = 1 at every prefix ->
    #   increments (1, 0): loss1 = 0.6
    assert abs(val - 0.5 * (0.35 + 0.6)) < 1e-12


def test_consistency_hard_value_table():
    # pure instance
    assert losses.consistency_hard(np.array([2, 2, 2]), np.array([1, 1, 1])) == 0.0
    # one 2-class instance, one pure: (0.5 + 0) / 2
    val = losses.consistency_hard(np.array([0, 1, 4]), np.array([1, 1, 2]))
    assert abs(val - 0.25) < 1e-15
    # a 3-class instance contributes 1 - 1/3 = 2/3
    val = losses.consistency_hard(np.array([1, 2, 3]), np.array([7, 7, 7]))
    assert abs(val - 2.0 / 3.0) < 1e-15
    # id 0 points are not instances
    assert losses.consistency_hard(np.array([1, 2]), np.array([0, 0])) == 0.0


def test_consistency_soft_endpoints():
    one_hot = _probs([[0, 1, 0], [0, 1, 0]])
    assert float(losses.consistency_soft(one_hot, np.array([1, 1])).data) == 0.0
    uniform = _probs(np.full((4, 6), 1.0 / 6.0))
    val = float(losses.consistency_soft(uniform, np.array([3, 3, 3, 3])).data)
    assert abs(val - (1.0 - 1.0 / 6.0)) < 1e-12
    # two one-hot rows disagreeing maximally inside one instance (C=2)
    split = _probs([[1, 0], [0, 1]])
    assert abs(float(losses.consistency_soft(split, np.array([1, 1])).data) - 0.5) < 1e-12
    assert float(losses.consistency_soft(split, np.array([0, 0])).data) == 0.0


def test_consistency_soft_tracks_hard_direction():
    rng = np.random.default_rng(5)
    mixed = rng.random((6, 4))
    mixed /= mixed.sum(axis=1, keepdims=True)
    ids = np.array([1, 1, 1, 2, 2, 2])
    soft_mixed = float(losses.consistency_soft(_probs(mixed), ids).data)
    pure = np.zeros((6, 4))
    pure[np.arange(6), [2, 2, 2, 0, 0, 0]] = 1.0
    assert float(losses.consistency_soft(_probs(pure), ids).data) < soft_mixed


def test_total_loss_is_sum_of_parts():
    rng = np.random.default_rng(9)
    logits = Tensor(rng.normal(size=(8, 6)))
    targets = rng.integers(0, 6, size=8)
    ids = np.array([1, 1, 2, 2, 0, 0, 3, 3])
    total, parts = losses.total_loss(logits, targets, ids)
    assert abs(float(total.data) - (parts["ce"] + parts["lovasz"] + parts["consistency"])) < 1e-12
    assert parts["ce"] > 0 and parts["lovasz"] > 0


def test_all_losses_are_differentiable():
    rng = np.random.default_rng(11)
    w = Param("logits", rng.normal(size=(6, 6)))
    targets = np.array([0, 1, 2, 3, 4, 5])
    ids = np.array([1, 1, 2, 2, 3, 0])

    def loss_fn():
        return losses.total_loss(w, targets, ids)[0]

    report = gradient_check(loss_fn, [w], h=1e-6)
    assert report.max_rel_error < 1e-4
