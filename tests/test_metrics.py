"""Panoptic metrics against a brute-force set-arithmetic oracle.

The oracle below is written from the metric definition alone (dicts and
Python sets, all-pairs matching) and shares no code with the library, so
agreement on fuzzed labelings is meaningful evidence.
"""

import numpy as np
import pytest

from radfiner.errors import ValidationError
from radfiner.metrics import (PanopticStats, accumulate, mean_iou,
                              panoptic_quality, scan_stats)

C = 6


# -- oracle ------------------------------------------------------------------

def oracle_segments(classes, ids):
    """class code -> list of frozen point-index sets."""
    segs = {c: [] for c in range(C)}
    static = frozenset(i for i, c in enumerate(classes) if c == 0)
    if static:
        segs[0].append(static)
    for code in range(1, C):
        by_id = {}
        for i, (c, k) in enumerate(zip(classes, ids)):
            if c == code and k != 0:
                by_id.setdefault(k, set()).add(i)
        segs[code] = [frozenset(s) for s in by_id.values()]
    return segs


def oracle_scan(gt_classes, gt_ids, pred_classes, pred_ids):
    """Returns (tp, fp, fn, tp_iou, confusion) as plain per-class lists."""
    gt = oracle_segments(gt_classes, gt_ids)
    pred = oracle_segments(pred_classes, pred_ids)
    tp = [0] * C
    fp = [0] * C
    fn = [0] * C
    tp_iou = [0.0] * C
    for code in range(C):
        matched_pred = set()
        for g in gt[code]:
            hit = None
            for pi, p in enumerate(pred[code]):
                inter = len(g & p)
                iou = inter / len(g | p)
                if iou > 0.5:
                    hit = (pi, iou)
            if hit is None:
                fn[code] += 1
            else:
                tp[code] += 1
                tp_iou[code] += hit[1]
                matched_pred.add(hit[0])
        fp[code] += len(pred[code]) - len(matched_pred)
    conf = [[0] * C for _ in range(C)]
    for g, p in zip(gt_classes, pred_classes):
        conf[g][p] += 1
    return tp, fp, fn, tp_iou, conf


def random_labeling(rng, n):
    """A valid panoptic labeling: static <-> id 0, instances single-class."""
    ids = rng.integers(0, 5, n)
    classes = np.zeros(n, dtype=np.int64)
    for iid in np.unique(ids[ids > 0]):
        classes[ids == iid] = rng.integers(1, C)
    return classes, ids


def assert_matches_oracle(gt_c, gt_i, pr_c, pr_i):
    stats = scan_stats(gt_c, gt_i, pr_c, pr_i)
    tp, fp, fn, tp_iou, conf = oracle_scan(list(gt_c), list(gt_i),
                                           list(pr_c), list(pr_i))
    assert np.array_equal(stats.tp, tp)
    assert np.array_equal(stats.fp, fp)
    assert np.array_equal(stats.fn, fn)
    assert np.allclose(stats.tp_iou, tp_iou, rtol=0, atol=1e-12)
    assert np.array_equal(stats.confusion, conf)


# -- trivial hand cases (validate oracle and library together) ---------------

def test_identical_segments_all_tp():
    classes = np.array([0, 1, 1, 2, 0])
    ids = np.array([0, 1, 1, 2, 0])
    stats = scan_stats(classes, ids, classes, ids)
    assert stats.tp[1] == 1 and stats.tp[2] == 1 and stats.tp[0] == 1
    assert np.all(stats.fp == 0) and np.all(stats.fn == 0)
    pq, mean = panoptic_quality(stats)
    assert mean == 1.0
    # oracle agrees
    assert_matches_oracle(classes, ids, classes, ids)


def test_half_overlap_is_not_a_match():
    # gt instance covers points 0..9, prediction only 0..4: IoU = 0.5 exactly
    gt_c = np.ones(10, dtype=np.int64)
    gt_i = np.ones(10, dtype=np.int64)
    pr_c = np.where(np.arange(10) < 5, 1, 0)
    pr_i = np.where(np.arange(10) < 5, 1, 0)
    stats = scan_stats(gt_c, gt_i, pr_c, pr_i)
    assert stats.tp[1] == 0 and stats.fn[1] == 1 and stats.fp[1] == 1
    assert_matches_oracle(gt_c, gt_i, pr_c, pr_i)


def test_all_static_prediction_vs_one_car():
    gt_c = np.array([0, 0, 0, 1, 1])
    gt_i = np.array([0, 0, 0, 1, 1])
    pr_c = np.zeros(5, dtype=np.int64)
    pr_i = np.zeros(5, dtype=np.int64)
    stats = scan_stats(gt_c, gt_i, pr_c, pr_i)
    assert stats.fn[1] == 1 and stats.tp[1] == 0
    # static: gt segment 3 points, pred segment all 5 -> IoU 3/5
    assert stats.tp[0] == 1
    assert np.isclose(stats.tp_iou[0], 3 / 5)
    assert_matches_oracle(gt_c, gt_i, pr_c, pr_i)


# -- fuzzed oracle agreement --------------------------------------------------

def test_random_partitions_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = 30
        gt_c, gt_i = random_labeling(rng, n)
        pr_c, pr_i = random_labeling(rng, n)
        assert_matches_oracle(gt_c, gt_i, pr_c, pr_i)


def test_varied_sizes_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        gt_c, gt_i = random_labeling(rng, n)
        pr_c, pr_i = random_labeling(rng, n)
        assert_matches_oracle(gt_c, gt_i, pr_c, pr_i)
    # thing points with id 0 join no segment, and ids near 2**60 must key
    # without overflow
    rng = np.random.default_rng(80)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        gt_c, gt_i = random_labeling(rng, n)
        pr_c, pr_i = random_labeling(rng, n)
        for classes, ids in ((gt_c, gt_i), (pr_c, pr_i)):
            orphan = (ids == 0) & (rng.random(n) < 0.3)
            classes[orphan] = rng.integers(1, C, n)[orphan]
        assert_matches_oracle(gt_c, gt_i, pr_c, pr_i)
        scale = 2 ** 58 + 1
        assert_matches_oracle(gt_c, gt_i * scale, pr_c, pr_i * (scale + 2))
    # (3, id 1) and (1, id 1 + (2**64 + 2) // 6) wrap to one id * 6 + class key
    classes = np.array([3, 3, 1, 1, 0])
    ids = np.array([1, 1, 1 + (2 ** 64 + 2) // 6, 1 + (2 ** 64 + 2) // 6, 0])
    assert_matches_oracle(classes, ids, classes, ids)


# -- accumulation ------------------------------------------------------------

def test_additivity_over_scans():
    rng = np.random.default_rng(9)
    scans = []
    for _ in range(20):
        n = int(rng.integers(5, 50))
        scans.append(random_labeling(rng, n) + random_labeling(rng, n))
    running = PanopticStats()
    for gt_c, gt_i, pr_c, pr_i in scans:
        accumulate(running, gt_c, gt_i, pr_c, pr_i)
    merged = PanopticStats()
    for gt_c, gt_i, pr_c, pr_i in scans:
        merged.merge(scan_stats(gt_c, gt_i, pr_c, pr_i))
    assert np.array_equal(running.tp, merged.tp)
    assert np.array_equal(running.fp, merged.fp)
    assert np.array_equal(running.fn, merged.fn)
    assert np.array_equal(running.confusion, merged.confusion)
    assert np.allclose(running.tp_iou, merged.tp_iou, rtol=0, atol=1e-12)


def test_scan_order_invariance():
    rng = np.random.default_rng(10)
    scans = []
    for _ in range(10):
        n = int(rng.integers(5, 40))
        scans.append(random_labeling(rng, n) + random_labeling(rng, n))
    a = PanopticStats()
    for s in scans:
        accumulate(a, *s)
    b = PanopticStats()
    for s in reversed(scans):
        accumulate(b, *s)
    assert np.array_equal(a.tp, b.tp) and np.array_equal(a.confusion, b.confusion)
    assert np.allclose(a.tp_iou, b.tp_iou)


def test_id_bijection_leaves_stats_bitwise_identical():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        gt_c, gt_i = random_labeling(rng, n)
        pr_c, pr_i = random_labeling(rng, n)
        base = scan_stats(gt_c, gt_i, pr_c, pr_i)

        def remap(ids):
            uniq = np.unique(ids[ids > 0])
            new = rng.permutation(np.arange(1, len(uniq) + 1) * int(rng.integers(1, 9)))
            table = dict(zip(uniq.tolist(), new.tolist()))
            return np.array([table.get(int(i), 0) for i in ids], dtype=np.int64)

        other = scan_stats(gt_c, remap(gt_i), pr_c, remap(pr_i))
        assert np.array_equal(base.tp, other.tp)
        assert np.array_equal(base.fp, other.fp)
        assert np.array_equal(base.fn, other.fn)
        # bitwise: float accumulation order must not depend on id values
        assert np.array_equal(base.tp_iou, other.tp_iou)


# -- quality formulas ---------------------------------------------------------

def test_pq_formula_point_eight_over_one_and_a_half():
    stats = PanopticStats()
    stats.tp[1] = 1
    stats.tp_iou[1] = 0.8
    stats.fp[1] = 1
    pq, _ = panoptic_quality(stats)
    assert abs(pq[1] - 0.8 / 1.5) < 1e-9


def test_perfect_stats_give_unity():
    classes = np.array([0, 1, 1, 2, 3, 4, 5, 5])
    ids = np.array([0, 1, 1, 2, 3, 4, 5, 5])
    stats = scan_stats(classes, ids, classes, ids)
    pq, mean_pq = panoptic_quality(stats)
    iou, miou = mean_iou(stats)
    assert mean_pq == 1.0 and miou == 1.0
    assert np.all(pq == 1.0) and np.all(iou == 1.0)


def test_absent_class_excluded_from_mean():
    # only cars and static appear anywhere
    classes = np.array([0, 1, 1])
    ids = np.array([0, 1, 1])
    stats = scan_stats(classes, ids, classes, ids)
    pq, mean_pq = panoptic_quality(stats)
    assert np.isnan(pq[2]) and np.isnan(pq[5])
    assert mean_pq == 1.0
    iou, miou = mean_iou(stats)
    assert np.isnan(iou[3]) and miou == 1.0


def test_occurring_class_with_no_tp_scores_zero():
    gt_c = np.array([1, 1])
    gt_i = np.array([1, 1])
    pr_c = np.array([2, 2])
    pr_i = np.array([1, 1])
    pq, _ = panoptic_quality(scan_stats(gt_c, gt_i, pr_c, pr_i))
    assert pq[1] == 0.0 and pq[2] == 0.0


# -- validation ---------------------------------------------------------------

def test_class_out_of_range_rejected():
    with pytest.raises(ValidationError):
        scan_stats([6], [1], [0], [0])
    with pytest.raises(ValidationError):
        scan_stats([0], [0], [-1], [0])


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        scan_stats([0, 1], [0, 1], [0], [0])
