"""Panoptic quality and IoU accounting.

Each side of a scan splits its points into segments: all static points
form one, each thing point joins the segment of its (class, id), and a
thing point whose id is not positive joins none.  One overlap table of
(gt segment, pred segment) point counts gives every intersection; two
segments match when they share a class and their IoU is strictly above
0.5, which makes the matching unique without any assignment search.
Matches are summed in the order of their gt segment's first point, so
float sums do not depend on id values.  Stats are per-class counters, so
per-scan results can be computed in parallel and merged by addition.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scans import NUM_CLASSES, SemanticClass

CLASS_NAMES = tuple(c.name.lower() for c in SemanticClass)


class PanopticStats:
    """Per-class counters: matched-IoU sum, TP/FP/FN, point confusion."""

    def __init__(self):
        self.tp_iou = np.zeros(NUM_CLASSES)
        self.tp = np.zeros(NUM_CLASSES, dtype=np.int64)
        self.fp = np.zeros(NUM_CLASSES, dtype=np.int64)
        self.fn = np.zeros(NUM_CLASSES, dtype=np.int64)
        self.confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)

    def merge(self, other: "PanopticStats") -> "PanopticStats":
        self.tp_iou += other.tp_iou
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.confusion += other.confusion
        return self


def _segments(classes: np.ndarray, ids: np.ndarray):
    """(each point's segment, named by the segment's first point, or -1;
    each point's segment size if it starts one, else 0)."""
    static = classes == int(SemanticClass.STATIC)
    member = np.flatnonzero(static | (ids > 0))
    # compact the ids first, so that any int64 id keys without overflow
    _, compact = np.unique(ids, return_inverse=True)
    key = np.where(static, -1, compact * NUM_CLASSES + classes)[member]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    seg = np.full(classes.size, -1, dtype=np.int64)
    seg[member] = member[first][inverse]
    return seg, np.bincount(seg[member], minlength=classes.size)


def accumulate(stats: PanopticStats, gt_classes, gt_ids, pred_classes, pred_ids) -> PanopticStats:
    """Fold one scan's labeling pair into the counters."""
    gt_c, gt_i, pr_c, pr_i = (np.asarray(a, dtype=np.int64).reshape(-1) for a in
                              (gt_classes, gt_ids, pred_classes, pred_ids))
    n = len(gt_c)
    if not (n == len(gt_i) == len(pr_c) == len(pr_i)):
        raise ValidationError("label columns must share one length")
    if n and (min(gt_c.min(), pr_c.min()) < 0 or max(gt_c.max(), pr_c.max()) >= NUM_CLASSES):
        raise ValidationError("class code out of range")

    np.add.at(stats.confusion, (gt_c, pr_c), 1)
    (g_seg, g_size), (p_seg, p_size) = _segments(gt_c, gt_i), _segments(pr_c, pr_i)
    # the overlap table, sorted by gt segment and so by its first point
    both = (g_seg >= 0) & (p_seg >= 0)
    pairs, inter = np.unique(g_seg[both] * n + p_seg[both], return_counts=True)
    g, p = np.divmod(pairs, n)
    iou = inter / (g_size[g] + p_size[p] - inter)
    hit = (gt_c[g] == pr_c[p]) & (iou > 0.5)
    tp = np.bincount(gt_c[g[hit]], minlength=NUM_CLASSES)
    stats.tp += tp
    stats.tp_iou += np.bincount(gt_c[g[hit]], weights=iou[hit], minlength=NUM_CLASSES)
    stats.fn += np.bincount(gt_c[g_size > 0], minlength=NUM_CLASSES) - tp
    stats.fp += np.bincount(pr_c[p_size > 0], minlength=NUM_CLASSES) - tp
    return stats


def scan_stats(gt_classes, gt_ids, pred_classes, pred_ids) -> PanopticStats:
    return accumulate(PanopticStats(), gt_classes, gt_ids, pred_classes, pred_ids)


def panoptic_quality(stats: PanopticStats):
    """(per-class PQ with NaN where the class never occurs, mean over the
    occurring classes).  A class occurs when it has any TP, FP or FN."""
    occurs = (stats.tp + stats.fp + stats.fn) > 0
    denom = stats.tp + 0.5 * stats.fp + 0.5 * stats.fn
    pq = np.full(NUM_CLASSES, np.nan)
    pq[occurs] = stats.tp_iou[occurs] / denom[occurs]
    mean = float(np.mean(pq[occurs])) if np.any(occurs) else float("nan")
    return pq, mean


def mean_iou(stats: PanopticStats):
    """(per-class pointwise IoU with NaN where the class never occurs, mean)."""
    row = stats.confusion.sum(axis=1)
    col = stats.confusion.sum(axis=0)
    diag = np.diag(stats.confusion)
    denom = row + col - diag
    iou = np.full(NUM_CLASSES, np.nan)
    present = denom > 0
    iou[present] = diag[present] / denom[present]
    mean = float(np.mean(iou[present])) if np.any(present) else float("nan")
    return iou, mean


def _mean(values: np.ndarray) -> float:
    vals = values[~np.isnan(values)]
    return float(np.mean(vals)) if vals.size else float("nan")


def _table(stats: PanopticStats):
    """(per-class rows (name, PQ, IoU, tp, fp, fn), and rows (label, PQ,
    IoU) of the means over all classes and over the thing classes)."""
    pq, _ = panoptic_quality(stats)
    iou, _ = mean_iou(stats)
    means = [(label, _mean(pq[start:]), _mean(iou[start:]))
             for label, start in (("all", 0), ("things", 1))]
    return list(zip(CLASS_NAMES, pq, iou, stats.tp, stats.fp, stats.fn)), means


def format_report(stats: PanopticStats) -> str:
    rows, means = _table(stats)
    lines = [f"{'class':<18}{'PQ':>10}{'IoU':>10}{'TP':>7}{'FP':>7}{'FN':>7}"]
    for name, pq, iou, tp, fp, fn in rows:
        pq_s = "-" if np.isnan(pq) else f"{pq:.4f}"
        iou_s = "-" if np.isnan(iou) else f"{iou:.4f}"
        lines.append(f"{name:<18}{pq_s:>10}{iou_s:>10}{tp:>7d}{fp:>7d}{fn:>7d}")
    lines += [f"{f'mean ({label})':<18}{pq:>10.4f}{iou:>10.4f}" for label, pq, iou in means]
    return "\n".join(lines)


def write_metrics_csv(stats: PanopticStats, path) -> None:
    rows, means = _table(stats)
    lines = ["class,PQ,IoU,tp,fp,fn"]
    lines += [f"{name},{float(pq)!r},{float(iou)!r},{tp},{fp},{fn}"
              for name, pq, iou, tp, fp, fn in rows]
    lines += [f"mean_{label},{pq!r},{iou!r},,," for label, pq, iou in means]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
