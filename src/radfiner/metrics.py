"""Panoptic quality and IoU accounting.

Instances match when their point-set IoU is strictly above 0.5, which makes
the matching unique without any assignment search.  Thing classes
contribute per-instance matches; static is scored as one segment per scan
per side.  Stats are plain per-class counters, so per-scan results can be
computed in parallel and merged by addition.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scans import NUM_CLASSES, SemanticClass

CLASS_NAMES = tuple(c.name.lower() for c in
                    sorted(SemanticClass, key=lambda c: int(c)))


class PanopticStats:
    """Per-class counters: matched-IoU sum, TP/FP/FN, point confusion."""

    def __init__(self, n_classes: int = NUM_CLASSES):
        if n_classes < 2:
            raise ValidationError(f"need at least 2 classes, got {n_classes}")
        self.n_classes = int(n_classes)
        self.tp_iou = np.zeros(self.n_classes)
        self.tp = np.zeros(self.n_classes, dtype=np.int64)
        self.fp = np.zeros(self.n_classes, dtype=np.int64)
        self.fn = np.zeros(self.n_classes, dtype=np.int64)
        self.confusion = np.zeros((self.n_classes, self.n_classes), dtype=np.int64)

    def merge(self, other: "PanopticStats") -> "PanopticStats":
        if other.n_classes != self.n_classes:
            raise ValidationError("cannot merge stats with different class counts")
        self.tp_iou += other.tp_iou
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.confusion += other.confusion
        return self


def _segments(classes: np.ndarray, ids: np.ndarray, code: int) -> list[np.ndarray]:
    """Point-index segments of one thing class.

    Segments are ordered by their first point index, not by id value, so
    accumulation order (and with it every float sum) is invariant under
    id renaming.
    """
    sel = np.flatnonzero((classes == code) & (ids > 0))
    if sel.size == 0:
        return []
    order = np.lexsort((sel, ids[sel]))
    sel = sel[order]
    cuts = np.flatnonzero(np.diff(ids[sel])) + 1
    segs = np.split(sel, cuts)
    segs.sort(key=lambda s: int(s[0]))
    return segs


def match_instances(gt_segments, pred_segments):
    """All (gt index, pred index, IoU) pairs with IoU > 0.5.

    Segments on one side must be disjoint; the threshold then guarantees
    each segment has at most one partner.
    """
    for segs, side in ((gt_segments, "gt"), (pred_segments, "pred")):
        if segs:
            cat = np.concatenate([np.asarray(s, dtype=np.int64) for s in segs])
            if np.unique(cat).size != cat.size:
                raise ValidationError(f"overlapping {side} segments")
    matches = []
    for gi, g in enumerate(gt_segments):
        g = np.asarray(g, dtype=np.int64)
        for pi, p in enumerate(pred_segments):
            p = np.asarray(p, dtype=np.int64)
            inter = np.intersect1d(g, p, assume_unique=True).size
            if inter == 0:
                continue
            iou = inter / float(g.size + p.size - inter)
            if iou > 0.5:
                matches.append((gi, pi, iou))
    return matches


def accumulate(stats: PanopticStats, gt_classes, gt_ids, pred_classes, pred_ids) -> PanopticStats:
    """Fold one scan's labeling pair into the counters."""
    gt_c = np.asarray(gt_classes, dtype=np.int64).reshape(-1)
    gt_i = np.asarray(gt_ids, dtype=np.int64).reshape(-1)
    pr_c = np.asarray(pred_classes, dtype=np.int64).reshape(-1)
    pr_i = np.asarray(pred_ids, dtype=np.int64).reshape(-1)
    if not (len(gt_c) == len(gt_i) == len(pr_c) == len(pr_i)):
        raise ValidationError("label columns must share one length")
    for arr in (gt_c, pr_c):
        if arr.size and (arr.min() < 0 or arr.max() >= stats.n_classes):
            raise ValidationError("class code out of range")

    np.add.at(stats.confusion, (gt_c, pr_c), 1)

    for code in range(1, stats.n_classes):
        gt_segs = _segments(gt_c, gt_i, code)
        pred_segs = _segments(pr_c, pr_i, code)
        matches = match_instances(gt_segs, pred_segs)
        stats.tp[code] += len(matches)
        stats.tp_iou[code] += sum(m[2] for m in matches)
        stats.fn[code] += len(gt_segs) - len(matches)
        stats.fp[code] += len(pred_segs) - len(matches)

    code = int(SemanticClass.STATIC)
    gt_static = np.flatnonzero(gt_c == code)
    pred_static = np.flatnonzero(pr_c == code)
    if gt_static.size or pred_static.size:
        gt_segs = [gt_static] if gt_static.size else []
        pred_segs = [pred_static] if pred_static.size else []
        matches = match_instances(gt_segs, pred_segs)
        stats.tp[code] += len(matches)
        stats.tp_iou[code] += sum(m[2] for m in matches)
        stats.fn[code] += len(gt_segs) - len(matches)
        stats.fp[code] += len(pred_segs) - len(matches)
    return stats


def scan_stats(gt_classes, gt_ids, pred_classes, pred_ids,
               n_classes: int = NUM_CLASSES) -> PanopticStats:
    return accumulate(PanopticStats(n_classes), gt_classes, gt_ids, pred_classes, pred_ids)


def panoptic_quality(stats: PanopticStats):
    """(per-class PQ with NaN where the class never occurs, mean over the
    occurring classes).  A class occurs when it has any TP, FP or FN."""
    occurs = (stats.tp + stats.fp + stats.fn) > 0
    denom = stats.tp + 0.5 * stats.fp + 0.5 * stats.fn
    pq = np.full(stats.n_classes, np.nan)
    safe = occurs & (denom > 0)
    pq[safe] = stats.tp_iou[safe] / denom[safe]
    pq[occurs & ~safe] = 0.0
    mean = float(np.mean(pq[occurs])) if np.any(occurs) else float("nan")
    return pq, mean


def mean_iou(stats: PanopticStats):
    """(per-class pointwise IoU with NaN where the class never occurs, mean)."""
    row = stats.confusion.sum(axis=1)
    col = stats.confusion.sum(axis=0)
    diag = np.diag(stats.confusion)
    denom = row + col - diag
    iou = np.full(stats.n_classes, np.nan)
    present = denom > 0
    iou[present] = diag[present] / denom[present]
    mean = float(np.mean(iou[present])) if np.any(present) else float("nan")
    return iou, mean


def _mean_skip(values: np.ndarray, skip_static: bool) -> float:
    vals = values[1:] if skip_static else values
    vals = vals[~np.isnan(vals)]
    return float(np.mean(vals)) if vals.size else float("nan")


def format_report(stats: PanopticStats, names=CLASS_NAMES) -> str:
    pq, _ = panoptic_quality(stats)
    iou, _ = mean_iou(stats)
    lines = [f"{'class':<18}{'PQ':>10}{'IoU':>10}{'TP':>7}{'FP':>7}{'FN':>7}"]
    for c in range(stats.n_classes):
        name = names[c] if c < len(names) else f"class{c}"
        pq_s = "-" if np.isnan(pq[c]) else f"{pq[c]:.4f}"
        iou_s = "-" if np.isnan(iou[c]) else f"{iou[c]:.4f}"
        lines.append(f"{name:<18}{pq_s:>10}{iou_s:>10}"
                     f"{stats.tp[c]:>7d}{stats.fp[c]:>7d}{stats.fn[c]:>7d}")
    lines.append(f"{'mean (all)':<18}{_mean_skip(pq, False):>10.4f}{_mean_skip(iou, False):>10.4f}")
    lines.append(f"{'mean (things)':<18}{_mean_skip(pq, True):>10.4f}{_mean_skip(iou, True):>10.4f}")
    return "\n".join(lines)


def write_metrics_csv(stats: PanopticStats, path, names=CLASS_NAMES) -> None:
    pq, _ = panoptic_quality(stats)
    iou, _ = mean_iou(stats)
    rows = ["class,PQ,IoU,tp,fp,fn"]
    for c in range(stats.n_classes):
        name = names[c] if c < len(names) else f"class{c}"
        rows.append(f"{name},{repr(float(pq[c]))},{repr(float(iou[c]))},"
                    f"{stats.tp[c]},{stats.fp[c]},{stats.fn[c]}")
    rows.append(f"mean_all,{repr(_mean_skip(pq, False))},{repr(_mean_skip(iou, False))},,,")
    rows.append(f"mean_things,{repr(_mean_skip(pq, True))},{repr(_mean_skip(iou, True))},,,")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
