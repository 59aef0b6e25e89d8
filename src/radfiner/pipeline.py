"""End-to-end glue: run the classifier over backbone-selected points,
refine, assemble panoptic output, and score whole splits.

Three scoring modes cover the evaluation story:
  - majority-true baseline: each backbone instance takes the majority
    ground-truth class of its points (instances whose majority is static
    dissolve).  This is the best a voting rule could do without the
    classifier and is what refined results are compared against.
  - unrefined classifier: per-instance majority vote over predicted
    classes, grouping untouched.
  - refined classifier: split mode, static-classified points dropped and
    mixed instances separated.

Per-scan work is independent; with workers > 1 scans are predicted in a
fork pool, and the per-scan stats are merged in corpus order, so results
are identical for any worker count.
"""

from __future__ import annotations

import time
from multiprocessing import get_context

import numpy as np

from .errors import ValidationError
from .metrics import PanopticStats, scan_stats
from .network import RadFinerNet
from .refinement import assemble_panoptic, refine_instances
from .scans import MovingPrediction, PanopticPrediction, RadarScan, select_moving


def pair_predictions(scans: list[RadarScan], preds: list[MovingPrediction]):
    """Align predictions to scans by scan_id, preserving scan order."""
    by_id: dict[str, MovingPrediction] = {}
    for p in preds:
        if p.scan_id in by_id:
            raise ValidationError(f"duplicate prediction for scan {p.scan_id}")
        by_id[p.scan_id] = p
    pairs = []
    for s in scans:
        if s.scan_id not in by_id:
            raise ValidationError(f"no prediction for scan {s.scan_id}")
        pairs.append((s, by_id[s.scan_id]))
    return pairs


def classify_selected(net: RadFinerNet, scan: RadarScan, pred: MovingPrediction):
    """(predicted class codes, backbone ids, index_map) for the moving subset."""
    coords, feats, index_map = select_moving(scan, pred)
    if index_map.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), index_map
    classes = net.predict(coords, feats)
    return classes, pred.instance[index_map], index_map


def predict_panoptic(net: RadFinerNet, scan: RadarScan, pred: MovingPrediction,
                     refine: bool = True, refine_mode: str = "split") -> PanopticPrediction:
    classes, ids, index_map = classify_selected(net, scan, pred)
    mode = refine_mode if refine else "majority"
    r_classes, r_ids = refine_instances(ids, classes, mode)
    return assemble_panoptic(scan, pred, r_ids, r_classes, index_map)


def majority_true_panoptic(scan: RadarScan, pred: MovingPrediction) -> PanopticPrediction:
    """Score ceiling for the raw backbone output: ground-truth classes,
    one majority vote per instance, static-majority instances dissolved."""
    _, _, index_map = select_moving(scan, pred)
    true_classes = scan.sem[index_map]
    r_classes, r_ids = refine_instances(pred.instance[index_map], true_classes, "majority")
    return assemble_panoptic(scan, pred, r_ids, r_classes, index_map)


def score_scan(scan: RadarScan, panoptic: PanopticPrediction) -> PanopticStats:
    if panoptic.scan_id != scan.scan_id:
        raise ValidationError(
            f"scan {scan.scan_id} scored against {panoptic.scan_id}")
    return scan_stats(scan.sem, scan.instance, panoptic.sem, panoptic.instance)


# -- split-level evaluation -------------------------------------------------

_worker_ctx: tuple = ()  # set by the initializer of each fork-pool worker


def _start_worker(ctx: tuple) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _panoptic(i: int, ctx: tuple = ()) -> PanopticPrediction:
    pairs, net, refine, refine_mode = ctx or _worker_ctx
    scan, pred = pairs[i]
    if net is None:
        return majority_true_panoptic(scan, pred)
    return predict_panoptic(net, scan, pred, refine=refine, refine_mode=refine_mode)


def predict_split(scans: list[RadarScan], preds: list[MovingPrediction],
                  net: RadFinerNet | None = None, refine: bool = True,
                  refine_mode: str = "split", workers: int = 1):
    """(scan, panoptic prediction) pairs in scan order.  net=None gives
    the majority-true baseline."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    pairs = pair_predictions(scans, preds)
    ctx = (pairs, net, refine, refine_mode)
    if workers > 1 and len(pairs) > 1:
        with get_context("fork").Pool(workers, _start_worker, (ctx,)) as pool:
            pans = pool.map(_panoptic, range(len(pairs)))
    else:
        pans = [_panoptic(i, ctx) for i in range(len(pairs))]
    return [(scan, pan) for (scan, _), pan in zip(pairs, pans)]


def score_split(results) -> PanopticStats:
    """Stats of (scan, panoptic prediction) pairs, merged in their order."""
    stats = PanopticStats()
    for scan, pan in results:
        stats.merge(score_scan(scan, pan))
    return stats


def evaluate_split(scans: list[RadarScan], preds: list[MovingPrediction],
                   net: RadFinerNet | None = None, refine: bool = True,
                   refine_mode: str = "split", workers: int = 1) -> PanopticStats:
    """Accumulated stats over the split.  net=None scores the
    majority-true baseline."""
    return score_split(predict_split(scans, preds, net, refine, refine_mode, workers))


# -- latency ------------------------------------------------------------------


def bench_pipeline(net: RadFinerNet, scans: list[RadarScan],
                   preds: list[MovingPrediction], repetitions: int = 1,
                   refine_mode: str = "split") -> np.ndarray:
    """Per-scan `predict_panoptic` wall times in seconds.

    One untimed warmup pass runs first; samples are ordered scan-major,
    repetitions within scan.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    pairs = pair_predictions(scans, preds)
    for scan, pred in pairs[:min(len(pairs), 8)]:
        predict_panoptic(net, scan, pred, refine_mode=refine_mode)

    times = np.zeros(len(pairs) * repetitions)
    k = 0
    for scan, pred in pairs:
        for _ in range(repetitions):
            t0 = time.perf_counter()
            predict_panoptic(net, scan, pred, refine_mode=refine_mode)
            times[k] = time.perf_counter() - t0
            k += 1
    return times
