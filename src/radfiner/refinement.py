"""Turning per-point class predictions plus backbone instance ids into a
consistent panoptic labeling.

Split mode drops static-classified points out of their instances and gives
every remaining (original id, class) group a fresh id, so mixed instances
come apart and falsely-moving points disappear.  Majority mode is the
ablation alternative: one vote per original instance, every member takes
the winning class.  Both modes renumber ids deterministically, never merge
distinct original instances, and are idempotent.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scans import (NUM_CLASSES, MovingPrediction, PanopticPrediction, RadarScan,
                    SemanticClass)

REFINE_MODES = ("split", "majority")


def _check_inputs(instance_ids: np.ndarray, pred_classes: np.ndarray):
    ids = np.asarray(instance_ids, dtype=np.int64).reshape(-1)
    classes = np.asarray(pred_classes, dtype=np.int64).reshape(-1)
    if len(ids) != len(classes):
        raise ValidationError(
            f"{len(ids)} instance ids but {len(classes)} class predictions")
    if np.any(ids < 0):
        raise ValidationError("negative instance id")
    if np.any((classes < 0) | (classes >= NUM_CLASSES)):
        raise ValidationError("semantic code out of range")
    return ids, classes


def refine_instances(instance_ids, pred_classes, mode: str = "split"):
    """Returns (classes, ids) over the same points, satisfying the panoptic
    invariants: static points carry id 0 and every id is single-class.

    Fresh ids are handed out from 1 in ascending (original id, class code)
    order, so the result is reproducible and re-refining it is the identity.
    """
    ids, classes = _check_inputs(instance_ids, pred_classes)
    if mode not in REFINE_MODES:
        raise ValidationError(f"unknown refine mode {mode!r}")
    out_classes = classes.copy()
    out_ids = np.zeros_like(ids)
    if len(ids) == 0:
        return out_classes, out_ids

    if mode == "majority":
        # one vote per original instance; ties go to the lowest class code
        for iid in np.unique(ids[ids > 0]):
            member = ids == iid
            voted = int(np.argmax(np.bincount(classes[member], minlength=NUM_CLASSES)))
            out_classes[member] = voted

    thing = out_classes != SemanticClass.STATIC
    if not np.any(thing):
        return out_classes, out_ids
    keys = ids[thing] * np.int64(NUM_CLASSES) + out_classes[thing]
    uniq, inverse = np.unique(keys, return_inverse=True)
    out_ids[thing] = inverse + 1
    return out_classes, out_ids


def assemble_panoptic(scan: RadarScan, pred: MovingPrediction, refined_ids,
                      pred_classes, index_map) -> PanopticPrediction:
    """Spread refined labels of the moving subset back over the full scan;
    everything the backbone called static stays (static, 0)."""
    if pred.scan_id != scan.scan_id:
        raise ValidationError(f"scan {scan.scan_id} paired with pred {pred.scan_id}")
    if len(pred) != len(scan):
        raise ValidationError(f"scan {scan.scan_id}: prediction length mismatch")
    index_map = np.asarray(index_map, dtype=np.int64).reshape(-1)
    ids = np.asarray(refined_ids, dtype=np.int64).reshape(-1)
    classes = np.asarray(pred_classes, dtype=np.int64).reshape(-1)
    if not (len(index_map) == len(ids) == len(classes)):
        raise ValidationError("refined columns must align with index_map")
    n = len(scan)
    if np.any((index_map < 0) | (index_map >= n)):
        raise ValidationError(f"scan {scan.scan_id}: index_map out of range")
    if len(index_map) and np.any(np.diff(index_map) <= 0):
        raise ValidationError(f"scan {scan.scan_id}: index_map must be strictly increasing")
    sem = np.zeros(n, dtype=np.int64)
    inst = np.zeros(n, dtype=np.int64)
    sem[index_map] = classes
    inst[index_map] = ids
    return PanopticPrediction(scan.scan_id, sem, inst)

