"""Instance refinement: split/majority semantics, purity, idempotence."""

import numpy as np
import pytest

from radfiner.errors import ValidationError
from radfiner.refinement import REFINE_MODES, assemble_panoptic, refine_instances
from radfiner.scans import MovingPrediction, RadarScan, SemanticClass

CAR = int(SemanticClass.CAR)
TRUCK = int(SemanticClass.TRUCK)
STATIC = int(SemanticClass.STATIC)


# -- split mode --------------------------------------------------------------

def test_mixed_instance_splits_in_class_order():
    classes, ids = refine_instances([1, 1, 1], [CAR, CAR, TRUCK])
    assert np.array_equal(classes, [CAR, CAR, TRUCK])
    # fresh ids ascend by (original id, class code): car group first
    assert np.array_equal(ids, [1, 1, 2])


def test_pure_instance_keeps_one_group():
    classes, ids = refine_instances([1, 1], [CAR, CAR])
    assert np.array_equal(classes, [CAR, CAR])
    assert np.array_equal(ids, [1, 1])


def test_static_classified_point_leaves_instance():
    classes, ids = refine_instances([1, 1], [STATIC, CAR])
    assert np.array_equal(classes, [STATIC, CAR])
    assert np.array_equal(ids, [0, 1])


def test_fresh_id_order_spans_original_ids():
    # (2, car) sorts after both groups of id 1, before (2, truck)
    classes, ids = refine_instances([2, 1, 2, 1], [CAR, TRUCK, TRUCK, CAR])
    assert np.array_equal(ids, [3, 2, 4, 1])


def test_all_static_prediction_clears_ids():
    classes, ids = refine_instances([3, 7], [STATIC, STATIC])
    assert np.array_equal(ids, [0, 0])


def test_empty_input_is_identity():
    classes, ids = refine_instances([], [])
    assert len(classes) == 0 and len(ids) == 0
    again = refine_instances(ids, classes)
    assert len(again[0]) == 0 and len(again[1]) == 0


# -- majority mode -----------------------------------------------------------

def test_majority_vote_unifies_class():
    classes, ids = refine_instances([1, 1, 1], [CAR, CAR, TRUCK], mode="majority")
    assert np.array_equal(classes, [CAR, CAR, CAR])
    assert np.array_equal(ids, [1, 1, 1])


def test_majority_static_dissolves_instance():
    classes, ids = refine_instances([1, 1, 1], [STATIC, STATIC, CAR], mode="majority")
    assert np.array_equal(classes, [STATIC, STATIC, STATIC])
    assert np.array_equal(ids, [0, 0, 0])


def test_majority_tie_takes_lowest_code():
    classes, _ = refine_instances([1, 1], [TRUCK, CAR], mode="majority")
    assert np.array_equal(classes, [CAR, CAR])


def test_unknown_mode_rejected():
    with pytest.raises(ValidationError):
        refine_instances([1], [CAR], mode="vote")


# -- fuzzed properties -------------------------------------------------------

@pytest.mark.parametrize("mode", REFINE_MODES)
def test_fuzzed_invariants(mode):
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(0, 40))
        ids = rng.integers(0, 6, n)
        classes = rng.integers(0, 6, n)
        out_classes, out_ids = refine_instances(ids, classes, mode)
        # conservation: labels only
        assert len(out_classes) == len(out_ids) == n
        # panoptic invariant: static <-> id 0
        assert np.array_equal(out_ids == 0, out_classes == STATIC)
        # purity: every nonzero id carries one class
        for iid in np.unique(out_ids[out_ids > 0]):
            assert len(np.unique(out_classes[out_ids == iid])) == 1
        # never merges: one refined id never covers two original nonzero ids
        for iid in np.unique(out_ids[out_ids > 0]):
            sources = np.unique(ids[(out_ids == iid) & (ids > 0)])
            assert len(sources) <= 1
        # idempotence: refining a refined labeling changes nothing
        again = refine_instances(out_ids, out_classes, mode)
        assert np.array_equal(again[0], out_classes)
        assert np.array_equal(again[1], out_ids)


# -- input validation --------------------------------------------------------

def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        refine_instances([1, 2], [CAR])


def test_negative_id_rejected():
    with pytest.raises(ValidationError):
        refine_instances([-1], [CAR])


def test_class_code_out_of_range_rejected():
    with pytest.raises(ValidationError):
        refine_instances([1], [6])


# -- assemble ----------------------------------------------------------------

def _toy_scan():
    xy = np.array([[6.0, 0.0], [7.0, 0.0], [8.0, 0.0], [9.0, 0.0]])
    rcs = np.zeros(4)
    dop = np.array([0.0, 3.0, 3.0, 0.0])
    sem = np.array([STATIC, CAR, CAR, STATIC])
    inst = np.array([0, 1, 1, 0])
    return RadarScan("t0", xy, rcs, dop, sem, inst)


def test_assemble_all_static():
    scan = _toy_scan()
    pred = MovingPrediction("t0", np.zeros(4, bool), np.zeros(4, int),
                            np.full(4, STATIC))
    pan = assemble_panoptic(scan, pred, [], [], [])
    assert np.all(pan.sem == STATIC)
    assert np.all(pan.instance == 0)


def test_assemble_surviving_instance():
    scan = _toy_scan()
    mask = np.array([False, True, True, False])
    pred = MovingPrediction("t0", mask, np.where(mask, 1, 0),
                            np.where(mask, CAR, STATIC))
    index_map = np.flatnonzero(mask)
    classes, ids = refine_instances(pred.instance[index_map], [CAR, CAR])
    pan = assemble_panoptic(scan, pred, ids, classes, index_map)
    assert np.array_equal(pan.sem, [STATIC, CAR, CAR, STATIC])
    assert np.array_equal(pan.instance, [0, 1, 1, 0])


def test_assemble_splits_merged_instance():
    # backbone glued a car and a truck under one id; refinement pulls
    # them apart so the panoptic output has two instances again
    scan = _toy_scan()
    mask = np.array([False, True, True, True])
    pred = MovingPrediction("t0", mask, np.where(mask, 5, 0),
                            np.where(mask, CAR, STATIC))
    index_map = np.flatnonzero(mask)
    classes, ids = refine_instances(pred.instance[index_map],
                                    [CAR, CAR, TRUCK])
    pan = assemble_panoptic(scan, pred, ids, classes, index_map)
    assert len(np.unique(pan.instance[pan.instance > 0])) == 2


def test_assemble_rejects_bad_index_map():
    scan = _toy_scan()
    mask = np.array([False, True, True, False])
    pred = MovingPrediction("t0", mask, np.where(mask, 1, 0),
                            np.where(mask, CAR, STATIC))
    with pytest.raises(ValidationError):
        assemble_panoptic(scan, pred, [1, 1], [CAR, CAR], [1, 9])
    with pytest.raises(ValidationError):
        assemble_panoptic(scan, pred, [1, 1], [CAR, CAR], [2, 1])
    with pytest.raises(ValidationError):
        assemble_panoptic(scan, pred, [1], [CAR, CAR], [1, 2])


def test_assemble_rejects_wrong_scan():
    scan = _toy_scan()
    pred = MovingPrediction("other", np.zeros(4, bool), np.zeros(4, int),
                            np.full(4, STATIC))
    with pytest.raises(ValidationError):
        assemble_panoptic(scan, pred, [], [], [])
