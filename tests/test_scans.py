"""Data model invariants and file-format round trips."""

import numpy as np
import pytest

from radfiner import scans as sc
from radfiner.errors import DataFormatError, ValidationError


def _tiny_scan(scan_id="s0"):
    xy = np.array([[1.0, 2.0], [3.5, -0.25], [10.0, 4.0], [-2.0, 7.0]])
    rcs = np.array([5.0, -3.25, 12.0, 0.5])
    doppler = np.array([0.01, 4.5, -2.75, 0.0])
    sem = np.array([0, 1, 1, 2])
    inst = np.array([0, 7, 7, 3])
    return sc.RadarScan(scan_id, xy, rcs, doppler, sem, inst)


def test_semantic_codes_are_stable():
    assert sc.SemanticClass.STATIC == 0
    assert sc.SemanticClass.CAR == 1
    assert sc.SemanticClass.PEDESTRIAN == 2
    assert sc.SemanticClass.PEDESTRIAN_GROUP == 3
    assert sc.SemanticClass.BIKE == 4
    assert sc.SemanticClass.TRUCK == 5
    assert sc.NUM_CLASSES == 6
    assert sc.SemanticClass.STATIC not in sc.THING_CLASSES
    assert len(sc.THING_CLASSES) == 5


def test_scan_validation_rejects_impure_instance():
    xy = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        sc.RadarScan("s", xy, np.zeros(2), np.zeros(2),
                     np.array([1, 2]), np.array([5, 5]))
    with pytest.raises(ValidationError):
        sc.RadarScan("s", np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                     np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    with pytest.raises(ValidationError, match="non-finite"):
        sc.RadarScan("s", xy, np.array([0.0, np.nan]), np.zeros(2),
                     np.array([0, 0]), np.array([0, 0]))
    with pytest.raises(ValidationError, match="static point"):
        sc.RadarScan("s", xy, np.zeros(2), np.zeros(2),
                     np.array([0, 1]), np.array([3, 4]))
    with pytest.raises(ValidationError, match="thing point"):
        sc.RadarScan("s", xy, np.zeros(2), np.zeros(2),
                     np.array([0, 1]), np.array([0, 0]))
    sc.RadarScan("s", xy, np.zeros(2), np.zeros(2), np.array([0, 1]), np.array([0, 12]))


def test_features_layout():
    scan = _tiny_scan()
    feats = scan.features()
    assert feats.shape == (4, 5)
    assert np.array_equal(feats[:, 0:2], scan.xy)
    assert np.all(feats[:, 2] == 0.0)
    assert np.array_equal(feats[:, 3], scan.rcs)
    assert np.array_equal(feats[:, 4], scan.doppler)
    assert np.array_equal(scan.moving_mask(), np.array([False, True, True, True]))


def test_select_moving():
    scan = _tiny_scan()
    pred = sc.MovingPrediction("s0", np.array([False, True, False, True]),
                               np.array([0, 4, 0, 9]))
    coords, feats, index_map = sc.select_moving(scan, pred)
    assert np.array_equal(index_map, [1, 3])
    assert np.array_equal(coords, scan.xy[[1, 3]])
    assert feats.shape == (2, 5)
    with pytest.raises(ValidationError):
        sc.select_moving(scan, sc.MovingPrediction("s0", np.zeros(3, bool), np.zeros(3, int)))
    with pytest.raises(ValidationError):
        sc.select_moving(scan, sc.MovingPrediction("other", np.zeros(4, bool), np.zeros(4, int)))


def test_moving_prediction_invariants():
    with pytest.raises(ValidationError):
        sc.MovingPrediction("s", np.array([False]), np.array([3]))
    with pytest.raises(ValidationError):
        sc.MovingPrediction("s", np.array([True]), np.array([-1]))
    with pytest.raises(ValidationError):
        sc.MovingPrediction("s", np.array([False]), np.array([0]), sem=np.array([2]))


def test_scans_file_round_trip_is_byte_identical(tmp_path):
    scans = [_tiny_scan("a"), _tiny_scan("b")]
    p1 = tmp_path / "one.scans"
    p2 = tmp_path / "two.scans"
    sc.save_scans(scans, p1)
    loaded = sc.load_scans(p1)
    assert [s.scan_id for s in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0].xy, scans[0].xy)
    sc.save_scans(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "#radfiner-scans v1"
    assert text[1] == "scan a 4"


def test_pred_file_round_trip_with_and_without_sem(tmp_path):
    preds = [
        sc.MovingPrediction("a", np.array([True, False]), np.array([2, 0])),
        sc.MovingPrediction("b", np.array([True, True]), np.array([1, 1]),
                            sem=np.array([4, 4])),
    ]
    p1 = tmp_path / "one.pred"
    p2 = tmp_path / "two.pred"
    sc.save_predictions(preds, p1)
    loaded = sc.load_predictions(p1)
    assert loaded[0].sem is None
    assert np.array_equal(loaded[1].sem, [4, 4])
    sc.save_predictions(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_header_and_counts(tmp_path):
    bad = tmp_path / "bad.scans"
    bad.write_text("#wrong v9\n")
    with pytest.raises(DataFormatError):
        sc.load_scans(bad)
    bad.write_text("#radfiner-scans v1\nscan a 2\n1.0 2.0 0.0 3.0 4.0 0 0\n")
    with pytest.raises(DataFormatError) as exc:
        sc.load_scans(bad)
    assert "end of file" in str(exc.value)
    bad.write_text("#radfiner-scans v1\nscan a 1\n1.0 2.0 0.0 3.0 oops 0 0\n")
    with pytest.raises(DataFormatError) as exc:
        sc.load_scans(bad)
    assert ":3:" in str(exc.value)  # line number surfaces in the message
    bad.write_text("#radfiner-scans v1\nscan a 1\n1.0 2.0 0.0 3.0 4.0 0 5\n")
    with pytest.raises(DataFormatError):
        sc.load_scans(bad)  # static point with nonzero id
    bad.write_text("#radfiner-scans v1\nscan a 1\n1.0 2.0 0.5 3.0 4.0 0 0\n")
    with pytest.raises(DataFormatError, match="nonzero z"):
        sc.load_scans(bad)
    bad.write_text("#radfiner-scans v1\nscan a 1\n1 2 0.0 3 4 0 0\nscan a 1\n1 2 0.0 3 4 0 0\n")
    with pytest.raises(DataFormatError) as exc:
        sc.load_scans(bad)
    assert "duplicate" in str(exc.value)


def test_load_pred_rejects_bad_flag_and_mixed_columns(tmp_path):
    bad = tmp_path / "bad.pred"
    bad.write_text("#radfiner-pred v1\nscan a 1\n2 0\n")
    with pytest.raises(DataFormatError):
        sc.load_predictions(bad)
    bad.write_text("#radfiner-pred v1\nscan a 2\n1 1 4\n1 1\n")
    with pytest.raises(DataFormatError):
        sc.load_predictions(bad)
