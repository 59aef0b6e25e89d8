"""Radar scan data model and plain-text file formats.

A scan is a set of radar points in the sensor frame with per-point
ground-truth panoptic labels.  Points live on the ground plane: z is
carried through the 5-channel feature vector (x, y, z, rcs, doppler)
but is always 0 in this data.

Semantic codes are stable small integers; code 0 (static background)
is the single stuff class, everything else is a thing class whose
nonzero instance ids group points into objects.

File formats (one record per line, space separated, floats written
with repr() so that load/save round-trips are byte-identical):

  scans file     header `#radfiner-scans v1`, then per scan a block
                 `scan <id> <N>` followed by N lines
                 `x y z rcs doppler sem_code instance_id`
  pred file      header `#radfiner-pred v1`, blocks `scan <id> <N>`,
                 lines `moving instance_id [sem_code]` (third column
                 present on refined predictions, constant per block)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DataFormatError, ValidationError, read_text

SCANS_HEADER = "#radfiner-scans v1"
PRED_HEADER = "#radfiner-pred v1"


class SemanticClass(IntEnum):
    STATIC = 0
    CAR = 1
    PEDESTRIAN = 2
    PEDESTRIAN_GROUP = 3
    BIKE = 4
    TRUCK = 5


NUM_CLASSES = len(SemanticClass)
N_FEATURES = 5  # x, y, z, rcs, doppler
CLASS_NAMES = tuple(c.name.lower() for c in SemanticClass)
THING_CLASSES = tuple(c for c in SemanticClass if c != SemanticClass.STATIC)


def _validate_labels(sem: np.ndarray, instance: np.ndarray, what: str) -> None:
    if sem.shape != instance.shape:
        raise ValidationError(f"{what}: semantic/instance length mismatch")
    if np.any((sem < 0) | (sem >= NUM_CLASSES)):
        raise ValidationError(f"{what}: semantic code out of range 0..{NUM_CLASSES - 1}")
    if np.any(instance < 0):
        raise ValidationError(f"{what}: negative instance id")
    static = sem == SemanticClass.STATIC
    if np.any(static & (instance != 0)):
        raise ValidationError(f"{what}: static point with nonzero instance id")
    if np.any(~static & (instance == 0)):
        raise ValidationError(f"{what}: thing point with instance id 0")
    # purity: one semantic class per nonzero id
    ids = instance[~static]
    codes = sem[~static]
    if ids.size:
        order = np.argsort(ids, kind="stable")
        ids_s, codes_s = ids[order], codes[order]
        same_id = ids_s[1:] == ids_s[:-1]
        if np.any(same_id & (codes_s[1:] != codes_s[:-1])):
            bad = ids_s[1:][same_id & (codes_s[1:] != codes_s[:-1])][0]
            raise ValidationError(f"{what}: instance {bad} spans multiple semantic classes")


def feature_matrix(xy, rcs, doppler) -> np.ndarray:
    """(N, N_FEATURES) model input rows x, y, z(=0), rcs, doppler."""
    out = np.zeros((len(xy), N_FEATURES))
    out[:, 0:2] = xy
    out[:, 3] = rcs
    out[:, 4] = doppler
    return out


class RadarScan:
    """One scan: coordinates, features and ground-truth panoptic labels."""

    def __init__(self, scan_id: str, xy: np.ndarray, rcs: np.ndarray,
                 doppler: np.ndarray, sem: np.ndarray, instance: np.ndarray):
        self.scan_id = str(scan_id)
        self.xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        self.rcs = np.asarray(rcs, dtype=np.float64).reshape(-1)
        self.doppler = np.asarray(doppler, dtype=np.float64).reshape(-1)
        self.sem = np.asarray(sem, dtype=np.int64).reshape(-1)
        self.instance = np.asarray(instance, dtype=np.int64).reshape(-1)
        n = len(self.xy)
        if n == 0:
            raise ValidationError(f"scan {scan_id}: empty scan")
        if not (len(self.rcs) == len(self.doppler) == len(self.sem) == len(self.instance) == n):
            raise ValidationError(f"scan {scan_id}: column length mismatch")
        if not np.all(np.isfinite(self.xy)) or not np.all(np.isfinite(self.rcs)) \
                or not np.all(np.isfinite(self.doppler)):
            raise ValidationError(f"scan {scan_id}: non-finite values")
        _validate_labels(self.sem, self.instance, f"scan {scan_id}")

    def __len__(self) -> int:
        return len(self.xy)

    def features(self) -> np.ndarray:
        """(N, 5) model input: x, y, z(=0), rcs, doppler."""
        return feature_matrix(self.xy, self.rcs, self.doppler)

    def moving_mask(self) -> np.ndarray:
        """Ground-truth mask of points on thing instances."""
        return self.sem != SemanticClass.STATIC


@dataclass
class MovingPrediction:
    """Backbone-style output: per point a moving flag and an instance id.

    `sem` is filled by refinement; None before that.  Non-moving points
    always carry id 0 (and semantic code 0 when codes are present).
    """

    scan_id: str
    moving: np.ndarray
    instance: np.ndarray
    sem: np.ndarray | None = None

    def __post_init__(self):
        self.moving = np.asarray(self.moving, dtype=bool).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.int64).reshape(-1)
        if len(self.moving) != len(self.instance):
            raise ValidationError(f"pred {self.scan_id}: column length mismatch")
        if np.any(self.instance < 0):
            raise ValidationError(f"pred {self.scan_id}: negative instance id")
        if np.any(~self.moving & (self.instance != 0)):
            raise ValidationError(f"pred {self.scan_id}: non-moving point with nonzero id")
        if self.sem is not None:
            self.sem = np.asarray(self.sem, dtype=np.int64).reshape(-1)
            if len(self.sem) != len(self.moving):
                raise ValidationError(f"pred {self.scan_id}: sem column length mismatch")
            if np.any((self.sem < 0) | (self.sem >= NUM_CLASSES)):
                raise ValidationError(f"pred {self.scan_id}: semantic code out of range")
            if np.any(~self.moving & (self.sem != 0)):
                raise ValidationError(f"pred {self.scan_id}: non-moving point with thing code")

    def __len__(self) -> int:
        return len(self.moving)


@dataclass
class PanopticPrediction:
    """Final per-point labeling with the same invariants as ground truth."""

    scan_id: str
    sem: np.ndarray
    instance: np.ndarray

    def __post_init__(self):
        self.sem = np.asarray(self.sem, dtype=np.int64).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.int64).reshape(-1)
        _validate_labels(self.sem, self.instance, f"panoptic {self.scan_id}")


def select_moving(scan: RadarScan, pred: MovingPrediction):
    """Subset a scan to the points the backbone flagged as moving.

    Returns (coords (M,2), features (M,5), index_map (M,)) where
    index_map holds original point indices, ascending.
    """
    if pred.scan_id != scan.scan_id:
        raise ValidationError(f"scan {scan.scan_id} paired with pred {pred.scan_id}")
    if len(pred) != len(scan):
        raise ValidationError(
            f"scan {scan.scan_id}: {len(scan)} points but prediction has {len(pred)}")
    index_map = np.flatnonzero(pred.moving)
    return scan.xy[index_map], scan.features()[index_map], index_map


# --------------------------------------------------------------------------
# file I/O


def _fmt(v: float) -> str:
    return repr(float(v))


def save_scans(scans: list[RadarScan], path) -> None:
    lines = [SCANS_HEADER]
    seen = set()
    for scan in scans:
        if scan.scan_id in seen:
            raise ValidationError(f"duplicate scan id {scan.scan_id}")
        seen.add(scan.scan_id)
        lines.append(f"scan {scan.scan_id} {len(scan)}")
        for i in range(len(scan)):
            lines.append(" ".join([
                _fmt(scan.xy[i, 0]), _fmt(scan.xy[i, 1]), _fmt(0.0),
                _fmt(scan.rcs[i]), _fmt(scan.doppler[i]),
                str(int(scan.sem[i])), str(int(scan.instance[i])),
            ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path):
        self.lines = read_text(path).splitlines()
        self.pos = 0
        self.path = str(path)

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError(f"{self.path}: unexpected end of file at line {self.pos + 1}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def error(self, msg: str) -> DataFormatError:
        return DataFormatError(f"{self.path}:{self.pos}: {msg}")


def _read_blocks(reader: _LineReader, header: str):
    first = reader.next()
    if first != header:
        raise reader.error(f"expected header {header!r}, got {first!r}")
    seen = set()
    while not reader.done():
        line = reader.next()
        parts = line.split()
        if len(parts) != 3 or parts[0] != "scan":
            raise reader.error(f"expected 'scan <id> <count>', got {line!r}")
        scan_id = parts[1]
        if scan_id in seen:
            raise reader.error(f"duplicate scan id {scan_id}")
        seen.add(scan_id)
        try:
            count = int(parts[2])
        except ValueError:
            raise reader.error(f"bad point count {parts[2]!r}") from None
        if count < 0:
            raise reader.error(f"negative point count {count}")
        # bound the count before the loaders allocate arrays of that size
        left = len(reader.lines) - reader.pos
        if count > left:
            raise reader.error(
                f"point count {count} runs past the end of file ({left} lines left)")
        yield scan_id, count


def load_scans(path) -> list[RadarScan]:
    reader = _LineReader(path)
    scans = []
    for scan_id, count in _read_blocks(reader, SCANS_HEADER):
        xy = np.zeros((count, 2))
        rcs = np.zeros(count)
        doppler = np.zeros(count)
        sem = np.zeros(count, dtype=np.int64)
        inst = np.zeros(count, dtype=np.int64)
        for i in range(count):
            parts = reader.next().split()
            if len(parts) != 7:
                raise reader.error(f"expected 7 fields, got {len(parts)}")
            try:
                xy[i, 0], xy[i, 1] = float(parts[0]), float(parts[1])
                z = float(parts[2])
                rcs[i], doppler[i] = float(parts[3]), float(parts[4])
                sem[i], inst[i] = int(parts[5]), int(parts[6])
            except (ValueError, OverflowError):
                raise reader.error(f"unparseable fields in {' '.join(parts)!r}") from None
            if z != 0.0:
                raise reader.error(f"nonzero z {z}")
        try:
            scans.append(RadarScan(scan_id, xy, rcs, doppler, sem, inst))
        except ValidationError as exc:
            raise DataFormatError(f"{reader.path}: {exc}") from None
    return scans


def save_predictions(preds: list[MovingPrediction], path) -> None:
    lines = [PRED_HEADER]
    seen = set()
    for pred in preds:
        if pred.scan_id in seen:
            raise ValidationError(f"duplicate scan id {pred.scan_id}")
        seen.add(pred.scan_id)
        lines.append(f"scan {pred.scan_id} {len(pred)}")
        for i in range(len(pred)):
            row = f"{int(pred.moving[i])} {int(pred.instance[i])}"
            if pred.sem is not None:
                row += f" {int(pred.sem[i])}"
            lines.append(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_predictions(path) -> list[MovingPrediction]:
    reader = _LineReader(path)
    preds = []
    for scan_id, count in _read_blocks(reader, PRED_HEADER):
        moving = np.zeros(count, dtype=bool)
        inst = np.zeros(count, dtype=np.int64)
        sem = None
        for i in range(count):
            parts = reader.next().split()
            if len(parts) not in (2, 3):
                raise reader.error(f"expected 2 or 3 fields, got {len(parts)}")
            if i == 0:
                sem = np.zeros(count, dtype=np.int64) if len(parts) == 3 else None
            if (len(parts) == 3) != (sem is not None):
                raise reader.error("inconsistent field count within scan block")
            try:
                flag = int(parts[0])
                inst[i] = int(parts[1])
                if sem is not None:
                    sem[i] = int(parts[2])
            except (ValueError, OverflowError):
                raise reader.error(f"unparseable fields in {' '.join(parts)!r}") from None
            if flag not in (0, 1):
                raise reader.error(f"moving flag must be 0 or 1, got {flag}")
            moving[i] = bool(flag)
        try:
            preds.append(MovingPrediction(scan_id, moving, inst, sem))
        except ValidationError as exc:
            raise DataFormatError(f"{reader.path}: {exc}") from None
    return preds
