"""Data augmentation and the training loop.

Training samples are the ground-truth moving points of a scan with their
true classes.  Augmentation appends the mistakes the backbone will make at
inference time: with probability p_instance per instance one static-target
point lands next to it, and with probability p_scan the scan gains a small
static-target clutter group at a random spot.  Originals always stay an
untouched prefix of the sample.

The optimized objective per scan is cross-entropy + Lovász + the soft
consistency surrogate; history rows report the hard count-based
consistency value instead, and their total is the sum of the reported
parts.  Per-scan RNG streams derive from (seed, epoch, scan id), so any
execution order reproduces the same numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import blas
from .errors import ConfigError, NumericsError, ValidationError
from .losses import consistency_hard, total_loss
from .metrics import mean_iou, panoptic_quality
from .neighborhood import ball_query
from .network import RadFinerNet
from .optim import AdamW
from .pipeline import evaluate_split
from .scans import MovingPrediction, RadarScan, feature_matrix

BOUNDARY_SIGMA = 0.8      # meters; radial spread of injected boundary points
CLUTTER_SIZE = (1, 5)     # points in the injected clutter group, inclusive
CLUTTER_SIGMA = 1.5       # meters; spread of the injected clutter group
LR_DROP_FACTOR = 10.0     # the learning rate divides by this after lr_drop_epoch


@dataclass(frozen=True)
class AugmentConfig:
    p_instance: float = 0.4
    p_scan: float = 0.4

    def __post_init__(self):
        if not (0.0 <= self.p_instance <= 1.0 and 0.0 <= self.p_scan <= 1.0):
            raise ConfigError("augmentation probabilities must be in [0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 80
    batch_size: int = 64
    lr: float = 0.001
    lr_drop_epoch: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.lr_drop_epoch < 1:
            # a drop epoch at or past the end of the run simply never fires
            raise ConfigError(
                f"lr_drop_epoch must be >= 1, got {self.lr_drop_epoch}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AugmentedSample:
    """Moving-head training sample; rows past n_original were injected."""

    coords: np.ndarray       # (M, 2)
    features: np.ndarray     # (M, 5)
    targets: np.ndarray      # (M,) class codes
    instance_ids: np.ndarray  # (M,) ground-truth grouping; injected rows carry 0
    n_original: int

    def __len__(self) -> int:
        return len(self.targets)


def scan_rng(seed: int, epoch: int, scan_id: str) -> np.random.Generator:
    """Stream for one (seed, epoch, scan) triple, stable across processes."""
    digest = hashlib.sha256(scan_id.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch), key)))


def augment_scan(scan: RadarScan, cfg: AugmentConfig,
                 rng: np.random.Generator) -> AugmentedSample:
    moving = scan.moving_mask()
    n_original = int(np.sum(moving))
    static_idx = np.flatnonzero(~moving)
    injected = []  # (position, rcs, doppler) per injected point, in draw order

    # boundary mimics: one static-target point next to a triggered instance.
    # The offset radius is |N(0, sigma)| with a uniform direction.
    for iid in np.unique(scan.instance[moving]):
        if rng.random() >= cfg.p_instance:
            continue
        members = np.flatnonzero(scan.instance == iid)
        src = members[rng.integers(members.size)]
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.normal(0.0, BOUNDARY_SIGMA)
        pos = scan.xy[src] + radius * np.array([np.cos(angle), np.sin(angle)])
        if static_idx.size:
            donor = static_idx[rng.integers(static_idx.size)]
            injected.append((pos, scan.rcs[donor], scan.doppler[donor]))
        else:
            injected.append((pos, float(np.median(scan.rcs[members])), 0.0))

    # clutter mimic: a small static-target group somewhere in the scan
    if rng.random() < cfg.p_scan:
        k = int(rng.integers(CLUTTER_SIZE[0], CLUTTER_SIZE[1] + 1))
        lo = scan.xy.min(axis=0)
        hi = scan.xy.max(axis=0)
        center = rng.uniform(lo, hi)
        for _ in range(k):
            pos = center + rng.normal(0.0, CLUTTER_SIGMA, 2)
            if static_idx.size:
                donor = static_idx[rng.integers(static_idx.size)]
                injected.append((pos, scan.rcs[donor], scan.doppler[donor]))
            else:  # no static donor in the scan: draw the features
                injected.append((pos, rng.normal(0.0, 1.0), rng.normal(0.0, 0.05)))

    new = np.array([(*pos, rcs, dop) for pos, rcs, dop in injected]).reshape(-1, 4)
    xy = np.concatenate([scan.xy[moving], new[:, 0:2]])
    features = feature_matrix(xy, np.concatenate([scan.rcs[moving], new[:, 2]]),
                              np.concatenate([scan.doppler[moving], new[:, 3]]))
    zeros = np.zeros(len(new), dtype=np.int64)
    return AugmentedSample(xy, features, np.concatenate([scan.sem[moving], zeros]),
                           np.concatenate([scan.instance[moving], zeros]), n_original)


# -- training loop ------------------------------------------------------------


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr / LR_DROP_FACTOR if epoch > cfg.lr_drop_epoch else cfg.lr


HISTORY_COLUMNS = ("epoch", "ce", "lovasz", "consistency", "total",
                   "val_PQ", "val_mIoU", "lr")


def _history_line(row: dict) -> str:
    cells = [str(row["epoch"])]
    cells += [repr(float(row[c])) for c in HISTORY_COLUMNS[1:]]
    return ",".join(cells)


@contextlib.contextmanager
def _position(epoch: int, batch: int):
    """A NumericsError raised inside (a non-finite loss or gradient) names
    the epoch and batch it happened in."""
    try:
        yield
    except NumericsError as exc:
        raise NumericsError(f"{exc} (epoch {epoch}, batch {batch})") from exc


def train(train_scans: list[RadarScan], net: RadFinerNet, tcfg: TrainConfig,
          acfg: AugmentConfig, out_dir=None,
          val_scans: list[RadarScan] | None = None,
          val_preds: list[MovingPrediction] | None = None, log=None):
    """Runs the schedule and returns (net, history rows).

    history rows carry the reported (hard-consistency) loss breakdown,
    validation PQ/mIoU of the refined pipeline on the val split when one
    is given, and the learning rate in force.  With out_dir set, each
    epoch appends to history.csv and writes a ckpt_epochNN checkpoint.
    OpenBLAS runs on blas.BLAS_THREADS threads for the duration.
    """
    if not train_scans:
        raise ValidationError("training needs at least one scan")
    if (val_scans is None) != (val_preds is None):
        raise ValidationError("validation needs both scans and predictions")
    opt = AdamW(net.params(), lr=tcfg.lr)
    history: list[dict] = []
    hist = contextlib.nullcontext()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        hist = open(out_dir / "history.csv", "w")

    with blas.threads(blas.BLAS_THREADS), hist as hist_fh:
        if hist_fh is not None:
            hist_fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for epoch in range(1, tcfg.epochs + 1):
            t0 = time.perf_counter()
            opt.lr = _epoch_lr(tcfg, epoch)
            order = np.random.default_rng(
                np.random.SeedSequence((tcfg.seed, epoch))).permutation(len(train_scans))
            sums = {"ce": 0.0, "lovasz": 0.0, "consistency": 0.0}
            n_used = 0
            for b0 in range(0, len(order), tcfg.batch_size):
                batch = order[b0:b0 + tcfg.batch_size]
                for idx in batch:
                    scan = train_scans[int(idx)]
                    sample = augment_scan(scan, acfg, scan_rng(tcfg.seed, epoch, scan.scan_id))
                    if len(sample) == 0:
                        continue
                    nb = ball_query(sample.coords, net.config.radius, net.config.n_max)
                    logits = net.forward(sample.coords, sample.features,
                                         training=True, nb=nb)
                    with _position(epoch, b0 // tcfg.batch_size):
                        total, parts = total_loss(logits, sample.targets,
                                                  sample.instance_ids)
                    ad.backward(total * (1.0 / len(batch)))
                    hard = consistency_hard(np.argmax(logits.data, axis=1),
                                            sample.instance_ids)
                    sums["ce"] += parts["ce"]
                    sums["lovasz"] += parts["lovasz"]
                    sums["consistency"] += hard
                    n_used += 1
                with _position(epoch, b0 // tcfg.batch_size):
                    opt.step()
            denom = max(n_used, 1)
            ce, lovasz, consistency = (sums[k] / denom for k in ("ce", "lovasz", "consistency"))
            val_pq, val_miou = float("nan"), float("nan")
            if val_scans is not None:
                stats = evaluate_split(val_scans, val_preds, net, refine=True)
                _, val_pq = panoptic_quality(stats)
                _, val_miou = mean_iou(stats)
            row = {"epoch": epoch, "ce": ce, "lovasz": lovasz, "consistency": consistency,
                   "total": ce + lovasz + consistency,
                   "val_PQ": val_pq, "val_mIoU": val_miou, "lr": opt.lr}
            history.append(row)
            if hist_fh is not None:
                hist_fh.write(_history_line(row) + "\n")
                hist_fh.flush()
                net.save(out_dir / f"ckpt_epoch{epoch:02d}")
            if log is not None:
                log(f"epoch {epoch:3d}  total {row['total']:.4f}  "
                    f"val_PQ {val_pq:.4f}  lr {opt.lr:g}  "
                    f"({time.perf_counter() - t0:.1f}s)")
    return net, history
