"""Synthetic radar scenes and a fault-injecting stand-in for the upstream
moving-instance network.

The generator places rigid moving objects in a forward-facing sensor wedge
and scatters static returns around them; per-point Doppler is the radial
projection of the object velocity plus noise, so static points read near
zero.  The surrogate starts from the ground-truth moving mask and injects
the error modes the refinement stage exists to repair: missed instance
points, boundary false positives glued to the nearest instance, spurious
static clusters promoted to instances, and merges of nearby instances.
The per-class geometry and signal statistics (`PROFILES`) and the sensor
and noise constants are fixed; a `SceneConfig` sets only the scene-wide
counts, the far range and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError
from .scans import THING_CLASSES, MovingPrediction, RadarScan, SemanticClass


@dataclass(frozen=True)
class ClassProfile:
    """Geometry and signal statistics for one thing class."""

    points: tuple[int, int]        # points per instance, inclusive range
    extent: float                  # cluster spread in meters (1 sigma ~ extent/2)
    speed: tuple[float, float]     # rigid speed range, m/s
    rcs_mean: float                # dBsm
    rcs_spread: float


# Pedestrians and pedestrian groups share signal statistics on purpose:
# only cluster size and extent tell them apart, so the classifier has to
# use neighborhood geometry, not a per-point threshold.
PROFILES = {
    SemanticClass.CAR: ClassProfile((4, 12), 1.8, (3.0, 12.0), 6.0, 2.5),
    SemanticClass.PEDESTRIAN: ClassProfile((1, 4), 0.3, (0.6, 2.0), -4.0, 2.0),
    SemanticClass.PEDESTRIAN_GROUP: ClassProfile((10, 20), 3.0, (0.6, 2.0), -4.0, 2.0),
    SemanticClass.BIKE: ClassProfile((2, 6), 0.7, (2.5, 8.0), 1.0, 2.0),
    SemanticClass.TRUCK: ClassProfile((8, 18), 3.8, (3.0, 10.0), 17.0, 3.0),
}
# the widest profile, which every placement margin has to fit
_WIDEST = max(p.extent for p in PROFILES.values())
# most points a config may allow in one scan: 80x configs/bench.cfg's 1210,
# the most crowded recipe, and still a fraction of a second to generate
MAX_SCAN_POINTS = 100_000


# scene-wide constants no recipe varies; distances in meters
NEAR_CLUTTER = (3, 6)      # static returns dropped next to each instance, inclusive
NEAR_SIGMA = 1.0
CLUSTER_SPREAD = 4.0
FOV_DEG = 120.0
MIN_RANGE = 5.0
STATIC_RCS_MEAN = -10.0    # dBsm
STATIC_RCS_SPREAD = 3.0
DOPPLER_NOISE = 0.05       # m/s
# most traffic hotspots a config may ask for: 200x configs/bench.cfg's 5,
# and each one is a position drawn per scan
MAX_CLUSTERS = 1_000


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the scene generator.  All distances in meters."""

    instances_per_scan: tuple[int, int] = (3, 6)
    clutter_points: tuple[int, int] = (60, 120)    # free-standing static returns
    clusters: tuple[int, int] = (1, 2)             # traffic hotspots instances gather around
    max_range: float = 45.0
    seed: int = 0

    def __post_init__(self):
        for rng_pair, what in ((self.instances_per_scan, "instances_per_scan"),
                               (self.clutter_points, "clutter_points"),
                               (self.clusters, "clusters")):
            if not (0 <= rng_pair[0] <= rng_pair[1]):
                raise ConfigError(f"bad {what} range {rng_pair}")
        most_points = max(p.points[1] for p in PROFILES.values())
        most = (self.instances_per_scan[1] * (most_points + NEAR_CLUTTER[1])
                + self.clutter_points[1])
        if most > MAX_SCAN_POINTS:
            raise ConfigError(f"instances_per_scan {self.instances_per_scan} and clutter_points "
                              f"{self.clutter_points} allow {most} points per scan, "
                              f"over {MAX_SCAN_POINTS}")
        if self.instances_per_scan[1] < 1 and self.clutter_points[1] < 1:
            raise ConfigError("scene would always be empty")
        if self.clusters[0] < 1:
            raise ConfigError("need at least one placement cluster")
        if self.clusters[1] > MAX_CLUSTERS:
            raise ConfigError(f"clusters {self.clusters} asks for over {MAX_CLUSTERS} hotspots")
        if not self.max_range - MIN_RANGE >= 2.0 * (CLUSTER_SPREAD + _WIDEST):
            raise ConfigError(f"max_range {self.max_range} is too close to the minimum range "
                              f"{MIN_RANGE} to fit the requested instances")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def radial_doppler(points: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Noise-free Doppler of a rigid object: velocity projected on each
    line of sight from the sensor at the origin."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ranges = np.maximum(np.sqrt(np.sum(points * points, axis=1)), 1e-9)
    return (points @ np.asarray(velocity, dtype=np.float64)) / ranges


def _wedge_positions(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    half = np.deg2rad(FOV_DEG) / 2.0
    az = rng.uniform(-half, half, n)
    rr = rng.uniform(lo, hi, n)
    return np.stack([rr * np.cos(az), rr * np.sin(az)], axis=1)


def generate_scene(config: SceneConfig, seed: int) -> RadarScan:
    """One deterministic scene, with scan id str(seed).  `seed` is
    typically the scan index; the stream is derived from (config.seed,
    seed) so corpora with different base seeds never share scans."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, int(seed))))

    xy, rcs, dop, sem, inst = [], [], [], [], []

    def add(points, rcs_vals, dop_vals, code, iid):
        xy.append(points)
        rcs.append(np.asarray(rcs_vals, dtype=np.float64))
        dop.append(np.asarray(dop_vals, dtype=np.float64))
        sem.append(np.full(len(points), int(code), dtype=np.int64))
        inst.append(np.full(len(points), int(iid), dtype=np.int64))

    margin = CLUSTER_SPREAD + _WIDEST
    lo = MIN_RANGE + margin
    hi = max(config.max_range - margin, lo + 1e-6)
    n_centers = int(rng.integers(config.clusters[0], config.clusters[1] + 1))
    centers = _wedge_positions(rng, n_centers, lo, hi)

    n_inst = int(rng.integers(config.instances_per_scan[0], config.instances_per_scan[1] + 1))
    for iid in range(1, n_inst + 1):
        code = THING_CLASSES[rng.integers(len(THING_CLASSES))]
        prof = PROFILES[code]
        if code in (SemanticClass.PEDESTRIAN, SemanticClass.BIKE):
            # lone pedestrians and two-wheelers keep to the margins rather
            # than the traffic hotspots; an isolated, sparse neighborhood is
            # the main cue separating them from groups and parked-up clusters
            center = _wedge_positions(rng, 1, lo, hi)[0]
        else:
            center = centers[rng.integers(n_centers)] + rng.normal(0.0, CLUSTER_SPREAD, 2)
        n_pts = int(rng.integers(prof.points[0], prof.points[1] + 1))
        pts = center + rng.normal(0.0, prof.extent / 2.0, (n_pts, 2))
        speed = rng.uniform(prof.speed[0], prof.speed[1])
        heading = rng.uniform(0.0, 2.0 * np.pi)
        velocity = speed * np.array([np.cos(heading), np.sin(heading)])
        d = radial_doppler(pts, velocity) + rng.normal(0.0, DOPPLER_NOISE, n_pts)
        r = rng.normal(prof.rcs_mean, prof.rcs_spread, n_pts)
        add(pts, r, d, code, iid)

        # ground returns hug real objects; these are what the surrogate can
        # later flip into boundary false positives
        n_near = int(rng.integers(NEAR_CLUTTER[0], NEAR_CLUTTER[1] + 1))
        if n_near > 0:
            anchor = pts[rng.integers(n_pts)]
            near = anchor + rng.normal(0.0, NEAR_SIGMA, (n_near, 2))
            add(near,
                rng.normal(STATIC_RCS_MEAN, STATIC_RCS_SPREAD, n_near),
                rng.normal(0.0, DOPPLER_NOISE, n_near),
                SemanticClass.STATIC, 0)

    n_static = int(rng.integers(config.clutter_points[0], config.clutter_points[1] + 1))
    if n_static > 0:
        pts = _wedge_positions(rng, n_static, MIN_RANGE, config.max_range)
        add(pts,
            rng.normal(STATIC_RCS_MEAN, STATIC_RCS_SPREAD, n_static),
            rng.normal(0.0, DOPPLER_NOISE, n_static),
            SemanticClass.STATIC, 0)

    if not xy:
        raise ConfigError("scene config produced an empty scan")
    return RadarScan(str(int(seed)),
                     np.concatenate(xy, axis=0),
                     np.concatenate(rcs),
                     np.concatenate(dop),
                     np.concatenate(sem),
                     np.concatenate(inst))


def generate_corpus(config: SceneConfig, count: int) -> list[RadarScan]:
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    return [generate_scene(config, i) for i in range(count)]


# --------------------------------------------------------------------------
# backbone surrogate


MERGE_GAP = 2.0        # meters; instance pairs closer than this can merge
BOUNDARY_REACH = 2.0   # meters; how far from an instance boundary flips reach


@dataclass(frozen=True)
class SurrogateConfig:
    """Per-mode error rates for the fault injector."""

    eps_boundary: float = 0.0   # static point near an instance flagged moving
    eps_clutter: float = 0.0    # scan gains one spurious static cluster as an instance
    eps_merge: float = 0.0      # nearby instance pair collapsed onto the smaller id
    eps_miss: float = 0.0       # instance point flagged static
    seed: int = 0

    def __post_init__(self):
        for name in ("eps_boundary", "eps_clutter", "eps_merge", "eps_miss"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _merge_nearby(xy: np.ndarray, moving: np.ndarray, ids: np.ndarray,
                  rng: np.random.Generator, config: SurrogateConfig) -> None:
    """In place, each pair of moving instances closer than `MERGE_GAP`
    merges with probability `eps_merge`, drawn in ascending (id, id)
    order; merges chain, and a merged group takes its smallest id."""
    member = np.flatnonzero(moving & (ids > 0))
    member = member[np.argsort(ids[member], kind="stable")]
    present, starts, inverse = np.unique(ids[member], return_index=True,
                                         return_inverse=True)
    if present.size < 2:
        return
    d = cdist(xy[member], xy[member])
    gap = np.minimum.reduceat(np.minimum.reduceat(d, starts, axis=0), starts, axis=1)
    a, b = np.nonzero(np.triu(gap < MERGE_GAP, k=1))
    hit = rng.random(a.size) < config.eps_merge
    linked = np.eye(present.size, dtype=bool)
    linked[a[hit], b[hit]] = linked[b[hit], a[hit]] = True
    for _ in range(present.size.bit_length()):  # each squaring doubles the reach
        linked = linked @ linked
    ids[member] = present[linked.argmax(axis=1)][inverse]


def surrogate_backbone(scan: RadarScan, config: SurrogateConfig, seed: int) -> MovingPrediction:
    """Replay the ground-truth moving mask with seeded label faults.

    Error modes are applied in a fixed order: misses, boundary false
    positives (attached to the nearest instance's id), one optional clutter
    instance, then merges of nearby instances (`_merge_nearby`).
    Coordinates and features are never touched.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, int(seed))))
    n = len(scan)
    gt_moving = scan.moving_mask()
    moving = gt_moving.copy()
    ids = scan.instance.copy()

    flips = gt_moving & (rng.random(n) < config.eps_miss)
    moving[flips] = False
    ids[flips] = 0

    gt_static = ~gt_moving
    if np.any(gt_static) and np.any(gt_moving):
        d = cdist(scan.xy[gt_static], scan.xy[gt_moving])
        nearest = np.argmin(d, axis=1)
        near_enough = d[np.arange(len(nearest)), nearest] <= BOUNDARY_REACH
        hit = rng.random(int(np.sum(gt_static))) < config.eps_boundary
        chosen = np.flatnonzero(gt_static)[near_enough & hit]
        moving[chosen] = True
        ids[chosen] = scan.instance[gt_moving][nearest[near_enough & hit]]

    if rng.random() < config.eps_clutter:
        candidates = np.flatnonzero(gt_static & ~moving)
        if candidates.size:
            center = candidates[rng.integers(candidates.size)]
            k = int(rng.integers(1, 6))
            d2 = np.sum((scan.xy[candidates] - scan.xy[center]) ** 2, axis=1)
            order = np.lexsort((candidates, d2))
            chosen = candidates[order[:k]]
            fresh = int(ids.max()) + 1
            moving[chosen] = True
            ids[chosen] = fresh

    _merge_nearby(scan.xy, moving, ids, rng, config)
    return MovingPrediction(scan.scan_id, moving, ids)


def surrogate_corpus(scans: list[RadarScan], config: SurrogateConfig) -> list[MovingPrediction]:
    """One prediction per scan, seeded by position in the corpus."""
    return [surrogate_backbone(s, config, i) for i, s in enumerate(scans)]
