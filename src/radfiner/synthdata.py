"""Synthetic radar scenes and a fault-injecting stand-in for the upstream
moving-instance network.

The generator places rigid moving objects in a forward-facing sensor wedge
and scatters static returns around them; per-point Doppler is the radial
projection of the object velocity plus noise, so static points read near
zero.  The surrogate starts from the ground-truth moving mask and injects
the error modes the refinement stage exists to repair: missed instance
points, boundary false positives glued to the nearest instance, spurious
static clusters promoted to instances, and merges of nearby instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, ValidationError
from .scans import (NUM_CLASSES, THING_CLASSES, MovingPrediction, RadarScan,
                    SemanticClass)


@dataclass(frozen=True)
class ClassProfile:
    """Geometry and signal statistics for one thing class."""

    points: tuple[int, int]        # points per instance, inclusive range
    extent: float                  # cluster spread in meters (1 sigma ~ extent/2)
    speed: tuple[float, float]     # rigid speed range, m/s
    rcs_mean: float                # dBsm
    rcs_spread: float

    def __post_init__(self):
        if not (1 <= self.points[0] <= self.points[1]):
            raise ConfigError(f"bad point-count range {self.points}")
        if self.extent <= 0:
            raise ConfigError(f"extent must be positive, got {self.extent}")
        if not (0 <= self.speed[0] <= self.speed[1]):
            raise ConfigError(f"bad speed range {self.speed}")
        if self.rcs_spread <= 0:
            raise ConfigError(f"rcs_spread must be positive, got {self.rcs_spread}")


def default_profiles() -> dict[SemanticClass, ClassProfile]:
    # Pedestrians and pedestrian groups share signal statistics on purpose:
    # only cluster size and extent tell them apart, so the classifier has to
    # use neighborhood geometry, not a per-point threshold.
    return {
        SemanticClass.CAR: ClassProfile((4, 12), 1.8, (3.0, 12.0), 6.0, 2.5),
        SemanticClass.PEDESTRIAN: ClassProfile((1, 4), 0.3, (0.6, 2.0), -4.0, 2.0),
        SemanticClass.PEDESTRIAN_GROUP: ClassProfile((10, 20), 3.0, (0.6, 2.0), -4.0, 2.0),
        SemanticClass.BIKE: ClassProfile((2, 6), 0.7, (2.5, 8.0), 1.0, 2.0),
        SemanticClass.TRUCK: ClassProfile((8, 18), 3.8, (3.0, 10.0), 17.0, 3.0),
    }


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the scene generator.  All distances in meters."""

    profiles: Mapping[SemanticClass, ClassProfile] = field(default_factory=default_profiles)
    instances_per_scan: tuple[int, int] = (3, 6)
    clutter_points: tuple[int, int] = (60, 120)    # free-standing static returns
    near_clutter: tuple[int, int] = (3, 6)         # static returns dropped next to each instance
    near_sigma: float = 1.0
    clusters: tuple[int, int] = (1, 2)             # traffic hotspots instances gather around
    cluster_spread: float = 4.0
    fov_deg: float = 120.0
    min_range: float = 5.0
    max_range: float = 45.0
    static_rcs_mean: float = -10.0
    static_rcs_spread: float = 3.0
    doppler_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for rng_pair, what in ((self.instances_per_scan, "instances_per_scan"),
                               (self.clutter_points, "clutter_points"),
                               (self.near_clutter, "near_clutter"),
                               (self.clusters, "clusters")):
            if not (0 <= rng_pair[0] <= rng_pair[1]):
                raise ConfigError(f"bad {what} range {rng_pair}")
        if self.instances_per_scan[1] < 1 and self.clutter_points[1] < 1:
            raise ConfigError("scene would always be empty")
        if self.clusters[0] < 1:
            raise ConfigError("need at least one placement cluster")
        if not (0 < self.fov_deg <= 360.0):
            raise ConfigError(f"fov_deg must be in (0, 360], got {self.fov_deg}")
        if not (0 < self.min_range < self.max_range):
            raise ConfigError("need 0 < min_range < max_range")
        widest = max(p.extent for p in self.profiles.values())
        if self.max_range - self.min_range < 2.0 * (self.cluster_spread + widest):
            raise ConfigError("range interval too narrow to fit the requested instances")
        if self.doppler_noise <= 0 or self.static_rcs_spread <= 0 or self.near_sigma <= 0:
            raise ConfigError("noise scales must be positive")
        for code in THING_CLASSES:
            if code not in self.profiles:
                raise ConfigError(f"missing class profile for {code.name}")


def radial_doppler(points: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Noise-free Doppler of a rigid object: velocity projected on each
    line of sight from the sensor at the origin."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ranges = np.maximum(np.sqrt(np.sum(points * points, axis=1)), 1e-9)
    return (points @ np.asarray(velocity, dtype=np.float64)) / ranges


def _wedge_positions(rng: np.random.Generator, n: int, cfg: SceneConfig,
                     lo: float, hi: float) -> np.ndarray:
    half = np.deg2rad(cfg.fov_deg) / 2.0
    az = rng.uniform(-half, half, n)
    rr = rng.uniform(lo, hi, n)
    return np.stack([rr * np.cos(az), rr * np.sin(az)], axis=1)


def generate_scene(config: SceneConfig, seed: int, scan_id: str | None = None) -> RadarScan:
    """One deterministic scene.  `seed` is typically the scan index; the
    stream is derived from (config.seed, seed) so corpora with different
    base seeds never share scans."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, int(seed))))
    if scan_id is None:
        scan_id = str(int(seed))

    xy, rcs, dop, sem, inst = [], [], [], [], []

    def add(points, rcs_vals, dop_vals, code, iid):
        xy.append(points)
        rcs.append(np.asarray(rcs_vals, dtype=np.float64))
        dop.append(np.asarray(dop_vals, dtype=np.float64))
        sem.append(np.full(len(points), int(code), dtype=np.int64))
        inst.append(np.full(len(points), int(iid), dtype=np.int64))

    margin = config.cluster_spread + max(p.extent for p in config.profiles.values())
    lo = config.min_range + margin
    hi = max(config.max_range - margin, lo + 1e-6)
    n_centers = int(rng.integers(config.clusters[0], config.clusters[1] + 1))
    centers = _wedge_positions(rng, n_centers, config, lo, hi)

    n_inst = int(rng.integers(config.instances_per_scan[0], config.instances_per_scan[1] + 1))
    for iid in range(1, n_inst + 1):
        code = THING_CLASSES[rng.integers(len(THING_CLASSES))]
        prof = config.profiles[code]
        if code in (SemanticClass.PEDESTRIAN, SemanticClass.BIKE):
            # lone pedestrians and two-wheelers keep to the margins rather
            # than the traffic hotspots; an isolated, sparse neighborhood is
            # the main cue separating them from groups and parked-up clusters
            center = _wedge_positions(rng, 1, config, lo, hi)[0]
        else:
            center = centers[rng.integers(n_centers)] + rng.normal(0.0, config.cluster_spread, 2)
        n_pts = int(rng.integers(prof.points[0], prof.points[1] + 1))
        pts = center + rng.normal(0.0, prof.extent / 2.0, (n_pts, 2))
        speed = rng.uniform(prof.speed[0], prof.speed[1])
        heading = rng.uniform(0.0, 2.0 * np.pi)
        velocity = speed * np.array([np.cos(heading), np.sin(heading)])
        d = radial_doppler(pts, velocity) + rng.normal(0.0, config.doppler_noise, n_pts)
        r = rng.normal(prof.rcs_mean, prof.rcs_spread, n_pts)
        add(pts, r, d, code, iid)

        # ground returns hug real objects; these are what the surrogate can
        # later flip into boundary false positives
        n_near = int(rng.integers(config.near_clutter[0], config.near_clutter[1] + 1))
        if n_near > 0:
            anchor = pts[rng.integers(n_pts)]
            near = anchor + rng.normal(0.0, config.near_sigma, (n_near, 2))
            add(near,
                rng.normal(config.static_rcs_mean, config.static_rcs_spread, n_near),
                rng.normal(0.0, config.doppler_noise, n_near),
                SemanticClass.STATIC, 0)

    n_static = int(rng.integers(config.clutter_points[0], config.clutter_points[1] + 1))
    if n_static > 0:
        pts = _wedge_positions(rng, n_static, config, config.min_range, config.max_range)
        add(pts,
            rng.normal(config.static_rcs_mean, config.static_rcs_spread, n_static),
            rng.normal(0.0, config.doppler_noise, n_static),
            SemanticClass.STATIC, 0)

    if not xy:
        raise ConfigError("scene config produced an empty scan")
    return RadarScan(scan_id,
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


@dataclass(frozen=True)
class SurrogateConfig:
    """Per-mode error rates for the fault injector."""

    eps_boundary: float = 0.0   # static point near an instance flagged moving
    eps_clutter: float = 0.0    # scan gains one spurious static cluster as an instance
    eps_merge: float = 0.0      # nearby instance pair collapsed onto the smaller id
    eps_miss: float = 0.0       # instance point flagged static
    merge_gap: float = 2.0
    boundary_reach: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("eps_boundary", "eps_clutter", "eps_merge", "eps_miss"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.merge_gap <= 0 or self.boundary_reach <= 0:
            raise ConfigError("merge_gap and boundary_reach must be positive")


def surrogate_backbone(scan: RadarScan, config: SurrogateConfig, seed: int) -> MovingPrediction:
    """Replay the ground-truth moving mask with seeded label faults.

    Error modes are applied in a fixed order: misses, boundary false
    positives (attached to the nearest instance's id), one optional clutter
    instance, then pairwise merges of instances whose minimum point gap is
    below `merge_gap`.  Coordinates and features are never touched.
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
        near_enough = d[np.arange(len(nearest)), nearest] <= config.boundary_reach
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

    present = np.unique(ids[moving])
    present = present[present > 0]
    if present.size >= 2:
        groups = {int(i): scan.xy[moving & (ids == i)] for i in present}
        parent = {int(i): int(i) for i in present}

        def root(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ai in range(len(present)):
            for bi in range(ai + 1, len(present)):
                a, b = int(present[ai]), int(present[bi])
                gap = float(np.min(cdist(groups[a], groups[b])))
                if gap < config.merge_gap and rng.random() < config.eps_merge:
                    ra, rb = root(a), root(b)
                    if ra != rb:
                        lo_id, hi_id = min(ra, rb), max(ra, rb)
                        parent[hi_id] = lo_id
        remap = {i: root(i) for i in map(int, present)}
        mov_idx = np.flatnonzero(moving)
        ids[mov_idx] = np.array([remap[int(i)] for i in ids[mov_idx]], dtype=np.int64)

    return MovingPrediction(scan.scan_id, moving, ids)


def surrogate_corpus(scans: list[RadarScan], config: SurrogateConfig) -> list[MovingPrediction]:
    """One prediction per scan, seeded by position in the corpus."""
    return [surrogate_backbone(s, config, i) for i, s in enumerate(scans)]
