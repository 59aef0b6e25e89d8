"""Fixed-radius neighbor search with a hard cap per point.

Every point gets a row of up to `n_max` neighbor slots.  Slot 0 is
always the point itself; the remaining slots hold neighbors within the
(inclusive) radius, ascending by squared distance with exact ties
broken by original point index, truncated at the cap.  Unused slots
are padded with index 0, valid=False and zero relative position, so
downstream code can gather unconditionally and mask.

Two implementations with identical output: a KD-tree search (Bentley,
CACM 1975) that collects every candidate pair at once and ranks each
row in one padded array, and an O(N^2) brute force kept as the
correctness reference.  Both compute squared distances with the same
helper, so distance ties land on bitwise-equal floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, ValidationError


@dataclass
class Neighborhood:
    indices: np.ndarray  # (N, n_max) int64, slot 0 = self
    valid: np.ndarray    # (N, n_max) bool
    rel_pos: np.ndarray  # (N, n_max, 2) anchor minus neighbor, 0 where invalid

    def __post_init__(self):
        if self.indices.shape != self.valid.shape or \
                self.rel_pos.shape != self.indices.shape + (2,):
            raise ValidationError("neighborhood array shapes disagree")

    @property
    def n_points(self) -> int:
        return self.indices.shape[0]


def _check_inputs(points: np.ndarray, radius: float, n_max: int) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValidationError(f"points must be (N, 2), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("non-finite point coordinates")
    if radius <= 0.0:
        raise ConfigError(f"radius must be positive, got {radius}")
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    return points


def _finish(points, indices, valid) -> Neighborhood:
    rel = points[:, None, :] - points.take(indices, axis=0)
    rel[~valid] = 0.0
    return Neighborhood(indices, valid, rel)


def _d2(diff: np.ndarray) -> np.ndarray:
    return diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]


def ball_query(points, radius: float, n_max: int) -> Neighborhood:
    """KD-tree search; output contract identical to brute force."""
    points = _check_inputs(points, radius, n_max)
    n = len(points)
    indices = np.zeros((n, n_max), dtype=np.int64)
    valid = np.zeros((n, n_max), dtype=bool)
    indices[:, 0] = np.arange(n)
    valid[:, 0] = True

    # the tree proposes pairs from a slightly wider ball; _d2 decides
    pairs = cKDTree(points).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
    # both directions of every pair, grouped by anchor, neighbors ascending
    key = np.sort(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                  pairs[:, 1] * n + pairs[:, 0]]))
    anchor, other = np.divmod(key, n)
    # each large temporary is released as soon as it is used up, so the
    # allocator can reuse its pages for the next one instead of faulting
    # in fresh ones
    del pairs, key
    d2 = _d2(points.take(anchor, axis=0) - points.take(other, axis=0))
    inside = d2 <= radius * radius
    anchor, other, d2 = anchor[inside], other[inside], d2[inside]
    del inside

    # one padded row per anchor; the stable sort keeps index order on ties
    counts = np.bincount(anchor, minlength=n)
    starts = np.cumsum(counts) - counts
    dist = np.full((n, max(int(counts.max(initial=0)), n_max - 1)), np.inf)
    dist[anchor, np.arange(len(anchor)) - starts[anchor]] = d2
    del anchor, d2
    near = np.argsort(dist, axis=1, kind="stable")[:, :n_max - 1].copy()
    del dist
    found = near < counts[:, None]
    indices[:, 1:][found] = other[(starts[:, None] + near)[found]]
    valid[:, 1:] = found
    return _finish(points, indices, valid)


def ball_query_bruteforce(points, radius: float, n_max: int) -> Neighborhood:
    """Reference implementation: full distance matrix, row by row."""
    points = _check_inputs(points, radius, n_max)
    n = len(points)
    indices = np.zeros((n, n_max), dtype=np.int64)
    valid = np.zeros((n, n_max), dtype=bool)
    if n == 0:
        return Neighborhood(indices, valid, np.zeros((0, n_max, 2)))
    r2 = radius * radius
    keep = n_max - 1
    for i in range(n):
        d2 = _d2(points[i] - points)
        within = d2 <= r2
        within[i] = False
        others = np.flatnonzero(within)
        best = others[np.lexsort((others, d2[others]))[:keep]]
        indices[i, 0] = i
        valid[i, 0] = True
        m = len(best)
        indices[i, 1:1 + m] = best
        valid[i, 1:1 + m] = True
    return _finish(points, indices, valid)
