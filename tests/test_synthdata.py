"""Scene generator physics/determinism and surrogate error injection."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from radfiner.errors import ConfigError
from radfiner.scans import RadarScan, SemanticClass, save_scans
from radfiner.synthdata import (DOPPLER_NOISE, MERGE_GAP, SceneConfig, SurrogateConfig,
                                _merge_nearby, generate_corpus, generate_scene,
                                radial_doppler, surrogate_backbone, surrogate_corpus)


# -- doppler geometry ---------------------------------------------------------

def test_radial_motion_reads_full_speed():
    pts = np.array([[5.0, 0.0], [20.0, 0.0], [43.0, 0.0]])
    d = radial_doppler(pts, np.array([10.0, 0.0]))
    assert np.allclose(d, 10.0)


def test_tangential_motion_reads_zero():
    d = radial_doppler(np.array([[5.0, 0.0]]), np.array([0.0, 3.0]))
    assert abs(d[0]) < 1e-12


def test_receding_cluster_mean_doppler():
    rng = np.random.default_rng(0)
    pts = np.array([20.0, 0.0]) + rng.normal(0.0, 0.1, (200, 2))
    d = radial_doppler(pts, np.array([10.0, 0.0]))
    assert abs(d.mean() - 10.0) < 0.05


def test_static_doppler_within_three_sigma():
    cfg = SceneConfig(seed=42)
    pooled = []
    i = 0
    while sum(len(p) for p in pooled) < 10000:
        scan = generate_scene(cfg, i)
        pooled.append(scan.doppler[scan.sem == SemanticClass.STATIC])
        i += 1
    d = np.concatenate(pooled)
    assert len(d) >= 10000
    frac = np.mean(np.abs(d) <= 3.0 * DOPPLER_NOISE)
    assert frac >= 0.99


# -- determinism and ground-truth invariants ----------------------------------

def test_same_seed_serializes_identically(tmp_path):
    cfg = SceneConfig(seed=5)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_scans([generate_scene(cfg, 7)], a)
    save_scans([generate_scene(cfg, 7)], b)
    assert a.read_bytes() == b.read_bytes()


def test_corpus_is_deterministic(tmp_path):
    cfg = SceneConfig(seed=5)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_scans(generate_corpus(cfg, 10), a)
    save_scans(generate_corpus(cfg, 10), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_base_seed_changes_scenes():
    s1 = generate_scene(SceneConfig(seed=1), 0)
    s2 = generate_scene(SceneConfig(seed=2), 0)
    assert len(s1) != len(s2) or not np.array_equal(s1.xy, s2.xy)


def test_ground_truth_invariants():
    cfg = SceneConfig(seed=3)
    for i in range(50):
        scan = generate_scene(cfg, i)
        static = scan.sem == SemanticClass.STATIC
        assert np.array_equal(static, scan.instance == 0)
        ids = np.unique(scan.instance[scan.instance > 0])
        # ids are 1..K and each instance is single-class
        assert np.array_equal(ids, np.arange(1, len(ids) + 1))
        for iid in ids:
            assert len(np.unique(scan.sem[scan.instance == iid])) == 1
        assert np.all(np.isfinite(scan.xy))
        lo, hi = cfg.instances_per_scan
        assert lo <= len(ids) <= hi


def test_impossible_fit_rejected():
    for max_range in (10.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="max_range"):
            SceneConfig(max_range=max_range)


def test_bad_probability_rejected():
    with pytest.raises(ConfigError):
        SurrogateConfig(eps_boundary=1.5)
    with pytest.raises(ConfigError):
        SurrogateConfig(eps_miss=-0.1)


# -- surrogate ---------------------------------------------------------------

def _two_instance_scan(gap: float) -> RadarScan:
    # two 3-point instances separated by `gap` along x
    left = np.array([[10.0, 0.0], [10.3, 0.0], [10.0, 0.3]])
    right = left + np.array([gap + 0.3, 0.0])
    xy = np.vstack([left, right])
    sem = np.full(6, int(SemanticClass.CAR))
    sem[3:] = int(SemanticClass.TRUCK)
    inst = np.array([1, 1, 1, 2, 2, 2])
    return RadarScan("two", xy, np.zeros(6), np.full(6, 5.0), sem, inst)


def test_zero_rates_are_identity():
    cfg = SceneConfig(seed=21)
    sur = SurrogateConfig(seed=0)
    for i in range(20):
        scan = generate_scene(cfg, i)
        pred = surrogate_backbone(scan, sur, i)
        assert np.array_equal(pred.moving, scan.moving_mask())
        assert np.array_equal(pred.instance, scan.instance)


def test_forced_merge_takes_smaller_id():
    scan = _two_instance_scan(gap=1.0)
    pred = surrogate_backbone(scan, SurrogateConfig(eps_merge=1.0, seed=0), 0)
    assert np.all(pred.moving)
    assert np.array_equal(pred.instance, np.ones(6, dtype=np.int64))


def test_distant_instances_never_merge():
    scan = _two_instance_scan(gap=3.0)  # beyond the 2 m merge gap
    pred = surrogate_backbone(scan, SurrogateConfig(eps_merge=1.0, seed=0), 0)
    assert len(np.unique(pred.instance)) == 2


def test_boundary_rate_matches_eps():
    # one large instance ringed by ~20000 eligible static points gives the
    # same binomial evidence as pooling many generated scans
    rng = np.random.default_rng(123)
    n_static = 20000
    ang = rng.uniform(0, 2 * np.pi, n_static)
    rad = rng.uniform(0.2, 1.8, n_static)
    center = np.array([15.0, 0.0])
    statics = center + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    inst_pts = center + rng.normal(0.0, 0.1, (8, 2))
    xy = np.vstack([inst_pts, statics])
    sem = np.concatenate([np.full(8, int(SemanticClass.CAR)), np.zeros(n_static, dtype=np.int64)])
    inst = np.concatenate([np.ones(8, dtype=np.int64), np.zeros(n_static, dtype=np.int64)])
    scan = RadarScan("ring", xy, np.zeros(len(xy)),
                     np.where(sem > 0, 5.0, 0.0), sem, inst)

    eps = 0.15
    pred = surrogate_backbone(scan, SurrogateConfig(eps_boundary=eps, seed=9), 0)
    flagged = pred.moving[8:]
    rate = flagged.mean()
    assert abs(rate - eps) < 0.01
    # flipped statics join the only instance present
    assert np.all(pred.instance[8:][flagged] == 1)


def test_miss_rate_matches_eps():
    rng = np.random.default_rng(5)
    n = 10000
    xy = np.array([20.0, 0.0]) + rng.normal(0, 2.0, (n, 2))
    scan = RadarScan("big", xy, np.zeros(n), np.full(n, 4.0),
                     np.full(n, int(SemanticClass.CAR)), np.ones(n, dtype=np.int64))
    pred = surrogate_backbone(scan, SurrogateConfig(eps_miss=0.3, seed=1), 0)
    assert abs(pred.moving.mean() - 0.7) < 0.02


def test_clutter_becomes_fresh_instance():
    cfg = SceneConfig(seed=33)
    sur = SurrogateConfig(eps_clutter=1.0, seed=2)
    saw_clutter = False
    for i in range(10):
        scan = generate_scene(cfg, i)
        pred = surrogate_backbone(scan, sur, i)
        gt_max = scan.instance.max()
        fresh = pred.instance > gt_max
        if np.any(fresh):
            saw_clutter = True
            fresh_ids = np.unique(pred.instance[fresh])
            for fid in fresh_ids:
                members = pred.instance == fid
                assert 1 <= members.sum() <= 5
                # promoted points are ground-truth static
                assert np.all(scan.sem[members] == SemanticClass.STATIC)
    assert saw_clutter


def test_surrogate_labels_only_never_adds_points():
    cfg = SceneConfig(seed=8)
    sur = SurrogateConfig(eps_boundary=0.5, eps_clutter=0.5, eps_merge=0.5,
                          eps_miss=0.5, seed=3)
    for i in range(10):
        scan = generate_scene(cfg, i)
        before = scan.xy.copy(), scan.rcs.copy(), scan.doppler.copy()
        pred = surrogate_backbone(scan, sur, i)
        assert len(pred) == len(scan)
        assert np.array_equal(scan.xy, before[0])
        assert np.array_equal(scan.rcs, before[1])
        assert np.array_equal(scan.doppler, before[2])


def test_surrogate_deterministic():
    cfg = SceneConfig(seed=4)
    sur = SurrogateConfig(eps_boundary=0.3, eps_clutter=0.3, eps_merge=0.3,
                          eps_miss=0.1, seed=6)
    scans = generate_corpus(cfg, 5)
    a = surrogate_corpus(scans, sur)
    b = surrogate_corpus(scans, sur)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.moving, pb.moving)
        assert np.array_equal(pa.instance, pb.instance)


def _merge_reference(xy, moving, ids, rng, config):
    # pair-by-pair scalar draws and a union-find where the lower root wins
    ids = ids.copy()
    present = np.unique(ids[moving])
    present = present[present > 0]
    if present.size >= 2:
        groups = {int(i): xy[moving & (ids == i)] for i in present}
        parent = {int(i): int(i) for i in present}

        def root(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ai in range(len(present)):
            for bi in range(ai + 1, len(present)):
                a, b = int(present[ai]), int(present[bi])
                gap = float(np.min(cdist(groups[a], groups[b])))
                if gap < MERGE_GAP and rng.random() < config.eps_merge:
                    ra, rb = root(a), root(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        mov = np.flatnonzero(moving)
        ids[mov] = [root(int(i)) for i in ids[mov]]
    return ids


def test_merges_match_union_find_reference():
    # a-b and b-c are close, a-c are not: all three end on c's id, the smallest
    chain = (np.array([[0.0, 0.0], [1.5, 0.0], [3.0, 0.0]]),
             np.ones(3, dtype=bool), np.array([2, 5, 1]))
    fuzz = np.random.default_rng(17)
    scenes = [chain]
    for _ in range(300):
        n = int(fuzz.integers(1, 40))
        ids = fuzz.integers(0, int(fuzz.integers(1, 12)), n)
        moving = (ids > 0) & (fuzz.random(n) < 0.9)
        ids[~moving] = 0
        scenes.append((fuzz.uniform(0.0, fuzz.uniform(1.0, 15.0), (n, 2)), moving, ids))
    for cfg_seed, scan in enumerate(generate_corpus(SceneConfig(seed=12), 20)):
        pre = surrogate_backbone(scan, SurrogateConfig(
            eps_boundary=0.3, eps_clutter=0.5, eps_miss=0.1, seed=cfg_seed), 0)
        scenes.append((scan.xy, pre.moving, pre.instance))
    merged = 0
    for eps in (0.5, 1.0):
        config = SurrogateConfig(eps_merge=eps)
        for k, (xy, moving, ids) in enumerate(scenes):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            expected = _merge_reference(xy, moving, ids, ref_rng, config)
            got = ids.copy()
            _merge_nearby(xy, moving, got, rng, config)
            assert np.array_equal(got, expected), k
            assert rng.random() == ref_rng.random()  # as many draws as the loop
            merged += not np.array_equal(got, ids)
    xy, moving, ids = chain
    _merge_nearby(xy, moving, ids, np.random.default_rng(0), SurrogateConfig(eps_merge=1.0))
    assert ids.tolist() == [1, 1, 1]
    assert merged > 100
