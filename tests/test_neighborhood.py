"""Ball-query contracts: hand-derived rows, KD-tree vs brute force, padding."""

import numpy as np
import pytest

from radfiner.errors import ConfigError, ValidationError
from radfiner.neighborhood import ball_query, ball_query_bruteforce

# hand-worked example: r=2 (inclusive), cap 4 slots
#   0:(0,0) 1:(1,0) 2:(3,0) 3:(0,2) 4:(0.5,0.5) 5:(-1,-1) 6:(0,-1)
POINTS = np.array([
    [0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 2.0],
    [0.5, 0.5], [-1.0, -1.0], [0.0, -1.0],
])


@pytest.mark.parametrize("query", [ball_query, ball_query_bruteforce])
def test_hand_derived_rows(query):
    nb = query(POINTS, radius=2.0, n_max=4)
    # row 0: within = {1:d2=1, 3:4, 4:0.5, 5:2, 6:1}; the d2=1 tie between
    # points 1 and 6 breaks toward the lower index; slot cap drops point 3
    assert np.array_equal(nb.indices[0], [0, 4, 1, 6])
    assert np.array_equal(nb.valid[0], [True, True, True, True])
    assert np.allclose(nb.rel_pos[0], [[0, 0], [-0.5, -0.5], [-1, 0], [0, 1]])
    # row 2: only point 1 is in range (d2=4, inclusive boundary)
    assert np.array_equal(nb.indices[2], [2, 1, 0, 0])
    assert np.array_equal(nb.valid[2], [True, True, False, False])
    assert np.allclose(nb.rel_pos[2], [[0, 0], [2, 0], [0, 0], [0, 0]])
    # anchor always valid in slot 0 with zero offset
    assert np.array_equal(nb.indices[:, 0], np.arange(len(POINTS)))
    assert np.all(nb.valid[:, 0])
    assert np.all(nb.rel_pos[:, 0] == 0.0)
    assert np.all(nb.rel_pos[~nb.valid] == 0.0)


def test_fuzzed_inputs_match_brute_force():
    # integer grids with duplicated points make exact distance ties and
    # points on the inclusive radius; sizes span 0-300 points, caps 1-29
    rng = np.random.default_rng(31)
    cases = [(0, 5), (1, 1), (300, 29), (300, 1)]
    cases += [(int(rng.integers(0, 301)), int(rng.integers(1, 30))) for _ in range(40)]
    for n, n_max in cases:
        span = int(rng.integers(1, 12))
        pts = rng.integers(-span, span + 1, size=(n, 2)).astype(np.float64)
        if n > 1:
            dup = rng.integers(0, n, size=n // 4)
            pts[rng.integers(0, n, size=dup.size)] = pts[dup]
        if rng.random() < 0.5:
            pts *= 0.5  # half-steps: still exact in binary
        radius = float(rng.choice([0.5, 1.0, 2.0, 2.5, 5.0]))
        fast = ball_query(pts, radius, n_max)
        slow = ball_query_bruteforce(pts, radius, n_max)
        assert np.array_equal(fast.indices, slow.indices), (n, n_max, radius)
        assert np.array_equal(fast.valid, slow.valid), (n, n_max, radius)
        assert np.array_equal(fast.rel_pos, slow.rel_pos), (n, n_max, radius)


def test_cap_one_keeps_only_anchor():
    nb = ball_query(POINTS, radius=2.0, n_max=1)
    assert nb.indices.shape == (7, 1)
    assert np.all(nb.valid)
    assert np.array_equal(nb.indices[:, 0], np.arange(7))


def test_cap_two_truncates_to_nearest():
    nb = ball_query(POINTS, radius=2.0, n_max=2)
    assert np.array_equal(nb.indices[0], [0, 4])


def test_grid_matches_bruteforce_on_random_sets():
    for trial in range(60):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(0, 120)) if trial % 10 else int(rng.integers(0, 4))
        if trial % 2:
            # integer lattice with integer radius: exact distance ties,
            # repeated points and pairs exactly on the radius
            pts = rng.integers(-5, 6, size=(n, 2)).astype(np.float64)
            radius = float(rng.integers(1, 4))
        else:
            pts = rng.uniform(-20, 20, size=(n, 2))
            # duplicated coordinates force exact-tie handling through both paths
            if n > 4:
                pts[3] = pts[1]
            radius = float(rng.uniform(0.5, 8.0))
        n_max = int(rng.integers(1, 30))
        a = ball_query(pts, radius, n_max)
        b = ball_query_bruteforce(pts, radius, n_max)
        assert np.array_equal(a.indices, b.indices), f"trial {trial}"
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.rel_pos, b.rel_pos)


def test_inclusive_radius_boundary():
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    nb = ball_query(pts, radius=3.0, n_max=4)
    assert nb.valid[0, 1] and nb.indices[0, 1] == 1
    nb2 = ball_query(pts, radius=2.9999, n_max=4)
    assert not nb2.valid[0, 1]


def test_isolated_point_has_self_only():
    pts = np.array([[0.0, 0.0], [100.0, 100.0]])
    nb = ball_query(pts, radius=1.0, n_max=5)
    assert np.array_equal(nb.valid[0], [True, False, False, False, False])
    assert np.array_equal(nb.valid[1], [True, False, False, False, False])


def test_empty_input_yields_empty_output():
    nb = ball_query(np.zeros((0, 2)), radius=1.0, n_max=3)
    assert nb.indices.shape == (0, 3)


def test_input_validation():
    with pytest.raises(ConfigError):
        ball_query(POINTS, radius=0.0, n_max=4)
    with pytest.raises(ConfigError):
        ball_query(POINTS, radius=2.0, n_max=0)
    with pytest.raises(ValidationError):
        ball_query(np.array([[np.inf, 0.0]]), radius=1.0, n_max=2)
    with pytest.raises(ValidationError):
        ball_query(np.zeros((3, 3)), radius=1.0, n_max=2)
