"""LiDAR pipeline: each Algorithm stage against brute-force oracles, plus
end-to-end detection on simulated clouds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import matrix, rig, rotation_exp, rough_board_pose
from crosscal import cli, geometry, io_formats, lidar, sim
from crosscal.errors import (
    DegenerateInput,
    EmptyAfterFilter,
    EmptyMatch,
    GridTooSmall,
    InconsistentCircles,
    LowInlierRatio,
    NoVoidFound,
    PoorFit,
)
from crosscal.geometry import RigidTransform
from crosscal.lidar import (
    LidarParams,
    OccupancyGrid,
    board_outline,
    build_occupancy,
    check_circle_geometry,
    detect_target_lidar,
    filter_cloud,
    find_target_region,
    match_points,
    normalize_plane,
    ransac_plane,
    refine_circles,
)
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec, circle_centers_board, generate_mask_cloud

P = LidarParams()
CAP = lidar._draws_needed(lidar._MIN_INLIER_SHARE)  # the triplets ransac_plane draws
SPEC = TargetSpec()
FINE_SCAN = sim.ScanPattern()


# --- filter -----------------------------------------------------------------

def test_filter_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(100):
        cloud = rng.uniform(-9, 9, size=(400, 3))
        try:
            out = filter_cloud(cloud, P)
        except EmptyAfterFilter:
            out = None
        keep = []
        for q in cloud:
            rho = np.hypot(q[0], q[1])
            if q[2] >= P.h_min and P.d_min < rho <= P.d_max:
                keep.append(q)
        keep = np.asarray(keep).reshape(-1, 3)
        if out is None:
            assert len(keep) < 100
        else:
            assert np.array_equal(out, keep)  # order preserved too


def test_filter_boundaries():
    base = np.tile([3.0, 0.0, 1.0], (200, 1))
    low = np.array([[3.0, 0.0, P.h_min - 1e-9]])
    at_hmin = np.array([[3.0, 0.0, P.h_min]])
    at_dmin = np.array([[P.d_min, 0.0, 1.0]])
    at_dmax = np.array([[P.d_max, 0.0, 1.0]])
    over_dmax = np.array([[P.d_max + 1e-9, 0.0, 1.0]])
    out = filter_cloud(np.vstack([base, low, at_hmin, at_dmin, at_dmax, over_dmax]), P)
    assert len(out) == 202  # base + z=h_min kept + rho=d_max kept
    assert any(np.allclose(q, [3.0, 0.0, P.h_min]) for q in out)
    assert not any(np.allclose(q, [P.d_min, 0.0, 1.0]) for q in out)


def test_filter_keeps_the_rows_of_the_boolean_mask_form():
    rng = np.random.default_rng(4)
    cloud = rng.uniform(-9, 9, size=(2000, 3))
    cloud[:300, 2] = P.h_min  # on the ground gate; the first 200 on a range gate too
    for lo, r in ((0, P.d_min), (100, P.d_max), (300, P.d_min), (400, P.d_max)):
        rows = np.arange(lo, lo + 100)
        cloud[rows, :2] = 0.0
        cloud[rows, rng.integers(0, 2, size=100)] = rng.choice([-r, r], size=100)  # rho is r
    high = cloud[cloud[:, 2] >= P.h_min]
    rho = np.hypot(high[:, 0], high[:, 1])
    want = high[(rho > P.d_min) & (rho <= P.d_max)]
    out = filter_cloud(cloud, P)
    assert out.dtype == np.float64 and out.tobytes() == want.tobytes()
    rho = np.hypot(out[:, 0], out[:, 1])
    assert not (rho == P.d_min).any()
    assert ((out[:, 2] == P.h_min) & (rho == P.d_max)).sum() == 100


def test_filter_empty_raises():
    with pytest.raises(EmptyAfterFilter):
        filter_cloud(np.tile([0.1, 0.0, 1.0], (500, 1)), P)  # all inside d_min


# --- match ------------------------------------------------------------------

def test_match_full_cloud_when_the_radius_holds_it():
    rng = np.random.default_rng(1)
    cloud = rng.uniform(-1, 1, size=(200, 3))
    assert np.array_equal(match_points(cloud, cloud[0], 4.0), cloud)


def test_match_strict_delta_boundary():
    near = np.tile([0.05, 0.0, 0.0], (60, 1))
    at_delta = np.array([[0.1, 0.0, 0.0]])
    out = match_points(np.vstack([near, at_delta]), np.zeros(3), 0.1)
    assert len(out) == 60  # the distance-delta point is excluded (strict)


def test_match_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cloud = rng.uniform(-1, 1, size=(300, 3))
        center = rng.uniform(-1, 1, size=3)
        delta = 0.8  # 12 of the 20 trials keep under 50 points
        expected = np.array([q for q in cloud if np.sqrt(((q - center) ** 2).sum()) < delta])
        if len(expected) < 50:
            with pytest.raises(EmptyMatch):
                match_points(cloud, center, delta)
        else:
            assert np.array_equal(match_points(cloud, center, delta), expected)


# --- ransac -----------------------------------------------------------------

def test_ransac_exact_ground_plane():
    rng = np.random.default_rng(5)
    xy = rng.uniform(-1, 1, size=(300, 2))
    pts = np.column_stack([xy, np.zeros(300)])
    plane, inliers = ransac_plane(pts, P)
    coefficients = np.array([plane.a, plane.b, plane.c, plane.d])
    assert np.allclose(coefficients * np.sign(plane.c), [0, 0, 1, 0], atol=1e-9)  # either sign
    assert len(inliers) == 300


def test_ransac_known_plane_with_20_percent_outliers():
    rng = np.random.default_rng(6)
    n_true = rotation_exp([0.3, -0.2, 0.0]) @ np.array([0.0, 0.0, 1.0])
    d_true = -1.3
    basis = np.linalg.svd(n_true[None, :])[2][1:]
    inplane = rng.uniform(-1, 1, size=(400, 2)) @ basis - d_true * n_true
    outliers = rng.uniform(-3, 3, size=(100, 3))
    pts = np.vstack([inplane, outliers])
    plane, inliers = ransac_plane(pts, P)
    ang = np.degrees(np.arccos(np.clip(abs(plane.normal() @ n_true), -1, 1)))
    assert ang < 0.5
    # recovered inliers are plane points, not scattered outliers
    dist_true = np.abs(inliers @ n_true + d_true)
    assert np.quantile(dist_true, 0.99) < 3 * P.ransac_eps
    assert len(inliers) >= 380


def test_ransac_two_points_degenerate():
    with pytest.raises(DegenerateInput):
        ransac_plane(np.zeros((2, 3)), P)


def test_ransac_low_inlier_ratio_on_volume_cloud():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(1500, 3))  # no plane holds 30% of a volume
    with pytest.raises(LowInlierRatio):
        ransac_plane(pts, P)


def test_ransac_deterministic_given_seed():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(-1, 1, size=(300, 2)), rng.normal(0, 0.005, 300)])
    p1, i1 = ransac_plane(pts, P)
    p2, i2 = ransac_plane(pts, P)
    assert p1 == p2 and np.array_equal(i1, i2)


@pytest.fixture
def scored(monkeypatch):
    """The sizes of the hypothesis chunks that ransac_plane scores, in order."""
    sizes = []
    inlier_counts = lidar._inlier_counts

    def counting(pts, tri, eps):
        sizes.append(len(tri))
        return inlier_counts(pts, tri, eps)

    monkeypatch.setattr(lidar, "_inlier_counts", counting)
    return sizes


def _plane_and_outliers(seed, n_pts, inlier_share):
    """Points exactly on z = 0, then outliers uniform in a 6 m cube, of which
    about 0.7% fall within ransac_eps of the plane."""
    rng = np.random.default_rng(seed)
    n_in = round(inlier_share * n_pts)
    inplane = np.column_stack([rng.uniform(-1, 1, size=(n_in, 2)), np.zeros(n_in)])
    return np.vstack([inplane, rng.uniform(-3, 3, size=(n_pts - n_in, 3))])


def test_draws_needed_is_the_fischler_bolles_count():
    assert lidar._draws_needed(0.947) == 8  # the rigs' lowest inlier share
    assert lidar._draws_needed(0.6) == 57
    assert lidar._draws_needed(0.3) == 505
    assert lidar._draws_needed(1.0) == 0
    assert lidar._draws_needed(0.0) == lidar._draws_needed(-1 / 300) == math.inf


def test_ransac_scores_one_chunk_on_an_exact_plane(scored):
    ransac_plane(_plane_and_outliers(12, 2000, 1.0), P)
    assert scored == [8]


def test_ransac_stop_on_an_exact_plane_keeps_the_full_scans_result(scored, monkeypatch):
    pts = _plane_and_outliers(12, 2000, 1.0)
    plane, inliers = ransac_plane(pts, P)
    # no stop before the cap, which stays the draws that the floor needs
    never_enough = {lidar._MIN_INLIER_SHARE: CAP}.get
    monkeypatch.setattr(lidar, "_draws_needed", lambda w: never_enough(w, math.inf))
    full_plane, full_inliers = ransac_plane(pts, P)
    assert scored[0] == 8 and sum(scored[1:]) == CAP
    assert plane == full_plane
    assert np.array_equal(inliers, full_inliers)


def test_ransac_with_40_percent_outliers_stops_before_the_cap(scored):
    plane, inliers = ransac_plane(_plane_and_outliers(13, 2000, 0.6), P)
    assert 8 < sum(scored) < CAP
    assert set(scored) == {8}
    assert abs(plane.c) > np.cos(np.radians(0.1)) and len(inliers) >= 1200


def test_ransac_cap_is_the_draws_that_its_inlier_floor_needs(scored, monkeypatch):
    """The cap is no setting: it is the draws that LowInlierRatio's floor needs."""
    assert CAP == 505
    monkeypatch.setattr(lidar, "_MIN_INLIER_SHARE", 0.5)
    line = np.column_stack([np.linspace(0, 1, 300), np.zeros(300), np.zeros(300)])
    with pytest.raises(DegenerateInput, match="collinear"):
        ransac_plane(line, P)
    assert sum(scored) == lidar._draws_needed(0.5) == 104


def test_ransac_near_the_inlier_floor_scores_up_to_the_cap(scored):
    pts = _plane_and_outliers(14, 2000, 0.29)
    with pytest.raises(LowInlierRatio, match=r"^\d+/2000 inliers, best of 505 hypotheses \(the cap\)"):
        ransac_plane(pts, P)
    assert sum(scored) == CAP


def test_ransac_does_not_stop_on_collinear_triplets(scored):
    line = np.column_stack([np.linspace(0, 1, 300), np.zeros(300), np.zeros(300)])
    with pytest.raises(DegenerateInput, match="collinear"):
        ransac_plane(line, P)
    assert sum(scored) == CAP


def test_triplets_hold_three_distinct_indices_and_follow_the_seed():
    for n in (3, 4, 7, 1000):
        tri = lidar._draw_triplets(np.random.default_rng(5), n, 500)
        assert tri.shape == (500, 3)
        assert tri.min() >= 0 and tri.max() < n
        assert (tri[:, 0] != tri[:, 1]).all()
        assert (tri[:, 0] != tri[:, 2]).all() and (tri[:, 1] != tri[:, 2]).all()
        again = lidar._draw_triplets(np.random.default_rng(5), n, 500)
        assert np.array_equal(tri, again)
    assert not np.array_equal(tri, lidar._draw_triplets(np.random.default_rng(6), n, 500))


def test_triplets_are_uniform_over_ordered_triplets():
    # 5 * 4 * 3 = 60 ordered triplets, each drawn ~1000 times in 60,000
    tri = lidar._draw_triplets(np.random.default_rng(0), 5, 60_000)
    counts = np.bincount(tri[:, 0] * 25 + tri[:, 1] * 5 + tri[:, 2], minlength=125)
    seen = counts[counts > 0]
    assert len(seen) == 60
    chi2 = float(((seen - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < 100  # 59 degrees of freedom: P(chi2 > 100) < 1e-3


def _ransac_per_hypothesis(pts, p):
    """Oracle: one hypothesis scored per iteration, over the triplets that
    ransac_plane draws, the first strictly larger count kept; after every 8th
    hypothesis the scan stops once it has scored log(1e-6) / log(1 - w^3),
    w being the best count's share. Then the same refit as ransac_plane.
    Returns the plane, its inliers and the hypotheses scored."""
    tri = lidar._draw_triplets(np.random.default_rng(lidar._SEED), len(pts), CAP)
    best_count, best_normal, best_d = -1, None, None
    for h, (i, j, k) in enumerate(tri, 1):
        n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(n)
        if norm >= 1e-12:
            n = n / norm
            d = -float(n @ pts[i])
            count = int((np.abs(pts @ n + d) < p.ransac_eps).sum())
            if count > best_count:
                best_count, best_normal, best_d = count, n, d
        w3 = (max(best_count, 0) / len(pts)) ** 3
        if h % 8 == 0 and w3 > 0 and (w3 == 1 or h >= math.log(1e-6) / math.log1p(-w3)):
            break
    plane = lidar._fit_plane_lsq(pts[np.abs(pts @ best_normal + best_d) < p.ransac_eps])
    return plane, pts[plane.distances(pts) < p.ransac_eps], h


def test_ransac_batched_matches_per_hypothesis_oracle(scored, monkeypatch):
    clouds = []
    for seed, n_pts in ((0, 300), (1, 1500), (2, 6000), (3, 70000)):
        rng = np.random.default_rng(seed)
        n_true = rotation_exp(rng.normal(0, 0.4, 3)) @ np.array([0.0, 0.0, 1.0])
        basis = np.linalg.svd(n_true[None, :])[2][1:]
        n_in = int(0.7 * n_pts)
        inplane = rng.uniform(-1, 1, size=(n_in, 2)) @ basis + rng.normal(0, 0.01, (n_in, 1)) * n_true
        pts = np.vstack([inplane, rng.uniform(-1, 1, size=(n_pts - n_in, 3))])
        pts[:3] = pts[0]  # a few repeated points for degenerate triplets
        clouds.append((seed, pts))
    for seed in range(4):  # two equal exact planes: the maximal count ties across them
        xy = np.random.default_rng(10 + seed).uniform(-1, 1, size=(400, 2))
        clouds.append((seed, np.vstack([np.column_stack([xy, np.full(400, z)]) for z in (0.0, 1.0)])))
    for seed, pts in clouds:
        monkeypatch.setattr(lidar, "_SEED", seed)
        scored.clear()
        plane, inliers = ransac_plane(pts, P)
        want_plane, want_inliers, want_scored = _ransac_per_hypothesis(pts, P)
        assert plane == want_plane
        assert np.array_equal(inliers, want_inliers)
        assert sum(scored) == want_scored


# --- plane frame ------------------------------------------------------------

def test_normalize_horizontal_plane_is_identity():
    pts = np.column_stack([np.random.default_rng(9).uniform(-1, 1, (50, 2)), np.full(50, 2.0)])
    frame = normalize_plane([0.0, 0.0, 1.0], [1.0, 0.0, 0.3])
    assert np.abs(frame - np.eye(3)).max() < 1e-12
    assert np.abs(pts @ frame.T - pts).max() < 1e-12


def test_normalize_20_degree_tilt_hand_formula():
    th = np.deg2rad(20.0)
    n = np.array([0.0, np.sin(th), np.cos(th)])
    frame = normalize_plane(n, [1.0, 0.0, 0.0])
    # rows x = e_x, n x x = (0, cos, -sin), n -> R = Rx(20 deg)
    assert np.abs(frame - geometry.rot_x(th)).max() < 1e-12
    assert np.abs(frame @ n - [0, 0, 1]).max() < 1e-12


def test_normalize_vertical_plane_fallback():
    n = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(10)
    pts = np.column_stack([np.zeros(200), rng.uniform(-1, 1, size=(200, 2))])
    frame = normalize_plane(n, [0.0, 1.0, 0.0])
    assert np.abs(frame @ n - [0, 0, 1]).max() < 1e-9
    assert np.ptp((pts @ frame.T)[:, 2]) < 2 * P.ransac_eps


def test_normalize_random_planes_map_normal_to_ez():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if n[2] < 0:
            n = -n
        frame = normalize_plane(n, rng.normal(size=3))
        assert np.abs(frame @ n - [0, 0, 1]).max() < 1e-9


def test_normalize_plane_is_an_orthonormal_frame_mapping_n_to_z_and_board_x_to_x():
    """100 random planes, among them 40 within 5.7 deg of upright (|n_z| <
    0.1) and n = +/-e_z, each with a random board x."""
    rng = np.random.default_rng(11)
    normals = rng.normal(size=(100, 3))
    normals[:40, 2] = 0.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    nz = rng.uniform(-0.1, 0.1, size=40)
    normals[:40] *= np.sqrt(1.0 - nz**2)[:, None]
    normals[:40, 2] = nz
    normals[40], normals[41] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    for n, board_x in zip(normals, rng.normal(size=(100, 3))):
        frame = normalize_plane(n, board_x)
        assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(frame) - 1.0) < 1e-12
        assert np.abs(frame @ n - [0.0, 0.0, 1.0]).max() < 1e-12
        x = board_x - (board_x @ n) * n
        assert np.abs(frame @ (x / np.linalg.norm(x)) - [1.0, 0.0, 0.0]).max() < 1e-12


# --- occupancy --------------------------------------------------------------

def test_occupancy_single_point():
    g = build_occupancy(np.array([[1.0, 2.0, 0.3]]), 200)
    assert g.occupied.sum() == 1
    assert g.res == 200


def test_occupancy_two_close_points_share_cell():
    pts = np.array([[1.0, 1.0, 0.0], [1.003, 1.003, 0.0]])  # 3 mm apart, 5 mm cells
    g = build_occupancy(pts, 200)
    i = np.floor((pts - [g.origin[0], g.origin[1], 0.0])[:, :2] * 200).astype(int)
    assert np.array_equal(i[0], i[1])  # both points bin into the same cell
    assert g.occupied.sum() == 1


def test_occupancy_matches_brute_force_binning():
    rng = np.random.default_rng(12)
    for _ in range(100):
        pts = rng.uniform(-2, 2, size=(150, 3))
        g = build_occupancy(pts, 200)
        cell = 1.0 / 200
        lo = pts[:, :2].min(axis=0) - cell
        expected = np.zeros_like(g.occupied)
        for q in pts:
            i = int(np.floor((q[0] - lo[0]) * 200))
            j = int(np.floor((q[1] - lo[1]) * 200))
            expected[i, j] = True
        assert np.allclose(g.origin, lo)
        assert np.array_equal(g.occupied, expected)


def test_occupancy_empty_raises():
    with pytest.raises(DegenerateInput):
        build_occupancy(np.zeros((0, 3)), 200)


# --- window -----------------------------------------------------------------

def test_window_single_dense_block():
    occ = np.zeros((60, 60), dtype=bool)
    occ[17:37, 23:43] = True
    g = OccupancyGrid(occ, np.zeros(2), 20.0)  # board 1 m -> 20 cells
    assert find_target_region(g, SPEC) == (17, 23)


def test_window_picks_denser_block():
    occ = np.zeros((60, 60), dtype=bool)
    rng = np.random.default_rng(13)
    a = rng.random((10, 10)) < 0.4  # ~40 cells
    b = rng.random((10, 10)) < 0.6  # ~60 cells
    while a.sum() >= b.sum():
        b = rng.random((10, 10)) < 0.6
    occ[5:15, 5:15] = a
    occ[40:50, 40:50] = b
    g = OccupancyGrid(occ, np.zeros(2), 10.0)
    assert find_target_region(g, SPEC) == (40, 40)


def test_window_matches_exhaustive_scan():
    rng = np.random.default_rng(14)
    for _ in range(50):
        occ = rng.random((25, 30)) < 0.3
        g = OccupancyGrid(occ, np.zeros(2), 10.0)
        s = 10
        best = (-1, None)
        for i in range(occ.shape[0] - s + 1):
            for j in range(occ.shape[1] - s + 1):
                c = int(occ[i : i + s, j : j + s].sum())
                if c > best[0]:
                    best = (c, (i, j))
        assert find_target_region(g, SPEC) == best[1]


def test_window_grid_too_small():
    g = OccupancyGrid(np.zeros((5, 5), dtype=bool), np.zeros(2), 200.0)
    with pytest.raises(GridTooSmall):
        find_target_region(g, SPEC)


def test_window_pads_a_grid_up_to_twenty_cells_short_evenly():
    rng = np.random.default_rng(16)
    for nx, ny, want in ((180, 200, (-10, 0)), (197, 200, (-1, 0)), (200, 199, (0, 0))):
        occ = rng.random((nx, ny)) < 0.5
        assert find_target_region(OccupancyGrid(occ, np.zeros(2), 200.0), SPEC) == want
    with pytest.raises(GridTooSmall, match="179x200"):
        find_target_region(OccupancyGrid(np.ones((179, 200), dtype=bool), np.zeros(2), 200.0), SPEC)


def test_board_on_a_199_by_203_grid_finds_its_holes():
    """A board whose points span a cell less than its width along x, and
    three cells more along y (the 199 x 203 grid of default_rig seq 16
    lidar1): the window is padded, and each hole is found within a cell."""
    cell = 1.0 / 200
    ii, jj = np.meshgrid(np.arange(199), np.arange(203), indexing="ij")
    origin = np.array([-0.495, -0.51])
    centers = origin + (np.stack([ii, jj], axis=-1) + 0.5) * cell
    occ = (np.abs(centers[..., 0]) < 0.495 - cell) & (np.abs(centers[..., 1]) < 0.5)
    for ox, oy in SPEC.circle_offsets:
        occ &= np.hypot(centers[..., 0] - ox, centers[..., 1] - oy) >= SPEC.circle_radius
    g = OccupancyGrid(occ, origin, 200.0)
    assert g.occupied.shape == (199, 203)
    window = find_target_region(g, SPEC)
    for c, (ox, oy) in zip(refine_circles(g, window, SPEC), SPEC.circle_offsets):
        assert np.abs(np.asarray(c) - [ox, oy]).max() <= g.cell + 1e-12


# --- refine_circles ---------------------------------------------------------

def _mask_grid(spec, res=200):
    pts = generate_mask_cloud(spec, 0.002)
    g = build_occupancy(pts, res)
    window = find_target_region(g, spec)
    return g, window


def test_refine_exact_holes_within_one_cell():
    g, window = _mask_grid(SPEC)
    centers = refine_circles(g, window, SPEC)
    for c, (ox, oy) in zip(centers, SPEC.circle_offsets):
        assert np.abs(np.asarray(c) - [ox, oy]).max() <= g.cell + 1e-12


def test_refine_holes_shifted_two_cells():
    shift = 0.01  # 2 cells at 5 mm
    spec2 = TargetSpec(
        circle_offsets=tuple((ox + shift, oy + shift) for ox, oy in SPEC.circle_offsets)
    )
    g0, w0 = _mask_grid(SPEC)
    g2, w2 = _mask_grid(spec2)
    base = refine_circles(g0, w0, SPEC)
    moved = refine_circles(g2, w2, SPEC)  # same design offsets, holes moved
    for b, m in zip(base, moved):
        d = np.asarray(m) - np.asarray(b)
        assert np.abs(d - shift).max() < 1e-9  # exactly 2 cells in x and y


def test_refine_fully_occupied_no_void():
    occ = np.ones((220, 220), dtype=bool)
    g = OccupancyGrid(occ, np.array([-0.55, -0.55]), 200.0)
    with pytest.raises(NoVoidFound):
        refine_circles(g, (10, 10), SPEC)


def test_check_circle_geometry_accepts_design_and_small_noise():
    design = circle_centers_board(SPEC)[:, :2]
    check_circle_geometry(design, SPEC)
    rng = np.random.default_rng(3)
    check_circle_geometry(design + rng.uniform(-0.02, 0.02, design.shape), SPEC)


def test_check_circle_geometry_rejects_wrong_void():
    bad = circle_centers_board(SPEC)[:, :2].copy()
    bad[1] += [0.15, 0.0]  # one center latched onto a void a few radii away
    with pytest.raises(InconsistentCircles, match="vs design"):
        check_circle_geometry(bad, SPEC)


def test_refine_prefers_subcell_estimate_on_ties():
    g, window = _mask_grid(SPEC)
    preferred = [np.asarray(o) + 0.0012 for o in SPEC.circle_offsets]
    centers = refine_circles(g, window, SPEC, preferred=preferred)
    for c, want in zip(centers, preferred):
        # preferred point returned verbatim when its cell attains the minimum
        assert np.abs(np.asarray(c) - want).max() < g.cell


def _refine_per_shift(g, window, spec, preferred=None):
    """Oracle: refine_circles counting each of the 441 shifts on its own."""
    i0, j0 = window
    win_center = g.origin + (np.array([i0, j0], dtype=float) + spec.board_width * g.res / 2.0) * g.cell
    di, dj = lidar._disc_stencil(spec.circle_radius * g.res)
    nx, ny = g.occupied.shape
    shifts = sorted(
        ((si, sj) for si in range(-10, 11) for sj in range(-10, 11)),
        key=lambda s: (s[0] * s[0] + s[1] * s[1], s),
    )
    centers = []
    for k, off in enumerate(spec.circle_offsets):
        c0 = win_center + np.array(off)
        ci, cj = np.floor((c0 - g.origin) * g.res).astype(int)
        counts = {}
        for si, sj in shifts:
            ii, jj = ci + si + di, cj + sj + dj
            inside = (ii >= 0) & (ii < nx) & (jj >= 0) & (jj < ny)
            counts[(si, sj)] = int(g.occupied[ii[inside], jj[inside]].sum()) + int(len(di) - inside.sum())
        best_count = min(counts.values())
        if best_count > 0.5 * len(di):
            raise NoVoidFound("oracle")
        ties = [s for s in shifts if counts[s] == best_count]
        if preferred is None:
            centers.append(c0 + np.array(ties[0]) * g.cell)
            continue
        want = np.asarray(preferred[k], dtype=float)[:2]
        pos_of = lambda s: g.origin + (np.array([ci + s[0], cj + s[1]]) + 0.5) * g.cell
        best = min(ties, key=lambda s: float(np.sum((pos_of(s) - want) ** 2)))
        want_cell = np.floor((want - g.origin) * g.res).astype(int)
        centers.append(want if np.array_equal(want_cell, [ci + best[0], cj + best[1]]) else pos_of(best))
    return centers


def test_refine_matches_per_shift_counts_with_ties_and_off_grid_cells():
    rng = np.random.default_rng(12)
    cell = 1.0 / 200
    for trial in range(6):
        # 200 x 200 grid and a window 8 cells in: the +0.38 m holes' shifted
        # stencils run off the grid's far edge
        occ = rng.random((200, 200)) < (0.6 if trial % 2 else 0.35)
        g = OccupancyGrid(occ, np.array([-0.5, -0.5]), 200.0)
        window = (8, 8)
        if trial % 2:  # voids wider than the stencil: many shifts tie at 0
            for ox, oy in SPEC.circle_offsets:
                i, j = int((ox + 0.5) / cell) + 8, int((oy + 0.5) / cell) + 8
                occ[max(i - 16, 0) : i + 17, max(j - 16, 0) : j + 17] = False
        design = [np.array(o) + 0.5 * cell + 8 * cell for o in SPEC.circle_offsets]
        preferred = [d + rng.uniform(-4, 4, 2) * cell for d in design]
        for pref in (None, preferred):
            got = refine_circles(g, window, SPEC, preferred=pref)
            want = _refine_per_shift(g, window, SPEC, preferred=pref)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


# --- board outline ----------------------------------------------------------

def _rectangle_points(rng, center, yaw, size, n=3000):
    """Uniform points of a rectangle turned by yaw, less a 0.1 m disc so the
    interior is not uniform."""
    local = rng.uniform(-0.5, 0.5, size=(n, 2)) * size
    local = local[np.hypot(local[:, 0] - 0.2, local[:, 1]) > 0.1]
    c, s = np.cos(yaw), np.sin(yaw)
    return local @ np.array([[c, s], [-s, c]]) + center


def test_outline_recovers_center_and_the_axis_nearest_x():
    rng = np.random.default_rng(17)
    for k, yaw in enumerate(np.deg2rad([0.0, 3.0, -12.0, 44.0, -44.0, 46.0, 80.0, 137.0])):
        center = rng.uniform(-2, 2, 2)
        pts = _rectangle_points(rng, center, yaw, (1.0, 1.0) if k % 2 else (1.0, 0.7))
        got_center, axis = board_outline(np.column_stack([pts, rng.normal(size=len(pts))]))
        # the rectangle's axes are yaw + k * 90 deg; the one within 45 deg of +x
        want = (yaw + np.pi / 4) % (np.pi / 2) - np.pi / 4
        assert abs(np.arctan2(axis[1], axis[0]) - want) < np.deg2rad(0.5)
        assert np.linalg.norm(axis) == pytest.approx(1.0)
        assert np.abs(got_center - center).max() < 0.01


def test_outline_longer_than_max_size_is_poor_fit():
    # a 1.0 x 0.7 m rectangle; turned by 80 deg, the axis nearest +x runs
    # along its short side, so its sides come as (0.7, 1.0)
    rng = np.random.default_rng(18)
    for yaw, size in ((10.0, np.array([1.0, 0.7])), (80.0, np.array([0.7, 1.0]))):
        xy = _rectangle_points(rng, (0.0, 0.0), np.deg2rad(yaw), (1.0, 0.7))
        pts = np.column_stack([xy, np.zeros(len(xy))])
        board_outline(pts, max_size=size + 0.01)
        for k in range(2):
            with pytest.raises(PoorFit, match="outline"):
                board_outline(pts, max_size=size + np.where(np.arange(2) == k, -0.01, 0.01))


def test_outline_of_collinear_points_is_degenerate():
    grid = np.repeat(np.arange(-10, 11) * 0.05, 3)  # a 0.05 grid, each point thrice
    for xy in (
        np.column_stack([np.linspace(0, 1, 50), np.linspace(0, 2, 50)]),
        np.tile([0.3, -1.2], (50, 1)),  # all equal
        np.array([[0.0, 0.0], [1.0, 0.5]]),
        np.column_stack([grid, grid]),
    ):
        with pytest.raises(DegenerateInput, match="no outline"):
            board_outline(np.column_stack([xy, np.zeros(len(xy))]))


def _hull_reference(xy):
    """Andrew's monotone chain over np.unique(xy, axis=0), with no filter."""
    pts = np.unique(xy, axis=0).tolist()
    hull = []
    for chain in (pts, pts[::-1]):
        start = len(hull)
        for p in chain:
            while len(hull) >= start + 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                hull.pop()
            hull.append(p)
        hull.pop()
    return np.array(hull).reshape(-1, 2)


def test_hull_is_strictly_convex_counter_clockwise_and_holds_every_point():
    rng = np.random.default_rng(19)
    for trial in range(260):
        n = int(rng.integers(3, 2000))
        kind = trial % 4 if trial < 200 else 4 + trial % 2
        if kind == 0:
            xy = rng.uniform(-1, 1, size=(n, 2))
        elif kind == 1:
            xy = rng.normal(size=(n, 2))
        elif kind == 2:  # a plane's inliers: a turned board with range noise
            xy = _rectangle_points(rng, (0.0, 0.0), rng.uniform(0, np.pi), (1.0, 0.7), n)
            xy = xy + rng.normal(scale=0.005, size=xy.shape)
        elif kind == 3:  # on a 0.05 grid, with duplicates
            xy = np.round(rng.uniform(-1, 1, size=(n, 2)) / 0.05) * 0.05
        elif kind == 4:  # each point up to 4 times, shuffled
            xy = rng.normal(size=(n // 3 + 3, 2))
            xy = rng.permutation(np.repeat(xy, rng.integers(1, 5, len(xy)), axis=0))
        else:  # a few columns of shared x, the extreme ones included
            xy = np.column_stack([rng.integers(-3, 4, n) * 0.1, rng.uniform(-1, 1, n)])
            xy[:2] = [[-0.3, 2.0], [-0.3, -2.0]]
        hull = lidar._convex_hull(xy)
        assert np.array_equal(hull, _hull_reference(xy))
        assert len(hull) >= 3
        assert (hull[:, None] == xy).all(axis=2).any(axis=1).all()  # input points
        edges = np.roll(hull, -1, axis=0) - hull
        after = np.roll(edges, -1, axis=0)
        turns = edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0]
        assert (turns > 0).all()  # counter-clockwise, no collinear vertex
        # strictly left turns adding up to one turn, not a star's two or more
        assert np.arctan2(turns, (edges * after).sum(axis=1)).sum() == pytest.approx(2 * np.pi)
        rel = xy[:, None] - hull  # every point on or left of every edge
        assert (edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0] >= -1e-12).all()
    # fewer than 3 distinct points, each repeated
    for xy in (np.tile([0.3, -1.2], (5, 1)), np.repeat([[0.0, 0.0], [1.0, 0.5]], 3, axis=0)):
        assert np.array_equal(lidar._convex_hull(xy), _hull_reference(xy))


# --- end-to-end -------------------------------------------------------------

def _lidar_scene(noise=None, sequences=2, seed=7, scan=FINE_SCAN, board_range=(5.5, 6.8)):
    return sim.make_scene(
        rig(2, 0),
        sequences=sequences,
        noise=noise,
        seed=seed,
        scan=scan,
        board_range=board_range,
    )


# Close board and fine angular grid so the scan lattice (point spacing) stays
# well under the 5 mm grid cell; at the default 0.2 deg / 6 m the spacing is
# ~20 mm and lattice aliasing alone costs 1-2 cells.
DENSE_SCAN = sim.ScanPattern(az_res_deg=0.1, el_res_deg=0.1)


def test_detect_noise_free_centers_within_one_cell():
    scene = _lidar_scene(scan=DENSE_SCAN, board_range=(4.5, 5.5))
    gt = sim.ground_truth(scene)
    cell = 1.0 / P.grid_res
    for seq in range(2):
        for s in scene.sensor_ids:
            cloud = sim.render_lidar(scene, s, seq)
            t_init = sim.perturbed_board_init(scene, s, seq)
            det = detect_target_lidar(cloud, scene.spec, t_init, P)
            err = np.linalg.norm(det.centers - gt.centers_in_sensor(s, seq), axis=1)
            assert err.max() <= np.sqrt(2) * cell + 1e-9


def test_detect_fixed_point_property():
    scene = _lidar_scene()
    s = SensorId("lidar", 0)
    cloud = sim.render_lidar(scene, s, 0)
    det1 = detect_target_lidar(cloud, scene.spec, sim.perturbed_board_init(scene, s, 0), P)
    det2 = detect_target_lidar(cloud, scene.spec, det1.pose, P)
    cell = 1.0 / P.grid_res
    assert np.linalg.norm(det1.centers - det2.centers, axis=1).max() <= np.sqrt(2) * cell + 1e-9


def test_detect_deterministic():
    scene = _lidar_scene(noise=sim.NoiseModel(lidar_sigma=0.005))
    s = SensorId("lidar", 0)
    cloud = sim.render_lidar(scene, s, 0)
    t_init = sim.perturbed_board_init(scene, s, 0)
    det1 = detect_target_lidar(cloud, scene.spec, t_init, P)
    det2 = detect_target_lidar(cloud, scene.spec, t_init, P)
    assert np.array_equal(det1.centers, det2.centers)
    assert np.array_equal(matrix(det1.pose), matrix(det2.pose))
    assert det1.fitness == det2.fitness


def test_detect_centers_near_board_plane():
    scene = _lidar_scene()
    gt = sim.ground_truth(scene)
    s = SensorId("lidar", 1)
    cloud = sim.render_lidar(scene, s, 1)
    det = detect_target_lidar(cloud, scene.spec, sim.perturbed_board_init(scene, s, 1), P)
    # lifted centers lie on one plane (rank-2 spread) near the true board plane
    t_bs = gt.board_in_sensor(s, 1)
    n = t_bs.rotation[:, 2]
    d = -float(n @ t_bs.translation)
    assert np.abs(det.centers @ n + d).max() < P.ransac_eps
    centered = det.centers - det.centers.mean(axis=0)
    assert np.linalg.svd(centered, compute_uv=False)[2] < 1e-6


def test_detect_upright_board_meets_zero_noise_bounds():
    """Boards tilted under 5.7 deg from upright, which the simulator's 8-20
    deg tilts never give: noise-free centers within 1e-5 m of the board
    plane and 2 grid cells of the truth in it. The dense scan keeps an
    unrolled board's edge points within a cell of its edges: at 0.2 deg and
    6 m the grid can fall short of the 200-cell window (GridTooSmall)."""
    base = _lidar_scene(sequences=1, scan=DENSE_SCAN)
    bearing = np.deg2rad(10.0)
    boards = tuple(
        RigidTransform(
            geometry.rot_z(bearing) @ sim._BOARD_BASE @ geometry.rotation_from_euler_xyz(*tilt),
            [5.0 * np.cos(bearing), 5.0 * np.sin(bearing), 1.25],
        )
        for tilt in ((0.0, 0.0, 0.0), (3.0, -2.0, 15.0), (-1.5, 4.0, -10.0))
    )
    scene = replace(base, board_poses=boards)
    gt = sim.ground_truth(scene)
    for seq in range(len(boards)):
        for s in scene.sensor_ids:
            t_bs = gt.board_in_sensor(s, seq)
            assert abs(t_bs.rotation[2, 2]) < 0.1  # the board normal's z, sensor frame
            det = detect_target_lidar(
                sim.render_lidar(scene, s, seq), scene.spec, sim.perturbed_board_init(scene, s, seq), P
            )
            local = geometry.invert(t_bs).apply(det.centers)
            assert np.abs(local[:, 2]).max() <= 1e-5
            in_plane = np.linalg.norm(local[:, :2] - circle_centers_board(scene.spec)[:, :2], axis=1)
            assert in_plane.max() <= 2 / P.grid_res


def test_detect_non_square_board_meets_the_in_plane_bound():
    """A 1.0 x 0.8 m board: the window spans the board's width along the
    grid's x and its height along y, so every noise-free station is
    detected, each center within 2 grid cells of the truth in the plane."""
    spec = TargetSpec(
        board_height=0.8, circle_offsets=((-0.38, 0.28), (0.38, 0.28), (0.38, -0.28), (-0.38, -0.28))
    )
    scene = sim.make_scene(rig(2, 0), sequences=4, spec=spec, seed=7, scan=FINE_SCAN)
    gt = sim.ground_truth(scene)
    for seq in range(len(scene.board_poses)):
        for s in scene.sensor_ids:
            det = detect_target_lidar(
                sim.render_lidar(scene, s, seq), spec, sim.perturbed_board_init(scene, s, seq), P
            )
            local = geometry.invert(gt.board_in_sensor(s, seq)).apply(det.centers)
            in_plane = np.linalg.norm(local[:, :2] - circle_centers_board(spec)[:, :2], axis=1)
            assert in_plane.max() <= 2 / P.grid_res


def test_detect_board_free_cloud_fails_at_a_typed_stage():
    """A volume of points holds no plane of 30% of the crop: RANSAC's
    LowInlierRatio, tagged with its stage; a prior away from every point
    leaves an empty crop."""
    rng = np.random.default_rng(15)
    cloud = np.column_stack(
        [rng.uniform(4, 6, 3000), rng.uniform(-1, 1, 3000), rng.uniform(0.2, 2.0, 3000)]
    )
    t_init = RigidTransform(geometry.rot_y(np.pi / 2), np.array([5.0, 0.0, 1.0]))
    with pytest.raises(LowInlierRatio) as ei:
        detect_target_lidar(cloud, SPEC, t_init, P)
    assert ei.value.stage == "ransac"
    assert "stage 'ransac'" in str(ei.value)
    far = RigidTransform(t_init.rotation, np.array([5.0, 4.0, 1.0]))
    with pytest.raises(EmptyMatch, match="stage 'match'"):
        detect_target_lidar(cloud, SPEC, far, P)


def test_detect_board_on_a_wall_fails_at_the_outline():
    """A prior on a bare 3 m wall: RANSAC's plane is the wall, whose outline
    fills the crop and exceeds the board's sides. Without the outline's
    bound the wall's points would fail later, at the circles."""
    rng = np.random.default_rng(16)
    yz = rng.uniform(-1.5, 1.5, size=(20000, 2)) + [0.0, 1.0]
    cloud = np.column_stack([np.full(len(yz), 5.0), yz])
    t_init = RigidTransform(geometry.rot_y(-np.pi / 2), np.array([5.0, 0.0, 1.0]))
    with pytest.raises(PoorFit, match="stage 'outline'") as ei:
        detect_target_lidar(cloud, SPEC, t_init, P)
    assert ei.value.stage == "outline"


@pytest.mark.parametrize("noise", [None, sim.NoiseModel(lidar_sigma=0.005)], ids=["clean", "noisy"])
def test_detect_without_a_prior_is_the_detection_from_the_rough_pose(noise):
    """With no prior the detector derives the rough pose from the cloud it
    has filtered: bit for bit the detection from `rough_board_pose`'s pose."""
    scene = _lidar_scene(noise=noise, sequences=3, seed=11)
    for seq in range(len(scene.board_poses)):
        for s in scene.sensor_ids:
            cloud = sim.render_lidar(scene, s, seq)
            det = detect_target_lidar(cloud, scene.spec, None, P)
            ref = detect_target_lidar(cloud, scene.spec, rough_board_pose(cloud, P), P)
            assert np.array_equal(matrix(det.pose), matrix(ref.pose))
            assert np.array_equal(det.centers, ref.centers)
            assert det.fitness == ref.fitness


def test_detect_without_a_prior_on_ground_only_fails_at_the_filter():
    cloud = sim.render_lidar(_lidar_scene(), SensorId("lidar", 0), 0)
    with pytest.raises(EmptyAfterFilter, match="stage 'filter'"):
        detect_target_lidar(cloud[cloud[:, 2] < P.h_min], SPEC, None, P)


def test_detect_noisy_centers_within_2cm_20_trials():
    scene = _lidar_scene(noise=sim.NoiseModel(lidar_sigma=0.005), sequences=5, seed=1)
    gt = sim.ground_truth(scene)
    errs = []
    for seq in range(5):
        for s in scene.sensor_ids:
            cloud = sim.render_lidar(scene, s, seq)
            t_init = sim.perturbed_board_init(scene, s, seq)
            det = detect_target_lidar(cloud, scene.spec, t_init, P)
            errs.append(np.linalg.norm(det.centers - gt.centers_in_sensor(s, seq), axis=1).mean())
    assert len(errs) == 10
    assert np.mean(errs) < 0.02


def test_detect_noisy_rig_seq_16_lidar0_on_its_float64_cloud():
    """The noisy default rig's seq 16 lidar0 cloud as `render_lidar` returns
    it, before the PLY writer rounds it to float32. A board model registered
    by GICP put its centers 0.856 m apart against the 0.760 m design
    (InconsistentCircles): the registered yaw, 10.5 deg off, turned the
    grid's axes from the board's, which moved the design offsets ~0.1 m
    from the holes, past the 10-cell circle search. The outline's yaw is
    within a fraction of a degree."""
    cfg = io_formats.default_config()
    noise = {"lidar_sigma": 0.005, "pixel_sigma": 0.5, "dropout": 0.0}
    scene = cli._scene_from_config(replace(cfg, sim={**cfg.sim, "noise": noise}), 0)
    s = SensorId("lidar", 0)
    cloud = sim.render_lidar(scene, s, 16)
    assert cloud.dtype == np.float64
    t_init = sim.perturbed_board_init(scene, s, 16)
    det = detect_target_lidar(cloud, scene.spec, t_init, cfg.lidar_params)
    local = geometry.invert(sim.ground_truth(scene).board_in_sensor(s, 16)).apply(det.centers)
    in_plane = np.linalg.norm(local[:, :2] - circle_centers_board(scene.spec)[:, :2], axis=1)
    assert in_plane.max() < 0.02
