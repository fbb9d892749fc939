"""Simulator: scene construction, determinism, ray-cast geometry against an
independent oracle, camera rendering, noise models, ground truth algebra."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import matrix, relative, rig, rotation_exp, solve_pnp
from crosscal import geometry, sim
from crosscal.errors import InfeasibleLayout
from crosscal.geometry import RigidTransform
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec, checker_corners_board, circle_centers_board

CAM0 = SensorId("camera", 0)
L0 = SensorId("lidar", 0)

COARSE = sim.ScanPattern(az_res_deg=3.0, el_res_deg=3.0)
BEAMS_31 = sim.ScanPattern(el_res_deg=1.0)  # 31 beams, 55,800 rays: a fifth of the config's scan


# --- scene construction -----------------------------------------------------

def test_default_scene_shape():
    scene = sim.make_scene(rig())
    assert len(scene.sensors) == 5
    assert len(scene.board_poses) == 20
    assert set(scene.intrinsics) == {SensorId("camera", j) for j in range(3)}
    kinds = [s.kind for s in scene.sensor_ids]
    assert kinds == ["camera"] * 3 + ["lidar"] * 2


def test_minimal_scene_and_infeasible_layouts():
    scene = sim.make_scene(rig(1, 1), sequences=2, seed=1)
    assert len(scene.sensors) == 2
    with pytest.raises(InfeasibleLayout):
        sim.make_scene({L0: None}, sequences=1)


def test_every_board_meets_visibility_contract():
    scene = sim.make_scene(rig(), sequences=8, seed=2)
    for seq in range(8):
        seen = [s for s in scene.sensor_ids if sim.sensor_sees_board(scene, s, seq)]
        lidars = [s for s in seen if s.kind == "lidar"]
        cams = [s for s in seen if s.kind == "camera"]
        assert len(lidars) == 2
        assert len(cams) >= 1


# --- determinism ------------------------------------------------------------

def test_scene_seed_is_used_whole():
    """Seeds that agree in their low 31 bits draw different scenes: any
    non-negative integer the config accepts is a scene of its own."""
    boards = [
        np.array([matrix(t) for t in sim.make_scene(rig(), sequences=2, seed=seed).board_poses])
        for seed in (0, 2**31, 2**64 + 1)
    ]
    assert not np.array_equal(boards[0], boards[1])
    assert not np.array_equal(boards[0], boards[2])


def test_renders_bit_identical_across_scene_rebuilds():
    noise = sim.NoiseModel(lidar_sigma=0.005, pixel_sigma=0.5, dropout=0.1)
    a = sim.make_scene(rig(), sequences=2, seed=3, noise=noise, scan=BEAMS_31)
    b = sim.make_scene(rig(), sequences=2, seed=3, noise=noise, scan=BEAMS_31)
    for seq in range(2):
        for i in range(2):
            ca = sim.render_lidar(a, SensorId("lidar", i), seq)
            cb = sim.render_lidar(b, SensorId("lidar", i), seq)
            assert np.array_equal(ca, cb)
        for j in range(3):
            ((ids_a, uv_a),) = sim.render_camera(a, [(SensorId("camera", j), seq)])
            ((ids_b, uv_b),) = sim.render_camera(b, [(SensorId("camera", j), seq)])
            assert np.array_equal(ids_a, ids_b) and np.array_equal(uv_a, uv_b)


def test_render_order_independent():
    noise = sim.NoiseModel(lidar_sigma=0.01)
    scene = sim.make_scene(rig(), sequences=3, seed=4, noise=noise, scan=BEAMS_31)
    first = sim.render_lidar(scene, L0, 2)
    sim.render_lidar(scene, SensorId("lidar", 1), 0)  # interleave other renders
    sim.render_lidar(scene, L0, 0)
    assert np.array_equal(sim.render_lidar(scene, L0, 2), first)


# --- lidar ray casting ------------------------------------------------------

def _split_board_ground(scene, sensor, seq, cloud):
    """Classify world-frame points by distance to board plane vs ground."""
    world = scene.sensors[sensor].apply(cloud)
    t_bw = scene.board_poses[seq]
    n = t_bw.rotation[:, 2]
    d_board = np.abs((world - t_bw.translation) @ n)
    d_ground = np.abs(world[:, 2])
    return world, d_board, d_ground


def test_noise_free_points_lie_on_board_or_ground():
    scene = sim.make_scene(rig(), sequences=2, seed=5, scan=COARSE)
    for seq in range(2):
        cloud = sim.render_lidar(scene, L0, seq)
        assert len(cloud) > 100
        _, d_board, d_ground = _split_board_ground(scene, L0, seq, cloud)
        assert np.all(np.minimum(d_board, d_ground) < 1e-9)


def test_board_points_avoid_holes_and_stay_inside():
    scene = sim.make_scene(rig(), sequences=2, seed=6, scan=sim.ScanPattern(el_res_deg=0.3))
    spec = scene.spec
    for seq in range(2):
        cloud = sim.render_lidar(scene, L0, seq)
        world, d_board, d_ground = _split_board_ground(scene, L0, seq, cloud)
        on_board = (d_board < 1e-9) & (d_ground > 1e-9)
        assert on_board.sum() > 200
        q = geometry.invert(scene.board_poses[seq]).apply(world[on_board])
        assert np.abs(q[:, 0]).max() <= spec.board_width / 2 + 1e-9
        assert np.abs(q[:, 1]).max() <= spec.board_height / 2 + 1e-9
        for ox, oy in spec.circle_offsets:
            d2 = (q[:, 0] - ox) ** 2 + (q[:, 1] - oy) ** 2
            assert d2.min() > spec.circle_radius**2


def _oracle_cloud(scene, sensor, seq):
    """Independent per-ray re-implementation of the render geometry."""
    scan = scene.scan
    t_sw = scene.sensors[sensor]
    t_bw = scene.board_poses[seq]
    spec = scene.spec
    origin = t_sw.translation
    pts = []
    for az in np.arange(0.0, 360.0, scan.az_res_deg):
        for el in np.arange(scan.el_min_deg, scan.el_max_deg + 1e-9, scan.el_res_deg):
            a, e = np.deg2rad(az), np.deg2rad(el)
            d_s = np.array([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)])
            d_w = t_sw.rotation @ d_s
            best = np.inf
            n = t_bw.rotation[:, 2]
            if abs(d_w @ n) > 1e-12:
                t = float((t_bw.translation - origin) @ n / (d_w @ n))
                if t > 0.05:
                    q = geometry.invert(t_bw).apply(origin + t * d_w)
                    if abs(q[0]) <= spec.board_width / 2 and abs(q[1]) <= spec.board_height / 2:
                        if all(
                            (q[0] - ox) ** 2 + (q[1] - oy) ** 2 > spec.circle_radius**2
                            for ox, oy in spec.circle_offsets
                        ):
                            best = t
            if d_w[2] < -1e-12:
                t = -origin[2] / d_w[2]
                if t > 0.05:
                    best = min(best, t)
            if best <= scan.max_range:
                pts.append(best * d_s)
    return np.array(pts)


def test_render_matches_independent_ray_oracle():
    scene = sim.make_scene(rig(), sequences=1, seed=7, scan=COARSE)
    cloud = sim.render_lidar(scene, L0, 0)
    oracle = _oracle_cloud(scene, L0, 0)
    assert cloud.shape == oracle.shape
    assert np.abs(cloud - oracle).max() < 1e-9


def test_lidar_noise_is_along_the_ray():
    quiet = sim.make_scene(rig(), sequences=1, seed=8, scan=COARSE)
    noisy = replace(quiet, noise=sim.NoiseModel(lidar_sigma=0.01))
    c0 = sim.render_lidar(quiet, L0, 0)
    c1 = sim.render_lidar(noisy, L0, 0)
    assert c0.shape == c1.shape
    # same unit directions, perturbed ranges of the right magnitude
    u0 = c0 / np.linalg.norm(c0, axis=1, keepdims=True)
    u1 = c1 / np.linalg.norm(c1, axis=1, keepdims=True)
    assert np.abs(u0 - u1).max() < 1e-9
    dr = np.linalg.norm(c1, axis=1) - np.linalg.norm(c0, axis=1)
    assert 0.005 < dr.std() < 0.02


# --- ray grid ---------------------------------------------------------------

def _render_lidar_per_call(scene, sensor, sequence):
    """`render_lidar` with its ray grid built on every call and every ray cast
    on the board and the ground, as it was before the grid was held on the
    scene and the rays were culled: the reference for both."""
    scan = scene.scan
    t_sw = scene.sensors[sensor]
    t_bw = scene.board_poses[sequence]
    az = np.deg2rad(np.arange(0.0, 360.0, scan.az_res_deg))
    el = np.deg2rad(np.arange(scan.el_min_deg, scan.el_max_deg + 1e-9, scan.el_res_deg))
    azg, elg = np.meshgrid(az, el, indexing="ij")
    dirs_s = np.stack(
        [np.cos(elg) * np.cos(azg), np.cos(elg) * np.sin(azg), np.sin(elg)], axis=-1
    ).reshape(-1, 3)
    dirs_w = dirs_s @ t_sw.rotation.T
    origin = t_sw.translation
    ranges = np.full(len(dirs_w), np.inf)
    n = t_bw.rotation[:, 2]
    denom = dirs_w @ n
    num = float((t_bw.translation - origin) @ n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
    cand = (t_hit > 0.05) & np.isfinite(t_hit)
    if cand.any():
        hits_w = origin + t_hit[cand, None] * dirs_w[cand]
        q = geometry.invert(t_bw).apply(hits_w)
        inside = (np.abs(q[:, 0]) <= scene.spec.board_width / 2) & (
            np.abs(q[:, 1]) <= scene.spec.board_height / 2
        )
        for ox, oy in scene.spec.circle_offsets:
            inside &= (q[:, 0] - ox) ** 2 + (q[:, 1] - oy) ** 2 > scene.spec.circle_radius**2
        idx = np.where(cand)[0][inside]
        ranges[idx] = t_hit[idx]
    dz = dirs_w[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_g = np.where(dz < -1e-12, -origin[2] / dz, np.inf)
    ranges = np.minimum(ranges, np.where(t_g > 0.05, t_g, np.inf))
    valid = ranges <= scan.max_range
    r = ranges[valid]
    if scene.noise.lidar_sigma > 0:
        rng = sim._rng(scene.seed, 1, sequence, sensor.index)
        r = r + rng.normal(0.0, scene.noise.lidar_sigma, size=len(r))
    return r[:, None] * dirs_s[valid]


CONFIG_SCAN = sim.ScanPattern()  # the default config's 271,800-ray scan
SPARSE_SCAN = sim.ScanPattern(az_res_deg=30.0, el_res_deg=30.0)  # 24 rays


def _rig(scan, sigma):
    scene = sim.make_scene(rig(), sequences=2, seed=5, scan=scan, noise=sim.NoiseModel(lidar_sigma=sigma))
    return scene, None


def _one_board(board_pos, board_rot, sensor_rot=np.eye(3), scan=CONFIG_SCAN, hit=None):
    """One LiDAR at (0, 0, 0.5) and one board; `hit` checks the board's
    points in the sensor frame, to show that the scene is the case named."""
    scene = sim.Scene(
        {L0: RigidTransform(sensor_rot, [0.0, 0.0, 0.5])},
        {},
        (RigidTransform(board_rot, board_pos),),
        TargetSpec(),
        sim.NoiseModel(),
        0,
        scan,
    )
    return scene, hit


def _elevation_deg(b):
    return np.rad2deg(np.arcsin(b[:, 2] / np.linalg.norm(b, axis=1)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: _rig(CONFIG_SCAN, 0.0),
        lambda: _rig(SPARSE_SCAN, 0.0),
        lambda: _rig(CONFIG_SCAN, 0.005),
        # straddles azimuth 0, the first and the last rays of the grid
        lambda: _one_board(
            [5.0, 0.0, 1.25],
            sim._BOARD_BASE,
            hit=lambda b: (b[:, 0] > 0).all() and (b[:, 1] < 0).any() and (b[:, 1] > 0).any(),
        ),
        # the board's top edge is at 28 deg elevation, the scan's limit 15 deg
        lambda: _one_board(
            [3.0, 0.3, 1.6], sim._BOARD_BASE, hit=lambda b: _elevation_deg(b).max() > 14.9
        ),
        # turned 40 deg about the vertical, the board's far edge is past 5.1 m
        lambda: _one_board(
            [5.0, 0.0, 1.25],
            geometry.rot_z(np.deg2rad(40.0)) @ sim._BOARD_BASE,
            scan=replace(CONFIG_SCAN, max_range=5.1),
            hit=lambda b: np.linalg.norm(b, axis=1).max() > 5.05,
        ),
        # behind a sensor turned 23 deg, facing it
        lambda: _one_board(
            [-5.0, 0.3, 1.25],
            geometry.rot_z(np.pi) @ sim._BOARD_BASE,
            sensor_rot=rotation_exp([0.02, -0.03, 0.4]),
            hit=lambda b: (b[:, 0] < 0).all(),
        ),
        # 0.54 m from the board's center, within its 0.71 m half diagonal
        lambda: _one_board(
            [0.5, 0.0, 0.7],
            sim._BOARD_BASE,
            hit=lambda b: np.linalg.norm(b, axis=1).min() < 0.6,
        ),
        # the board's lower half hides the ground from rays pointing down
        lambda: _one_board([3.0, 0.0, 0.45], sim._BOARD_BASE, hit=lambda b: (b[:, 2] < 0).any()),
    ],
    ids=[
        "default-scan",
        "sparse-scan",
        "noisy",
        "board-across-azimuth-seam",
        "board-cut-by-elevation-limit",
        "board-partly-beyond-max-range",
        "board-behind-sensor",
        "sensor-inside-bounding-sphere",
        "board-occludes-ground",
    ],
)
def test_render_with_scene_ray_grid_equals_per_call_grid(make):
    scene, hit = make()
    lidars = [s for s in scene.sensor_ids if s.kind == "lidar"]
    for _ in range(2):  # the second pass reads the grid the first one built
        for seq in range(len(scene.board_poses)):
            for s in lidars:
                cloud = sim.render_lidar(scene, s, seq)
                assert np.array_equal(cloud, _render_lidar_per_call(scene, s, seq))
    if hit is not None:
        _, d_board, d_ground = _split_board_ground(scene, L0, 0, cloud)
        on_board = cloud[(d_board < 1e-6) & (d_ground > 1e-6)]
        assert len(on_board) > 100 and hit(on_board)


@pytest.mark.parametrize("sigma", [0.0, 0.005], ids=["noise-free", "noisy"])
def test_one_cast_renders_every_station_as_render_lidar_does(sigma):
    """One `LidarCast` per sensor, reused over the stations in reverse
    order, gives each station's cloud to the bit, as a fresh cast per
    station (`render_lidar`) and the per-call reference do; renders leave
    the cast's arrays as they were."""
    noise = sim.NoiseModel(lidar_sigma=sigma)
    scene = sim.make_scene(rig(), sequences=4, seed=6, noise=noise, scan=BEAMS_31)
    for sensor in (s for s in scene.sensor_ids if s.kind == "lidar"):
        cast = sim.LidarCast(scene, sensor)
        kept = [a.copy() for a in (cast._rays, cast._ranges, cast._dirs, cast.dirs_w)]
        for seq in reversed(range(len(scene.board_poses))):
            cloud = cast.render(seq)
            assert cloud.tobytes() == sim.render_lidar(scene, sensor, seq).tobytes()
            assert cloud.tobytes() == _render_lidar_per_call(scene, sensor, seq).tobytes()
        for a, b in zip((cast._rays, cast._ranges, cast._dirs, cast.dirs_w), kept):
            assert a.tobytes() == b.tobytes()


def test_ray_grid_is_read_only_and_per_scan():
    scene = sim.make_scene(rig(), sequences=1, seed=5, scan=CONFIG_SCAN)
    dirs = scene.ray_dirs
    assert dirs.shape == (1800 * 151, 3) and scene.ray_dirs is dirs
    assert not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.0
    sparse = replace(scene, scan=SPARSE_SCAN)
    assert sparse.ray_dirs.shape == (24, 3)
    assert scene.ray_dirs is dirs and scene.ray_dirs.shape == (1800 * 151, 3)
    assert np.array_equal(replace(sparse, scan=CONFIG_SCAN).ray_dirs, dirs)


@pytest.mark.parametrize("scan", [CONFIG_SCAN, SPARSE_SCAN], ids=["config-scan", "sparse-scan"])
def test_ray_grid_is_the_meshgrid_formula_built_in_place(scan):
    """The grid has the bits of the meshgrid/stack formula, and its build
    allocates little beyond the result itself."""
    scene = sim.make_scene(rig(), sequences=1, seed=5, scan=scan)
    tracemalloc.start()
    try:
        dirs = scene.ray_dirs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    az = np.deg2rad(np.arange(0.0, 360.0, scan.az_res_deg))
    el = np.deg2rad(np.arange(scan.el_min_deg, scan.el_max_deg + 1e-9, scan.el_res_deg))
    azg, elg = np.meshgrid(az, el, indexing="ij")
    expected = np.stack(
        [np.cos(elg) * np.cos(azg), np.cos(elg) * np.sin(azg), np.sin(elg)], axis=-1
    ).reshape(-1, 3)
    assert dirs.dtype == expected.dtype and dirs.shape == expected.shape
    assert dirs.tobytes() == expected.tobytes()
    assert not dirs.flags.writeable
    assert peak <= dirs.nbytes + 64 * 1024


# --- camera rendering -------------------------------------------------------

def test_camera_render_full_corner_set_and_pnp_round_trip():
    scene = sim.make_scene(rig(), sequences=3, seed=9)
    gt = sim.ground_truth(scene)
    checked = 0
    for seq in range(3):
        for j in range(3):
            cam = SensorId("camera", j)
            if not sim.sensor_sees_board(scene, cam, seq):
                continue
            (corners,) = sim.render_camera(scene, [(cam, seq)])
            assert corners[0].tolist() == list(range(49)) and corners[1].shape == (49, 2)
            pose = solve_pnp(corners, scene.spec, scene.intrinsics[cam])
            truth = gt.board_in_sensor(cam, seq)
            d = geometry.compose(geometry.invert(truth), pose)
            assert np.linalg.norm(d.translation) < 1e-6
            assert geometry.rotation_angle(d.rotation) < 1e-6
            checked += 1
    assert checked >= 3


def _visible_one_pair(t_sw, sensor, t_bw, spec, intr, scan, gates):
    """Whether one sensor sees one board, the per-pair formula that the
    visibility table replaces, with the LiDAR gates read from `gates`."""
    corners = np.array(
        [
            [sx * spec.board_width / 2, sy * spec.board_height / 2, 0.0]
            for sx in (-1, 1)
            for sy in (-1, 1)
        ]
        + [[0.0, 0.0, 0.0]]
    )
    pts_s = geometry.invert(t_sw).apply(t_bw.apply(corners))
    if sensor.kind == "camera":
        if np.any(pts_s[:, 2] <= 0.1):
            return False
        uv = geometry.project_many(intr, pts_s)
        return bool(
            np.all((uv[:, 0] >= 5) & (uv[:, 0] < intr.width - 5))
            and np.all((uv[:, 1] >= 5) & (uv[:, 1] < intr.height - 5))
        )
    rng_d = np.linalg.norm(pts_s, axis=1)
    el = np.rad2deg(np.arcsin(pts_s[:, 2] / np.maximum(rng_d, 1e-9)))
    return bool(
        np.all(rng_d < scan.max_range)
        and np.all(np.hypot(pts_s[:, 0], pts_s[:, 1]) > gates.d_min + sim._RANGE_MARGIN)
        and np.all(np.hypot(pts_s[:, 0], pts_s[:, 1]) < gates.d_max - sim._RANGE_MARGIN)
        and np.all(el > scan.el_min_deg + 0.5)
        and np.all(el < scan.el_max_deg - 0.5)
        and np.all(pts_s[:, 2] > gates.h_min + sim._HEIGHT_MARGIN)
    )


def _render_one_pair(scene, sensor, sequence):
    """(ids, uv) of one pair by the per-corner formula that the batched
    render replaces, as it was, for scenes without dropout."""
    intr = scene.intrinsics[sensor]
    t_bc = geometry.compose(geometry.invert(scene.sensors[sensor]), scene.board_poses[sequence])
    rng = sim._rng(scene.seed, 2, sequence, sensor.index)
    pts = np.array([t_bc.apply(pt) for pt in checker_corners_board(scene.spec)])
    front = pts[:, 2] > geometry.MIN_DEPTH
    ids = np.flatnonzero(front)
    uv = geometry.project_many(intr, pts[front])
    for n in range(len(ids)):
        uv[n] += rng.normal(0.0, scene.noise.pixel_sigma, size=2)
    keep = (0 <= uv[:, 0]) & (uv[:, 0] < intr.width) & (0 <= uv[:, 1]) & (uv[:, 1] < intr.height)
    return ids[keep], uv[keep]


@pytest.mark.parametrize("n_lidars, m_cameras", [(2, 3), (4, 6)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batches_keep_the_per_pair_arithmetic(monkeypatch, n_lidars, m_cameras, seed):
    """The visibility table equals the per-pair test on every candidate board
    that `make_scene` draws, and `render_camera`'s one pass over all visible
    pairs equals the per-corner render bit for bit, 0.5 px noise included."""
    tables = []

    def recorded(frames, boards, spec, scan, gates):
        out = visibility(frames, boards, spec, scan, gates)
        tables.append((boards, spec, scan, gates, out))
        return out

    visibility = sim._visibility
    monkeypatch.setattr(sim, "_visibility", recorded)
    noise = sim.NoiseModel(pixel_sigma=0.5)
    scene = sim.make_scene(rig(n_lidars, m_cameras), sequences=20, seed=seed, noise=noise)
    scene.visibility
    assert len(tables) > 20 and len(tables[-1][0]) == 20  # candidates, then the scene's table
    for boards, spec, scan, gates, out in tables:
        expected = [
            [
                _visible_one_pair(t_sw, s, t_bw, spec, scene.intrinsics.get(s), scan, gates)
                for t_bw in boards
            ]
            for s, t_sw in scene.sensors.items()
        ]
        assert np.array_equal(out, expected)
    pairs = [
        (s, seq)
        for seq in range(20)
        for s in scene.sensor_ids
        if s.kind == "camera" and sim.sensor_sees_board(scene, s, seq)
    ]
    assert len(pairs) >= 20
    for (s, seq), (ids, uv) in zip(pairs, sim.render_camera(scene, pairs)):
        ids_1, uv_1 = _render_one_pair(scene, s, seq)
        assert np.array_equal(ids, ids_1) and np.array_equal(uv, uv_1), (s, seq)


def test_board_behind_camera_renders_nothing():
    pose = RigidTransform(sim._CAMERA_AXES, np.array([0.0, 0.0, 1.2]))
    board = RigidTransform(sim._BOARD_BASE, np.array([-5.0, 0.0, 1.2]))
    scene = sim.Scene(
        {CAM0: pose},
        {CAM0: sim.default_intrinsics()},
        (board,),
        TargetSpec(),
        sim.NoiseModel(),
        0,
    )
    ((ids, uv),) = sim.render_camera(scene, [(CAM0, 0)])
    assert ids.shape == (0,) and uv.shape == (0, 2)


def test_dropout_statistic():
    base = sim.make_scene(rig(), sequences=10, seed=10)
    dropped = replace(base, noise=sim.NoiseModel(dropout=0.3))
    total = kept = 0
    for seq in range(10):
        for j in range(3):
            cam = SensorId("camera", j)
            total += len(sim.render_camera(base, [(cam, seq)])[0][0])
            kept += len(sim.render_camera(dropped, [(cam, seq)])[0][0])
    # binomial: kept ~ B(total, 0.7); allow 4 sigma
    sigma = np.sqrt(total * 0.3 * 0.7)
    assert abs(kept - 0.7 * total) < 4 * sigma


def test_wrong_sensor_kind_rejected():
    scene = sim.make_scene(rig(), sequences=1, seed=11)
    with pytest.raises(ValueError):
        sim.render_lidar(scene, CAM0, 0)
    with pytest.raises(ValueError):
        sim.render_camera(scene, [(CAM0, 0), (L0, 0)])


# --- ground truth algebra ---------------------------------------------------

def test_ground_truth_relative_inverse_and_loop():
    scene = sim.make_scene(rig(), sequences=2, seed=12)
    gt = sim.ground_truth(scene)
    ids = scene.sensor_ids
    for a in ids:
        for b in ids:
            m = matrix(geometry.compose(relative(gt, a, b), relative(gt, b, a)))
            assert np.abs(m - np.eye(4)).max() < 1e-12
    loop = RigidTransform.identity()
    for a, b in zip(ids, ids[1:] + [ids[0]]):
        loop = geometry.compose(relative(gt, a, b), loop)
    # chain of relatives around a loop telescopes only pairwise; verify the
    # composed chain equals the direct first-to-first relative (identity)
    chain = RigidTransform.identity()
    for a, b in zip(ids, ids[1:]):
        chain = geometry.compose(chain, relative(gt, b, a))
    chain = geometry.compose(chain, relative(gt, ids[0], ids[-1]))
    assert np.abs(matrix(chain) - np.eye(4)).max() < 1e-12


def test_centers_in_sensor_oracle():
    scene = sim.make_scene(rig(), sequences=2, seed=13)
    gt = sim.ground_truth(scene)
    for seq in range(2):
        for s in scene.sensor_ids:
            world = scene.board_poses[seq].apply(circle_centers_board(scene.spec))
            expect = geometry.invert(scene.sensors[s]).apply(world)
            assert np.abs(gt.centers_in_sensor(s, seq) - expect).max() < 1e-12
            bp = gt.board_in_sensor(s, seq)
            assert np.abs(bp.apply(circle_centers_board(scene.spec)) - expect).max() < 1e-9


def test_perturbed_board_init_is_rough_but_deterministic():
    scene = sim.make_scene(rig(), sequences=2, seed=14)
    gt = sim.ground_truth(scene)
    t1 = sim.perturbed_board_init(scene, L0, 0)
    t2 = sim.perturbed_board_init(scene, L0, 0)
    assert np.array_equal(matrix(t1), matrix(t2))
    truth = gt.board_in_sensor(L0, 0)
    d = geometry.compose(geometry.invert(truth), t1)
    dt = np.linalg.norm(t1.translation - truth.translation)
    assert 0.0 < dt < 0.5
    assert 0.0 < geometry.rotation_angle(d.rotation) < np.deg2rad(25.0)
