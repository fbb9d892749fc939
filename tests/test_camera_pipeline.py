"""Camera pipeline: PnP recovery, Jacobian, ambiguity resolution, circle
center derivation, simulator round-trip."""

import numpy as np
import pytest

from conftest import CIRCLE_BEHIND_CAMERA, lm_without_reduction_stop, matrix, rig, solve_pnp
from crosscal import geometry, sim
from crosscal.camera import detect_target_camera, pnp_jacobian
from crosscal.errors import BehindCamera, DegenerateConfiguration, InsufficientCorners
from crosscal.geometry import Intrinsics, RigidTransform
from crosscal.lm import levenberg_marquardt
from crosscal.optimizer import SensorId
from crosscal.target import TargetSpec, checker_corners_board, circle_centers_board

K = Intrinsics(700.0, 700.0, 639.5, 359.5, 1280, 720)
SPEC = TargetSpec()
OBJ = np.array([p for _, p in checker_corners_board(SPEC)])  # all corners, id order

# board facing the camera (board +z toward the camera) at 3 m
_FACING = geometry.rot_x(np.pi)


def board_pose(rng=None, dist=3.0):
    if rng is None:
        return RigidTransform(_FACING, np.array([0.0, 0.0, dist]))
    tilt = geometry.rotation_exp(rng.normal(0.0, np.deg2rad(10.0), size=3))
    t = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), dist + rng.uniform(-0.5, 0.5)])
    return RigidTransform(tilt @ _FACING, t)


def synth_corners(pose, ids=None, noise=0.0, rng=None):
    """Corner set (ids, uv) of the board at `pose` in camera K: the corners
    `ids` (all by default) in id order, with `noise` px of pixel noise."""
    ids = np.arange(len(OBJ)) if ids is None else np.unique(ids)
    uv = geometry.project_many(K, pose.apply(OBJ[ids]))
    if noise > 0:
        uv = uv + rng.normal(0.0, noise, size=uv.shape)
    return ids, uv


def detect_one(pose):
    """The detection of the full corner set of the board at `pose`."""
    (det,) = detect_target_camera([synth_corners(pose)], SPEC, [K])
    return det


def pose_delta(a, b):
    d = geometry.compose(geometry.invert(a), b)
    return float(np.linalg.norm(a.translation - b.translation)), geometry.rotation_angle(d.rotation)


def test_exact_recovery_16_corners():
    rng = np.random.default_rng(0)
    for _ in range(10):
        truth = board_pose(rng)
        ids = list(range(16))
        pose = solve_pnp(synth_corners(truth, ids=ids), SPEC, K)
        dt, dr = pose_delta(truth, pose)
        assert dt < 1e-6 and dr < 1e-6
        # reprojection residual below 1e-8 px
        obj = dict(checker_corners_board(SPEC))
        errs = [
            np.linalg.norm(
                geometry.project_many(K, pose.apply(obj[i]))
                - geometry.project_many(K, truth.apply(obj[i]))
            )
            for i in ids
        ]
        assert max(errs) < 1e-8


def test_noisy_pnp_translation_error_median():
    rng = np.random.default_rng(1)
    errs = []
    for _ in range(20):
        truth = board_pose(rng)
        pose = solve_pnp(synth_corners(truth, noise=0.5, rng=rng), SPEC, K)
        errs.append(pose_delta(truth, pose)[0])
    assert np.median(errs) < 0.03


def _rejected_trials(costs):
    """(all, after the last accepted step) rejected trials of an LM run, from
    the cost of every residual evaluation: a trial is accepted iff it lowers
    the cost."""
    best, rejected, tail = costs[0], 0, 0
    for c in costs[1:]:
        if c < best:
            best, tail = c, 0
        else:
            rejected, tail = rejected + 1, tail + 1
    return rejected, tail


def test_noisy_pnp_lm_stops_at_the_cost_rounding_floor():
    """Boards at 5 m with 0.5 px noise: the gradient at the optimum stays above
    gradient_tol (1e-10) but below what the cost can resolve. LM stops there
    with at most 2 rejected trials after its last accepted step, where damping
    until lambda > 1e14 rejects a median of ~16, and lands within 1e-8 of that
    loop's pose."""
    rng = np.random.default_rng(21)
    old_tails = []
    for _ in range(12):
        truth = board_pose(rng, dist=5.0)
        uv = synth_corners(truth, noise=0.5, rng=rng)[1]
        start = geometry.compose(geometry.exp_se3(rng.normal(0.0, 0.02, 6)), truth)
        costs = []

        def residual(t):
            r = (geometry.project_many(K, t.apply(OBJ)) - uv).ravel()
            costs.append(0.5 * float(r @ r))
            return r

        def plus(t, dx):
            return geometry.compose(geometry.exp_se3(dx), t)

        args = (residual, lambda t: pnp_jacobian(t.apply(OBJ), K.fx, K.fy), plus)
        res = levenberg_marquardt(start, *args, gradient_tol=1e-10)
        assert _rejected_trials(costs)[1] <= 2
        costs.clear()
        old_state = lm_without_reduction_stop(start, *args, gradient_tol=1e-10)[0]
        old_tails.append(_rejected_trials(costs)[1])
        dt, dr = pose_delta(old_state, res.state)
        assert dt < 1e-8 and dr < 1e-8
    assert np.median(old_tails) >= 10


def _project(poses):
    """Pixels (P, 49, 2) of all board corners under poses (P, 4, 4), whether
    any corner is behind the camera, and the camera-frame corners."""
    pts = OBJ @ poses[:, :3, :3].transpose(0, 2, 1) + poses[:, None, :3, 3]
    behind = (pts[..., 2] <= geometry.MIN_DEPTH).any(axis=1)
    return K.fx * pts[..., :2] / pts[..., 2:] + (K.cx, K.cy), behind, pts


def _matrix(t):
    return np.vstack([np.column_stack([t.rotation, t.translation]), [0.0, 0.0, 0.0, 1.0]])


def test_batched_lm_matches_problems_solved_one_at_a_time():
    """PnP problems solved in one lock-step batch against the same problems
    solved one at a time by the unbatched call: cost within 1e-9 relative,
    pose within 1e-6, the same stop verdicts and the same total iterations.
    The batch mixes a problem that starts at its optimum (gradient 0), noisy
    boards at 2-6 m, and boards at 0.4-1 m from far-off starts: some of these
    try steps that put corners behind the camera, which both reject through
    an infinite residual, and some run to max_iter."""
    rng = np.random.default_rng(1)
    starts, uv = [], []
    for n in range(48):
        near = n >= 8
        truth = _matrix(board_pose(rng, dist=rng.uniform(0.4, 1.0) if near else rng.uniform(2.0, 6.0)))
        sigma = np.repeat((0.2, 0.6) if near else (0.02, 0.02), 3)
        start = geometry.exp_se3_matrix(rng.normal(0.0, sigma)) @ truth
        pixels = _project((start if n == 0 else truth)[None])[0][0]
        if _project(start[None])[1][0]:
            continue
        starts.append(start)
        uv.append(pixels + (0.0 if n == 0 else rng.normal(0.0, 0.5, pixels.shape)))
    starts, uv = np.array(starts), np.array(uv)

    def jacobian(states, rows):
        return pnp_jacobian(_project(states)[2], K.fx, K.fy)

    def residual(states, rows):
        pixels, behind, _ = _project(states)
        r = (pixels - uv[rows]).reshape(len(rows), -1)
        r[behind] = np.inf
        return r

    def plus(states, dx):
        return geometry.exp_se3_matrix(dx) @ states

    options = {"max_iter": 10, "gradient_tol": 1e-10}
    batch = levenberg_marquardt(starts.copy(), residual, jacobian, plus, batched=True, **options)
    singles, behind = [], 0
    for k, start in enumerate(starts):

        def residual_one(state):
            nonlocal behind
            r = residual(state[None], [k])
            behind += not np.isfinite(r).all()
            return r[0]

        singles.append(
            levenberg_marquardt(
                start,
                residual_one,
                lambda s: jacobian(s[None], [k])[0],
                lambda s, dx: plus(s[None], dx[None])[0],
                **options,
            )
        )
    cost = np.array([r.cost for r in singles])
    assert np.all(np.abs(batch.cost - cost) <= 1e-9 * cost)
    assert np.abs(batch.state - np.array([r.state for r in singles])).max() <= 1e-6
    assert list(batch.converged) == [r.converged for r in singles]
    assert batch.iterations == sum(r.iterations for r in singles)
    assert [len(h) for h in batch.cost_history] == [len(r.cost_history) for r in singles]
    # the mixture the batch was built for
    assert singles[0].iterations == 1 and singles[0].converged and singles[0].cost == 0.0
    assert behind > 0
    assert any(r.iterations == options["max_iter"] and not r.converged for r in singles)
    assert sum(r.converged for r in singles) > len(singles) // 2


def test_detect_batch_matches_sets_detected_alone():
    """Corner sets of different sizes, and sets that fail, detected in one
    call: each set gets what it gets alone, the failures their typed errors
    in place."""
    rng = np.random.default_rng(9)
    sets = []
    for n in range(8):
        truth = board_pose(rng, dist=rng.uniform(1.5, 6.0))
        ids = None if n % 2 else list(rng.choice(49, size=rng.integers(8, 40), replace=False))
        sets.append(synth_corners(truth, ids=ids, noise=0.5, rng=rng))
    sets.insert(3, synth_corners(board_pose(), ids=[0, 1, 2]))
    sets.insert(6, synth_corners(board_pose(), ids=list(range(7))))  # one board row
    sets.insert(8, synth_corners(CIRCLE_BEHIND_CAMERA))  # every corner in front of the camera
    k2 = Intrinsics(900.0, 880.0, 640.0, 360.0, 1280, 720)
    cams = [K if n % 3 else k2 for n in range(len(sets))]
    together = detect_target_camera(sets, SPEC, cams)
    assert isinstance(together[3], InsufficientCorners)
    assert isinstance(together[6], DegenerateConfiguration)
    assert isinstance(together[8], BehindCamera)
    for corners, k, det in zip(sets, cams, together):
        (alone,) = detect_target_camera([corners], SPEC, [k])
        if isinstance(alone, Exception):
            assert type(det) is type(alone)
            continue
        assert np.abs(matrix(det.pose) - matrix(alone.pose)).max() < 1e-9
        assert det.corners_used == alone.corners_used == len(corners[0])
        assert det.reprojection_error == pytest.approx(alone.reprojection_error, rel=1e-9)
        assert np.allclose(det.centers_2d, alone.centers_2d, rtol=0, atol=1e-6)


def test_too_few_corners():
    truth = board_pose()
    with pytest.raises(InsufficientCorners):
        solve_pnp(synth_corners(truth, ids=[0, 1, 2]), SPEC, K)
    empty = (np.zeros(0, dtype=int), np.zeros((0, 2)))
    with pytest.raises(InsufficientCorners):
        solve_pnp(empty, SPEC, K)
    assert isinstance(detect_target_camera([empty], SPEC, [K])[0], InsufficientCorners)


def test_collinear_corners_degenerate():
    truth = board_pose()
    with pytest.raises(DegenerateConfiguration):
        solve_pnp(synth_corners(truth, ids=list(range(7))), SPEC, K)  # one board row


def test_unknown_corner_ids_ignored():
    truth = board_pose()
    ids, uv = synth_corners(truth, ids=list(range(10)))
    corners = (np.append(ids, [999, -1]), np.vstack([uv, [[10.0, 10.0], [20.0, 20.0]]]))
    pose = solve_pnp(corners, SPEC, K)
    dt, dr = pose_delta(truth, pose)
    assert dt < 1e-6 and dr < 1e-6


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(2)
    obj = np.array([p for _, p in checker_corners_board(SPEC)])
    eps = 1e-6
    for _ in range(100):
        pose = board_pose(rng)
        jac = pnp_jacobian(pose.apply(obj), K.fx, K.fy)
        num = np.zeros_like(jac)

        def residual(t):
            return geometry.project_many(K, t.apply(obj)).ravel()

        for col in range(6):
            dx = np.zeros(6)
            dx[col] = eps
            fp = residual(geometry.compose(geometry.exp_se3(dx), pose))
            fm = residual(geometry.compose(geometry.exp_se3(-dx), pose))
            num[:, col] = (fp - fm) / (2 * eps)
        scale = max(np.abs(jac).max(), 1.0)
        assert np.abs(jac - num).max() / scale < 1e-4


def test_planar_ambiguity_resolved_100_trials():
    rng = np.random.default_rng(3)
    for _ in range(100):
        truth = board_pose(rng)
        pose = solve_pnp(synth_corners(truth), SPEC, K)
        dt, dr = pose_delta(truth, pose)
        assert dt < 1e-5 and dr < 1e-5


def test_intrinsics_scale_invariance():
    rng = np.random.default_rng(4)
    truth = board_pose(rng)
    corners = synth_corners(truth)
    pose1 = solve_pnp(corners, SPEC, K)
    s = 2.0
    k2 = Intrinsics(K.fx * s, K.fy * s, K.cx * s, K.cy * s, int(K.width * s), int(K.height * s))
    scaled = (corners[0], corners[1] * s)
    pose2 = solve_pnp(scaled, SPEC, k2)
    assert np.abs(matrix(pose1) - matrix(pose2)).max() < 1e-9


def test_partial_occlusion_60_percent():
    rng = np.random.default_rng(5)
    truth = board_pose(rng)
    keep = list(rng.choice(49, size=19, replace=False))  # ~60% occluded
    pose = solve_pnp(synth_corners(truth, ids=keep), SPEC, K)
    dt, dr = pose_delta(truth, pose)
    assert dt < 1e-6 and dr < 1e-6


def _assert_centers_of_pose(det):
    """The detection's circle centers are those of its own pose, bit for bit:
    the board-frame centers mapped by the pose, and their projections."""
    assert np.array_equal(det.centers_3d, det.pose.apply(circle_centers_board(SPEC)))
    assert np.array_equal(det.centers_2d, geometry.project_many(K, det.centers_3d))


def test_detection_centers_trivial_shift():
    det = detect_one(RigidTransform(_FACING, np.array([0.0, 0.0, 2.0])))
    _assert_centers_of_pose(det)
    flipped = circle_centers_board(SPEC) * [1.0, -1.0, 0.0] + [0.0, 0.0, 2.0]
    assert np.allclose(det.centers_3d, flipped, rtol=0, atol=1e-9)


def test_detection_centers_random_pose_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        det = detect_one(board_pose(rng))
        _assert_centers_of_pose(det)


def test_detection_reports_error_and_count():
    rng = np.random.default_rng(7)
    truth = board_pose(rng)
    det, det0 = detect_target_camera(
        [synth_corners(truth, noise=0.3, rng=rng), synth_corners(truth)], SPEC, [K, K]
    )
    assert det.corners_used == 49
    assert 0.0 < det.reprojection_error < 2.0
    assert det0.reprojection_error < 1e-8


def test_simulator_round_trip_noise_free():
    scene = sim.make_scene(rig(1, 1), sequences=3, seed=11)
    gt = sim.ground_truth(scene)
    cam = SensorId("camera", 0)
    for seq in range(3):
        if not sim.sensor_sees_board(scene, cam, seq):
            continue
        corners = sim.render_camera(scene, cam, seq)
        (det,) = detect_target_camera([corners], scene.spec, [scene.intrinsics[cam]])
        truth = gt.board_in_sensor(cam, seq)
        dt, dr = pose_delta(truth, det.pose)
        assert dt < 1e-6 and dr < 1e-6
        assert np.abs(det.centers_3d - gt.centers_in_sensor(cam, seq)).max() < 1e-3
