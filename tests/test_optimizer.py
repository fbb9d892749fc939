"""Optimizer: problem assembly, residuals/Jacobian, global solve, ordering
resolution, consistency and reprojection reports."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    lm_without_reduction_stop,
    matrix,
    oracle_observations,
    pose_errors,
    random_rigid,
    relative,
    rig,
)
from crosscal import geometry, optimizer, sim
from crosscal.camera import CameraDetection
from crosscal.errors import (
    DegenerateCenters,
    DisconnectedGraph,
    NonPositiveDepth,
    NoReferenceObservations,
    UnknownSensor,
)
from crosscal.geometry import RigidTransform
from crosscal.lidar import LidarDetection
from crosscal.lm import levenberg_marquardt
from crosscal.optimizer import (
    SensorId,
    SequenceObservations,
    build_problem,
    consistency_check,
    consistency_check_pairwise,
    estimate_pairwise,
    initial_guess,
    jacobian,
    reprojection_report,
    residuals,
    resolve_circle_ordering,
    solve,
)

CAM0 = SensorId("camera", 0)
L0 = SensorId("lidar", 0)
L1 = SensorId("lidar", 1)


def _scene(n_lidars=2, m_cameras=3, **kw):
    kw.setdefault("sequences", 10)
    kw.setdefault("seed", 0)
    return sim.make_scene(rig(n_lidars, m_cameras), **kw)


def _problem(scene, reference=CAM0):
    return build_problem(oracle_observations(scene), reference, scene.intrinsics)


def _gt_poses(scene, reference):
    gt = sim.ground_truth(scene)
    return {s: relative(gt, s, reference) for s in scene.sensor_ids}


def _lidar_obs(centers, pose=None):
    return LidarDetection(pose or RigidTransform.identity(), np.asarray(centers, dtype=float), 0.0)


SQUARE = np.array([[-0.38, 0.38, 0.0], [0.38, 0.38, 0.0], [0.38, -0.38, 0.0], [-0.38, -0.38, 0.0]])


# --- build_problem ----------------------------------------------------------

def test_build_problem_two_sensor_graph():
    seqs = [SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE + [0, 0, 0.1])})]
    p = build_problem(seqs, L0, {})
    assert p.sensors == (L0, L1)
    assert p.display_name(L0) == "S1"


def test_build_problem_disconnected():
    l2, l3 = SensorId("lidar", 2), SensorId("lidar", 3)
    seqs = [
        SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)}),
        SequenceObservations(1, {l2: _lidar_obs(SQUARE), l3: _lidar_obs(SQUARE)}),
    ]
    with pytest.raises(DisconnectedGraph) as ei:
        build_problem(seqs, L0, {})
    assert len(ei.value.components) == 2


def test_build_problem_drops_single_detection_sequences(caplog):
    seqs = [
        SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)}),
        SequenceObservations(1, {L0: _lidar_obs(SQUARE)}),
    ]
    with caplog.at_level(logging.WARNING):
        p = build_problem(seqs, L0, {})
    assert len(p.sequences) == 1
    assert any("dropped" in r.getMessage() for r in caplog.records)


def test_build_problem_no_reference_observations():
    seqs = [SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)})]
    with pytest.raises(NoReferenceObservations):
        build_problem(seqs, SensorId("lidar", 9), {})


def test_build_problem_camera_without_intrinsics():
    scene = _scene(sequences=3)
    with pytest.raises(UnknownSensor, match="detections of camera1, camera2$"):
        build_problem(oracle_observations(scene), CAM0, {CAM0: scene.intrinsics[CAM0]})


def test_display_names_cameras_then_lidars():
    scene = _scene()
    p = _problem(scene)
    names = [p.display_name(s) for s in p.sensors]
    assert names == ["S1", "S2", "S3", "S4", "S5"]
    assert p.display_name(L0) == "S4"


# --- pairwise / initial guess -----------------------------------------------

def test_estimate_pairwise_exact():
    rng = np.random.default_rng(0)
    t_ab = random_rigid(rng, max_trans=1.0)
    seqs = []
    for k in range(3):
        c_a = SQUARE + rng.normal(0, 0.5, 3)
        seqs.append(
            SequenceObservations(k, {L0: _lidar_obs(c_a), L1: _lidar_obs(t_ab.apply(c_a))})
        )
    p = build_problem(seqs, L0, {})
    est = estimate_pairwise(p, L0, L1)
    assert np.abs(matrix(est) - matrix(t_ab)).max() < 1e-9


def test_estimate_pairwise_unknown_pair():
    scene = _scene()
    p = _problem(scene)
    with pytest.raises(UnknownSensor):
        estimate_pairwise(p, L0, SensorId("lidar", 7))


def test_estimate_pairwise_degenerate_centers():
    line = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]])
    seqs = [SequenceObservations(0, {L0: _lidar_obs(line), L1: _lidar_obs(line)})]
    p = build_problem(seqs, L0, {})
    with pytest.raises(DegenerateCenters):
        estimate_pairwise(p, L0, L1)


def test_initial_guess_exact_on_noise_free_problem():
    scene = _scene()
    p = _problem(scene)
    poses = initial_guess(p)
    assert np.abs(matrix(poses[CAM0]) - np.eye(4)).max() == 0.0  # gauge
    gt = _gt_poses(scene, CAM0)
    for s, t in poses.items():
        assert np.abs(matrix(t) - matrix(gt[s])).max() < 1e-9


def test_initial_guess_chains_three_sensor_path():
    rng = np.random.default_rng(1)
    t_b = random_rigid(rng, max_trans=1.0)  # b -> a (reference)
    t_c = random_rigid(rng, max_trans=1.0)  # c -> a
    l2 = SensorId("lidar", 2)
    seqs = []
    for k in range(2):
        c_b = SQUARE + rng.normal(0, 0.4, 3)
        seqs.append(
            SequenceObservations(
                2 * k, {L0: _lidar_obs(t_b.apply(c_b)), L1: _lidar_obs(c_b)}
            )
        )
        c_c = SQUARE + rng.normal(0, 0.4, 3)
        b_from_c = geometry.compose(geometry.invert(t_b), t_c)
        seqs.append(
            SequenceObservations(
                2 * k + 1, {L1: _lidar_obs(b_from_c.apply(c_c)), l2: _lidar_obs(c_c)}
            )
        )
    p = build_problem(seqs, L0, {})
    poses = initial_guess(p)
    assert np.abs(matrix(poses[L1]) - matrix(t_b)).max() < 1e-9
    assert np.abs(matrix(poses[l2]) - matrix(t_c)).max() < 1e-9


# --- residuals --------------------------------------------------------------

def test_residuals_zero_at_ground_truth():
    scene = _scene()
    p = _problem(scene)
    r, flags = residuals(p, _gt_poses(scene, CAM0))
    assert flags == 0
    assert np.abs(r).max() < 1e-6


def test_residuals_eq6_hand_case():
    seqs = [SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)})]
    p = build_problem(seqs, L0, {})
    poses = {
        L0: RigidTransform.identity(),
        L1: RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0])),
    }
    r, _ = residuals(p, poses)
    assert r.shape == (12,)
    assert np.allclose(r.reshape(4, 3), np.tile([-0.1, 0.0, 0.0], (4, 1)), atol=1e-12)  # LiDAR weight 1


def test_residual_length_matches_enumeration_formula():
    scene = _scene()
    p = _problem(scene)
    r, _ = residuals(p, _gt_poses(scene, CAM0))
    expected = 0
    for seq in p.sequences:
        n_cam = sum(1 for s in seq.observations if s.kind == "camera")
        n_lid = len(seq.observations) - n_cam
        expected += 8 * n_cam * (n_cam - 1)  # ordered camera pairs, no self terms
        expected += 8 * n_lid * n_cam  # lidar -> camera
        expected += 12 * (n_lid * (n_lid - 1) // 2)  # unordered lidar pairs
    assert len(r) == expected


# --- jacobian ---------------------------------------------------------------

def _central_differences(p, poses, eps=1e-6):
    free = [s for s in p.sensors if s != p.reference]
    num = np.zeros((len(residuals(p, poses)[0]), 6 * len(free)))
    for k, s in enumerate(free):
        for a in range(6):
            dx = np.zeros(6)
            dx[a] = eps
            up = dict(poses)
            up[s] = geometry.compose(geometry.exp_se3(dx), poses[s])
            dn = dict(poses)
            dn[s] = geometry.compose(geometry.exp_se3(-dx), poses[s])
            num[:, 6 * k + a] = (residuals(p, up)[0] - residuals(p, dn)[0]) / (2 * eps)
    return num


def test_jacobian_matches_central_differences_100_states():
    scene = _scene(sequences=3)
    gt = _gt_poses(scene, CAM0)
    p = _problem(scene)
    rng = np.random.default_rng(2)
    for _ in range(100):
        poses = {
            s: geometry.compose(
                geometry.exp_se3(np.concatenate([rng.normal(0, 0.05, 3), rng.normal(0, 0.02, 3)])),
                t,
            )
            for s, t in gt.items()
        }
        jac = jacobian(p, poses)
        scale = max(np.abs(jac).max(), 1.0)
        assert np.abs(jac - _central_differences(p, poses)).max() / scale < 1e-4


def test_centers_behind_a_camera_are_capped_flagged_and_constant():
    cam1 = SensorId("camera", 1)
    k = sim.default_intrinsics()
    board = SQUARE + [0.0, 0.0, 5.0]
    board[:, 2] += [-0.2, 0.2, 0.2, -0.2]  # tilted: centers 0 and 3 are nearer

    def cam_obs(c):
        return CameraDetection(RigidTransform.identity(), c, geometry.project_many(k, c), 0.0, 49)

    seqs = [SequenceObservations(0, {CAM0: cam_obs(board), cam1: cam_obs(board), L0: _lidar_obs(board)})]
    p = build_problem(seqs, CAM0, {CAM0: k, cam1: k})
    # camera1 stands 5 m ahead of camera0, level with the board: centers 0 and 3
    # of camera0 and of lidar0 lie 0.2 m behind it, the other two 0.2 m in front
    poses = {
        CAM0: RigidTransform.identity(),
        cam1: RigidTransform(geometry.rotation_exp([0.01, -0.02, 0.03]), [0.01, 0.02, 5.0]),
        L0: RigidTransform(geometry.rotation_exp([0.0, 0.01, 0.0]), [0.02, 0.0, 0.0]),
    }
    r, flags = residuals(p, poses)
    assert flags == 4
    # rows: camera0's terms from camera1, lidar0 (0-15), then camera1's from camera0, lidar0 (16-31)
    capped = [row for base in (16, 24) for c in (0, 3) for row in (base + 2 * c, base + 2 * c + 1)]
    cap = np.hypot(k.width, k.height) / k.fx / np.sqrt(2.0)
    assert np.allclose(r[capped], cap, rtol=1e-15)
    jac = jacobian(p, poses)
    assert np.all(jac[capped] == 0.0)
    num = _central_differences(p, poses)
    assert np.abs(jac - num).max() / np.abs(jac).max() < 1e-6


# --- solve ------------------------------------------------------------------

def test_solve_noise_free_recovers_ground_truth():
    scene = _scene()
    result = solve(_problem(scene))
    assert result.converged
    errs = pose_errors(result, scene)
    for dt, dr in errs.values():
        assert dt < 1e-6 and dr < 1e-6
    # reference pose exactly identity
    ref = result.poses[CAM0]
    assert np.array_equal(matrix(ref), np.eye(4))


def test_solve_cost_monotone_and_not_above_initial():
    scene = _scene(seed=4)
    result = solve(_problem(scene))
    hist = result.cost_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert result.final_cost <= result.initial_cost


def test_solve_metadata_declares_weights():
    scene = _scene(sequences=4, seed=5)
    result = solve(_problem(scene))
    assert result.metadata["camera_residual_weight"] == "1/fx per camera"
    assert result.metadata["lidar_residual_weight"] == 1.0
    assert result.metadata["behind_camera_flags"] == 0


# --- circle ordering --------------------------------------------------------

def _assert_same_centers(p, fixed):
    for a, b in zip(p.sequences, fixed.sequences):
        for s in a.observations:
            ca = optimizer.detection_centers(a.observations[s])
            cb = optimizer.detection_centers(b.observations[s])
            assert np.array_equal(ca, cb), (a.sequence, str(s))


def _roll_lidar_records(p, pick, rng):
    """p with the LiDAR records that pick(sequence position, sensor) selects
    rolled by a random nonzero cyclic shift."""
    def roll(qi, s, det):
        if s.kind != "lidar" or not pick(qi, s):
            return det
        return replace(det, centers=np.roll(det.centers, int(rng.integers(1, 4)), axis=0))

    return replace(
        p,
        sequences=tuple(
            replace(q, observations={s: roll(qi, s, d) for s, d in q.observations.items()})
            for qi, q in enumerate(p.sequences)
        ),
    )


def test_resolve_circle_ordering_100_trials():
    scene = _scene(sequences=4, seed=6)
    p = _problem(scene)
    gt = _gt_poses(scene, CAM0)
    lidar_slots = [
        (qi, s)
        for qi, seq in enumerate(p.sequences)
        for s in seq.observations
        if s.kind == "lidar"
    ]
    rng = np.random.default_rng(3)
    for _ in range(100):
        slot = lidar_slots[rng.integers(len(lidar_slots))]
        corrupted = _roll_lidar_records(p, lambda qi, s: (qi, s) == slot, rng)
        # the rolled record is restored and every other record left as it was
        _assert_same_centers(p, resolve_circle_ordering(corrupted, gt))


def test_resolve_circle_ordering_all_lidar_records_rolled():
    rng = np.random.default_rng(4)
    scene = _scene(sequences=10, seed=6)
    p = _problem(scene)
    rolled = _roll_lidar_records(p, lambda qi, s: True, rng)
    _assert_same_centers(p, resolve_circle_ordering(rolled, _gt_poses(scene, CAM0)))
    # without a camera, each sequence's first LiDAR is the anchor the others follow
    scene = _scene(n_lidars=3, m_cameras=0, sequences=6, seed=6)
    p = _problem(scene, reference=L0)
    first = {qi: min(q.observations) for qi, q in enumerate(p.sequences)}
    rolled = _roll_lidar_records(p, lambda qi, s: s != first[qi], rng)
    _assert_same_centers(p, resolve_circle_ordering(rolled, _gt_poses(scene, L0)))


def test_resolve_keeps_correct_order_unchanged():
    scene = _scene(sequences=3, seed=7)
    p = _problem(scene, reference=L0)
    _assert_same_centers(p, resolve_circle_ordering(p, _gt_poses(scene, L0)))


# --- consistency / reports --------------------------------------------------

def test_consistency_check_solved_is_identity():
    scene = _scene(sequences=5, seed=8)
    result = solve(_problem(scene))
    rot, trans = consistency_check(result, list(result.problem.sensors))
    assert rot < 1e-9 and trans < 1e-9


def test_consistency_check_unknown_sensor():
    scene = _scene(sequences=4, seed=9)
    result = solve(_problem(scene))
    with pytest.raises(UnknownSensor):
        consistency_check(result, [CAM0, SensorId("lidar", 7)])


def test_consistency_pairwise_positive_on_noisy_centers():
    rng = np.random.default_rng(4)
    scene = _scene(sequences=6, seed=10)
    obs = oracle_observations(scene)
    noisy = []
    for seq in obs:
        o2 = {}
        for s, det in seq.observations.items():
            c = optimizer.detection_centers(det) + rng.normal(0, 0.004, (4, 3))
            if s.kind == "lidar":
                o2[s] = replace(det, centers=c)
            else:
                o2[s] = replace(det, centers_3d=c)
        noisy.append(SequenceObservations(seq.sequence, o2))
    p = build_problem(noisy, CAM0, scene.intrinsics)
    # lidars observe every sequence, so camera-lidar links always co-detect
    rot, trans = consistency_check_pairwise(p, [CAM0, L0, L1])
    assert np.isfinite(rot) and np.isfinite(trans)
    assert rot > 0 and trans > 0


def test_reprojection_report_zeros_on_perfect_data():
    scene = _scene(sequences=4, seed=12)
    result = solve(_problem(scene))
    rows = reprojection_report(result)
    assert rows
    for seq, a, b, errs in rows:
        assert a.startswith("S") and b.startswith("S")
        assert len(errs) == 4
        assert max(errs) < 1e-6


def test_gauge_invariance_of_relative_transforms():
    scene = _scene(sequences=6, seed=13)
    r1 = solve(_problem(scene, reference=CAM0))
    r2 = solve(_problem(scene, reference=SensorId("camera", 1)))
    for a in scene.sensor_ids:
        for b in scene.sensor_ids:
            t1 = geometry.compose(geometry.invert(r1.poses[b]), r1.poses[a])
            t2 = geometry.compose(geometry.invert(r2.poses[b]), r2.poses[a])
            assert np.abs(matrix(t1) - matrix(t2)).max() < 1e-9


# --- levenberg_marquardt ----------------------------------------------------

def _lm_on_identity_residual(residual_fn, trials):
    """Minimize 0.5*||x||^2 from x = 3, recording (state, dx) of every trial."""

    def plus(x, dx):
        trials.append((x.copy(), dx.copy()))
        return x + dx

    return levenberg_marquardt(np.array([3.0]), residual_fn, lambda x: np.eye(1), plus)


def test_lm_trial_with_an_infinite_cost_is_rejected_with_more_damping():
    trials = []

    def residual(x):
        return np.full(1, np.inf) if len(trials) == 1 else x  # e.g. a point behind the camera

    res = _lm_on_identity_residual(residual, trials)
    (x1, dx1), (x2, dx2) = trials[:2]
    assert x2 == x1 == 3.0  # the first trial was not accepted
    # dx = -x / (1 + lambda): damping went up tenfold
    assert dx1[0] == pytest.approx(-3.0 / (1 + 1e-3))
    assert dx2[0] == pytest.approx(-3.0 / (1 + 1e-2))
    assert res.converged and abs(res.state[0]) < 1e-6


def test_lm_other_exception_from_residual_propagates():
    """Any exception from the residual propagates, a CrosscalError too: only
    a non-finite cost rejects a trial."""
    for error in (RuntimeError("bug in the residual"), NonPositiveDepth("behind the camera")):
        trials = []

        def residual(x):
            if trials:
                raise error
            return x

        with pytest.raises(type(error), match=str(error)):
            _lm_on_identity_residual(residual, trials)


def test_lm_identity_residual_still_converges_by_gradient():
    res = _lm_on_identity_residual(lambda x: x, [])
    assert res.converged and res.gradient_norm < 1e-10


@pytest.mark.parametrize("floor, converged", [(1e3, True), (1e6, False)])
def test_lm_stop_at_cost_rounding_reports_converged_like_an_exhausted_loop(floor, converged):
    """r = (x, floor): the cost cannot drop below floor^2 / 2, and once x is
    small the possible reduction x^2 / 2 is below the cost's rounding. Stopped
    there, LM reports converged iff the gradient x is below 1e-6, as the
    loop that rejects trials until its damping runs out does."""
    costs = []

    def residual(x):
        r = np.array([x[0], floor])
        costs.append(0.5 * float(r @ r))
        return r

    args = (residual, lambda x: np.array([[1.0], [0.0]]), lambda x, dx: x + dx)
    res = levenberg_marquardt(np.array([3.0]), *args)
    assert res.converged is converged
    assert res.gradient_norm > 1e-10  # not the gradient stop
    assert len(costs) == len(res.cost_history)  # no trial evaluated after the last accepted step
    costs.clear()
    assert lm_without_reduction_stop(np.array([3.0]), *args)[2] is converged
    assert len(costs) > len(res.cost_history)
