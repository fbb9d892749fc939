"""Optimizer: problem assembly, residuals/Jacobian, global solve, ordering
resolution, consistency and reprojection reports."""

import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    exp_rigid,
    lm_without_reduction_stop,
    matrix,
    normal_from_jacobian,
    oracle_observations,
    pose_errors,
    pose_stack,
    random_rigid,
    relative,
    rig,
    rotation_exp,
)
from crosscal import geometry, optimizer, sim
from crosscal.camera import CameraDetection
from crosscal.errors import (
    DegenerateCenters,
    DisconnectedGraph,
    NonPositiveDepth,
    NoReferenceObservations,
    SingularNormalEquations,
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
    normal_equations,
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


def test_build_problem_disconnected_reports_each_component_once_in_display_order():
    """Components are ordered by their first sensor in display order, not by
    station, and each lists its sensors' names sorted as strings."""
    l2, l3, l4, l10 = (SensorId("lidar", k) for k in (2, 3, 4, 10))
    pairs = [(l2, l10), (L1, l4), (L0, l3), (l10, l2)]
    seqs = [
        SequenceObservations(k, {a: _lidar_obs(SQUARE), b: _lidar_obs(SQUARE)})
        for k, (a, b) in enumerate(pairs)
    ]
    with pytest.raises(DisconnectedGraph) as ei:
        build_problem(seqs, L0, {})
    expected = [["lidar0", "lidar3"], ["lidar1", "lidar4"], ["lidar10", "lidar2"]]
    assert ei.value.components == expected
    assert str(ei.value) == f"co-visibility graph has 3 components: {expected}"


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
    est = estimate_pairwise(p, 0, 1)
    assert np.abs(matrix(est) - matrix(t_ab)).max() < 1e-9


def test_estimate_pairwise_unknown_pair():
    l2 = SensorId("lidar", 2)
    seqs = [
        SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)}),
        SequenceObservations(1, {L1: _lidar_obs(SQUARE), l2: _lidar_obs(SQUARE)}),
    ]
    p = build_problem(seqs, L0, {})
    with pytest.raises(UnknownSensor, match="^sensors lidar0 and lidar2 never co-detect$"):
        estimate_pairwise(p, 0, 2)


def test_estimate_pairwise_degenerate_centers():
    line = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]])
    seqs = [SequenceObservations(0, {L0: _lidar_obs(line), L1: _lidar_obs(line)})]
    p = build_problem(seqs, L0, {})
    with pytest.raises(DegenerateCenters, match="^sensor lidar0 sequence 0: collinear centers$"):
        estimate_pairwise(p, 0, 1)


def test_initial_guess_exact_on_noise_free_problem():
    scene = _scene()
    p = _problem(scene)
    poses = dict(zip(p.sensors, initial_guess(p)))
    assert np.abs(poses[CAM0] - np.eye(4)).max() == 0.0  # gauge
    gt = _gt_poses(scene, CAM0)
    for s, t in poses.items():
        assert np.abs(t - matrix(gt[s])).max() < 1e-9


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
    poses = dict(zip(p.sensors, initial_guess(p)))
    assert np.abs(poses[L1] - matrix(t_b)).max() < 1e-9
    assert np.abs(poses[l2] - matrix(t_c)).max() < 1e-9


def test_initial_guess_tie_goes_to_the_pair_first_co_detected():
    """lidar2 joins the tree through lidar0 or lidar1, each with one
    co-detection: the pair of the earlier station (lidar1, station 0) wins
    over the pair first in display order (lidar0, station 1)."""
    rng = np.random.default_rng(2)
    l2 = SensorId("lidar", 2)

    def noisy(c):
        return _lidar_obs(c + rng.normal(0, 0.01, (4, 3)))

    stations = [(L1, l2), (L0, l2), (L0, L1), (L0, L1)]
    seqs = [
        SequenceObservations(k, {s: noisy(SQUARE + rng.normal(0, 0.4, 3)) for s in pair})
        for k, pair in enumerate(stations)
    ]
    p = build_problem(seqs, L0, {})
    poses = {s: RigidTransform(m[:3, :3], m[:3, 3]) for s, m in zip(p.sensors, initial_guess(p))}
    assert list(poses) == [L0, L1, l2]
    via_l1 = geometry.compose(poses[L1], estimate_pairwise(p, 2, 1))
    assert np.array_equal(matrix(poses[l2]), matrix(via_l1))
    assert np.abs(matrix(poses[l2]) - matrix(estimate_pairwise(p, 2, 0))).max() > 1e-3


# --- residuals --------------------------------------------------------------

def test_residuals_zero_at_ground_truth():
    scene = _scene()
    p = _problem(scene)
    r, flags = residuals(p, pose_stack(p, _gt_poses(scene, CAM0)))
    assert flags == 0
    assert np.abs(r).max() < 1e-6


def test_residuals_eq6_hand_case():
    seqs = [SequenceObservations(0, {L0: _lidar_obs(SQUARE), L1: _lidar_obs(SQUARE)})]
    p = build_problem(seqs, L0, {})
    poses = {
        L0: RigidTransform.identity(),
        L1: RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0])),
    }
    r, _ = residuals(p, pose_stack(p, poses))
    assert r.shape == (12,)
    assert np.allclose(r.reshape(4, 3), np.tile([-0.1, 0.0, 0.0], (4, 1)), atol=1e-12)  # LiDAR weight 1
    # a LiDAR pair is compared in the second LiDAR's frame: R1^T (y0 - y1),
    # the B-frame difference rotated, so of the same norm
    poses[L1] = RigidTransform(geometry.rot_z(np.deg2rad(30.0)), [0.1, 0.0, 0.0])
    diff = poses[L0].apply(SQUARE) - poses[L1].apply(SQUARE)
    r, _ = residuals(p, pose_stack(p, poses))
    assert np.abs(r.reshape(4, 3) - diff @ poses[L1].rotation).max() < 1e-15
    assert abs(r @ r - (diff**2).sum()) < 1e-15


def test_residual_length_matches_enumeration_formula():
    scene = _scene()
    p = _problem(scene)
    r, _ = residuals(p, pose_stack(p, _gt_poses(scene, CAM0)))
    expected = 0
    for seq in p.sequences:
        n_cam = sum(1 for s in seq.observations if s.kind == "camera")
        n_lid = len(seq.observations) - n_cam
        expected += 8 * n_cam * (n_cam - 1)  # ordered camera pairs, no self terms
        expected += 8 * n_lid * n_cam  # lidar -> camera
        expected += 12 * (n_lid * (n_lid - 1) // 2)  # unordered lidar pairs
    assert len(r) == expected


# --- normal equations -------------------------------------------------------

def _central_differences(p, poses, eps=1e-6):
    free = [s for s in p.sensors if s != p.reference]
    num = np.zeros((len(residuals(p, pose_stack(p, poses))[0]), 6 * len(free)))
    for k, s in enumerate(free):
        for a in range(6):
            dx = np.zeros(6)
            dx[a] = eps
            up = dict(poses)
            up[s] = geometry.compose(exp_rigid(dx), poses[s])
            dn = dict(poses)
            dn[s] = geometry.compose(exp_rigid(-dx), poses[s])
            r_up, r_dn = residuals(p, pose_stack(p, up))[0], residuals(p, pose_stack(p, dn))[0]
            num[:, 6 * k + a] = (r_up - r_dn) / (2 * eps)
    return num


def _assert_normal_equations_match(p, poses, tol):
    """normal_equations at `poses` against J^T J and J^T r of the central
    differences J: each 6x6 block and each pose's gradient within tol of its
    own largest entry. Returns the central differences."""
    h, g = normal_equations(p, pose_stack(p, poses))
    num = _central_differences(p, poses)
    want_h, want_g = num.T @ num, num.T @ residuals(p, pose_stack(p, poses))[0]
    poses_at = [slice(6 * k, 6 * k + 6) for k in range(len(g) // 6)]
    for a in poses_at:
        assert np.abs(g[a] - want_g[a]).max() <= tol * np.abs(want_g[a]).max()
        for b in poses_at:
            assert np.abs(h[a, b] - want_h[a, b]).max() <= tol * np.abs(want_h[a, b]).max()
    return num


def test_jacobian_matches_central_differences_100_states():
    """The assembled J^T J and J^T r equal those of a central-difference
    Jacobian, block by block."""
    scene = _scene(sequences=3)
    gt = _gt_poses(scene, CAM0)
    p = _problem(scene)
    rng = np.random.default_rng(2)
    for _ in range(100):
        poses = {
            s: geometry.compose(
                exp_rigid(np.concatenate([rng.normal(0, 0.05, 3), rng.normal(0, 0.02, 3)])),
                t,
            )
            for s, t in gt.items()
        }
        _assert_normal_equations_match(p, poses, 1e-7)


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
        cam1: RigidTransform(rotation_exp([0.01, -0.02, 0.03]), [0.01, 0.02, 5.0]),
        L0: RigidTransform(rotation_exp([0.0, 0.01, 0.0]), [0.02, 0.0, 0.0]),
    }
    r, flags = residuals(p, pose_stack(p, poses))
    assert flags == 4
    # rows: camera0's terms from camera1, lidar0 (0-15), then camera1's from camera0, lidar0 (16-31)
    capped = [row for base in (16, 24) for c in (0, 3) for row in (base + 2 * c, base + 2 * c + 1)]
    cap = np.hypot(k.width, k.height) / k.fx / np.sqrt(2.0)
    assert np.allclose(r[capped], cap, rtol=1e-15)
    num = _assert_normal_equations_match(p, poses, 1e-6)
    assert np.all(num[capped] == 0.0)


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


def test_singular_normal_equations_name_the_sensors_of_the_null_direction():
    """lidar2 co-detects only with lidar0, at a station whose 4 centers lie
    within 1e-7 m of one line: its rotation about that line is free, while
    lidar1 is fixed by a square. The error names lidar2 alone."""
    rng = np.random.default_rng(5)
    t1, t2 = (random_rigid(rng, max_trans=1.0) for _ in range(2))  # lidar1, lidar2 -> lidar0
    l2 = SensorId("lidar", 2)
    square = SQUARE + [0.2, -0.1, 3.0]
    line = np.array([[0.0, 0.0, 0.0], [0.1, 1e-8, 0.0], [0.2, 0.0, -1e-8], [0.3, 1e-8, 0.0]])
    line += [0.5, 0.2, 2.0]
    seqs = [
        SequenceObservations(
            0, {L0: _lidar_obs(square), L1: _lidar_obs(geometry.invert(t1).apply(square))}
        ),
        SequenceObservations(
            1, {L0: _lidar_obs(line), l2: _lidar_obs(geometry.invert(t2).apply(line))}
        ),
    ]
    with pytest.raises(SingularNormalEquations) as err:
        solve(build_problem(seqs, L0, {}))
    assert err.value.suspects == ["lidar2"]


# --- circle ordering --------------------------------------------------------

def _assert_same_centers(p, fixed):
    for a, b in zip(p.sequences, fixed.sequences):
        for s in a.observations:
            ca, cb = a.observations[s].centers, b.observations[s].centers
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
        _assert_same_centers(p, resolve_circle_ordering(corrupted, pose_stack(p, gt)))


def test_resolve_circle_ordering_all_lidar_records_rolled():
    rng = np.random.default_rng(4)
    scene = _scene(sequences=10, seed=6)
    p = _problem(scene)
    rolled = _roll_lidar_records(p, lambda qi, s: True, rng)
    _assert_same_centers(p, resolve_circle_ordering(rolled, pose_stack(p, _gt_poses(scene, CAM0))))
    # without a camera, each sequence's first LiDAR is the anchor the others follow
    scene = _scene(n_lidars=3, m_cameras=0, sequences=6, seed=6)
    p = _problem(scene, reference=L0)
    first = {qi: min(q.observations) for qi, q in enumerate(p.sequences)}
    rolled = _roll_lidar_records(p, lambda qi, s: s != first[qi], rng)
    _assert_same_centers(p, resolve_circle_ordering(rolled, pose_stack(p, _gt_poses(scene, L0))))


def test_resolve_circle_ordering_evaluates_no_residuals(monkeypatch):
    scene = _scene(sequences=4, seed=6)
    p = _problem(scene)
    rolled = _roll_lidar_records(p, lambda qi, s: True, np.random.default_rng(7))
    calls, real = [], optimizer.residuals

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "residuals", counted)
    _assert_same_centers(p, resolve_circle_ordering(rolled, pose_stack(p, _gt_poses(scene, CAM0))))
    assert not calls


def test_resolve_circle_ordering_returns_the_problem_itself_when_no_record_moves():
    scene = _scene(sequences=4, seed=6)
    p = _problem(scene)
    assert resolve_circle_ordering(p, pose_stack(p, _gt_poses(scene, CAM0))) is p


def test_solve_undoes_rolled_orders_with_camera_centers_off_by_tens_of_mm():
    """Every LiDAR record rolled, and each camera record's centers scaled
    along their rays by 0.5% (30 mm at 6 m), as PnP's depth error moves
    them on a noisy rig: solve returns the poses of the unrolled records."""
    rng = np.random.default_rng(5)
    p = _problem(_scene(sequences=10, seed=6))
    off = replace(
        p,
        sequences=tuple(
            replace(
                q,
                observations={
                    s: replace(d, centers=d.centers * rng.normal(1.0, 0.005)) if s.kind == "camera" else d
                    for s, d in q.observations.items()
                },
            )
            for q in p.sequences
        ),
    )
    truth = solve(off).poses
    poses = solve(_roll_lidar_records(off, lambda qi, s: True, rng)).poses
    for s, t in truth.items():
        delta = geometry.compose(geometry.invert(t), poses[s])
        assert np.linalg.norm(poses[s].translation - t.translation) < 1e-6, str(s)
        assert geometry.rotation_angle(delta.rotation) < 1e-6, str(s)


def _large_rig_problem(rng):
    """large_rig's shape: 4 LiDARs and 6 cameras over 40 stations, LiDAR
    centers with 2 mm noise."""
    scene = _scene(n_lidars=4, m_cameras=6, sequences=40, seed=0)
    noisy = [
        replace(
            seq,
            observations={
                s: replace(d, centers=d.centers + rng.normal(0.0, 0.002, (4, 3))) if s.kind == "lidar" else d
                for s, d in seq.observations.items()
            },
        )
        for seq in oracle_observations(scene)
    ]
    return build_problem(noisy, CAM0, scene.intrinsics)


def test_solve_undoes_shifted_orders_on_a_large_rig():
    """With every LiDAR record of a large rig, or a quarter of them, rolled by
    a cyclic shift, solve returns the poses of the unshifted records."""
    rng = np.random.default_rng(12)
    p = _large_rig_problem(rng)
    truth = solve(p).poses
    for share in (1.0, 0.25):
        rolled = _roll_lidar_records(p, lambda qi, s: rng.random() < share, rng)
        assert any(
            not np.array_equal(a.observations[s].centers, b.observations[s].centers)
            for a, b in zip(p.sequences, rolled.sequences)
            for s in a.observations
            if s.kind == "lidar"
        )
        poses = solve(rolled).poses
        for s, t in truth.items():
            delta = geometry.compose(geometry.invert(t), poses[s])
            assert np.linalg.norm(poses[s].translation - t.translation) < 1e-8, (share, str(s))
            assert geometry.rotation_angle(delta.rotation) < 1e-8, (share, str(s))


def test_solve_on_a_large_rig_holds_no_dense_jacobian():
    """The global solve of a large rig allocates, at its peak, less than the
    bytes of the dense m x 6(S - 1) Jacobian it never forms."""
    p = _large_rig_problem(np.random.default_rng(12))
    dense = residuals(p, initial_guess(p))[0].size * 6 * (len(p.sensors) - 1) * 8
    tracemalloc.start()
    try:
        solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense, (peak, dense)


def test_resolve_keeps_correct_order_unchanged():
    scene = _scene(sequences=3, seed=7)
    p = _problem(scene, reference=L0)
    _assert_same_centers(p, resolve_circle_ordering(p, pose_stack(p, _gt_poses(scene, L0))))


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
            o2[s] = replace(det, centers=det.centers + rng.normal(0, 0.004, (4, 3)))
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


def test_reprojection_report_rows_match_a_direct_computation():
    """On noisy centers, with some stations lacking some sensors: one row per
    station and co-detecting pair, station by station and each pair in
    p.sensors order, holding the distances between the pair's centers mapped
    through their solved poses."""
    rng = np.random.default_rng(8)
    scene = _scene(sequences=8, seed=9)
    obs = [
        SequenceObservations(
            seq.sequence,
            {
                s: replace(d, centers=d.centers + rng.normal(0.0, 0.003, (4, 3)))
                for s, d in seq.observations.items()
            },
        )
        for seq in oracle_observations(scene)
    ]
    result = solve(build_problem(obs, CAM0, scene.intrinsics))
    p = result.problem
    assert any(len(seq.observations) < len(p.sensors) for seq in p.sequences)
    expected = []
    for seq in p.sequences:
        present = [s for s in p.sensors if s in seq.observations]
        centers = [result.poses[s].apply(seq.observations[s].centers) for s in present]
        for a, (i, ci) in enumerate(zip(present, centers)):
            for j, cj in zip(present[a + 1 :], centers[a + 1 :]):
                dist = np.linalg.norm(ci - cj, axis=1)
                expected.append((seq.sequence, p.display_name(i), p.display_name(j), dist))
    rows = reprojection_report(result)
    assert [row[:3] for row in rows] == [row[:3] for row in expected]
    assert all(np.abs(np.array(r[3]) - e[3]).max() < 1e-12 for r, e in zip(rows, expected))
    assert max(max(r[3]) for r in rows) > 1e-3  # the noise shows


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
    """Minimize 0.5*||x||^2 from x = 3 as a batch of one, recording
    (states, dx) of every trial."""

    def plus(x, dx):
        trials.append((x.copy(), dx.copy()))
        return x + dx

    normal = normal_from_jacobian(lambda x, rows: np.eye(1)[None])
    return levenberg_marquardt(np.array([[3.0]]), residual_fn, normal, plus)


def test_lm_trial_with_an_infinite_cost_is_rejected_with_more_damping():
    trials = []

    def residual(x, rows):
        return np.full((1, 1), np.inf) if len(trials) == 1 else x  # e.g. a point behind the camera

    res = _lm_on_identity_residual(residual, trials)
    (x1, dx1), (x2, dx2) = trials[:2]
    assert x2[0, 0] == x1[0, 0] == 3.0  # the first trial was not accepted
    # dx = -x / (1 + lambda): damping went up tenfold
    assert dx1[0, 0] == pytest.approx(-3.0 / (1 + 1e-3))
    assert dx2[0, 0] == pytest.approx(-3.0 / (1 + 1e-2))
    assert res.converged[0] and abs(res.state[0, 0]) < 1e-6


def test_lm_other_exception_from_residual_propagates():
    """Any exception from the residual propagates, a CrosscalError too: only
    a non-finite cost rejects a trial."""
    for error in (RuntimeError("bug in the residual"), NonPositiveDepth("behind the camera")):
        trials = []

        def residual(x, rows):
            if trials:
                raise error
            return x

        with pytest.raises(type(error), match=str(error)):
            _lm_on_identity_residual(residual, trials)


def test_lm_identity_residual_still_converges_by_gradient():
    res = _lm_on_identity_residual(lambda x, rows: x, [])
    assert res.converged[0] and res.gradient_norm[0] < 1e-10


def test_lm_builds_normal_equations_once_per_iteration():
    """Rosenbrock's residual from (-1.2, 1) as a batch of one: LM asks for
    the normal equations once per iteration, at the residuals of the state it
    is at."""
    calls = []

    def residual(x, rows):
        (a, b), = x
        return np.array([[10.0 * (b - a**2), 1.0 - a]])

    jacobian = normal_from_jacobian(lambda x, rows: np.array([[[-20.0 * x[0, 0], 10.0], [-1.0, 0.0]]]))

    def normal(x, rows, r):
        assert np.array_equal(r, residual(x, rows))
        calls.append(x.copy())
        return jacobian(x, rows, r)

    res = levenberg_marquardt(np.array([[-1.2, 1.0]]), residual, normal, lambda x, dx: x + dx)
    assert res.converged[0] and np.allclose(res.state, 1.0)
    assert len(calls) == res.iterations > 5


def test_solve_hands_over_the_checked_normal_equations_once_per_iteration(monkeypatch):
    """solve gives LM the normal equations of its singularity check as the
    first ones, and builds them once per LM iteration."""
    calls, built = [], []
    lm, build = optimizer.levenberg_marquardt, optimizer.normal_equations

    def watched_lm(state, residual_fn, normal_fn, plus, **kw):
        return lm(state, residual_fn, lambda *a: calls.append(a) or normal_fn(*a), plus, **kw)

    monkeypatch.setattr(optimizer, "levenberg_marquardt", watched_lm)
    monkeypatch.setattr(optimizer, "normal_equations", lambda *a: built.append(a) or build(*a))
    rng = np.random.default_rng(3)
    scene = _scene()
    obs = [
        SequenceObservations(
            seq.sequence,
            {
                s: replace(det, centers=det.centers + rng.normal(0, 0.004, (4, 3)))
                if s.kind == "lidar"
                else det
                for s, det in seq.observations.items()
            },
        )
        for seq in oracle_observations(scene)
    ]
    result = solve(build_problem(obs, CAM0, scene.intrinsics))
    assert len(calls) == len(built) == result.iterations > 1


@pytest.mark.parametrize("floor, converged", [(1e3, True), (1e6, False)])
def test_lm_stop_at_cost_rounding_reports_converged_like_an_exhausted_loop(floor, converged):
    """r = (x, floor): the cost cannot drop below floor^2 / 2, and once x is
    small the possible reduction x^2 / 2 is below the cost's rounding. Stopped
    there, LM reports converged iff the gradient x is below 1e-6, as the
    loop that rejects trials until its damping runs out does. LM solves a
    batch of one whose residual rows come back flat; the oracle takes one
    state."""
    costs = []

    def residual(x):
        r = np.array([x[0], floor])
        costs.append(0.5 * float(r @ r))
        return r

    def jacobian(x):
        return np.array([[1.0], [0.0]])

    res = levenberg_marquardt(
        np.array([[3.0]]),
        lambda x, rows: residual(x[0]),
        normal_from_jacobian(lambda x, rows: jacobian(x[0])[None]),
        lambda x, dx: x + dx,
    )
    assert bool(res.converged[0]) is converged
    assert res.gradient_norm[0] > 1e-10  # not the gradient stop
    assert len(costs) == len(res.cost_history[0])  # no trial evaluated after the last accepted step
    costs.clear()
    args = (residual, normal_from_jacobian(jacobian), lambda x, dx: x + dx)
    assert lm_without_reduction_stop(np.array([3.0]), *args)[2] is converged
    assert len(costs) > len(res.cost_history)
