"""Shared helpers: random transforms, oracle/real detection builders, and
the acceptance-line recorder printed in the terminal summary."""

from pathlib import Path

import numpy as np

from crosscal import geometry, io_formats, sim
from crosscal.camera import CameraDetection, detect_target_camera
from crosscal.errors import CrosscalError
from crosscal.geometry import RigidTransform
from crosscal.lidar import (
    LidarParams,
    _fit_plane_lsq,
    detect_target_lidar,
    filter_cloud,
    normalize_plane,
)
from crosscal.optimizer import SequenceObservations

ACCEPTANCE_LINES = []

# Board -> camera: a board 0.35 m away turned 80 deg about y, facing the
# camera. Its corners lie 0.055 m or more in front of the camera, two of its
# circle centers 0.024 m behind it.
CIRCLE_BEHIND_CAMERA = geometry.RigidTransform(
    geometry.rot_y(np.deg2rad(80.0)) @ geometry.rot_x(np.pi), np.array([0.0, 0.0, 0.35])
)


def rig(n_lidars=2, m_cameras=3) -> dict:
    """The sensor table of the default config's rig: `m_cameras` cameras
    with the default intrinsics, then `n_lidars` LiDARs."""
    return io_formats.default_config(n_lidars, m_cameras).sensors


def matrix(t) -> np.ndarray:
    """The 4x4 homogeneous matrix of the rigid transform `t`."""
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


def pose_stack(p, poses) -> np.ndarray:
    """The (S, 4, 4) pose stack of the global solve, in p.sensors order, of
    the {SensorId: RigidTransform} `poses`."""
    return np.array([matrix(poses[s]) for s in p.sensors])


def relative(gt, a, b):
    """The exact a->b transform of the ground truth `gt`."""
    return geometry.compose(geometry.invert(gt.sensor_poses[b]), gt.sensor_poses[a])


def record_acceptance(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


class SuiteOutcomes:
    """Outcomes of the test modules run in this session, by file name, for
    the acceptance criteria (marked `suite_criterion`) that summarize a whole
    module; those criteria run after every other test."""

    def __init__(self):
        self.modules = {}  # file name -> {"passed": n, "skipped": n, "failed": [node ids]}

    def pytest_collection_modifyitems(self, items):
        items.sort(key=lambda item: item.get_closest_marker("suite_criterion") is not None)

    def pytest_collection_finish(self, session):
        for item in session.items:
            if item.get_closest_marker("suite_criterion") is None:
                self.modules.setdefault(item.path.name, {"passed": 0, "skipped": 0, "failed": []})

    def pytest_runtest_logreport(self, report):
        out = self.modules.get(Path(report.nodeid.split("::")[0]).name)
        if out is None:
            return
        if report.failed:
            out["failed"].append(report.nodeid)
        elif report.skipped:
            out["skipped"] += 1
        elif report.when == "call":
            out["passed"] += 1


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "suite_criterion: acceptance criterion over a whole test module; runs last"
    )
    config.pluginmanager.register(SuiteOutcomes(), "suite-outcomes")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """SO(3) exponential (Rodrigues) of an axis-angle vector, by the scalar
    formula: the reference for `geometry.exp_se3_matrix`'s rotation block,
    and the rotation of test data built before that block drew them."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    k = geometry.skew(w)
    kk = k @ k
    if theta < 1e-10:
        return np.eye(3) + k + 0.5 * kk
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * kk


def random_rotation(rng, max_angle=np.pi - 0.1):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(1e-3, max_angle)
    return rotation_exp(w)


def random_rigid(rng, max_angle=np.pi - 0.1, max_trans=2.0):
    return geometry.RigidTransform(
        random_rotation(rng, max_angle), rng.uniform(-max_trans, max_trans, size=3)
    )


def exp_rigid(xi):
    """`geometry.exp_se3_matrix` of one 6-vector (v, w) as a RigidTransform."""
    m = geometry.exp_se3_matrix(xi)
    return geometry.RigidTransform(m[:3, :3], m[:3, 3])


def exp_se3_scalar(xi):
    """The scalar SE(3) exponential the solvers stepped with before both
    moved to `geometry.exp_se3_matrix`, kept to its rounding: the retraction
    of `test_noisy_pnp_lm_stops_at_the_cost_rounding_floor`, which passes
    only with this rounding (CHANGES.md, ROADMAP item 9)."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    v, w = xi[:3], xi[3:]
    theta = np.linalg.norm(w)
    k = geometry.skew(w)
    kk = k @ k
    if theta < 1e-8:
        jac = np.eye(3) + 0.5 * k + kk / 6.0
    else:
        jac = (
            np.eye(3)
            + (1.0 - np.cos(theta)) / theta**2 * k
            + (theta - np.sin(theta)) / theta**3 * kk
        )
    return geometry.RigidTransform(rotation_exp(w), jac @ v)


def log_se3(t):
    """Inverse of `geometry.exp_se3_matrix` for rotation angles below pi: the
    6-vector (v, w), translation part first, of the RigidTransform t."""
    r = t.rotation
    theta = np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
    axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    w = axis / 2.0 if theta < 1e-10 else theta / (2.0 * np.sin(theta)) * axis
    theta = np.linalg.norm(w)
    k = geometry.skew(w)
    if theta < 1e-8:
        jinv = np.eye(3) - 0.5 * k + (k @ k) / 12.0
    else:
        a = 1.0 / theta**2 * (1.0 - theta * np.sin(theta) / (2.0 * (1.0 - np.cos(theta))))
        jinv = np.eye(3) - 0.5 * k + a * (k @ k)
    return np.concatenate([jinv @ t.translation, w])


def normal_from_jacobian(jac_fn):
    """An LM normal-equations callback from a Jacobian callback: (J^T J, J^T r)
    of jac_fn(states, rows) (len(rows), m, n) and the residuals
    r (len(rows), m), or of jac_fn(state) and r (m,) for one state."""

    def normal(*args):
        *at, r = args
        jac = jac_fn(*at)
        return np.swapaxes(jac, -1, -2) @ jac, (r[..., None, :] @ jac)[..., 0, :]

    return normal


def lm_without_reduction_stop(state, residual_fn, normal_fn, plus, max_iter=100, gradient_tol=1e-10):
    """Levenberg-Marquardt as it was before the predicted-reduction stop:
    the damping loop runs until a trial lowers the cost or lambda passes
    1e14. Returns (state, cost, converged)."""
    r = residual_fn(state)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        hess, grad = normal_fn(state, r)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < gradient_tol:
            converged = True
            break
        accepted = False
        for _ in range(30):
            dx = np.linalg.solve(hess + lam * np.eye(hess.shape[0]), -grad)
            trial = plus(state, dx)
            try:
                r_trial = residual_fn(trial)
                cost_trial = 0.5 * float(r_trial @ r_trial)
            except CrosscalError:
                cost_trial = np.inf
            if cost_trial < cost:
                state, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                converged = float(dx @ dx) < 1e-14**2
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            converged = grad_norm < 1e-6
            break
        if converged:
            break
    return state, cost, converged


def rough_board_pose(cloud: np.ndarray, p: LidarParams) -> RigidTransform:
    """Fallback board-pose guess when no operator initialization exists:
    centroid of the filtered cloud plus its least-squares plane normal
    (oriented back toward the sensor), with board x horizontal (the
    sensor's x for a board lying flat). In-plane orientation is arbitrary,
    so downstream ordering resolution matters more when this path is used.

    The library's no-prior pose as it was before `detect_target_lidar` took
    a None prior and computed it in place: the reference of that path."""
    filtered = filter_cloud(cloud, p)
    plane = _fit_plane_lsq(filtered)
    n = -plane.normal() if plane.d < 0 else plane.normal()  # board z faces the sensor
    x = np.cross([0.0, 0.0, 1.0], n)
    frame = normalize_plane(n, x if x.any() else [1.0, 0.0, 0.0])
    return RigidTransform(frame.T, filtered.mean(axis=0))


def oracle_observations(scene):
    """Exact per-sequence detections straight from ground truth, bypassing
    rendering; used to test the optimizer in isolation."""
    gt = sim.ground_truth(scene)
    out = []
    for seq in range(len(scene.board_poses)):
        obs = {}
        for s in scene.sensor_ids:
            if not sim.sensor_sees_board(scene, s, seq):
                continue
            pose = gt.board_in_sensor(s, seq)
            centers = gt.centers_in_sensor(s, seq)
            if s.kind == "lidar":
                from crosscal.lidar import LidarDetection

                obs[s] = LidarDetection(pose, centers, 0.0)
            else:
                k = scene.intrinsics[s]
                c2 = geometry.project_many(k, centers)
                obs[s] = CameraDetection(pose, centers, c2, 0.0, 49)
        if len(obs) >= 2:
            out.append(SequenceObservations(seq, obs))
    return out


def solve_pnp(corners, spec, k):
    """Board->camera pose of one corner set, through the batched detector;
    raises the set's error."""
    (out,) = detect_target_camera([corners], spec, [k])
    if isinstance(out, CrosscalError):
        raise out
    return out.pose


def detect_observations(scene, lp=None):
    """Run the real detectors on rendered data, in process (no files); the
    camera detections of the scene in one batch, as `detect` runs them."""
    lp = lp or LidarParams()
    seen = [
        (seq, s)
        for seq in range(len(scene.board_poses))
        for s in scene.sensor_ids
        if sim.sensor_sees_board(scene, s, seq)
    ]
    cams = [(seq, s) for seq, s in seen if s.kind == "camera"]
    outcome = dict(
        zip(
            cams,
            detect_target_camera(
                sim.render_camera(scene, [(s, seq) for seq, s in cams]),
                scene.spec,
                [scene.intrinsics[s] for _, s in cams],
            ),
        )
    )
    obs = [{} for _ in scene.board_poses]
    for seq, s in seen:
        if s.kind == "lidar":
            cloud = sim.render_lidar(scene, s, seq)
            t_init = sim.perturbed_board_init(scene, s, seq)
            try:
                outcome[seq, s] = detect_target_lidar(cloud, scene.spec, t_init, lp)
            except CrosscalError as e:
                outcome[seq, s] = e
        if not isinstance(outcome[seq, s], CrosscalError):
            obs[seq][s] = outcome[seq, s]
    return [SequenceObservations(seq, o) for seq, o in enumerate(obs) if len(o) >= 2]


def pose_errors(result, scene):
    """Per-sensor (translation m, rotation rad) error vs ground truth."""
    gt = sim.ground_truth(scene)
    ref = result.problem.reference
    errs = {}
    for s, t in result.poses.items():
        t_gt = relative(gt, s, ref)
        delta = geometry.compose(geometry.invert(t_gt), t)
        errs[s] = (
            float(np.linalg.norm(t.translation - t_gt.translation)),
            geometry.rotation_angle(delta.rotation),
        )
    return errs
