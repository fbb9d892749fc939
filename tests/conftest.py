"""Shared helpers: random transforms, oracle/real detection builders, and
the acceptance-line recorder printed in the terminal summary."""

import numpy as np

from crosscal import geometry, sim
from crosscal.camera import CameraDetection, detect_target_camera
from crosscal.errors import CrosscalError
from crosscal.lidar import LidarParams, detect_target_lidar
from crosscal.optimizer import SequenceObservations

ACCEPTANCE_LINES = []


def record_acceptance(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_rotation(rng, max_angle=np.pi - 0.1):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(1e-3, max_angle)
    return geometry.rotation_exp(w)


def random_rigid(rng, max_angle=np.pi - 0.1, max_trans=2.0):
    return geometry.RigidTransform(
        random_rotation(rng, max_angle), rng.uniform(-max_trans, max_trans, size=3)
    )


def lm_without_reduction_stop(state, residual_fn, jac_fn, plus, max_iter=100, gradient_tol=1e-10):
    """Levenberg-Marquardt as it was before the predicted-reduction stop:
    the damping loop runs until a trial lowers the cost or lambda passes
    1e14. Returns (state, cost, converged)."""
    r = residual_fn(state)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        jac = jac_fn(state)
        grad = jac.T @ r
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < gradient_tol:
            converged = True
            break
        hess = jac.T @ jac
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


def detect_observations(scene, lp=None):
    """Run the real detectors on rendered data, in process (no files)."""
    lp = lp or LidarParams()
    out = []
    for seq in range(len(scene.board_poses)):
        obs = {}
        for s in scene.sensor_ids:
            if not sim.sensor_sees_board(scene, s, seq):
                continue
            try:
                if s.kind == "lidar":
                    cloud = sim.render_lidar(scene, s, seq)
                    t_init = sim.perturbed_board_init(scene, s, seq)
                    obs[s] = detect_target_lidar(cloud, scene.spec, t_init, lp)
                else:
                    corners = sim.render_camera(scene, s, seq)
                    obs[s] = detect_target_camera(corners, scene.spec, scene.intrinsics[s])
            except CrosscalError:
                continue
        if len(obs) >= 2:
            out.append(SequenceObservations(seq, obs))
    return out


def pose_errors(result, scene):
    """Per-sensor (translation m, rotation rad) error vs ground truth."""
    gt = sim.ground_truth(scene)
    ref = result.problem.reference
    errs = {}
    for s, t in result.poses.items():
        t_gt = gt.relative(s, ref)
        delta = geometry.compose(geometry.invert(t_gt), t)
        errs[s] = (
            float(np.linalg.norm(t.translation - t_gt.translation)),
            geometry.rotation_angle(delta.rotation),
        )
    return errs
