"""Shared helpers: random transforms, oracle/real detection builders, and
the acceptance-line recorder printed in the terminal summary."""

from pathlib import Path

import numpy as np

from crosscal import geometry, lidar, sim
from crosscal.camera import CameraDetection, detect_target_camera
from crosscal.errors import CrosscalError, NotConverged, PoorFit
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


def random_rotation(rng, max_angle=np.pi - 0.1):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(1e-3, max_angle)
    return geometry.rotation_exp(w)


def random_rigid(rng, max_angle=np.pi - 0.1, max_trans=2.0):
    return geometry.RigidTransform(
        random_rotation(rng, max_angle), rng.uniform(-max_trans, max_trans, size=3)
    )


def log_se3(t):
    """Inverse of `geometry.exp_se3` for rotation angles below pi: the
    6-vector (v, w), translation part first."""
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


def gicp_register_oracle(source, target, t_init, p, source_normals):
    """`lidar.gicp_register` as it was with (n, 3) point rows, a compaction
    on every probe and the normal equations as six 3-operand einsums: the
    same probe sequence in other rounding. Its trees are built through
    `lidar.cKDTree`, so a test can count their queries."""
    tgt_tree = lidar.cKDTree(target)
    nrm_s = source_normals
    nrm_t = lidar._point_normals(target, tgt_tree)
    a_reg = 1.0 - 1e-3

    def matched(t):
        moved = t.apply(source)
        dists, idx = tgt_tree.query(moved, distance_upper_bound=p.gicp_corr_dist)
        valid = np.isfinite(dists)
        n_valid = int(valid.sum())
        if n_valid < 10:
            raise PoorFit(f"only {n_valid} GICP correspondences")
        ps = moved[valid]
        resid = ps - target[idx[valid]]
        n1 = nrm_t[idx[valid]]
        n2 = nrm_s[valid] @ t.rotation.T
        n2 = np.where((np.einsum("ni,ni->n", n1, n2) < 0)[:, None], -n2, n2)
        c = np.einsum("ni,ni->n", n1, n2)
        up = n1 + n2
        um = n1 - n2
        up /= np.maximum(np.linalg.norm(up, axis=1), 1e-12)[:, None]
        um /= np.maximum(np.linalg.norm(um, axis=1), 1e-12)[:, None]
        wp = 1.0 / (2.0 - a_reg * (1.0 + c)) - 0.5
        wm = 1.0 / (2.0 - a_reg * (1.0 - c)) - 0.5
        rp = np.einsum("ni,ni->n", up, resid)
        rm = np.einsum("ni,ni->n", um, resid)
        sq = np.einsum("ni,ni->n", resid, resid)
        cost = float((0.5 * sq + wp * rp**2 + wm * rm**2).mean())
        return cost, ps, resid, up, um, wp, wm, n_valid, dists[valid]

    t_cur = t_init
    step_norm = np.inf
    state = matched(t_cur)
    for _ in range(p.gicp_max_iter):
        cost, ps, resid, up, um, wp, wm, n_valid, _ = state
        a = np.cross(up, ps)
        b = np.cross(um, ps)
        h_tt = (
            0.5 * n_valid * np.eye(3)
            + np.einsum("n,ni,nj->ij", wp, up, up)
            + np.einsum("n,ni,nj->ij", wm, um, um)
        )
        h_tw = -(
            0.5 * geometry.skew(ps.sum(axis=0))
            + np.einsum("n,ni,nj->ij", wp, up, a)
            + np.einsum("n,ni,nj->ij", wm, um, b)
        )
        h_ww = (
            0.5 * ((ps**2).sum() * np.eye(3) - ps.T @ ps)
            + np.einsum("n,ni,nj->ij", wp, a, a)
            + np.einsum("n,ni,nj->ij", wm, b, b)
        )
        hess = np.block([[h_tt, h_tw], [h_tw.T, h_ww]])
        rp = (up * resid).sum(axis=1)
        rm = (um * resid).sum(axis=1)
        mr = 0.5 * resid + (wp * rp)[:, None] * up + (wm * rm)[:, None] * um
        grad = np.concatenate([mr.sum(axis=0), np.cross(ps, mr).sum(axis=0)])
        try:
            dx = np.linalg.solve(hess + 1e-9 * np.eye(6), -grad)
        except np.linalg.LinAlgError:
            raise NotConverged("singular GICP normal equations")
        alpha, step_norm = 1.0, 0.0
        t1 = geometry.compose(geometry.exp_se3(dx), t_cur)
        s1 = matched(t1)
        if s1[0] < cost:
            best = (s1, t1, 1.0)
            while alpha < 256:
                t2 = geometry.compose(geometry.exp_se3(2 * alpha * dx), t_cur)
                s2 = matched(t2)
                if s2[0] >= best[0][0]:
                    break
                alpha *= 2
                best = (s2, t2, alpha)
            state, t_cur, alpha = best
            step_norm = float(alpha * np.linalg.norm(dx))
        else:
            while alpha * np.linalg.norm(dx) >= 1e-7:
                alpha *= 0.5
                t_try = geometry.compose(geometry.exp_se3(alpha * dx), t_cur)
                s_try = matched(t_try)
                if s_try[0] < cost:
                    t_cur = t_try
                    state = s_try
                    step_norm = float(alpha * np.linalg.norm(dx))
                    break
        if step_norm < 1e-6:
            break
    if step_norm >= 1e-6:
        raise NotConverged(f"GICP step norm {step_norm:.2e} after {p.gicp_max_iter} iterations")
    fitness = float((state[-1] ** 2).mean())
    if fitness >= p.gicp_fitness_eps:
        raise PoorFit(f"fitness {fitness:.3e} >= {p.gicp_fitness_eps:.3e}")
    return t_cur, fitness


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
                [sim.render_camera(scene, s, seq) for seq, s in cams],
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
        t_gt = gt.relative(s, ref)
        delta = geometry.compose(geometry.invert(t_gt), t)
        errs[s] = (
            float(np.linalg.norm(t.translation - t_gt.translation)),
            geometry.rotation_angle(delta.rotation),
        )
    return errs
