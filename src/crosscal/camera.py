"""Board pose from 2D checker-corner detections (PnP) and circle-center lift.

Corner identity is taken from the upstream detection files; nothing here
touches pixels beyond the (id, u, v) observations. Pose initialization is a
normalized-DLT homography decomposition; both planar-ambiguity candidates
are refined by damped Gauss-Newton and the lower-reprojection one wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BehindCamera, DegenerateConfiguration, InsufficientCorners
from .geometry import Intrinsics, RigidTransform
from .lm import levenberg_marquardt
from .target import TargetSpec, checker_corners_board, circle_centers_board

@dataclass(frozen=True)
class CornerObservation:
    corner_id: int
    pixel: tuple  # (u, v)


@dataclass(frozen=True)
class CameraDetection:
    """Board pose (board -> camera) plus derived circle centers."""

    pose: RigidTransform
    centers_3d: np.ndarray  # (4, 3) camera frame, canonical order
    centers_2d: np.ndarray  # (4, 2) pixel projections of centers_3d
    reprojection_error: float  # mean over used corners, pixels
    corners_used: int


def _board_points(corners, spec: TargetSpec):
    lut = {cid: p for cid, p in checker_corners_board(spec)}
    obj, img = [], []
    for c in corners:
        if c.corner_id in lut:
            obj.append(lut[c.corner_id])
            img.append(np.asarray(c.pixel, dtype=float))
    return np.asarray(obj, dtype=float), np.asarray(img, dtype=float)


def _normalize_2d(pts):
    """Hartley normalization: similarity mapping to mean 0, RMS sqrt(2)."""
    mean = pts.mean(axis=0)
    rms = np.sqrt(((pts - mean) ** 2).sum(axis=1).mean())
    s = np.sqrt(2.0) / max(rms, 1e-12)
    t = np.array([[s, 0, -s * mean[0]], [0, s, -s * mean[1]], [0, 0, 1]])
    return t


def _homography_dlt(xy_board, uv):
    t_obj = _normalize_2d(xy_board)
    t_img = _normalize_2d(uv)
    n = len(xy_board)
    a = np.zeros((2 * n, 9))
    ob = np.column_stack([xy_board, np.ones(n)]) @ t_obj.T
    im = np.column_stack([uv, np.ones(n)]) @ t_img.T
    for i in range(n):
        x, y, _ = ob[i]
        u, v, _ = im[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y, -u]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y, -v]
    _, _, vt = np.linalg.svd(a)
    h = vt[-1].reshape(3, 3)
    return np.linalg.inv(t_img) @ h @ t_obj


def _pose_from_homography(h, k: Intrinsics):
    """Decompose a board->image homography into a rigid pose."""
    m = np.linalg.inv(k.k_matrix()) @ h
    scale = 1.0 / ((np.linalg.norm(m[:, 0]) + np.linalg.norm(m[:, 1])) / 2.0)
    m = m * scale
    if m[2, 2] < 0:  # enforce positive depth at the board origin
        m = -m
    r1, r2, t = m[:, 0], m[:, 1], m[:, 2]
    r = geometry.orthonormalize(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return RigidTransform(r, t)


def _mirror_candidate(pose: RigidTransform) -> RigidTransform:
    """Second planar-pose interpretation: board normal mirrored across the
    line of sight to the board origin."""
    view = pose.translation / max(np.linalg.norm(pose.translation), 1e-12)
    n = pose.rotation @ np.array([0.0, 0.0, 1.0])
    n_m = 2.0 * float(view @ n) * view - n
    axis = np.cross(n, n_m)
    s = np.linalg.norm(axis)
    c = np.clip(float(n @ n_m), -1.0, 1.0)
    if s < 1e-12:
        return pose
    w = axis / s * np.arctan2(s, c)
    return RigidTransform(geometry.rotation_exp(w) @ pose.rotation, pose.translation)


def pnp_jacobian(pose: RigidTransform, obj, k: Intrinsics):
    """Analytic Jacobian of the stacked reprojection residual w.r.t. a
    left-multiplied se(3) increment on the pose."""
    pts = pose.apply(obj)
    return (geometry.project_jacobian(pts, k.fx, k.fy) @ geometry.point_jacobian(pts)).reshape(-1, 6)


def _refine(pose, obj, uv, k):
    res = levenberg_marquardt(
        pose,
        # project_many raises NonPositiveDepth for a corner behind the camera: the step is rejected
        lambda t: (geometry.project_many(k, t.apply(obj)) - uv).ravel(),
        lambda t: pnp_jacobian(t, obj, k),
        lambda t, dx: geometry.compose(geometry.exp_se3(dx), t),
        max_iter=100,
        gradient_tol=1e-10,
    )
    return res.state, res.cost


def solve_pnp(corners, spec: TargetSpec, k: Intrinsics) -> RigidTransform:
    """Board->camera pose minimizing squared corner reprojection error."""
    obj, uv = _board_points(corners, spec)
    if len(obj) < 4:
        raise InsufficientCorners(f"{len(obj)} usable corners, need >= 4")
    xy = obj[:, :2]
    centered = xy - xy.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
        raise DegenerateConfiguration("board corners are collinear")

    h = _homography_dlt(xy, uv)
    base = _pose_from_homography(h, k)
    candidates = []
    for cand in (base, _mirror_candidate(base)):
        depths = cand.apply(obj)[:, 2]
        if np.all(depths > geometry.MIN_DEPTH):
            candidates.append(cand)
    if not candidates:
        raise BehindCamera("no pose candidate with all-positive corner depth")

    best, best_cost = None, np.inf
    for cand in candidates:
        refined, cost = _refine(cand, obj, uv, k)
        facing = (refined.rotation @ np.array([0.0, 0.0, 1.0]))[2] < 0
        key = (cost, 0 if facing else 1)
        if best is None or key < (best_cost, 0 if best_facing else 1):
            best, best_cost, best_facing = refined, cost, facing
    depths = best.apply(obj)[:, 2]
    if np.any(depths <= geometry.MIN_DEPTH):
        raise BehindCamera("refined pose leaves corners behind the camera")
    return best


def derive_circle_centers(t_board_cam: RigidTransform, spec: TargetSpec, k: Intrinsics):
    """(4,3) camera-frame circle centers and their (4,2) projections."""
    pts3 = t_board_cam.apply(circle_centers_board(spec))
    pts2 = geometry.project_many(k, pts3)
    return pts3, pts2


def detect_target_camera(corners, spec: TargetSpec, k: Intrinsics) -> CameraDetection:
    pose = solve_pnp(corners, spec, k)
    obj, uv = _board_points(corners, spec)
    proj = geometry.project_many(k, pose.apply(obj))
    err = float(np.linalg.norm(proj - uv, axis=1).mean())
    pts3, pts2 = derive_circle_centers(pose, spec, k)
    return CameraDetection(pose, pts3, pts2, err, len(obj))
