"""Board pose from 2D checker-corner detections (PnP) and circle-center lift.

Corner identity is taken from the upstream detection files; nothing here
touches pixels beyond the (id, u, v) observations: a camera's corner set is
an (ids, uv) pair of arrays, (n,) ints and (n, 2) pixels. All corner sets of
a run are solved together: each set's pose is initialized by a normalized-DLT
homography decomposition, both planar-ambiguity candidates of every set are
refined in one Levenberg-Marquardt batch, and per set the
lower-reprojection candidate wins. Sets are padded to the largest corner
count; padded corners carry zero residual and zero Jacobian rows. The
homographies and LM's residuals and normal equations are formed
_CHUNK_ELEMENTS padded corners at a time, so a large batch holds no
(P, 2N, 6) Jacobian; every candidate's arithmetic is the same in any chunk,
so the chunk size moves no output bit. The detections are built
from the batch too: one reprojection pass over the solved sets, and their
circle centers from one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import BehindCamera, DegenerateConfiguration, InsufficientCorners
from .geometry import RigidTransform
from .lm import levenberg_marquardt
from .target import TargetSpec, checker_corners_board, circle_centers_board

# padded corners whose reprojections, Jacobians or DLT rows are built at once
_CHUNK_ELEMENTS = 1 << 11


@dataclass(frozen=True)
class CameraDetection:
    """Board pose (board -> camera) plus derived circle centers."""

    pose: RigidTransform
    centers: np.ndarray  # (4, 3) camera frame, canonical order
    centers_2d: np.ndarray  # (4, 2) pixel projections of centers
    reprojection_error: float  # mean over used corners, pixels
    corners_used: int


class _CornerSets(NamedTuple):
    """S corner sets padded to N corners; `take` selects sets in every field."""

    obj: np.ndarray  # (S, N, 3) board points of the known corner ids, 0 on padding
    uv: np.ndarray  # (S, N, 2) their pixels
    used: np.ndarray  # (S, N) False on padding
    k: np.ndarray  # (S, 4) fx, fy, cx, cy of each set's camera

    def take(self, sets) -> "_CornerSets":
        return _CornerSets(*(a[sets] for a in self))


def _corner_sets(corner_sets, spec: TargetSpec, intrinsics) -> _CornerSets:
    """Board points and pixels of the corners whose ids the board has."""
    board = checker_corners_board(spec)
    known = [(ids >= 0) & (ids < len(board)) for ids, _ in corner_sets]
    n = max((k.sum() for k in known), default=0)
    obj, uv = np.zeros((len(known), n, 3)), np.zeros((len(known), n, 2))
    used = np.zeros((len(known), n), dtype=bool)
    for s, ((ids, pixels), keep) in enumerate(zip(corner_sets, known)):
        m = keep.sum()
        obj[s, :m], uv[s, :m], used[s, :m] = board[ids[keep]], pixels[keep], True
    k = np.array([[k.fx, k.fy, k.cx, k.cy] for k in intrinsics], dtype=float).reshape(-1, 4)
    return _CornerSets(obj, uv, used, k)


def _camera_points(poses, c: _CornerSets):
    """(P, N, 3) corners of the sets c in the camera frame under board->camera
    poses (P, 4, 4); padded corners sit at (0, 0, 1)."""
    pts = c.obj @ poses[:, :3, :3].transpose(0, 2, 1) + poses[:, None, :3, 3]
    return np.where(c.used[..., None], pts, (0.0, 0.0, 1.0))


def _reprojection(poses, c: _CornerSets):
    """(P, N, 2) pixel residuals, 0 on padding, and (P,) whether any corner
    is at or behind the camera (depth <= MIN_DEPTH)."""
    uv, behind = geometry.project(_camera_points(poses, c), *c.k.T[..., None])
    return np.where(c.used[..., None], uv - c.uv, 0.0), behind.any(axis=1)


def pnp_jacobian(pts, fx, fy):
    """(..., 2N, 6) analytic Jacobian of the stacked reprojection residual of
    camera-frame corners pts (..., N, 3) w.r.t. a left-multiplied se(3)
    increment on the pose; fx, fy broadcast against pts[..., 0]."""
    jac = geometry.project_jacobian(pts, fx, fy) @ geometry.point_jacobian(pts)
    return jac.reshape(jac.shape[:-3] + (-1, 6))


def _chunks(count: int, corners: int) -> list:
    """Slices of `count` sets (or candidates) of `corners` padded corners
    each: _CHUNK_ELEMENTS corners, and at least one set, per slice."""
    step = max(_CHUNK_ELEMENTS // corners, 1)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _refine(poses, c: _CornerSets):
    """LM on the batch of candidate poses (P, 4, 4) of the sets c; a trial that
    puts a corner behind the camera gets an infinite cost and is rejected."""

    def residual(states, rows):
        r = np.empty((len(rows), 2 * c.used.shape[1]))
        for k in _chunks(len(rows), c.used.shape[1]):
            part, behind = _reprojection(states[k], c.take(rows[k]))
            part[behind] = np.inf
            r[k] = part.reshape(len(part), -1)
        return r

    def normal(states, rows, r):
        hess, grad = np.empty((len(rows), 6, 6)), np.empty((len(rows), 6))
        for k in _chunks(len(rows), c.used.shape[1]):
            part = c.take(rows[k])
            jac = pnp_jacobian(_camera_points(states[k], part), part.k[:, :1], part.k[:, 1:2])
            jac[~np.repeat(part.used, 2, axis=1)] = 0.0
            hess[k], grad[k] = jac.transpose(0, 2, 1) @ jac, (r[k, None, :] @ jac)[:, 0]
        return hess, grad

    return levenberg_marquardt(
        poses,
        residual,
        normal,
        lambda states, dx: geometry.exp_se3_matrix(dx) @ states,
        max_iter=100,
        gradient_tol=1e-10,
    )


def _normalize_2d(pts, used):
    """(S, 3, 3) Hartley normalizations: similarities mapping each set's used
    points (S, N, 2) to mean 0, RMS sqrt(2)."""
    n = used.sum(axis=1)
    mean = (pts * used[..., None]).sum(axis=1) / n[:, None]
    rms = np.sqrt((((pts - mean[:, None]) ** 2).sum(axis=2) * used).sum(axis=1) / n)
    s = np.sqrt(2.0) / np.maximum(rms, 1e-12)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, :2, 2] = -s[:, None] * mean
    t[:, 2, 2] = 1.0
    return t


def _homographies(c: _CornerSets):
    """(S, 3, 3) board->image homographies by normalized DLT."""
    return np.concatenate([_dlt(c.take(k)) for k in _chunks(*c.used.shape)])


def _dlt(c: _CornerSets):
    """_homographies of one chunk of sets."""
    t_obj, t_img = _normalize_2d(c.obj[..., :2], c.used), _normalize_2d(c.uv, c.used)
    ones = np.ones(c.used.shape + (1,))

    def normalized(pts, t):
        return np.moveaxis(np.concatenate([pts, ones], -1) @ t.transpose(0, 2, 1), -1, 0)

    x, y, _ = normalized(c.obj[..., :2], t_obj)
    u, v, _ = normalized(c.uv, t_img)
    o, i = np.zeros_like(x), np.ones_like(x)
    rows = np.stack(
        [
            np.stack([x, y, i, o, o, o, -u * x, -u * y, -u], axis=-1),
            np.stack([o, o, o, x, y, i, -v * x, -v * y, -v], axis=-1),
        ],
        axis=2,
    )
    # zero rows for padding, and at least 9 rows so that vt holds the null vector
    a = np.zeros((len(x), max(2 * x.shape[1], 9), 9))
    a[:, : 2 * x.shape[1]] = (rows * c.used[..., None, None]).reshape(len(x), -1, 9)
    h = np.linalg.svd(a, full_matrices=False)[2][:, -1].reshape(-1, 3, 3)
    return np.linalg.inv(t_img) @ h @ t_obj


def _poses_from_homographies(h, k):
    """(S, 4, 4) rigid poses decomposed from board->image homographies."""
    kmat = np.zeros((len(h), 3, 3))
    kmat[:, 0, 0], kmat[:, 1, 1], kmat[:, 0, 2], kmat[:, 1, 2] = k.T
    kmat[:, 2, 2] = 1.0
    m = np.linalg.inv(kmat) @ h
    scale = 1.0 / ((np.linalg.norm(m[:, :, 0], axis=1) + np.linalg.norm(m[:, :, 1], axis=1)) / 2.0)
    m = m * scale[:, None, None]
    m = np.where(m[:, 2:, 2:] < 0, -m, m)  # enforce positive depth at the board origin
    r1, r2 = m[:, :, 0], m[:, :, 1]
    poses = np.zeros((len(h), 4, 4))
    poses[:, :3, :3] = geometry.orthonormalize(np.stack([r1, r2, np.cross(r1, r2)], axis=-1))
    poses[:, :3, 3] = m[:, :, 2]
    poses[:, 3, 3] = 1.0
    return poses


def _mirror_candidates(poses):
    """Second planar-pose interpretations: board normal mirrored across the
    line of sight to the board origin (the pose itself where they coincide)."""
    t = poses[:, :3, 3]
    view = t / np.maximum(np.linalg.norm(t, axis=1), 1e-12)[:, None]
    n = poses[:, :3, 2]  # board normal in the camera frame
    n_m = 2.0 * (view * n).sum(axis=1)[:, None] * view - n
    axis = np.cross(n, n_m)
    s = np.linalg.norm(axis, axis=1)
    c = np.clip((n * n_m).sum(axis=1), -1.0, 1.0)
    angle = np.where(s < 1e-12, 0.0, np.arctan2(s, c))
    out = poses.copy()
    w = axis / np.maximum(s, 1e-12)[:, None] * angle[:, None]
    rot = geometry.exp_se3_matrix(np.concatenate([np.zeros_like(w), w], axis=1))[:, :3, :3]
    out[:, :3, :3] = rot @ poses[:, :3, :3]
    return out


def _solve(c: _CornerSets):
    """Board->camera poses (S, 4, 4) minimizing each set's squared corner
    reprojection error, and each set's error (None where solved)."""
    count = c.used.sum(axis=1)
    xy = c.obj[..., :2]
    mean = (xy * c.used[..., None]).sum(axis=1) / np.maximum(count, 1)[:, None]
    rank = np.linalg.matrix_rank((xy - mean[:, None]) * c.used[..., None], tol=1e-9)
    errors = [None] * len(count)
    for s, (n, rk) in enumerate(zip(count, rank)):
        if n < 4:
            errors[s] = InsufficientCorners(f"{n} usable corners, need >= 4")
        elif rk < 2:
            errors[s] = DegenerateConfiguration("board corners are collinear")
    sets = np.array([s for s, e in enumerate(errors) if e is None], dtype=int)
    poses = np.zeros((len(count), 4, 4))
    if not sets.size:
        return poses, errors

    sub = c.take(sets)
    base = _poses_from_homographies(_homographies(sub), sub.k)
    cand = np.concatenate([base, _mirror_candidates(base)])  # set k's candidates at k and k + P
    owner = np.concatenate([sets, sets])
    live = np.flatnonzero(~_reprojection(cand, c.take(owner))[1])
    cost = np.full(len(cand), np.inf)
    if live.size:
        res = _refine(cand[live], c.take(owner[live]))
        cand[live], cost[live] = res.state, res.cost
    p = len(sets)
    facing = cand[:, 2, 2] < 0  # board front toward the camera: ties go to it
    mirror = (cost[p:] < cost[:p]) | ((cost[p:] == cost[:p]) & facing[p:] & ~facing[:p])
    poses[sets] = np.where(mirror[:, None, None], cand[p:], cand[:p])
    # LM rejects every trial that puts a corner at or behind the camera, so
    # a set with a live candidate ends with all its corners in front
    for k, s in enumerate(sets):
        if np.isinf(cost[k]) and np.isinf(cost[k + p]):
            errors[s] = BehindCamera("no pose candidate with all-positive corner depth")
    return poses, errors


def detect_target_camera(corner_sets, spec: TargetSpec, intrinsics) -> list:
    """Detections of all corner sets of a run, one PnP batch: for each set
    (an (ids, uv) pair, seen by the camera with the matching entry of
    `intrinsics`) its CameraDetection, or the InsufficientCorners,
    DegenerateConfiguration or BehindCamera error that stopped it."""
    c = _corner_sets(corner_sets, spec, intrinsics)
    poses, errors = _solve(c)
    out = list(errors)
    ok = np.flatnonzero([e is None for e in errors])
    sub, solved = c.take(ok), poses[ok]
    r = np.linalg.norm(_reprojection(solved, sub)[0], axis=2)
    err = r.sum(axis=1) / sub.used.sum(axis=1)  # padded residuals are 0
    pts3 = circle_centers_board(spec) @ solved[:, :3, :3].transpose(0, 2, 1) + solved[:, None, :3, 3]
    pts2, behind = geometry.project(pts3, *sub.k.T[..., None])
    for k, s in enumerate(ok):
        if behind[k].any():
            out[s] = BehindCamera("a circle center lies at or behind the camera")
            continue
        pose = RigidTransform(solved[k, :3, :3], solved[k, :3, 3])
        out[s] = CameraDetection(pose, pts3[k], pts2[k], float(err[k]), int(sub.used[k].sum()))
    return out
