"""SE(3)/SO(3) arithmetic, Euler conversions and the pinhole projection.

`project` is the camera model: the one pinhole formula and the one
behind-camera test (depth <= MIN_DEPTH) that simulation, PnP, detection and
the global solve share.

A `RigidTransform` (explicit rotation matrix plus translation vector) is
the pose form at the boundaries: detections, solved poses, files. Both
solvers keep (..., 4, 4) homogeneous stacks, PnP one per pose
candidate and the global solve one per sensor, and step them with the one
SE(3) exponential of the library, the vectorized `exp_se3_matrix`. Euler angles
only appear at the file-format boundary (intrinsic XYZ, degrees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDepth

_EPS = 1e-9
MIN_DEPTH = 1e-9  # camera-frame depth at or below which a point is behind the camera


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("rotation or translation not finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > 1e-8 or np.linalg.det(r) < 0:
            raise ValueError(f"rotation not orthonormal (err={err:.2e}, det={np.linalg.det(r):.4f})")
        r.setflags(write=False)
        t.setflags(write=False)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Transform a single point (3,) or an array of points (N, 3)."""
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics; fx/fy in pixels, principal point (cx, cy)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition a*b: applies b first, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def project(q: np.ndarray, fx, fy, cx, cy):
    """Pinhole pixels (..., 2) of camera-frame points q (..., 3), and (...,)
    whether each point is at or behind the camera (depth <= MIN_DEPTH). A
    flagged point is projected at depth 1, so its pixel is finite but
    meaningless. fx, fy, cx and cy broadcast against q[..., 0]."""
    q = np.asarray(q, dtype=float)
    behind = q[..., 2] <= MIN_DEPTH
    z = np.where(behind, 1.0, q[..., 2])
    return np.stack([fx * q[..., 0] / z + cx, fy * q[..., 1] / z + cy], axis=-1), behind


def project_many(k: Intrinsics, pts: np.ndarray) -> np.ndarray:
    """(N, 2) pixels of points (N, 3) in the camera `k`; raises if any
    depth is non-positive."""
    uv, behind = project(np.reshape(pts, (-1, 3)), k.fx, k.fy, k.cx, k.cy)
    if behind.any():
        raise NonPositiveDepth("at least one point at non-positive depth")
    return uv


def project_jacobian(q: np.ndarray, fx, fy) -> np.ndarray:
    """(..., 2, 3) derivative of the pinhole projection at camera-frame
    points q (..., 3); fx and fy broadcast against q[..., 0]."""
    x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    o = np.zeros_like(z)
    return np.stack([fx / z, o, -fx * x / z**2, o, fy / z, -fy * y / z**2], -1).reshape(z.shape + (2, 3))


def point_jacobian(p: np.ndarray) -> np.ndarray:
    """(..., 3, 6) derivative of a transformed point p = T @ p0 (..., 3) with
    respect to a left-multiplied se(3) increment (v, w): [I | -skew(p)]."""
    return np.concatenate([np.broadcast_to(np.eye(3), np.shape(p) + (3,)), -skew(p)], axis=-1)


class EulerXYZ(NamedTuple):
    rx: float
    ry: float
    rz: float


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def rotation_from_euler_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    """Intrinsic XYZ Euler angles (degrees) to rotation matrix."""
    a, b, c = np.deg2rad([rx, ry, rz])
    return rot_x(a) @ rot_y(b) @ rot_z(c)


def euler_xyz_from_rotation(r: np.ndarray) -> EulerXYZ:
    """Rotation matrix to intrinsic XYZ Euler angles in degrees.

    Near gimbal lock (|cos(ry)| < 1e-9) rz is fixed to 0.
    """
    r = np.asarray(r, dtype=float)
    sy = np.clip(r[0, 2], -1.0, 1.0)
    cy = np.hypot(r[0, 0], r[0, 1])
    ry = np.arctan2(sy, cy)
    if cy < _EPS:
        # r[2,1] = sa, r[1,1] = ca when rz = 0
        rx = np.arctan2(r[2, 1], r[1, 1])
        return EulerXYZ(np.rad2deg(rx), np.rad2deg(ry), 0.0)
    rx = np.arctan2(-r[1, 2], r[2, 2])
    rz = np.arctan2(-r[0, 1], r[0, 0])
    return EulerXYZ(np.rad2deg(rx), np.rad2deg(ry), np.rad2deg(rz))


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of vectors (..., 3)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(x.shape + (3, 3))


def exp_se3_matrix(xi: np.ndarray) -> np.ndarray:
    """SE(3) exponentials, as (..., 4, 4) homogeneous matrices, of 6-vectors
    (..., 6) (v, w), translation part first: the retraction of both solvers,
    PnP and the global solve, and the simulator's seeded board perturbation."""
    xi = np.asarray(xi, dtype=float)
    v, w = xi[..., :3], xi[..., 3:]
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    k = skew(w)
    kk = k @ k
    small = theta < 1e-8
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, (1.0 - np.cos(t)) / t**2)
    c = np.where(small, 1.0 / 6.0, (t - np.sin(t)) / t**3)
    m = np.zeros(xi.shape[:-1] + (4, 4))
    m[..., :3, :3] = np.eye(3) + a * k + b * kk
    m[..., :3, 3] = ((np.eye(3) + b * k + c * kk) @ v[..., None])[..., 0]
    m[..., 3, 3] = 1.0
    return m


def rotation_angle(r: np.ndarray) -> float:
    """Angle in radians of a rotation matrix.

    atan2 of (sin, cos) instead of arccos of the trace: arccos loses half the
    significant digits near 0, which matters when checking loop closures.
    """
    r = np.asarray(r)
    s = 0.5 * np.linalg.norm(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )
    c = 0.5 * (np.trace(r) - 1.0)
    return float(np.arctan2(s, c))


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices (Frobenius) via SVD of (..., 3, 3); fixes small drift."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt
