"""Geometry module: SE(3)/SO(3) arithmetic vs 4x4 homogeneous oracles,
Euler conversions, pinhole projection."""

import numpy as np
import pytest

from conftest import log_se3, matrix, random_rigid, random_rotation
from crosscal import geometry
from crosscal.errors import NonPositiveDepth
from crosscal.geometry import Intrinsics, RigidTransform


def test_compose_identity():
    i = RigidTransform.identity()
    m = geometry.compose(i, i)
    assert np.allclose(matrix(m), np.eye(4), atol=1e-12)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = random_rigid(rng)
        m = matrix(geometry.compose(t, geometry.invert(t)))
        assert np.abs(m - np.eye(4)).max() < 1e-9


def test_compose_matches_homogeneous_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = random_rigid(rng), random_rigid(rng)
        oracle = matrix(a) @ matrix(b)
        assert np.abs(matrix(geometry.compose(a, b)) - oracle).max() < 1e-12


def test_compose_associative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (random_rigid(rng) for _ in range(3))
        lhs = matrix(geometry.compose(geometry.compose(a, b), c))
        rhs = matrix(geometry.compose(a, geometry.compose(b, c)))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_invert_identity_and_translation():
    assert np.allclose(matrix(geometry.invert(RigidTransform.identity())), np.eye(4))
    t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(geometry.invert(t).translation, [-1.0, -2.0, -3.0])


def test_invert_matches_matrix_inverse():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = random_rigid(rng)
        assert np.abs(matrix(geometry.invert(t)) - np.linalg.inv(matrix(t))).max() < 1e-10


def test_transform_point_trivial_and_oracle():
    p = np.array([0.3, -0.2, 1.5])
    assert np.allclose(RigidTransform.identity().apply(p), p)
    lift = RigidTransform(np.eye(3), np.array([0.0, 0.0, 1.0]))
    assert np.allclose(lift.apply(np.zeros(3)), [0.0, 0.0, 1.0])
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = random_rigid(rng)
        q = rng.normal(size=3)
        hom = (matrix(t) @ np.append(q, 1.0))[:3]
        assert np.abs(t.apply(q) - hom).max() < 1e-12


def test_skew_broadcasts_as_cross_product():
    rng = np.random.default_rng(12)
    v, u = rng.normal(size=(2, 5, 4, 3))
    k = geometry.skew(v)
    assert k.shape == (5, 4, 3, 3)
    assert np.abs((k @ u[..., None])[..., 0] - np.cross(v, u)).max() < 1e-14
    assert np.array_equal(k[2, 1], geometry.skew(list(v[2, 1])))


def test_rotation_validation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.1, np.zeros(3))


@pytest.mark.parametrize(
    "rotation, translation",
    [
        (np.full((3, 3), np.nan), np.zeros(3)),
        (np.where(np.eye(3) > 0, 1.0, np.nan), np.zeros(3)),
        (np.eye(3), [0.0, np.inf, 0.0]),
        (np.eye(3), [np.nan, 0.0, 0.0]),
    ],
    ids=["nan-rotation", "nan-off-diagonal", "inf-translation", "nan-translation"],
)
def test_rigid_transform_rejects_non_finite(rotation, translation):
    with pytest.raises(ValueError, match="not finite"):
        RigidTransform(rotation, translation)


def test_project_principal_axis():
    k = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    assert np.allclose(geometry.project_many(k, [0.0, 0.0, 3.0]), [320.0, 240.0])


def test_project_hand_example():
    # u = 500*1/10 + 320 = 370, v = 500*2/10 + 240 = 340
    k = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    assert np.allclose(geometry.project_many(k, [1.0, 2.0, 10.0]), [370.0, 340.0])


def test_project_zero_depth_raises():
    k = Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)
    with pytest.raises(NonPositiveDepth):
        geometry.project_many(k, [1.0, 2.0, 0.0])
    with pytest.raises(NonPositiveDepth):
        geometry.project_many(k, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


def test_project_matches_project_many_and_flags_depth_at_or_below_min_depth():
    """In front of the camera `project` gives `project_many`'s pixels, bit
    for bit, and flags nothing; a depth of exactly MIN_DEPTH, 0 or below is
    flagged and still projects to a finite pixel. The intrinsics broadcast
    against the points: one camera per row of a stack."""
    k = Intrinsics(700.0, 650.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(8)
    front = rng.normal(size=(50, 3)) + [0.0, 0.0, 4.0]
    front[:, 2] = np.abs(front[:, 2]) + 2 * geometry.MIN_DEPTH
    uv, behind = geometry.project(front, k.fx, k.fy, k.cx, k.cy)
    assert np.array_equal(uv, geometry.project_many(k, front)) and not behind.any()
    depths = np.array([2.0, 1.0, 0.5, 0.0, -1.0, -3e9]) * geometry.MIN_DEPTH
    near = np.column_stack([rng.normal(size=(6, 2)), depths])
    uv, behind = geometry.project(near, k.fx, k.fy, k.cx, k.cy)
    assert behind.tolist() == [False, True, True, True, True, True]
    assert np.isfinite(uv).all()
    cams = [k, Intrinsics(900.0, 880.0, 330.0, 250.0, 640, 480)]
    fx, fy, cx, cy = (np.array([[getattr(c, a)] for c in cams]) for a in ("fx", "fy", "cx", "cy"))
    uv, behind = geometry.project(np.stack([front, front]), fx, fy, cx, cy)
    assert behind.shape == (2, 50) and not behind.any()
    assert np.array_equal(uv, [geometry.project_many(c, front) for c in cams])


def test_project_after_transform_matches_homogeneous_oracle():
    k = Intrinsics(700.0, 650.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(6)
    kk = np.array([[k.fx, 0.0, k.cx, 0.0], [0.0, k.fy, k.cy, 0.0], [0.0, 0.0, 1.0, 0.0]])
    done = 0
    while done < 100:
        t = random_rigid(rng, max_trans=1.0)
        p = rng.normal(size=3)
        hom = kk @ matrix(t) @ np.append(p, 1.0)
        if hom[2] <= 1e-3:
            continue
        uv = hom[:2] / hom[2]
        assert np.abs(geometry.project_many(k, t.apply(p)) - uv).max() < 1e-9
        done += 1


def test_euler_identity():
    e = geometry.euler_xyz_from_rotation(np.eye(3))
    assert e == (0.0, 0.0, 0.0)


def test_euler_table_row_round_trip():
    # Round-trip of a published-style pose row (rx, ry, rz degrees).
    angles = (110.80, -1.609, -87.738)
    r = geometry.rotation_from_euler_xyz(*angles)
    e = geometry.euler_xyz_from_rotation(r)
    assert np.abs(np.array(e) - angles).max() < 1e-9


def test_euler_random_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = random_rotation(rng)
        e = geometry.euler_xyz_from_rotation(r)
        r2 = geometry.rotation_from_euler_xyz(e.rx, e.ry, e.rz)
        assert np.abs(r - r2).max() < 1e-9


def test_euler_gimbal_lock_rz_zero():
    r = geometry.rotation_from_euler_xyz(25.0, 90.0, 40.0)
    e = geometry.euler_xyz_from_rotation(r)
    assert e.rz == 0.0
    assert abs(e.ry - 90.0) < 1e-6
    # the (rx, ry, 0) interpretation must reproduce the same matrix
    r2 = geometry.rotation_from_euler_xyz(e.rx, e.ry, 0.0)
    assert np.abs(r - r2).max() < 1e-8


def test_exp_zero_is_identity():
    t = geometry.exp_se3(np.zeros(6))
    assert np.allclose(matrix(t), np.eye(4), atol=1e-15)


def test_exp_quarter_turn_about_x():
    t = geometry.exp_se3([0.0, 0.0, 0.0, np.pi / 2, 0.0, 0.0])
    assert np.abs(t.rotation - geometry.rot_x(np.pi / 2)).max() < 1e-12
    assert np.allclose(t.translation, 0.0)


def test_exp_log_round_trip_1000():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        w = rng.normal(size=3)
        w = w / np.linalg.norm(w) * rng.uniform(1e-4, np.pi - 0.01)
        xi = np.concatenate([rng.uniform(-2, 2, size=3), w])
        back = log_se3(geometry.exp_se3(xi))
        worst = max(worst, float(np.abs(back - xi).max()))
    assert worst < 1e-9


def test_rotation_angle_and_orthonormalize():
    rng = np.random.default_rng(9)
    for _ in range(50):
        ang = rng.uniform(0.01, 3.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = geometry.rotation_exp(axis * ang)
        assert abs(geometry.rotation_angle(r) - ang) < 1e-9
        drift = r + rng.normal(scale=1e-4, size=(3, 3))
        fixed = geometry.orthonormalize(drift)
        assert np.abs(fixed.T @ fixed - np.eye(3)).max() < 1e-12
        assert np.linalg.det(fixed) > 0


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(-1.0, 500.0, 320.0, 240.0, 640, 480)
    with pytest.raises(ValueError):
        Intrinsics(500.0, 500.0, 700.0, 240.0, 640, 480)
