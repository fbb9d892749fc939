"""Synthetic scenes with ground truth: ray-cast LiDAR clouds of the board
(with its holes) over a ground plane, and noisy camera corner detections.

Everything is deterministic given the scene seed; per-render generators are
derived from (seed, sequence, sensor) so renders are order-independent.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import InfeasibleLayout
from .geometry import Intrinsics, RigidTransform
from .lidar import LidarParams
from .optimizer import SensorId
from .target import TargetSpec, checker_corners_board, circle_centers_board


@dataclass(frozen=True)
class NoiseModel:
    lidar_sigma: float = 0.0  # range noise along the ray, meters
    pixel_sigma: float = 0.0  # corner noise, pixels
    dropout: float = 0.0  # corner dropout probability

    def __post_init__(self):
        if min(self.lidar_sigma, self.pixel_sigma, self.dropout) < 0 or self.dropout > 1:
            raise ValueError("noise sigmas must be >= 0 and dropout in [0, 1]")


@dataclass(frozen=True)
class ScanPattern:
    """Ideal spinning scanner: uniform azimuth/elevation ray grid."""

    az_res_deg: float = 0.2
    el_min_deg: float = -15.0
    el_max_deg: float = 15.0
    el_res_deg: float = 0.2
    max_range: float = 30.0

    def __post_init__(self):
        if min(self.az_res_deg, self.el_res_deg, self.max_range) <= 0:
            raise ValueError("scan resolutions and max_range must be positive")


@dataclass(frozen=True)
class Scene:
    sensors: dict  # SensorId -> sensor->world pose, cameras then LiDARs, by index
    intrinsics: dict  # SensorId -> Intrinsics (cameras only)
    board_poses: tuple  # board->world pose per sequence
    spec: TargetSpec
    noise: NoiseModel
    seed: int
    scan: ScanPattern = ScanPattern()
    lidar_params: LidarParams = LidarParams()  # the detector gates a LiDAR's boards pass

    @property
    def sensor_ids(self):
        return list(self.sensors)

    @cached_property
    def ray_dirs(self) -> np.ndarray:
        """Read-only (n, 3) ray directions of `scan` in the sensor frame,
        azimuth-major, built once and in place: the build allocates little
        beyond the result."""
        scan = self.scan
        az = np.deg2rad(np.arange(0.0, 360.0, scan.az_res_deg))
        el = np.deg2rad(np.arange(scan.el_min_deg, scan.el_max_deg + 1e-9, scan.el_res_deg))
        cos_el = np.cos(el)
        dirs = np.empty((az.size, el.size, 3))
        # einsum's outer products, as a broadcast multiply would allocate ufunc buffers
        np.einsum("i,j->ij", np.cos(az), cos_el, out=dirs[..., 0])
        np.einsum("i,j->ij", np.sin(az), cos_el, out=dirs[..., 1])
        dirs[..., 2] = np.sin(el)
        dirs = dirs.reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs

    @cached_property
    def visibility(self) -> dict:
        """{SensorId: (B,) bool}, whether the sensor sees each station's
        board; one `_visibility` table over every sensor and station."""
        table = _visibility(
            self.sensors, self.intrinsics, self.board_poses, self.spec, self.scan, self.lidar_params
        )
        return dict(zip(self.sensors, table))


@dataclass(frozen=True)
class GroundTruth:
    sensor_poses: dict  # SensorId -> sensor->world
    board_poses: tuple
    spec: TargetSpec

    def centers_in_sensor(self, sensor: SensorId, sequence: int) -> np.ndarray:
        world = self.board_poses[sequence].apply(circle_centers_board(self.spec))
        return geometry.invert(self.sensor_poses[sensor]).apply(world)

    def board_in_sensor(self, sensor: SensorId, sequence: int) -> RigidTransform:
        return geometry.compose(
            geometry.invert(self.sensor_poses[sensor]), self.board_poses[sequence]
        )


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


_CAMERA_AXES = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
# camera x -> world -y, camera y -> world -z, camera z -> world +x (looks +x)

_BOARD_BASE = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# board x -> world -y, board y -> world +z, board z -> world -x (faces sensors)

_BOARD_BEARING_DEG = 40.0  # boards are placed within +/- this bearing of +x
_BOARD_Z = 1.25  # board center height, m, +/- 5 cm

# a LiDAR's board is kept this far inside the detector's gates: its corners'
# horizontal range inside (d_min, d_max), their height above h_min
_RANGE_MARGIN = 0.1  # m
_HEIGHT_MARGIN = 0.04  # m


def default_intrinsics() -> Intrinsics:
    return Intrinsics(700.0, 700.0, 639.5, 359.5, 1280, 720)


def sensor_sees_board(scene: Scene, sensor: SensorId, sequence: int) -> bool:
    return bool(scene.visibility[sensor][sequence])


def _visibility(
    poses: dict, intrinsics: dict, boards, spec: TargetSpec, scan: ScanPattern, gates: LidarParams
):
    """(S, B) whether each sensor of `poses`, {SensorId: sensor->world}, in
    its order, sees each board->world pose of `boards`, judged by the board's
    corners and center: a camera sees them 5 px inside its image and over
    0.1 m in front; a LiDAR in range, 0.5 deg inside its elevation span and
    inside the detector's gates of `gates`, _RANGE_MARGIN inside its d_min
    and d_max and _HEIGHT_MARGIN above its h_min ground cut. One array pass
    over every pair, each point moved by the same products as
    `RigidTransform.apply` on the board's points."""
    corners = np.array(
        [
            [sx * spec.board_width / 2, sy * spec.board_height / 2, 0.0]
            for sx in (-1, 1)
            for sy in (-1, 1)
        ]
        + [[0.0, 0.0, 0.0]]
    )
    rot_b = np.array([t.rotation for t in boards])
    world = corners @ rot_b.transpose(0, 2, 1) + np.array([t.translation for t in boards])[:, None]
    rot_s = np.array([t.rotation for t in poses.values()])
    trans_s = np.array([geometry.invert(t).translation for t in poses.values()])
    pts = world[:, None] @ rot_s + trans_s[:, None]  # (B, S, 5, 3) in each sensor's frame
    cams = [s.kind == "camera" for s in poses]
    # each camera's fx, fy, cx, cy, width, height; a LiDAR's row is never read
    k = np.array([astuple(intrinsics[s]) if s.kind == "camera" else (1.0,) * 6 for s in poses])
    fx, fy, cx, cy, width, height = k.T[:, :, None]
    uv = geometry.project(pts, fx, fy, cx, cy)[0]
    camera = (
        (pts[..., 2] > 0.1)
        & (uv[..., 0] >= 5)
        & (uv[..., 0] < width - 5)
        & (uv[..., 1] >= 5)
        & (uv[..., 1] < height - 5)
    )
    rng_d = np.linalg.norm(pts, axis=-1)
    el = np.rad2deg(np.arcsin(pts[..., 2] / np.maximum(rng_d, 1e-9)))
    rho = np.hypot(pts[..., 0], pts[..., 1])
    lidar = (
        (rng_d < scan.max_range)
        & (rho > gates.d_min + _RANGE_MARGIN)
        & (rho < gates.d_max - _RANGE_MARGIN)
        & (el > scan.el_min_deg + 0.5)
        & (el < scan.el_max_deg - 0.5)
        & (pts[..., 2] > gates.h_min + _HEIGHT_MARGIN)
    )
    return np.where(cams, camera.all(axis=-1), lidar.all(axis=-1)).T


def make_scene(
    sensors: dict,
    sequences: int = 20,
    spec: TargetSpec | None = None,
    noise: NoiseModel | None = None,
    seed: int = 0,
    scan: ScanPattern | None = None,
    board_range=(5.5, 6.8),
    lidar_params: LidarParams | None = None,
) -> Scene:
    """Deterministic scene of the rig `sensors`, {SensorId: Intrinsics of a
    camera, None for a LiDAR}: sensors near the origin, cameras fanned over
    the bearing arc the boards are sampled from. Each kind's sensors are
    placed by their rank in index order. Spreading the boards over a wide
    arc is what makes sensor rotations observable; a narrow cone lets a
    rotation error trade against translation along the viewing direction.
    Every sequence is visible to every LiDAR, through the gates of
    `lidar_params`, to at least one camera when there are cameras, and to at
    least two sensors, or InfeasibleLayout is raised."""
    if len(sensors) < 2:
        raise InfeasibleLayout("need at least two sensors")
    spec = spec or TargetSpec()
    noise = noise or NoiseModel()
    scan = scan or ScanPattern()
    lidar_params = lidar_params or LidarParams()
    rng = _rng(seed, 0)

    cameras = sorted(s for s in sensors if s.kind == "camera")
    lidars = sorted(s for s in sensors if s.kind == "lidar")
    poses = {}
    m = len(cameras)
    for j, sid in enumerate(cameras):
        y = (j - (m - 1) / 2.0) * 0.8
        yaw = np.deg2rad((j / (m - 1) - 0.5) * 2 * 0.5 * _BOARD_BEARING_DEG) if m > 1 else 0.0
        rot = geometry.rot_z(yaw) @ _CAMERA_AXES
        poses[sid] = RigidTransform(rot, np.array([0.0, y, 1.2]))
    for i, sid in enumerate(lidars):
        y = (i - (len(lidars) - 1) / 2.0) * 1.0
        rot = geometry.rot_z(np.deg2rad(rng.uniform(-3, 3)))
        poses[sid] = RigidTransform(rot, np.array([0.2, y, 0.5]))
    intrinsics = {sid: sensors[sid] for sid in cameras}

    boards = []
    for s in range(sequences):
        ok = None
        for _ in range(300):
            bearing = np.deg2rad(rng.uniform(-_BOARD_BEARING_DEG, _BOARD_BEARING_DEG))
            dist = rng.uniform(*board_range)
            pos = np.array(
                [
                    dist * np.cos(bearing),
                    dist * np.sin(bearing),
                    _BOARD_Z + rng.uniform(-0.05, 0.05),
                ]
            )
            # guarantee 8-20 deg of out-of-plane tilt: a fronto-parallel board
            # leaves the planar-PnP depth/tilt ambiguity ill-conditioned
            ux, uy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            perturb = geometry.rotation_from_euler_xyz(
                np.sign(ux) * (8.0 + 12.0 * abs(ux)),
                np.sign(uy) * (8.0 + 12.0 * abs(uy)),
                rng.uniform(-20, 20),
            )
            facing = geometry.rot_z(bearing) @ _BOARD_BASE  # face back at the rig
            t_bw = RigidTransform(facing @ perturb, pos)
            visible = _visibility(poses, intrinsics, [t_bw], spec, scan, lidar_params)[:, 0]
            seen = [sid for sid, v in zip(poses, visible) if v]
            lidars_seen = sum(1 for sid in seen if sid.kind == "lidar")
            cams_seen = len(seen) - lidars_seen
            # Every LiDAR should capture every board (spinning scanners have
            # no azimuth limit) and at least one camera must anchor it.
            if (
                len(seen) >= 2
                and lidars_seen == len(lidars)
                and (cams_seen >= 1 or m == 0)
            ):
                ok = t_bw
                break
        if ok is None:
            raise InfeasibleLayout(f"could not place a visible board for sequence {s}")
        boards.append(ok)
    return Scene(poses, intrinsics, tuple(boards), spec, noise, seed, scan, lidar_params)


def _board_rays(scene: Scene, t_sw: RigidTransform, t_bw: RigidTransform) -> np.ndarray:
    """Indices of the rays of `scene.ray_dirs` that can hit the board: those
    in the cone of its bounding sphere seen from the sensor, or every ray when
    the sensor is inside that sphere. A ray through a board point p passes
    within |p - center| of the center, at most the half diagonal; the sphere
    is 0.1% wider, a margin for rounding."""
    center = t_sw.rotation.T @ (t_bw.translation - t_sw.translation)  # sensor frame
    radius = 1.001 * np.hypot(scene.spec.board_width, scene.spec.board_height) / 2
    dist2 = center @ center
    if dist2 <= radius**2:
        return np.arange(len(scene.ray_dirs))
    return np.flatnonzero(scene.ray_dirs @ center >= np.sqrt(dist2 - radius**2))


class LidarCast:
    """One LiDAR's scan of the scene without the board: the rays that return
    from the z=0 ground plane within `max_range`, kept in ray order with
    their ranges and sensor-frame directions. All of it depends on the
    sensor alone, so it is cast once, and `render` splices the board hits of
    each station into the ground returns."""

    def __init__(self, scene: Scene, sensor: SensorId):
        if sensor.kind != "lidar":
            raise ValueError(f"{sensor} is not a lidar")
        self.scene, self.sensor = scene, sensor
        self.pose = scene.sensors[sensor]
        # the full product, sliced per board: slicing the rows before the
        # product can change the last bit of a direction
        self.dirs_w = scene.ray_dirs @ self.pose.rotation.T
        # only the rays pointing down can hit the ground
        ground = np.full(len(self.dirs_w), np.inf)
        down = np.flatnonzero(self.dirs_w[:, 2] < -1e-12)
        t_g = -self.pose.translation[2] / self.dirs_w[down, 2]
        ground[down] = np.where(t_g > 0.05, t_g, np.inf)
        self._rays = np.flatnonzero(ground <= scene.scan.max_range)
        self._ranges = ground[self._rays]
        self._dirs = np.take(scene.ray_dirs, self._rays, axis=0)

    def _board_hits(self, t_bw: RigidTransform):
        """(ray indices, ranges) of the rays that hit the board plane (holes
        skipped), in ray order. Only `_board_rays` are cast on the board: no
        other ray can hit it."""
        scene, origin = self.scene, self.pose.translation
        rays = _board_rays(scene, self.pose, t_bw)
        dirs = self.dirs_w[rays]
        n = t_bw.rotation[:, 2]
        denom = dirs @ n
        num = float((t_bw.translation - origin) @ n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = np.where(np.abs(denom) > 1e-12, num / denom, np.inf)
        cand = np.flatnonzero((t_hit > 0.05) & np.isfinite(t_hit))
        q = geometry.invert(t_bw).apply(origin + t_hit[cand, None] * dirs[cand])
        inside = (np.abs(q[:, 0]) <= scene.spec.board_width / 2) & (
            np.abs(q[:, 1]) <= scene.spec.board_height / 2
        )
        for ox, oy in scene.spec.circle_offsets:
            inside &= (q[:, 0] - ox) ** 2 + (q[:, 1] - oy) ** 2 > scene.spec.circle_radius**2
        hit = cand[inside]
        return rays[hit], t_hit[hit]

    def render(self, sequence: int) -> np.ndarray:
        """Ray-cast cloud of station `sequence` in the sensor frame: board
        plane (holes skipped) over the ground plane, nearest hit per ray
        within `max_range`, in ray order, range noise applied."""
        scene = self.scene
        idx, t = self._board_hits(scene.board_poses[sequence])
        pos = np.searchsorted(self._rays, idx)  # ground returns before each hit
        on_ground = np.searchsorted(self._rays, idx, side="right") > pos
        # a ray with no ground return in range returns from the board if that
        # is in range; the board occludes the ground along the same ray
        alone = ~on_ground & (t <= scene.scan.max_range)
        r = np.insert(self._ranges, pos[alone], t[alone])
        at = pos[on_ground] + np.searchsorted(pos[alone], pos[on_ground], side="right")
        r[at] = np.minimum(r[at], t[on_ground])
        if scene.noise.lidar_sigma > 0:
            rng = _rng(scene.seed, 1, sequence, self.sensor.index)
            r += rng.normal(0.0, scene.noise.lidar_sigma, size=len(r))
        # each direction moves as one 24-byte item: np.insert along axis 0 of
        # an (n, 3) array takes ~6x as long
        row = np.dtype((np.void, self._dirs.strides[0]))
        new = scene.ray_dirs[idx[alone]]
        cloud = np.insert(self._dirs.view(row).ravel(), pos[alone], new.view(row).ravel())
        cloud = cloud.view(float).reshape(-1, 3)
        cloud *= r[:, None]
        return cloud


def render_lidar(scene: Scene, sensor: SensorId, sequence: int) -> np.ndarray:
    """The cloud of one station; a LiDAR's stations share one `LidarCast`."""
    return LidarCast(scene, sensor).render(sequence)


def render_camera(scene: Scene, pairs) -> list:
    """Noisy checker-corner observations (ids, uv), (n,) ints and (n, 2)
    pixels, of each (camera, sequence) of `pairs`, in one array pass;
    corners behind the camera (`geometry.project`'s test), outside the image
    or hit by dropout are omitted, ids preserved. Each pair draws from its
    own generator the pixel noise of every corner, then their dropout. A
    corner moves as `RigidTransform.apply` moves one point, so its pixels
    keep their bits."""
    for sensor, _ in pairs:
        if sensor.kind != "camera":
            raise ValueError(f"{sensor} is not a camera")
    if not pairs:
        return []
    corners = checker_corners_board(scene.spec)
    sensors = [scene.sensors[s] for s, _ in pairs]
    boards = [scene.board_poses[q] for _, q in pairs]
    # board->camera of each pair, as geometry.compose(geometry.invert(t_sw), t_bw)
    rot_s = np.array([t.rotation for t in sensors]).transpose(0, 2, 1)
    rot = rot_s @ np.array([t.rotation for t in boards])
    trans = (rot_s @ np.array([t.translation for t in boards])[..., None])[..., 0]
    trans += [geometry.invert(t).translation for t in sensors]
    # (n, 1, 3) corners: one vector-matrix product each, where one (n, 3) @
    # (3, 3) product can round differently in the last bit
    pts = corners[:, None] @ rot[:, None].transpose(0, 1, 3, 2)
    pts = pts[:, :, 0] + trans[:, None]  # (P, n, 3)
    k = np.array([astuple(scene.intrinsics[s]) for s, _ in pairs]).T[:, :, None]
    uv, behind = geometry.project(pts, *k[:4])
    keep = ~behind
    noise = scene.noise
    if noise.pixel_sigma > 0 or noise.dropout > 0:
        for row, (sensor, sequence) in enumerate(pairs):
            rng = _rng(scene.seed, 2, sequence, sensor.index)
            front = np.flatnonzero(keep[row])
            if noise.pixel_sigma > 0:
                uv[row, front] += rng.normal(0.0, noise.pixel_sigma, size=(len(front), 2))
            if noise.dropout > 0:
                keep[row, front] = rng.random(len(front)) >= noise.dropout
    keep &= (0 <= uv[..., 0]) & (uv[..., 0] < k[4]) & (0 <= uv[..., 1]) & (uv[..., 1] < k[5])
    return [(np.flatnonzero(m), p[m]) for m, p in zip(keep, uv)]


def ground_truth(scene: Scene) -> GroundTruth:
    return GroundTruth(scene.sensors, scene.board_poses, scene.spec)


def perturbed_board_init(scene: Scene, sensor: SensorId, sequence: int) -> RigidTransform:
    """Rough board->sensor initial pose: ground truth with a seeded
    perturbation, mimicking an operator-provided guess."""
    gt = ground_truth(scene).board_in_sensor(sensor, sequence)
    trans_sigma, rot_sigma_deg = 0.08, 4.0  # per axis
    rng = _rng(scene.seed, 3, sequence, sensor.index)
    dw = rng.normal(0.0, np.deg2rad(rot_sigma_deg), size=3)
    dt = rng.normal(0.0, trans_sigma, size=3)
    # rotate about the board's own position so the perturbation stays local
    # (left-composing would sweep the distant board through range * angle)
    rot = geometry.exp_se3_matrix(np.concatenate([np.zeros(3), dw]))[:3, :3]
    return RigidTransform(rot @ gt.rotation, gt.translation + dt)
