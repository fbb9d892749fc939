"""Synthetic scenes with ground truth: ray-cast LiDAR clouds of the board
(with its holes) over a ground plane, and noisy camera corner detections.

Everything is deterministic given the scene seed; per-render generators are
derived from (seed, sequence, sensor) so renders are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import InfeasibleLayout
from .geometry import Intrinsics, RigidTransform
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

    @property
    def sensor_ids(self):
        return list(self.sensors)

    @cached_property
    def ray_dirs(self) -> np.ndarray:
        """Read-only (n, 3) ray directions of `scan` in the sensor frame, built once."""
        scan = self.scan
        az = np.deg2rad(np.arange(0.0, 360.0, scan.az_res_deg))
        el = np.deg2rad(np.arange(scan.el_min_deg, scan.el_max_deg + 1e-9, scan.el_res_deg))
        azg, elg = np.meshgrid(az, el, indexing="ij")
        dirs = np.stack(
            [np.cos(elg) * np.cos(azg), np.cos(elg) * np.sin(azg), np.sin(elg)], axis=-1
        ).reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs


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
    return np.random.default_rng([seed & 0x7FFFFFFF, *tags])


_CAMERA_AXES = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
# camera x -> world -y, camera y -> world -z, camera z -> world +x (looks +x)

_BOARD_BASE = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# board x -> world -y, board y -> world +z, board z -> world -x (faces sensors)

_BOARD_BEARING_DEG = 40.0  # boards are placed within +/- this bearing of +x
_BOARD_Z = 1.25  # board center height, m, +/- 5 cm


def default_intrinsics() -> Intrinsics:
    return Intrinsics(700.0, 700.0, 639.5, 359.5, 1280, 720)


def sensor_sees_board(scene: Scene, sensor: SensorId, sequence: int) -> bool:
    return _visible(
        scene.sensors[sensor],
        sensor,
        scene.board_poses[sequence],
        scene.spec,
        scene.intrinsics.get(sensor),
        scene.scan,
    )


def _visible(t_sw, sensor, t_bw, spec, intr, scan):
    corners = np.array(
        [
            [sx * spec.board_width / 2, sy * spec.board_height / 2, 0.0]
            for sx in (-1, 1)
            for sy in (-1, 1)
        ]
        + [[0.0, 0.0, 0.0]]
    )
    pts_s = geometry.invert(t_sw).apply(t_bw.apply(corners))
    if sensor.kind == "camera":
        if np.any(pts_s[:, 2] <= 0.1):
            return False
        uv = geometry.project_many(intr, pts_s)
        return bool(
            np.all((uv[:, 0] >= 5) & (uv[:, 0] < intr.width - 5))
            and np.all((uv[:, 1] >= 5) & (uv[:, 1] < intr.height - 5))
        )
    rng_d = np.linalg.norm(pts_s, axis=1)
    el = np.rad2deg(np.arcsin(pts_s[:, 2] / np.maximum(rng_d, 1e-9)))
    return bool(
        np.all(rng_d < scan.max_range)
        and np.all(np.hypot(pts_s[:, 0], pts_s[:, 1]) < 7.9)  # inside the d_max gate
        and np.all(el > scan.el_min_deg + 0.5)
        and np.all(el < scan.el_max_deg - 0.5)
        and np.all(pts_s[:, 2] > 0.09)  # clears the h_min ground cut
    )


def make_scene(
    sensors: dict,
    sequences: int = 20,
    spec: TargetSpec | None = None,
    noise: NoiseModel | None = None,
    seed: int = 0,
    scan: ScanPattern | None = None,
    board_range=(5.5, 6.8),
) -> Scene:
    """Deterministic scene of the rig `sensors`, {SensorId: Intrinsics of a
    camera, None for a LiDAR}: sensors near the origin, cameras fanned over
    the bearing arc the boards are sampled from. Each kind's sensors are
    placed by their rank in index order. Spreading the boards over a wide
    arc is what makes sensor rotations observable; a narrow cone lets a
    rotation error trade against translation along the viewing direction.
    Every sequence is visible to every LiDAR, to at least one camera when
    there are cameras, and to at least two sensors, or InfeasibleLayout is
    raised."""
    if len(sensors) < 2:
        raise InfeasibleLayout("need at least two sensors")
    spec = spec or TargetSpec()
    noise = noise or NoiseModel()
    scan = scan or ScanPattern()
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
            seen = [
                sid
                for sid, t_sw in poses.items()
                if _visible(t_sw, sid, t_bw, spec, intrinsics.get(sid), scan)
            ]
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
    return Scene(poses, intrinsics, tuple(boards), spec, noise, seed, scan)


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


def render_camera(scene: Scene, sensor: SensorId, sequence: int):
    """Noisy checker-corner observations (ids, uv), (n,) ints and (n, 2)
    pixels; corners outside the image or hit by dropout are omitted, ids
    preserved. Each corner draws its pixel noise, then its dropout."""
    if sensor.kind != "camera":
        raise ValueError(f"{sensor} is not a camera")
    intr = scene.intrinsics[sensor]
    t_bc = geometry.compose(
        geometry.invert(scene.sensors[sensor]), scene.board_poses[sequence]
    )
    rng = _rng(scene.seed, 2, sequence, sensor.index)
    corners = checker_corners_board(scene.spec)
    pts = np.array([t_bc.apply(pt) for _, pt in corners])
    front = pts[:, 2] > 1e-3
    ids = np.array([cid for cid, _ in corners])[front]
    uv = geometry.project_many(intr, pts[front])
    keep = np.ones(len(ids), dtype=bool)
    for n in range(len(ids)):
        if scene.noise.pixel_sigma > 0:
            uv[n] += rng.normal(0.0, scene.noise.pixel_sigma, size=2)
        keep[n] = not (scene.noise.dropout > 0 and rng.random() < scene.noise.dropout)
    keep &= (0 <= uv[:, 0]) & (uv[:, 0] < intr.width) & (0 <= uv[:, 1]) & (uv[:, 1] < intr.height)
    return ids[keep], uv[keep]


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
    return RigidTransform(geometry.rotation_exp(dw) @ gt.rotation, gt.translation + dt)
