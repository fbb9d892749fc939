"""Global estimation of all sensor poses from per-sequence circle centers.

Every sensor pair that co-detects the board in a sequence contributes
residual terms: camera pairs compare projected 3D centers against the
other camera's 2D centers, LiDAR-camera pairs project the LiDAR centers,
and LiDAR pairs compare 3D centers directly. The reference sensor is
pinned to identity (gauge) and the rest solved by Levenberg-Marquardt on
the SE(3) tangent space with an analytic Jacobian.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geometry
from .camera import CameraDetection
from .errors import (
    DegenerateCenters,
    DisconnectedGraph,
    NoReferenceObservations,
    SingularNormalEquations,
    SolverNotConverged,
    UnknownSensor,
)
from .geometry import Intrinsics, RigidTransform
from .lidar import LidarDetection
from .lm import levenberg_marquardt

log = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class SensorId:
    kind: str  # "camera" | "lidar"
    index: int

    def __post_init__(self):
        if self.kind not in ("camera", "lidar"):
            raise ValueError(f"unknown sensor kind {self.kind!r}")

    def __str__(self):
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class SequenceObservations:
    sequence: int
    observations: dict  # SensorId -> LidarDetection | CameraDetection


@dataclass(frozen=True)
class SolveParams:
    max_iter: int = 100
    gradient_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1 or self.gradient_tol <= 0:
            raise ValueError("max_iter must be >= 1 and gradient_tol > 0")


@dataclass(frozen=True)
class CalibrationProblem:
    sequences: tuple  # of SequenceObservations
    reference: SensorId
    sensors: tuple  # all SensorIds, display order (cameras then lidars)
    intrinsics: dict  # SensorId -> Intrinsics of each camera, None for a configured LiDAR
    params: SolveParams = SolveParams()

    def display_name(self, sensor: SensorId) -> str:
        """S<n>, numbering the configured sensors (the keys of `intrinsics`)
        and the detected ones together, as `cli` reads `--reference S<n>`."""
        return f"S{display_order([*self.intrinsics, *self.sensors]).index(sensor) + 1}"


@dataclass
class CalibrationResult:
    poses: dict  # SensorId -> RigidTransform (sensor frame -> reference B)
    problem: CalibrationProblem
    final_cost: float
    initial_cost: float
    iterations: int
    converged: bool
    gradient_norm: float
    cost_history: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def detection_centers(det) -> np.ndarray:
    """(4, 3) centers of either detection flavor, canonical order."""
    if isinstance(det, LidarDetection):
        return det.centers
    return det.centers_3d


def _check_centers(det, sensor, seq):
    c = detection_centers(det)
    centered = c - c.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
        raise DegenerateCenters(f"sensor {sensor} sequence {seq}: collinear centers")


def display_order(sensors) -> tuple:
    """The distinct `sensors` in the order reports number them S1, S2, ...:
    cameras, then LiDARs, each by index (the order of SensorId)."""
    return tuple(sorted(set(sensors)))


def build_problem(
    detections,
    reference: SensorId,
    intrinsics: dict,
    params: SolveParams = SolveParams(),
) -> CalibrationProblem:
    """Assemble sequences into a connected co-visibility problem.

    Sequences with fewer than two detecting sensors are dropped with a
    warning; a camera without intrinsics, a disconnected sensor graph or an
    unobserved reference is an error.
    """
    cameras = {s for seq in detections for s in seq.observations if s.kind == "camera"}
    unknown = sorted(cameras - set(intrinsics))
    if unknown:
        raise UnknownSensor(f"no intrinsics for the detections of {', '.join(map(str, unknown))}")
    kept = []
    for seq in detections:
        if len(seq.observations) < 2:
            log.warning("sequence %s has %d detection(s); dropped", seq.sequence, len(seq.observations))
            continue
        kept.append(seq)
    sensors = display_order(s for seq in kept for s in seq.observations)
    if reference not in sensors:
        raise NoReferenceObservations(f"reference {reference} has no detections")
    # connectivity over co-detection edges
    comp = {s: s for s in sensors}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for seq in kept:
        obs = sorted(seq.observations)
        for other in obs[1:]:
            comp[find(other)] = find(obs[0])
    groups = {}
    for s in sensors:
        groups.setdefault(find(s), []).append(s)
    if len(groups) > 1:
        raise DisconnectedGraph([sorted(map(str, g)) for g in groups.values()])
    return CalibrationProblem(tuple(kept), reference, sensors, dict(intrinsics), params)


def _kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid alignment mapping src points onto dst."""
    sm, dm = src.mean(axis=0), dst.mean(axis=0)
    h = (src - sm).T @ (dst - dm)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, dm - r @ sm)


def estimate_pairwise(p: CalibrationProblem, a: SensorId, b: SensorId) -> RigidTransform:
    """Closed-form a->b transform from all shared center correspondences."""
    src, dst = [], []
    for seq in p.sequences:
        if a in seq.observations and b in seq.observations:
            _check_centers(seq.observations[a], a, seq.sequence)
            _check_centers(seq.observations[b], b, seq.sequence)
            src.append(detection_centers(seq.observations[a]))
            dst.append(detection_centers(seq.observations[b]))
    if not src:
        raise UnknownSensor(f"sensors {a} and {b} never co-detect")
    return _kabsch(np.concatenate(src), np.concatenate(dst))


def initial_guess(p: CalibrationProblem) -> dict:
    """Chain closed-form pairwise poses to the reference along a maximum
    co-detection spanning tree; reference pose is identity."""
    counts = {}
    for seq in p.sequences:
        obs = sorted(seq.observations)
        for i, a in enumerate(obs):
            for b in obs[i + 1 :]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    poses = {p.reference: RigidTransform.identity()}
    remaining = set(p.sensors) - {p.reference}
    while remaining:
        best = None
        for (a, b), n in counts.items():
            for known, new in ((a, b), (b, a)):
                if known in poses and new in remaining:
                    if best is None or n > best[0]:
                        best = (n, known, new)
        if best is None:  # unreachable for a connected problem
            raise DisconnectedGraph([sorted(map(str, poses)), sorted(map(str, remaining))])
        _, known, new = best
        t_new_known = estimate_pairwise(p, new, known)
        poses[new] = geometry.compose(poses[known], t_new_known)
        remaining.discard(new)
    return poses


class _Terms(NamedTuple):
    """Residual terms of one kind: in term n, pose i[n] maps the centers of
    record a[n] into B, where they meet record b[n] of sensor j[n]: its
    pixels (camera terms) or its own centers mapped by pose j (LiDAR pairs)."""

    i: np.ndarray  # (T,) sensor indices into p.sensors
    j: np.ndarray
    a: np.ndarray  # (T,) record indices
    b: np.ndarray
    rows: np.ndarray  # (T, 8 | 12) positions in the residual vector


class _TermTable(NamedTuple):
    records: list  # (sequence position, SensorId) of each detection record
    centers: np.ndarray  # (N, 4, 3) record centers in the sensor frame
    pixels: np.ndarray  # (N, 4, 2) camera records' pixel centers, 0 for LiDARs
    sensor: np.ndarray  # (S, 6) weight, fx, fy, cx, cy, behind-camera residual
    cam: _Terms
    lidar: _Terms


def _term_table(p: CalibrationProblem) -> _TermTable:
    """Enumerate the residual terms once, in residual-vector order: per
    sequence, the camera terms of each observing camera j, then the LiDAR pairs.
    A camera's residuals are weighted by 1/fx, a LiDAR's by 1."""
    sensor = np.zeros((len(p.sensors), 6))
    sensor[:, 0] = 1.0
    for n, s in enumerate(p.sensors):
        if s.kind == "camera":
            k = p.intrinsics[s]
            w = 1.0 / k.fx
            sensor[n] = w, k.fx, k.fy, k.cx, k.cy, w * np.hypot(k.width, k.height) / np.sqrt(2.0)
    records, terms, row = [], ([], []), 0
    for q, seq in enumerate(p.sequences):
        present = [s for s in p.sensors if s in seq.observations]
        lids = [s for s in present if s.kind == "lidar"]
        rec = {s: len(records) + n for n, s in enumerate(present)}
        records += [(q, s) for s in present]
        # a camera's own centers project exactly onto its own pixels: no self terms
        pairs = [(i, j, 0) for j in present if j not in lids for i in present if i != j]
        pairs += [(i, j, 1) for n, i in enumerate(lids) for j in lids[n + 1 :]]
        for i, j, kind in pairs:
            terms[kind].append((p.sensors.index(i), p.sensors.index(j), rec[i], rec[j], row))
            row += (8, 12)[kind]
    dets = [p.sequences[q].observations[s] for q, s in records]
    cam, lidar = (np.array(t, dtype=int).reshape(-1, 5).T for t in terms)
    return _TermTable(
        records,
        np.array([detection_centers(d) for d in dets]),
        np.array([getattr(d, "centers_2d", np.zeros((4, 2))) for d in dets]),
        sensor,
        _Terms(*cam[:4], cam[4, :, None] + np.arange(8)),
        _Terms(*lidar[:4], lidar[4, :, None] + np.arange(12)),
    )


def _pose_arrays(p: CalibrationProblem, poses: dict):
    rot = np.array([poses[s].rotation for s in p.sensors])
    return rot, np.array([poses[s].translation for s in p.sensors])


def _camera_blocks(tab: _TermTable, t: _Terms, rot, trans, jac: bool):
    """(T, 8) residual blocks, their (T, 8, 6) derivatives by poses i and j
    (None unless jac) and the number of centers behind camera j."""
    y = tab.centers[t.a] @ rot[t.i].transpose(0, 2, 1) + trans[t.i, None]  # centers in B
    q = (y - trans[t.j, None]) @ rot[t.j]  # centers in camera j
    w, fx, fy, cx, cy, cap = tab.sensor[t.j, :, None].transpose(1, 0, 2)
    uv, behind = geometry.project(q, fx, fy, cx, cy)
    q[behind] = 1.0  # any depth > 0: these rows are capped and their derivatives zeroed
    block = np.where(behind[..., None], cap[:, None], w[:, None] * (uv - tab.pixels[t.b])).reshape(-1, 8)
    if not jac:
        return block, None, None, int(behind.sum())
    rjt = rot[t.j, None].transpose(0, 1, 3, 2)
    core = (w[..., None, None] * geometry.project_jacobian(q, fx, fy)) @ rjt @ geometry.point_jacobian(y)
    core[behind] = 0.0  # capped rows
    return block, core.reshape(-1, 8, 6), -core.reshape(-1, 8, 6), int(behind.sum())


def _lidar_blocks(tab: _TermTable, t: _Terms, rot, trans, jac: bool):
    """(T, 12) residual blocks and their (T, 12, 6) derivatives by poses i and j."""
    yi = tab.centers[t.a] @ rot[t.i].transpose(0, 2, 1) + trans[t.i, None]
    yj = tab.centers[t.b] @ rot[t.j].transpose(0, 2, 1) + trans[t.j, None]
    w = tab.sensor[t.j, 0, None, None]
    block = (w * (yi - yj)).reshape(-1, 12)
    if not jac:
        return block, None, None, 0
    di = w[..., None] * geometry.point_jacobian(yi)
    dj = -w[..., None] * geometry.point_jacobian(yj)
    return block, di.reshape(-1, 12, 6), dj.reshape(-1, 12, 6), 0


def residuals(p: CalibrationProblem, poses: dict, table: _TermTable | None = None):
    """Stacked residual vector; behind-camera projections are capped at the
    image diagonal and counted in the returned flag total."""
    tab = _term_table(p) if table is None else table
    rot, trans = _pose_arrays(p, poses)
    r = np.empty(tab.cam.rows.size + tab.lidar.rows.size)
    flags = 0
    for blocks, t in ((_camera_blocks, tab.cam), (_lidar_blocks, tab.lidar)):
        block, _, _, n = blocks(tab, t, rot, trans, jac=False)
        r[t.rows] = block
        flags += n
    return r, flags


def jacobian(p: CalibrationProblem, poses: dict, table: _TermTable | None = None) -> np.ndarray:
    """Analytic Jacobian w.r.t. left-multiplied tangent increments on every
    non-reference pose, ordered like p.sensors with the reference skipped."""
    tab = _term_table(p) if table is None else table
    rot, trans = _pose_arrays(p, poses)
    free = np.array([s != p.reference for s in p.sensors])
    col = np.where(free, 6 * np.cumsum(free) - 6, -1)  # first column of each free pose
    jac = np.zeros((tab.cam.rows.size + tab.lidar.rows.size, 6 * free.sum()))
    for blocks, t in ((_camera_blocks, tab.cam), (_lidar_blocks, tab.lidar)):
        _, di, dj, _ = blocks(tab, t, rot, trans, jac=True)
        for sensor, d in ((t.i, di), (t.j, dj)):
            keep = col[sensor] >= 0
            jac[t.rows[keep, :, None], col[sensor[keep], None, None] + np.arange(6)] = d[keep]
    return jac


def resolve_circle_ordering(p: CalibrationProblem, poses: dict) -> CalibrationProblem:
    """Undo the square board's 4-fold order ambiguity per LiDAR record: of
    the 4 cyclic shifts, keep the one with the lowest cost unless the current
    order is within 1e-12 of it. One pass per LiDAR in p.sensors order scores
    its records against their sequences' cameras and the LiDARs resolved in
    earlier passes, so an out-of-order record cannot drag a correct partner
    along; a sequence without a camera is anchored on its first LiDAR."""
    tab = _term_table(p)
    centers = tab.centers.copy()
    shift = np.zeros(len(centers), dtype=int)
    owner = np.array([p.sensors.index(s) for _, s in tab.records])
    for k in np.flatnonzero([s.kind == "lidar" for s in p.sensors]):
        recs = np.flatnonzero(owner == k)
        cost = np.zeros((4, len(centers)))
        for s in range(4):
            trial = centers.copy()
            trial[recs] = np.roll(centers[recs], -s, axis=1)
            r = residuals(p, poses, tab._replace(centers=trial))[0]
            # LiDAR k is pose i of its camera terms and pose j of its pairs with earlier LiDARs
            for t, rec in ((tab.cam, tab.cam.a), (tab.lidar, tab.lidar.b)):
                cost[s] += np.bincount(rec, (r[t.rows] ** 2).sum(axis=1), len(centers))
        c = cost[:, recs]
        shift[recs] = np.where(c[0] - c.min(axis=0) > 1e-12, c.argmin(axis=0), 0)
        centers[recs] = centers[recs[:, None], (np.arange(4) + shift[recs, None]) % 4]
    obs = [dict(seq.observations) for seq in p.sequences]
    for n in np.flatnonzero(shift):
        q, sensor = tab.records[n]
        obs[q][sensor] = replace(obs[q][sensor], centers=centers[n])
    seqs = [SequenceObservations(seq.sequence, o) for seq, o in zip(p.sequences, obs)]
    return replace(p, sequences=tuple(seqs))


def solve(p: CalibrationProblem) -> CalibrationResult:
    """Levenberg-Marquardt over all non-reference poses."""
    poses0 = initial_guess(p)
    p = resolve_circle_ordering(p, poses0)
    table = _term_table(p)
    free = [s for s in p.sensors if s != p.reference]

    def res_fn(poses):
        return residuals(p, poses, table)[0]

    def jac_fn(poses):  # LM's first Jacobian is the j0 checked below
        return j0 if poses is poses0 else jacobian(p, poses, table)

    def plus(poses, dx):
        out = dict(poses)
        for k, s in enumerate(free):
            out[s] = geometry.compose(geometry.exp_se3(dx[6 * k : 6 * k + 6]), poses[s])
        return out

    j0 = jacobian(p, poses0, table)
    h0 = j0.T @ j0
    eig = np.linalg.eigvalsh(h0)
    if eig[0] < 1e-12 * max(eig[-1], 1.0):
        diag = np.diag(h0).reshape(-1, 6).sum(axis=1)
        suspects = [str(free[k]) for k in np.where(diag < 1e-9 * diag.max())[0]]
        raise SingularNormalEquations(suspects or [str(s) for s in free])

    res = levenberg_marquardt(
        poses0,
        res_fn,
        jac_fn,
        plus,
        max_iter=p.params.max_iter,
        gradient_tol=p.params.gradient_tol,
    )
    _, flags = residuals(p, res.state, table)
    meta = {
        "camera_residual_weight": "1/fx per camera",
        "lidar_residual_weight": 1.0,
        "behind_camera_flags": flags,
    }
    result = CalibrationResult(
        res.state,
        p,
        res.cost,
        res.cost_history[0],
        res.iterations,
        res.converged,
        res.gradient_norm,
        res.cost_history,
        meta,
    )
    if not res.converged:
        raise SolverNotConverged(result)
    return result


def _loop_deviation(chain, pairwise):
    """Compose pairwise(a, b), the a->b transform, around the closed sensor
    loop `chain`; returns the (rotation deg, translation m) deviation of the
    loop from identity."""
    loop = RigidTransform.identity()
    for a, b in zip(chain, chain[1:] + [chain[0]]):
        loop = geometry.compose(pairwise(a, b), loop)
    rot = np.rad2deg(geometry.rotation_angle(loop.rotation))
    return float(rot), float(np.linalg.norm(loop.translation))


def consistency_check(result: CalibrationResult, chain):
    """The loop deviation of the solved poses around the sensor loop `chain`."""
    for s in chain:
        if s not in result.poses:
            raise UnknownSensor(str(s))
    return _loop_deviation(
        chain, lambda a, b: geometry.compose(geometry.invert(result.poses[b]), result.poses[a])
    )


def _pairwise_or_via(p: CalibrationProblem, a: SensorId, b: SensorId) -> RigidTransform:
    """Direct pairwise estimate, or composed through one shared sensor when a
    and b never co-detect (sparse datasets)."""
    try:
        return estimate_pairwise(p, a, b)
    except UnknownSensor:
        pass
    for c in p.sensors:
        if c in (a, b):
            continue
        try:
            return geometry.compose(estimate_pairwise(p, c, b), estimate_pairwise(p, a, c))
        except UnknownSensor:
            continue
    raise UnknownSensor(f"sensors {a} and {b} share no co-detections, even indirectly")


def consistency_check_pairwise(p: CalibrationProblem, chain):
    """Same loop but over independently estimated pairwise transforms, so
    the deviation is finite on noisy data."""
    return _loop_deviation(chain, lambda a, b: _pairwise_or_via(p, a, b))


def reprojection_report(result: CalibrationResult):
    """Per-sequence, per-pair Euclidean distances of the 4 centers mapped
    into the reference frame; rows (sequence, name_i, name_j, [4 floats])."""
    p = result.problem
    rows = []
    for seq in p.sequences:
        present = [s for s in p.sensors if s in seq.observations]
        for a_idx, i in enumerate(present):
            for j in present[a_idx + 1 :]:
                ci = result.poses[i].apply(detection_centers(seq.observations[i]))
                cj = result.poses[j].apply(detection_centers(seq.observations[j]))
                dist = np.linalg.norm(ci - cj, axis=1)
                rows.append((seq.sequence, p.display_name(i), p.display_name(j), dist.tolist()))
    return rows
