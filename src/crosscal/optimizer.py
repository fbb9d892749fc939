"""Global estimation of all sensor poses from per-sequence circle centers.

Every sensor pair that co-detects the board in a sequence contributes
residual terms, all of one form: one sensor's centers are mapped through its
pose and the other sensor's inverse pose into the other sensor's frame,
where a camera projects them and compares pixels and a LiDAR compares them
with its own 3D centers. One block function evaluates both kinds. The
reference sensor is pinned to identity (gauge) and the rest solved by
Levenberg-Marquardt on the SE(3) tangent space, stepping every pose with one
vectorized `geometry.exp_se3_matrix`. A term touches two poses only, so LM gets
its normal equations summed term by term from the analytic 6-column
derivative blocks, never through a dense Jacobian.

The state is one (S, 4, 4) pose stack in p.sensors order, as PnP's is. A
`SensorId` or a `RigidTransform` appears only at the problem's boundary: its
input, the reordered records, `CalibrationResult.poses` and display names.
Inside, one (stations, sensors) index of record positions, built once per
problem, drives the graph walks, the pairwise fits and the report's pairs.
The terms, the circle ordering and the report map every record's centers
into B through one helper; the ordering evaluates no residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import (
    DegenerateCenters,
    DisconnectedGraph,
    NoReferenceObservations,
    SingularNormalEquations,
    SolverNotConverged,
    UnknownSensor,
)
from .geometry import Intrinsics, RigidTransform
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
        return self._names[sensor]

    @cached_property
    def _names(self) -> dict:  # {sensor: S<n>} of the problem's sensors, in order
        order = display_order([*self.intrinsics, *self.sensors])
        return {s: f"S{order.index(s) + 1}" for s in self.sensors}

    @cached_property
    def _table(self) -> _TermTable:
        """The solve's records and residual terms, by sensor position."""
        return _term_table(self)


@dataclass
class CalibrationResult:
    poses: dict  # SensorId -> RigidTransform (sensor frame -> reference B), in problem.sensors order
    problem: CalibrationProblem
    final_cost: float
    initial_cost: float
    iterations: int
    converged: bool
    gradient_norm: float
    gradient_cosine: float  # LM's scale-free stop test at the end (lm.GRADIENT_COSINE)
    cost_history: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


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
    p = CalibrationProblem(tuple(kept), reference, sensors, dict(intrinsics), params)
    linked = _codetections(p._table)[0] > 0
    # each sensor's component, named by its first sensor
    label = np.array([_came_from(linked, k) >= 0 for k in range(len(sensors))]).argmax(axis=1)
    if label.any():
        groups = [[str(s) for s, m in zip(sensors, label) if m == g] for g in np.unique(label)]
        raise DisconnectedGraph([sorted(g) for g in groups])
    return p


def _kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid alignment mapping src points onto dst."""
    sm, dm = src.mean(axis=0), dst.mean(axis=0)
    h = (src - sm).T @ (dst - dm)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, dm - r @ sm)


def estimate_pairwise(p: CalibrationProblem, a: int, b: int) -> RigidTransform:
    """Closed-form transform from sensor p.sensors[a] to p.sensors[b] from
    all their shared center correspondences."""
    tab = p._table
    stations = np.flatnonzero((tab.index[:, [a, b]] >= 0).all(axis=1))
    if not stations.size:
        raise UnknownSensor(f"sensors {p.sensors[a]} and {p.sensors[b]} never co-detect")
    rec = tab.index[stations][:, [a, b]]
    flat = np.argwhere(tab.collinear[rec])  # station by station, a before b
    if flat.size:
        k, side = flat[0]
        seq = p.sequences[stations[k]].sequence
        sensor = p.sensors[(a, b)[side]]
        raise DegenerateCenters(f"sensor {sensor} sequence {seq}: collinear centers")
    return _kabsch(tab.centers[rec[:, 0]].reshape(-1, 3), tab.centers[rec[:, 1]].reshape(-1, 3))


def initial_guess(p: CalibrationProblem) -> np.ndarray:
    """Chain closed-form pairwise poses to the reference along a maximum
    co-detection spanning tree; reference pose is identity. Of the pairs
    tied on co-detections, the one first co-detected in station order joins
    first, then the one first in display order. Returns the pose stack."""
    count, first = _codetections(p._table)
    a, b = np.nonzero(np.triu(count, 1))  # the co-detecting pairs, a before b
    order = np.lexsort((b, a, first[a, b], -count[a, b]))
    a, b = a[order], b[order]
    known = ~p._table.free
    poses = np.tile(np.eye(4), (len(p.sensors), 1, 1))
    while not known.all():
        edge = np.flatnonzero(known[a] != known[b])
        if not edge.size:  # unreachable for a connected problem
            sides = [[str(s) for s, k in zip(p.sensors, known) if k == side] for side in (1, 0)]
            raise DisconnectedGraph([sorted(names) for names in sides])
        e = edge[0]
        old, new = (a[e], b[e]) if known[a[e]] else (b[e], a[e])
        t, r = estimate_pairwise(p, new, old), poses[old, :3, :3]  # geometry.compose(old, t)
        poses[new, :3, :3], poses[new, :3, 3] = r @ t.rotation, r @ t.translation + poses[old, :3, 3]
        known[new] = True
    return poses


class _Terms(NamedTuple):
    """Residual terms of one kind: in term n, pose i[n] maps the centers of
    record a[n] into B and pose j[n] on into sensor j[n]'s frame, where they
    meet record b[n]: its pixels (camera terms) or its centers (LiDAR pairs)."""

    i: np.ndarray  # (T,) sensor indices into p.sensors
    j: np.ndarray
    a: np.ndarray  # (T,) record indices
    b: np.ndarray
    rows: np.ndarray  # (T, 8 | 12) positions in the residual vector


class _TermTable(NamedTuple):
    index: np.ndarray  # (Q, S) record of sensor p.sensors[s] at station q, -1 for none
    centers: np.ndarray  # (N, 4, 3) record centers in the sensor frame
    pixels: np.ndarray  # (N, 4, 2) camera records' pixel centers, 0 for LiDARs
    collinear: np.ndarray  # (N,) whether a record's centers lie on one line
    sensor: np.ndarray  # (S, 6) weight, fx, fy, cx, cy, behind-camera residual
    free: np.ndarray  # (S,) True for the solved sensors, False for the reference
    cam: _Terms
    lidar: _Terms


def _term_table(p: CalibrationProblem) -> _TermTable:
    """Number the records station by station, in p.sensors order, and
    enumerate the residual terms once, in residual-vector order: per
    station, the camera terms of each observing camera j, then the LiDAR
    pairs. A camera's residuals are weighted by 1/fx, a LiDAR's by 1."""
    sensor = np.zeros((len(p.sensors), 6))
    sensor[:, 0] = 1.0
    for n, s in enumerate(p.sensors):
        if s.kind == "camera":
            k = p.intrinsics[s]
            w = 1.0 / k.fx
            sensor[n] = w, k.fx, k.fy, k.cx, k.cy, w * np.hypot(k.width, k.height) / np.sqrt(2.0)
    obs = [[seq.observations.get(s) for s in p.sensors] for seq in p.sequences]
    seen = np.array([[d is not None for d in row] for row in obs])
    index = np.where(seen, np.cumsum(seen).reshape(seen.shape) - 1, -1)
    dets = [d for row in obs for d in row if d is not None]
    is_lidar = np.array([s.kind == "lidar" for s in p.sensors])
    terms, row = ([], []), 0
    for rec in index:
        present = np.flatnonzero(rec >= 0)
        lids = present[is_lidar[present]]
        # a camera's own centers project exactly onto its own pixels: no self terms
        pairs = [(i, j, 0) for j in present[~is_lidar[present]] for i in present if i != j]
        pairs += [(i, j, 1) for n, i in enumerate(lids) for j in lids[n + 1 :]]
        for i, j, kind in pairs:
            terms[kind].append((i, j, rec[i], rec[j], row))
            row += (8, 12)[kind]
    centers = np.array([d.centers for d in dets])
    cam, lid = (np.array(t, dtype=int).reshape(-1, 5).T for t in terms)
    return _TermTable(
        index,
        centers,
        np.array([getattr(d, "centers_2d", np.zeros((4, 2))) for d in dets]),
        np.linalg.matrix_rank(centers - centers.mean(axis=1, keepdims=True), tol=1e-9) < 2,
        sensor,
        np.array([s != p.reference for s in p.sensors]),
        _Terms(*cam[:4], cam[4, :, None] + np.arange(8)),
        _Terms(*lid[:4], lid[4, :, None] + np.arange(12)),
    )


def _codetections(tab: _TermTable):
    """(S, S) number of stations at which two sensors both have a record,
    and the position in p.sequences of the first such station."""
    seen = tab.index >= 0
    both = seen[:, :, None] & seen[:, None, :]
    return both.sum(axis=0), both.argmax(axis=0)


def _came_from(linked: np.ndarray, a: int) -> np.ndarray:
    """Each sensor's predecessor on a fewest-hop path from sensor a over the
    (S, S) adjacency `linked` (breadth-first, neighbours in p.sensors order):
    a for a itself, -1 for a sensor that a does not reach."""
    came = np.full(len(linked), -1)
    came[a], queue = a, [a]
    for s in queue:  # grows while it is walked: first in, first out
        new = np.flatnonzero(linked[s] & (came < 0))
        came[new] = s
        queue.extend(new)
    return came


def _in_reference(tab: _TermTable, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """(N, 4, 3) every record's centers mapped into B through its sensor's
    pose, given as (S, 3, 3) rotations and (S, 3) translations."""
    owner = np.nonzero(tab.index >= 0)[1]
    return tab.centers @ rot[owner].transpose(0, 2, 1) + trans[owner, None]


def _blocks(tab: _TermTable, t: _Terms, poses: np.ndarray, jac: bool):
    """(T, 8 | 12) residual blocks of terms t, their (T, 8 | 12, 6)
    derivatives by pose i (None unless jac; by pose j it is the negative) and
    the number of centers behind camera j. Every term maps record a's
    centers through pose i into B and on into sensor j's frame,
    q = R_j^T (y - t_j). A camera j projects
    q and compares pixels with record b's; a LiDAR j (12-row terms) compares q
    with record b's centers. With D the weighted derivative of that comparison
    by q, the derivative by pose i is D R_j^T [I | -skew(y)], by pose j its
    negative."""
    rot, trans = poses[:, :3, :3], poses[:, :3, 3]
    y = _in_reference(tab, rot, trans)[t.a]
    q = (y - trans[t.j, None]) @ rot[t.j]  # centers in sensor j
    w, fx, fy, cx, cy, cap = tab.sensor[t.j, :, None].transpose(1, 0, 2)
    width = t.rows.shape[1]
    if width == 12:
        behind = np.zeros(q.shape[:2], dtype=bool)
        block = w[:, None] * (q - tab.centers[t.b])
        d = w[..., None, None] * np.eye(3)
    else:
        uv, behind = geometry.project(q, fx, fy, cx, cy)
        q[behind] = 1.0  # any depth > 0: these rows are capped and their derivatives zeroed
        block = np.where(behind[..., None], cap[:, None], w[:, None] * (uv - tab.pixels[t.b]))
        d = w[..., None, None] * geometry.project_jacobian(q, fx, fy) if jac else None
    block = block.reshape(-1, width)
    if not jac:
        return block, None, int(behind.sum())
    core = d @ rot[t.j, None].transpose(0, 1, 3, 2) @ geometry.point_jacobian(y)
    core[behind] = 0.0  # capped rows
    return block, core.reshape(-1, width, 6), int(behind.sum())


def residuals(p: CalibrationProblem, poses: np.ndarray):
    """Stacked residual vector at a pose stack; behind-camera projections are
    capped at the image diagonal and counted in the returned flag total."""
    tab = p._table
    r = np.empty(tab.cam.rows.size + tab.lidar.rows.size)
    flags = 0
    for t in (tab.cam, tab.lidar):
        block, _, n = _blocks(tab, t, poses, jac=False)
        r[t.rows] = block
        flags += n
    return r, flags


def normal_equations(p: CalibrationProblem, poses: np.ndarray):
    """J^T J and J^T r of the residual vector at a pose stack, J being the
    analytic Jacobian w.r.t. left-multiplied tangent increments on every
    non-reference pose, ordered like p.sensors with the reference skipped.
    Term n's derivative is D by pose i and -D by pose j, so it adds
    G = D^T D to blocks (i, i) and (j, j), -G to (i, j) and (j, i), and
    D^T r_n to pose i's gradient and -D^T r_n to pose j's."""
    tab = p._table
    s = len(p.sensors)
    gram, grad = np.zeros((s * s, 36)), np.zeros((s, 6))
    for t in (tab.cam, tab.lidar):
        block, d, _ = _blocks(tab, t, poses, jac=True)
        gram += _sum_by(t.i * s + t.j, (d.transpose(0, 2, 1) @ d).reshape(-1, 36), s * s)
        dr = (block[:, None] @ d)[:, 0]
        grad += _sum_by(t.i, dr, s) - _sum_by(t.j, dr, s)
    g = gram.reshape(s, s, 6, 6)
    g = g + g.transpose(1, 0, 2, 3)  # block (i, j): the G of every term between i and j
    hess = -g
    hess[np.arange(s), np.arange(s)] = g.sum(axis=1)  # no term has i == j
    free = np.repeat(tab.free, 6)
    return hess.transpose(0, 2, 1, 3).reshape(6 * s, 6 * s)[np.ix_(free, free)], grad.ravel()[free]


def _sum_by(key: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """(size, c) sums of the rows (K, c) that share each key in [0, size)."""
    return np.stack([np.bincount(key, col, size) for col in rows.T], axis=1)


def resolve_circle_ordering(p: CalibrationProblem, poses: np.ndarray) -> CalibrationProblem:
    """Undo the square board's 4-fold order ambiguity per LiDAR record: of
    its 4 cyclic shifts, take the one whose centers lie nearest, in B, its
    station's anchor, unless the current order is within 1e-12 m^2 of it.
    The anchor is the mean in B of the station's camera records, whose
    order the corner ids fix; a station without a camera is anchored on its
    first record. Returns p itself when no record moves."""
    tab = p._table
    station, owner = np.nonzero(tab.index >= 0)  # of each record
    # cameras precede LiDARs in p.sensors: a station's first record is a camera if it has one
    anchored = np.r_[True, station[1:] != station[:-1]]
    anchored |= np.array([s.kind == "camera" for s in p.sensors])[owner]
    y = _in_reference(tab, poses[:, :3, :3], poses[:, :3, 3])
    anchor = _sum_by(station[anchored], y[anchored].reshape(-1, 12), len(tab.index))
    anchor = anchor.reshape(-1, 4, 3) / np.bincount(station[anchored])[:, None, None]
    roll = (np.arange(4)[:, None] + np.arange(4)) % 4  # shift s puts center (k + s) % 4 at k
    cost = ((y[:, roll] - anchor[station, None]) ** 2).sum(axis=(2, 3))  # (N, 4)
    shift = np.where(~anchored & (cost[:, 0] - cost.min(axis=1) > 1e-12), cost.argmin(axis=1), 0)
    if not shift.any():
        return p
    obs = [dict(seq.observations) for seq in p.sequences]
    for n in np.flatnonzero(shift):
        q, sensor = station[n], p.sensors[owner[n]]
        obs[q][sensor] = replace(obs[q][sensor], centers=tab.centers[n, roll[shift[n]]])
    seqs = [SequenceObservations(seq.sequence, o) for seq, o in zip(p.sequences, obs)]
    return replace(p, sequences=tuple(seqs))


def solve(p: CalibrationProblem) -> CalibrationResult:
    """Levenberg-Marquardt over all non-reference poses."""
    poses0 = initial_guess(p)
    p = resolve_circle_ordering(p, poses0)
    free = p._table.free

    # LM solves a batch of one: states (1, S, 4, 4), residual rows returned flat
    def res_fn(states, rows):
        return residuals(p, states[0])[0]

    def normal_fn(states, rows, r):  # the blocks carry r; the first call gets the checked ones
        hess, grad = checked.pop() if checked else normal_equations(p, states[0])
        return hess[None], grad[None]

    def plus(states, dx):  # exp(dx) * pose by geometry.compose's two products, not one 4x4 product
        poses = states[0]
        m, out = geometry.exp_se3_matrix(dx.reshape(-1, 6)), poses.copy()
        out[free, :3, :3] = m[:, :3, :3] @ poses[free, :3, :3]
        out[free, :3, 3] = (m[:, :3, :3] @ poses[free, :3, 3:])[..., 0] + m[:, :3, 3]
        return out[None]

    checked = [normal_equations(p, poses0)]
    h0 = checked[0][0]  # the singularity check reads the H that LM starts from
    eig = np.linalg.eigvalsh(h0)
    tol = 1e-12 * max(eig[-1], 1.0)
    if eig[0] < tol:  # suspects: the free sensors that the null directions move
        w, v = np.linalg.eigh(h0)
        share = (v[:, : max((w < tol).sum(), 1)] ** 2).reshape(free.sum(), 6, -1).sum(axis=1)
        names = [str(s) for s, f in zip(p.sensors, free) if f]
        raise SingularNormalEquations([n for n, x in zip(names, share.max(axis=1)) if x > 1e-6])

    res = levenberg_marquardt(poses0[None], res_fn, normal_fn, plus, max_iter=p.params.max_iter)
    poses, history = res.state[0], res.cost_history[0]
    _, flags = residuals(p, poses)
    meta = {
        "camera_residual_weight": "1/fx per camera",
        "lidar_residual_weight": 1.0,
        "behind_camera_flags": flags,
    }
    result = CalibrationResult(
        {s: RigidTransform(m[:3, :3], m[:3, 3]) for s, m in zip(p.sensors, poses)},
        p,
        float(res.cost[0]),
        history[0],
        res.iterations,
        bool(res.converged[0]),
        float(res.gradient_norm[0]),
        float(res.gradient_cosine[0]),
        history,
        meta,
    )
    if not result.converged:
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


def _pairwise_path(p: CalibrationProblem, a: int, b: int) -> RigidTransform:
    """The transform from sensor position a to b composed from pairwise
    estimates along the fewest co-detection hops. `build_problem`'s
    connectivity check guarantees a path between its sensors."""
    came = _came_from(_codetections(p._table)[0] > 0, a)
    if came[b] < 0:
        raise UnknownSensor(
            f"sensors {p.sensors[a]} and {p.sensors[b]} share no co-detections, even indirectly"
        )
    path = [b]
    while path[-1] != a:
        path.append(came[path[-1]])
    t = RigidTransform.identity()
    for u, v in zip(path[::-1], path[-2::-1]):
        t = geometry.compose(estimate_pairwise(p, u, v), t)
    return t


def consistency_check_pairwise(p: CalibrationProblem, chain):
    """Same loop but over independently estimated pairwise transforms, so
    the deviation is finite on noisy data."""
    for s in chain:
        if s not in p.sensors:
            raise UnknownSensor(str(s))
    chain = [p.sensors.index(s) for s in chain]
    return _loop_deviation(chain, lambda a, b: _pairwise_path(p, a, b))


def reprojection_report(result: CalibrationResult):
    """Per-sequence, per-pair Euclidean distances of the 4 centers mapped
    into the reference frame; rows (sequence, name_i, name_j, [4 floats]),
    station by station, each pair in p.sensors order."""
    p = result.problem
    tab = p._table
    name, poses = list(p._names.values()), result.poses.values()  # by position
    rot, trans = (np.array([getattr(t, a) for t in poses]) for a in ("rotation", "translation"))
    y = _in_reference(tab, rot, trans)
    seen = tab.index >= 0
    q, i, j = np.nonzero(np.triu(seen[:, :, None] & seen[:, None, :], 1))  # in row order
    dist = np.linalg.norm(y[tab.index[q, i]] - y[tab.index[q, j]], axis=2).tolist()
    return [(p.sequences[k].sequence, name[a], name[b], d) for k, a, b, d in zip(q, i, j, dist)]
