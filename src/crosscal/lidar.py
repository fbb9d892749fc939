"""Point-cloud board detection: filter, GICP, plane fit, occupancy grid and
circle refinement.

The stages are exposed individually (each is pure and independently
testable) and chained by detect_target_lidar. All randomized steps draw
from a generator seeded by LidarParams.rng_seed, so a full detection is
bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .errors import (
    DegenerateInput,
    EmptyAfterFilter,
    EmptyMatch,
    GridTooSmall,
    InconsistentCircles,
    LidarStageError,
    LowInlierRatio,
    NotConverged,
    NoVoidFound,
    PoorFit,
)
from .geometry import RigidTransform
from .target import TargetSpec, circle_centers_board, generate_mask_cloud


# Hypotheses x points scored per array pass in ransac_plane: 512 KB of
# float64, small enough to stay in cache.
_CHUNK_ELEMENTS = 1 << 16

_MASK_PITCH = 0.015  # m, point spacing of the board model GICP registers

_dot = partial(np.einsum, "in,in->n")  # dot products of the columns of (3, n) arrays

# m; a distance between points within a few km of the sensor is rounded by
# far less, so a nearest-neighbour certificate this far from failing holds
_NN_MARGIN = 1e-9


@dataclass(frozen=True)
class LidarParams:
    """Thresholds for the detection stages; lengths in meters."""

    h_min: float = 0.05
    d_min: float = 0.5
    d_max: float = 8.0
    gicp_max_iter: int = 64
    gicp_corr_dist: float = 0.5
    gicp_fitness_eps: float = 1e-3  # mean squared correspondence distance, m^2
    nn_delta: float = 0.1
    ransac_eps: float = 0.02
    ransac_iters: int = 500
    grid_res: int = 200  # cells per meter
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.h_min + 1.0, self.d_min, self.d_max, self.nn_delta, self.ransac_eps) <= 0:
            raise ValueError("distances must be positive")
        if self.d_min >= self.d_max:
            raise ValueError("d_min must be < d_max")
        if self.grid_res < 1:
            raise ValueError("grid_res must be >= 1")


@dataclass(frozen=True)
class Plane:
    """ax + by + cz + d = 0 with unit (a, b, c)."""

    a: float
    b: float
    c: float
    d: float

    def normal(self):
        return np.array([self.a, self.b, self.c])

    def distances(self, pts):
        return np.abs(pts @ self.normal() + self.d)


@dataclass(frozen=True)
class OccupancyGrid:
    occupied: np.ndarray  # bool, indexed [i, j] along (x, y)
    origin: np.ndarray  # (2,) world xy of cell (0, 0) corner
    res: float  # cells per meter

    @property
    def cell(self):
        return 1.0 / self.res


@dataclass(frozen=True)
class LidarDetection:
    pose: RigidTransform  # board -> lidar, refined
    centers: np.ndarray  # (4, 3) lidar frame, canonical order
    fitness: float


def filter_cloud(cloud: np.ndarray, p: LidarParams) -> np.ndarray:
    """Ground / range gate: keep z >= h_min and d_min < ||p_xy|| <= d_max."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    rho = np.hypot(cloud[:, 0], cloud[:, 1])
    keep = (cloud[:, 2] >= p.h_min) & (rho > p.d_min) & (rho <= p.d_max)
    out = cloud[keep]
    if len(out) < 100:
        raise EmptyAfterFilter(f"{len(out)} points after filtering")
    return out


def _point_normals(pts: np.ndarray, tree: cKDTree, k: int = 20):
    """Unit normal per point from the 20-NN covariance (smallest eigenvector)."""
    k = min(k, len(pts))
    _, idx = tree.query(pts, k=k)
    nbrs = pts[idx]  # (n, k, 3)
    mean = nbrs.mean(axis=1, keepdims=True)
    d = nbrs - mean
    cov = np.einsum("nki,nkj->nij", d, d) / k
    _, v = np.linalg.eigh(cov)  # ascending eigenvalues
    return v[:, :, 0]


@lru_cache(maxsize=8)
def board_model(spec: TargetSpec):
    """Board mask cloud and its point normals, built once per spec."""
    mask = generate_mask_cloud(spec, _MASK_PITCH)
    normals = _point_normals(mask, cKDTree(mask))
    mask.flags.writeable = normals.flags.writeable = False
    return mask, normals


class _NearestTarget:
    """Nearest target point of each of n moving points, and whether it lies
    within `bound`: exactly what `tree.query(moved.T, distance_upper_bound=
    bound)` returns, with the tree queried only for the points whose match
    could have changed since their last query.

    A point last queried at `a` had its nearest point j at d1 and every other
    point at least c = min(d2, bound) away, d2 its second-nearest distance.
    Moved to `m`, at e = |m - t_j| and delta = |m - a|, every other point
    is still at least c - delta away, so j is still its unique nearest point
    within the bound while e + delta < c (triangle inequality). The test
    keeps `_NN_MARGIN` from its edge. A point that had no neighbour, or
    whose d1 came within the margin of c, is queried again at every call; a
    d1 within the margin takes its match from a one-neighbour query, as the
    tree breaks a tie differently when asked for two."""

    def __init__(self, tree: cKDTree, target: np.ndarray, bound: float, n: int):
        self.tree, self.target, self.bound = tree, target, bound
        self.anchor = np.zeros((3, n))
        self.cap = np.full(n, -np.inf)  # c - margin; -inf: query again
        self.idx = np.zeros(n, dtype=np.intp)  # 0 where not valid
        self.valid = np.zeros(n, dtype=bool)

    def __call__(self, moved: np.ndarray):
        """(idx, valid, resid) for the (3, n) positions `moved`, resid being
        moved minus the matched target points (meaningless where not valid).
        idx and valid are this object's own, overwritten by the next call."""
        d = moved - self.anchor
        resid = moved - np.take(self.target, self.idx, axis=1)
        stale = np.sqrt(_dot(d, d)) + np.sqrt(_dot(resid, resid)) >= self.cap
        if stale.any():
            rows = np.flatnonzero(stale)
            pts = np.take(moved, rows, axis=1)
            dists, idx = self.tree.query(pts.T, k=2, distance_upper_bound=self.bound)
            d1, idx = dists[:, 0], idx[:, 0]
            cap = np.minimum(dists[:, 1], self.bound)
            near = np.isfinite(d1) & (cap - d1 <= _NN_MARGIN)
            if near.any():
                d1[near], idx[near] = self.tree.query(
                    pts[:, near].T, distance_upper_bound=self.bound
                )
            valid = np.isfinite(d1)
            np.copyto(self.anchor, moved, where=stale)
            self.cap[rows] = np.where(valid & ~near, cap - _NN_MARGIN, -np.inf)
            self.idx[rows] = np.where(valid, idx, 0)
            self.valid[rows] = valid
            resid = moved - np.take(self.target, self.idx, axis=1)
        return self.idx, self.valid, resid


def gicp_register(source, target, t_init: RigidTransform, p: LidarParams, source_normals=None):
    """Plane-to-plane GICP; returns (transform source->target frame, fitness).

    The returned transform includes t_init. Fitness is the mean squared
    Euclidean distance of the matched correspondences after convergence.
    `source_normals`, when given, are the source's 20-NN normals
    (`_point_normals`), e.g. cached for a fixed board model.
    """
    source = np.asarray(source, dtype=float).reshape(-1, 3)
    target = np.asarray(target, dtype=float).reshape(-1, 3)
    if len(source) < 50 or len(target) < 50:
        raise DegenerateInput(f"GICP needs >= 50 points, got {len(source)}/{len(target)}")

    tgt_tree = cKDTree(target)
    nrm_s = _point_normals(source, cKDTree(source)) if source_normals is None else source_normals
    nrm_t = _point_normals(target, tgt_tree)
    # (3, n) rows: products, gathers and dot products run on contiguous rows
    src, nrm_s, tgt, nrm_t = (np.ascontiguousarray(a.T) for a in (source, nrm_s, target, nrm_t))
    a_reg = 1.0 - 1e-3  # regularized covariance = I - a_reg * n n^T
    nearest = _NearestTarget(tgt_tree, tgt, p.gicp_corr_dist, src.shape[1])

    def matched(rot, trans):
        """NN correspondence state at the pose (rot, trans): Mahalanobis
        cost plus the pieces Gauss-Newton needs, so an accepted line-search
        probe can be reused as the next iteration's state without matching
        again.

        The combined covariance 2I - a(n1 n1^T + n2 n2^T) is inverted in
        closed form through its (n1 +/- n2) eigenbasis, which is much
        cheaper than stacking and inverting 3x3 matrices.
        """
        moved = rot @ src + trans[:, None]
        idx, valid, resid = nearest(moved)
        n_valid = int(np.count_nonzero(valid))
        if n_valid < 10:
            raise PoorFit(f"only {n_valid} GICP correspondences")
        n2 = rot @ nrm_s
        if n_valid < len(valid):
            moved, n2, idx = moved[:, valid], n2[:, valid], idx[valid]
            # not resid[:, valid]: that copy is column-major, and einsum
            # rounds the dot products of such rows differently
            resid = moved - np.take(tgt, idx, axis=1)
        n1 = np.take(nrm_t, idx, axis=1)
        c = _dot(n1, n2)
        n2 *= np.where(c < 0, -1.0, 1.0)  # orient the source normal like n1
        c = np.abs(c)
        up, um = n1 + n2, n1 - n2
        up /= np.maximum(np.sqrt(_dot(up, up)), 1e-12)
        um /= np.maximum(np.sqrt(_dot(um, um)), 1e-12)
        wp = 1.0 / (2.0 - a_reg * (1.0 + c)) - 0.5
        wm = 1.0 / (2.0 - a_reg * (1.0 - c)) - 0.5
        rp = _dot(up, resid)
        rm = _dot(um, resid)
        cost = float((0.5 * _dot(resid, resid) + wp * rp**2 + wm * rm**2).mean())
        return cost, moved, resid, up, um, wp, wm, rp, rm

    # the pose is stepped as (rotation, translation) arrays, validated once
    # as a RigidTransform on return
    pose = (t_init.rotation, t_init.translation)
    step_norm = np.inf
    state = matched(*pose)
    for _ in range(p.gicp_max_iter):
        cost, ps, resid, up, um, wp, wm, rp, rm = state
        # Gauss-Newton for J_i = [I | -skew(p_i)] and M_i = 0.5 I + wp up up^T
        # + wm um um^T. As J_i^T u = [u; p_i x u], the weighted terms are two
        # GEMMs over (6, n) rows; the 0.5 J_i^T J_i term has a closed form.
        jp = np.concatenate([up, np.cross(ps, up, axis=0)])
        jm = np.concatenate([um, np.cross(ps, um, axis=0)])
        s, ppt = geometry.skew(ps.sum(axis=1)), ps @ ps.T
        hess = (jp * wp) @ jp.T + (jm * wm) @ jm.T
        hess += 0.5 * np.block([[len(rp) * np.eye(3), -s], [s, np.trace(ppt) * np.eye(3) - ppt]])
        grad = jp @ (wp * rp) + jm @ (wm * rm)
        grad += 0.5 * np.concatenate([resid.sum(axis=1), np.cross(ps, resid, axis=0).sum(axis=1)])
        try:
            dx = np.linalg.solve(hess + 1e-9 * np.eye(6), -grad)
        except np.linalg.LinAlgError:
            raise NotConverged("singular GICP normal equations")
        # Line search on the re-matched cost. Correspondence sliding makes
        # unit Gauss-Newton steps shrink the in-plane error only gradually,
        # so extrapolate (double alpha while the cost keeps dropping); near
        # the optimum backtrack instead so the step can vanish.
        alpha, step_norm, dx_norm = 1.0, 0.0, np.linalg.norm(dx)
        p1 = geometry.compose_exp_se3(dx, *pose)
        s1 = matched(*p1)
        if s1[0] < cost:
            best = (s1, p1, 1.0)
            while alpha < 256:
                p2 = geometry.compose_exp_se3(2 * alpha * dx, *pose)
                s2 = matched(*p2)
                if s2[0] >= best[0][0]:
                    break
                alpha *= 2
                best = (s2, p2, alpha)
            state, pose, alpha = best
            step_norm = float(alpha * dx_norm)
        else:
            while alpha * dx_norm >= 1e-7:
                alpha *= 0.5
                p_try = geometry.compose_exp_se3(alpha * dx, *pose)
                s_try = matched(*p_try)
                if s_try[0] < cost:
                    pose, state = p_try, s_try
                    step_norm = float(alpha * dx_norm)
                    break
        if step_norm < 1e-6:
            break
    if step_norm >= 1e-6:
        raise NotConverged(f"GICP step norm {step_norm:.2e} after {p.gicp_max_iter} iterations")
    # state is matched(*pose); each distance is rounded as the tree rounds it
    r = state[2]
    fitness = float((np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]) ** 2).mean())
    if fitness >= p.gicp_fitness_eps:
        raise PoorFit(f"fitness {fitness:.3e} >= {p.gicp_fitness_eps:.3e}")
    return RigidTransform(*pose), fitness


def match_points(cloud: np.ndarray, model: np.ndarray, delta: float) -> np.ndarray:
    """Points of `cloud` with a model neighbor strictly closer than delta."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    model = np.asarray(model, dtype=float).reshape(-1, 3)
    if len(model) == 0:
        raise DegenerateInput("empty model cloud")
    d, _ = cKDTree(model).query(cloud)
    out = cloud[d < delta]
    if len(out) < 50:
        raise EmptyMatch(f"{len(out)} matched points")
    return out


def _orient(n, d):
    """Canonical normal sign: c >= 0, ties broken by b >= 0 then a >= 0."""
    a, b, c = n
    flip = c < 0 or (c == 0 and (b < 0 or (b == 0 and a < 0)))
    return (-n, -d) if flip else (n, d)


def _fit_plane_lsq(pts):
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    n = vt[-1]
    n = n / np.linalg.norm(n)
    d = -float(n @ centroid)
    n, d = _orient(n, d)
    return Plane(float(n[0]), float(n[1]), float(n[2]), float(d))


def ransac_plane(pts: np.ndarray, p: LidarParams, rng=None):
    """RANSAC plane segmentation; consensus plane is least-squares refit to
    its inliers and inliers recomputed against the refit plane.

    One triplet is drawn per iteration; the hypothesis with the first
    maximal inlier count wins, and its consensus set is taken from its
    plane computed for that triplet alone."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateInput(f"{len(pts)} points, need >= 3")
    if rng is None:
        rng = np.random.default_rng(p.rng_seed)
    n_pts = len(pts)
    draws = [rng.choice(n_pts, size=3, replace=False) for _ in range(p.ransac_iters)]
    tri = np.array(draws, dtype=int).reshape(-1, 3)
    normals = np.cross(pts[tri[:, 1]] - pts[tri[:, 0]], pts[tri[:, 2]] - pts[tri[:, 0]])
    norms = np.linalg.norm(normals, axis=1)
    ok = norms >= 1e-12
    normals[ok] /= norms[ok, None]
    offsets = -np.einsum("hi,hi->h", normals, pts[tri[:, 0]])
    # Score the hypotheses a chunk at a time; collinear triplets score -1.
    counts = np.full(len(tri), -1)
    step = max(_CHUNK_ELEMENTS // n_pts, 1)
    for lo in range(0, len(tri), step):
        chunk = slice(lo, lo + step)
        inside = np.abs(normals[chunk] @ pts.T + offsets[chunk, None]) < p.ransac_eps
        counts[chunk] = np.where(ok[chunk], inside.sum(axis=1), -1)
    if not (counts >= 0).any():
        raise DegenerateInput("all sampled triplets collinear")
    i, j, k = tri[np.argmax(counts)]  # first maximal count, as a sequential scan keeps
    n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    n = n / np.linalg.norm(n)
    d = -float(n @ pts[i])
    consensus = pts[np.abs(pts @ n + d) < p.ransac_eps]
    if len(consensus) < 3:
        raise DegenerateInput("consensus set degenerate")
    plane = _fit_plane_lsq(consensus)
    inliers = pts[plane.distances(pts) < p.ransac_eps]
    if len(inliers) < 0.3 * n_pts:
        raise LowInlierRatio(f"{len(inliers)}/{n_pts} inliers")
    return plane, inliers


def normalize_plane(normal: np.ndarray, board_x: np.ndarray) -> np.ndarray:
    """The board's plane frame: the rotation whose rows are x, n x x and n,
    n being the unit plane normal and x the unit projection of `board_x`
    onto the plane. It maps n to +z and that projection to +x, so points of
    the plane share one z and a board whose x is `board_x` lies along the
    x and y axes. `board_x` must not be parallel to n."""
    n = np.asarray(normal, dtype=float)
    x = np.asarray(board_x, dtype=float)
    x = x - (x @ n) * n
    x = x / np.linalg.norm(x)
    return np.array([x, np.cross(n, x), n])


def build_occupancy(flat_pts: np.ndarray, res: float) -> OccupancyGrid:
    """Bin xy coordinates into a boolean grid padded by one cell."""
    flat_pts = np.asarray(flat_pts, dtype=float).reshape(-1, 3)
    if len(flat_pts) == 0:
        raise DegenerateInput("empty input cloud")
    cell = 1.0 / res
    lo = flat_pts[:, :2].min(axis=0) - cell
    hi = flat_pts[:, :2].max(axis=0) + cell
    nx = int(np.floor((hi[0] - lo[0]) * res)) + 1
    ny = int(np.floor((hi[1] - lo[1]) * res)) + 1
    occ = np.zeros((nx, ny), dtype=bool)
    ij = np.floor((flat_pts[:, :2] - lo) * res).astype(int)
    occ[ij[:, 0], ij[:, 1]] = True
    return OccupancyGrid(occ, lo, float(res))


def find_target_region(g: OccupancyGrid, board_size: float):
    """Top-left index (i*, j*) of the densest board-sized window."""
    s = max(int(round(board_size * g.res)), 1)
    nx, ny = g.occupied.shape
    if nx < s or ny < s:
        raise GridTooSmall(f"grid {nx}x{ny} smaller than {s}-cell window")
    c = np.zeros((nx + 1, ny + 1), dtype=np.int64)
    c[1:, 1:] = np.cumsum(np.cumsum(g.occupied, axis=0), axis=1)
    sums = c[s:, s:] - c[:-s, s:] - c[s:, :-s] + c[:-s, :-s]
    flat = int(np.argmax(sums))  # row-major: first max = smallest (i, j)
    return flat // sums.shape[1], flat % sums.shape[1]


def _disc_stencil(radius_cells: float):
    """Cells lying fully inside the circle (center within radius minus the
    cell circumradius). Boundary cells straddle the hole edge and alias the
    count as the mask shifts, which would pull the minimum off-center."""
    inner = max(radius_cells - np.sqrt(0.5) - 1e-9, 1.0)
    r = int(np.ceil(inner))
    di, dj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    mask = di**2 + dj**2 <= inner**2
    return di[mask], dj[mask]


def refine_circles(g: OccupancyGrid, window, spec: TargetSpec, preferred=None):
    """Hole centers in the grid (rotated-plane) frame, canonical order.

    Search is over integer cell displacements within +/-10 cells of the
    design offsets around the window center; the displacement minimizing
    occupied cells inside the circular mask wins, ties broken toward the
    smallest displacement. When `preferred` (continuous center estimates in
    the grid frame, e.g. from the registered board pose) is given, ties are
    instead broken toward it, and if its own cell attains the minimum the
    preferred point is returned unchanged so its sub-cell precision is kept.
    """
    i0, j0 = window
    s_cells = spec.board_width * g.res
    win_center = g.origin + (np.array([i0, j0], dtype=float) + s_cells / 2.0) * g.cell
    initial_centers = [win_center + np.array(o) for o in spec.circle_offsets]
    radius_cells = spec.circle_radius * g.res
    di, dj = _disc_stencil(radius_cells)
    mask_area = len(di)
    nx, ny = g.occupied.shape
    shifts = np.array(
        sorted(
            ((si, sj) for si in range(-10, 11) for sj in range(-10, 11)),
            key=lambda s: (s[0] * s[0] + s[1] * s[1], s),
        )
    )
    cells = np.floor((np.array(initial_centers) - g.origin) * g.res).astype(int)
    # Off-grid cells count as occupied: pad the grid with occupied cells out to
    # the farthest shifted stencil cell, then count every shift of a hole with
    # one gather of (shift, stencil cell) flat indices.
    reach = 10 + int(np.abs(np.concatenate([di, dj])).max())
    pad = max(0, reach - int(cells.min()), reach + 1 + int((cells - [nx, ny]).max()))
    padded = np.pad(g.occupied, pad, constant_values=True)
    stride = padded.shape[1]
    offsets = (shifts[:, 0] * stride + shifts[:, 1])[:, None] + (di * stride + dj)
    flat = padded.ravel()
    centers = []
    for k, (c0, cell) in enumerate(zip(initial_centers, cells)):
        counts = flat[(cell[0] + pad) * stride + cell[1] + pad + offsets].sum(axis=1)
        best_count = int(counts.min())
        if best_count > 0.5 * mask_area:
            raise NoVoidFound(f"best mask occupancy {best_count}/{mask_area}")
        ties = shifts[counts == best_count]  # by increasing displacement
        if preferred is None:
            centers.append(np.asarray(c0, dtype=float) + ties[0] * g.cell)
            continue
        want = np.asarray(preferred[k], dtype=float)[:2]
        pos = g.origin + (cell + ties + 0.5) * g.cell
        best = int(np.argmin(((pos - want) ** 2).sum(axis=1)))  # first of equally near ties
        want_cell = np.floor((want - g.origin) * g.res).astype(int)
        centers.append(want if np.array_equal(want_cell, cell + ties[best]) else pos[best])
    return centers


def check_circle_geometry(centers_2d, spec: TargetSpec, tol: float = 0.06) -> None:
    """Reject refined centers whose pairwise distances deviate from the design
    pattern by more than tol. A center that latched onto the wrong void (e.g. a
    spurious occupancy gap near the board edge) lands 2+ circle radii off and
    would silently poison the global solve."""
    est = np.asarray(centers_2d, dtype=float)[:, :2]
    design = circle_centers_board(spec)[:, :2]
    for i in range(len(design)):
        for j in range(i + 1, len(design)):
            d_est = float(np.linalg.norm(est[i] - est[j]))
            d_ref = float(np.linalg.norm(design[i] - design[j]))
            if abs(d_est - d_ref) > tol:
                raise InconsistentCircles(
                    f"centers {i}-{j} distance {d_est:.3f} m vs design "
                    f"{d_ref:.3f} m (tol {tol} m)"
                )


def rough_board_pose(cloud: np.ndarray, p: LidarParams) -> RigidTransform:
    """Fallback board-pose guess when no operator initialization exists:
    centroid of the filtered cloud plus its least-squares plane normal
    (oriented back toward the sensor), with board x horizontal (the
    sensor's x for a board lying flat). In-plane orientation is arbitrary,
    so downstream ordering resolution matters more when this path is used."""
    filtered = filter_cloud(cloud, p)
    plane = _fit_plane_lsq(filtered)
    n = -plane.normal() if plane.d < 0 else plane.normal()  # board z faces the sensor
    x = np.cross([0.0, 0.0, 1.0], n)
    frame = normalize_plane(n, x if x.any() else [1.0, 0.0, 0.0])
    return RigidTransform(frame.T, filtered.mean(axis=0))


def detect_target_lidar(
    cloud: np.ndarray,
    spec: TargetSpec,
    t_init: RigidTransform,
    p: LidarParams,
) -> LidarDetection:
    """Full board detection: filter -> GICP -> match -> RANSAC -> plane
    frame -> occupancy -> window -> circle refinement -> 3D lift.

    The plane frame (`normalize_plane`) takes the RANSAC plane's normal as z
    and the registered board x, projected onto the plane, as x, so the grid
    lies in the board plane with the design offsets along its axes. The
    grid centers are lifted back at the inliers' mean height in that frame
    and snapped onto the plane."""
    mask, mask_normals = board_model(spec)
    try:
        filtered = filter_cloud(cloud, p)
        t_refined, fitness = gicp_register(mask, filtered, t_init, p, mask_normals)
        matched = match_points(filtered, t_refined.apply(mask), p.nn_delta)
        plane, inliers = ransac_plane(matched, p)
        # Orient the frame's normal like the estimated board z so the grid
        # keeps the board's handedness, and its x along the board's x so the
        # design offsets are axis-aligned.
        board_x, _, board_z = t_refined.rotation.T
        n = plane.normal()
        frame = normalize_plane(-n if n @ board_z < 0 else n, board_x)
        grid_pts = inliers @ frame.T
        grid = build_occupancy(grid_pts, p.grid_res)
        window = find_target_region(grid, spec.board_width)
        predicted = t_refined.apply(circle_centers_board(spec)) @ frame.T
        centers_2d = refine_circles(grid, window, spec, preferred=predicted[:, :2])
        check_circle_geometry(centers_2d, spec)
    except LidarStageError as e:
        raise type(e)(f"stage '{e.stage}': {e}") from e
    z0 = np.full(len(centers_2d), grid_pts[:, 2].mean())
    centers = np.column_stack([centers_2d, z0]) @ frame
    centers -= np.outer(centers @ n + plane.d, n)  # snap exactly onto the plane
    return LidarDetection(t_refined, centers, fitness)
