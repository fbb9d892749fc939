"""Point-cloud board detection: filter, crop, plane fit, plane outline,
occupancy grid and circle refinement.

The stages are exposed individually (each is pure and independently
testable) and chained by detect_target_lidar. RANSAC, the one randomized
step, draws from a generator of fixed seed, so a full detection is
bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyAfterFilter,
    EmptyMatch,
    GridTooSmall,
    InconsistentCircles,
    LidarStageError,
    LowInlierRatio,
    NoVoidFound,
    PoorFit,
)
from .geometry import RigidTransform
from .target import TargetSpec, circle_centers_board

# Read only by bench/spans.py, whose tracer wraps these three names here and
# raises on a missing one; nothing in the program calls any of them. They go
# when that tracer stops naming them.
from .target import generate_mask_cloud  # noqa: F401

gicp_register = None


class cKDTree:  # noqa: N801
    """Placeholder for the tracer to subclass; the program builds no KD-tree."""


# ransac_plane draws from a generator seeded by _SEED, scores hypotheses
# _STOP_STEP at a time, and stops when the chance that none it scored was an
# all-inlier triplet is below _MISS. A plane that holds less than
# _MIN_INLIER_SHARE of the points is a LowInlierRatio.
_STOP_STEP = 8
_MISS = 1e-6
_SEED = 0
_MIN_INLIER_SHARE = 0.3

# m, added to the board's half diagonal around the prior's translation: the
# crop that ransac_plane sees
_CROP_MARGIN = 0.3

# cells refine_circles may shift each hole by, along each grid axis
_SHIFT = 10
# every (di, dj) shift within _SHIFT, by increasing displacement, then (di, dj)
_SHIFTS = np.array(
    sorted(
        ((si, sj) for si in range(-_SHIFT, _SHIFT + 1) for sj in range(-_SHIFT, _SHIFT + 1)),
        key=lambda s: (s[0] * s[0] + s[1] * s[1], s),
    )
)

# The plane's outline may exceed the board's sides by this factor; a larger
# one holds more than the board (a wall, the ground), so its center is not
# the board's. Range noise of 5 mm widens the rigs' outlines by under 6%.
_OUTLINE_SLACK = 1.25


@dataclass(frozen=True)
class LidarParams:
    """Thresholds for the detection stages; lengths in meters."""

    h_min: float = 0.05
    d_min: float = 0.5
    d_max: float = 8.0
    ransac_eps: float = 0.02
    grid_res: int = 200  # cells per meter

    def __post_init__(self):
        if self.d_min < 0 or min(self.d_max, self.ransac_eps) <= 0 or self.grid_res < 2:
            raise ValueError("d_min must be >= 0, d_max and ransac_eps > 0, grid_res >= 2")
        if self.d_min >= self.d_max:
            raise ValueError("d_min must be < d_max")


@dataclass(frozen=True)
class Plane:
    """ax + by + cz + d = 0 with unit (a, b, c), of either sign."""

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
    pose: RigidTransform  # board -> lidar: the plane frame at the outline's center
    centers: np.ndarray  # (4, 3) lidar frame, canonical order
    fitness: float  # RMS distance of the plane's inliers from it, m


def filter_cloud(cloud: np.ndarray, p: LidarParams) -> np.ndarray:
    """Ground / range gate: keep z >= h_min and d_min < ||p_xy|| <= d_max."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    high = np.flatnonzero(cloud[:, 2] >= p.h_min)  # the ground, most of a scan, goes first
    rho = np.hypot(cloud[high, 0], cloud[high, 1])
    out = cloud[high[(rho > p.d_min) & (rho <= p.d_max)]]  # one copy, of the rows kept
    if len(out) < 100:
        raise EmptyAfterFilter(f"{len(out)} points after filtering")
    return out


def match_points(cloud: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Points of `cloud` strictly closer than `radius` to `center` (3,)."""
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 3)
    out = cloud[np.linalg.norm(cloud - center, axis=1) < radius]
    if len(out) < 50:
        raise EmptyMatch(f"{len(out)} matched points")
    return out


def _fit_plane_lsq(pts):
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    n = vt[-1]
    n = n / np.linalg.norm(n)
    d = -float(n @ centroid)
    return Plane(float(n[0]), float(n[1]), float(n[2]), float(d))


def _draw_triplets(rng, n: int, count: int) -> np.ndarray:
    """`count` uniformly drawn triplets of 3 distinct indices below n (n >= 3),
    from one call of the generator: the second index skips the first, and the
    third skips both."""
    i, j, k = rng.integers(0, [n, n - 1, n - 2], size=(count, 3)).T
    j = j + (j >= i)
    k = k + (k >= np.minimum(i, j))
    k = k + (k >= np.maximum(i, j))
    return np.column_stack([i, j, k])


def _inlier_counts(pts: np.ndarray, tri: np.ndarray, eps: float) -> np.ndarray:
    """For each triplet of `tri` (h, 3), the number of `pts` closer than
    `eps` to the plane through its three points; -1 for a collinear one."""
    a = pts[tri[:, 0]]
    normals = np.cross(pts[tri[:, 1]] - a, pts[tri[:, 2]] - a)
    norms = np.linalg.norm(normals, axis=1)
    ok = norms >= 1e-12
    normals[ok] /= norms[ok, None]
    dist = normals @ pts.T
    dist -= np.einsum("hi,hi->h", normals, a)[:, None]
    np.abs(dist, out=dist)
    return np.where(ok, np.count_nonzero(dist < eps, axis=1), -1)


def _draws_needed(w: float) -> float:
    """N = ceil(log _MISS / log(1 - w^3)), the draws that hold an all-inlier
    triplet with probability 1 - _MISS when a share w of the points are
    inliers (Fischler and Bolles, CACM 1981): 0 for w >= 1, inf for w <= 0."""
    w3 = min(max(w, 0.0), 1.0) ** 3
    if w3 == 0.0:
        return math.inf
    return 0 if w3 == 1.0 else math.ceil(math.log(_MISS) / math.log1p(-w3))


def ransac_plane(pts: np.ndarray, p: LidarParams):
    """RANSAC plane segmentation; consensus plane is least-squares refit to
    its inliers and inliers recomputed against the refit plane.

    The `_draws_needed(_MIN_INLIER_SHARE)` triplets (505) that the inlier
    floor needs are drawn at once (`_draw_triplets`). Their planes are
    scored _STOP_STEP at a time until the hypotheses scored reach
    `_draws_needed` of the best inlier share so far, or all of them (the
    cap, which binds only below the floor); collinear triplets score
    nothing, so they never stop the scan. Of the hypotheses scored, the
    first with the maximal inlier count wins, and its consensus set is
    taken from its plane computed for that triplet alone."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateInput(f"{len(pts)} points, need >= 3")
    n_pts = len(pts)
    tri = _draw_triplets(np.random.default_rng(_SEED), n_pts, _draws_needed(_MIN_INLIER_SHARE))
    counts = np.full(len(tri), -1)
    scored, needed = 0, math.inf
    while scored < min(needed, len(tri)):
        step = slice(scored, scored + _STOP_STEP)
        counts[step] = _inlier_counts(pts, tri[step], p.ransac_eps)
        scored = min(scored + _STOP_STEP, len(tri))
        needed = _draws_needed(counts.max() / n_pts)
    if counts.max() < 0:
        raise DegenerateInput("all sampled triplets collinear")
    best = int(np.argmax(counts))  # first maximal count, as a sequential scan keeps
    i, j, k = tri[best]
    n = np.cross(pts[j] - pts[i], pts[k] - pts[i])
    n = n / np.linalg.norm(n)
    d = -float(n @ pts[i])
    consensus = pts[np.abs(pts @ n + d) < p.ransac_eps]
    if len(consensus) < 3:
        raise DegenerateInput("consensus set degenerate")
    plane = _fit_plane_lsq(consensus)
    inliers = pts[plane.distances(pts) < p.ransac_eps]
    if len(inliers) < _MIN_INLIER_SHARE * n_pts:
        cap = " (the cap)" if needed > scored else ""
        raise LowInlierRatio(
            f"{len(inliers)}/{n_pts} inliers, best of {scored} hypotheses{cap}: "
            f"{counts[best]} before the refit"
        )
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


def find_target_region(g: OccupancyGrid, spec: TargetSpec):
    """Top-left index (i*, j*) of the densest board-sized window, the board's
    width along the grid's x and its height along y.

    A board's points can span up to a scan spacing less than the board, so
    a grid short of the window is padded with empty cells, evenly on both
    sides, to the window's size; the window may then start at a negative
    index. A grid more than 2 * _SHIFT cells short is GridTooSmall: were the
    board cut off on one side, the window's center would lie more than the
    _SHIFT cells that refine_circles searches from the board's center."""
    sx, sy = (max(int(round(size * g.res)), 1) for size in (spec.board_width, spec.board_height))
    nx, ny = g.occupied.shape
    short = np.maximum([sx - nx, sy - ny], 0)
    if short.max() > 2 * _SHIFT:
        raise GridTooSmall(
            f"grid {nx}x{ny} more than {2 * _SHIFT} cells short of the {sx}x{sy}-cell window"
        )
    before = short // 2
    occ = np.pad(g.occupied, list(zip(before, short - before)))
    c = np.zeros((occ.shape[0] + 1, occ.shape[1] + 1), dtype=np.int64)
    c[1:, 1:] = np.cumsum(np.cumsum(occ, axis=0), axis=1)
    sums = c[sx:, sy:] - c[:-sx, sy:] - c[sx:, :-sy] + c[:-sx, :-sy]
    flat = int(np.argmax(sums))  # row-major: first max = smallest (i, j)
    return flat // sums.shape[1] - int(before[0]), flat % sums.shape[1] - int(before[1])


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

    Search is over integer cell displacements within +/-_SHIFT cells of the
    design offsets around the window center; the displacement minimizing
    occupied cells inside the circular mask wins, ties broken toward the
    smallest displacement. When `preferred` (continuous center estimates in
    the grid frame, e.g. from the board's outline) is given, ties are
    instead broken toward it, and if its own cell attains the minimum the
    preferred point is returned unchanged so its sub-cell precision is kept.
    """
    i0, j0 = window
    s_cells = np.array([spec.board_width, spec.board_height]) * g.res
    win_center = g.origin + (np.array([i0, j0], dtype=float) + s_cells / 2.0) * g.cell
    initial_centers = [win_center + np.array(o) for o in spec.circle_offsets]
    radius_cells = spec.circle_radius * g.res
    di, dj = _disc_stencil(radius_cells)
    mask_area = len(di)
    nx, ny = g.occupied.shape
    cells = np.floor((np.array(initial_centers) - g.origin) * g.res).astype(int)
    # Off-grid cells count as occupied: pad the grid with occupied cells out to
    # the farthest shifted stencil cell. The stencil lists the disc row by
    # row, each row di one run of cells along j, so a shift's count is the sum
    # over the rows of the row's prefix sums differenced at the run's two
    # ends: two gathers of (shift, row) flat indices, not one of every
    # (shift, stencil cell), and the same integers.
    reach = _SHIFT + int(np.abs(np.concatenate([di, dj])).max())
    pad = max(0, reach - int(cells.min()), reach + 1 + int((cells - [nx, ny]).max()))
    padded = np.pad(g.occupied, pad, constant_values=True)
    prefix = np.zeros((padded.shape[0], padded.shape[1] + 1), dtype=np.int32)
    np.cumsum(padded, axis=1, out=prefix[:, 1:])
    stride = prefix.shape[1]
    rows, start, length = np.unique(di, return_index=True, return_counts=True)
    starts = (_SHIFTS[:, 0] * stride + _SHIFTS[:, 1])[:, None] + rows * stride + dj[start]
    ends = starts + length
    flat = prefix.ravel()
    centers = []
    for k, (c0, cell) in enumerate(zip(initial_centers, cells)):
        at = (cell[0] + pad) * stride + cell[1] + pad
        counts = (flat[at + ends] - flat[at + starts]).sum(axis=1)
        best_count = int(counts.min())
        if best_count > 0.5 * mask_area:
            raise NoVoidFound(f"best mask occupancy {best_count}/{mask_area}")
        ties = _SHIFTS[counts == best_count]  # by increasing displacement
        if preferred is None:
            centers.append(np.asarray(c0, dtype=float) + ties[0] * g.cell)
            continue
        want = np.asarray(preferred[k], dtype=float)[:2]
        pos = g.origin + (cell + ties + 0.5) * g.cell
        best = int(np.argmin(((pos - want) ** 2).sum(axis=1)))  # first of equally near ties
        want_cell = np.floor((want - g.origin) * g.res).astype(int)
        centers.append(want if np.array_equal(want_cell, cell + ties[best]) else pos[best])
    return centers


def check_circle_geometry(centers_2d, spec: TargetSpec) -> None:
    """Reject refined centers whose pairwise distances deviate from the design
    pattern by more than tol. A center that latched onto the wrong void (e.g. a
    spurious occupancy gap near the board edge) lands 2+ circle radii off and
    would silently poison the global solve."""
    tol = 0.06  # m
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


def _convex_hull(xy: np.ndarray) -> np.ndarray:
    """The convex hull's vertices among the points `xy` (n, 2), counter-
    clockwise, with no collinear ones: Andrew's monotone chain (A. M. Andrew,
    IPL 1979) over the points sorted by x, then y.

    First the Akl-Toussaint filter drops the points strictly inside the
    octagon of the extreme points along x, y, x + y and x - y: those lie
    strictly inside the hull, and for a board's plane they are most of it."""
    if len(xy) > 8:
        x, y = xy.T
        octagon = xy[
            [
                np.argmin(y), np.argmax(x - y), np.argmax(x), np.argmax(x + y),
                np.argmax(y), np.argmin(x - y), np.argmin(x), np.argmin(x + y),
            ]
        ]  # counter-clockwise; one point may be extreme along several
        octagon = octagon[(octagon != np.roll(octagon, 1, axis=0)).any(axis=1)]
        if len(octagon) >= 3:
            ex, ey = (np.roll(octagon, -1, axis=0) - octagon).T
            rx, ry = x[:, None] - octagon[:, 0], y[:, None] - octagon[:, 1]
            xy = xy[~(ex * ry > ey * rx).all(axis=1)]  # left of every edge: inside
    # sorted by x, then y, without duplicates; np.unique(axis=0) would do it
    # too, but it imports numpy.ma on first use, 11-15 ms in each fresh process
    xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    pts = xy[np.r_[True, (xy[1:] != xy[:-1]).any(axis=1)]].tolist()
    hull = []
    for chain in (pts, pts[::-1]):  # the lower chain, then the upper one
        start = len(hull)
        for p in chain:
            while len(hull) >= start + 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                hull.pop()  # not a left turn: inside the hull, or on its edge
            hull.append(p)
        hull.pop()  # the chain's last point starts the next one
    return np.array(hull).reshape(-1, 2)


def board_outline(flat_pts: np.ndarray, max_size=None):
    """The minimum-area rectangle around the xy of `flat_pts`: (center (2,),
    unit axis (2,)), the axis being the one of the rectangle's four axes
    nearest +x. Rotating calipers: one side of the rectangle lies along an
    edge of the convex hull, so only the hull's edge angles, mod 90 deg, are
    tried. PoorFit if a side, along the axis and across it, is longer than
    `max_size` (2,)."""
    hull = _convex_hull(np.asarray(flat_pts, dtype=float)[:, :2])
    if len(hull) < 3:
        raise DegenerateInput(f"no outline: {len(hull)} hull vertices")
    edges = np.roll(hull, -1, axis=0) - hull
    angles = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), np.pi / 2)
    cos, sin = np.cos(angles), np.sin(angles)
    u = hull @ np.array([cos, sin])  # (vertex, angle) coordinates along each side
    v = hull @ np.array([-sin, cos])
    sides = np.ptp(u, axis=0), np.ptp(v, axis=0)
    best = int(np.argmin(sides[0] * sides[1]))
    mid_u = (u[:, best].max() + u[:, best].min()) / 2
    mid_v = (v[:, best].max() + v[:, best].min()) / 2
    center = mid_u * np.array([cos[best], sin[best]]) + mid_v * np.array([-sin[best], cos[best]])
    turned = bool(angles[best] > np.pi / 4)
    yaw = angles[best] - (np.pi / 2 if turned else 0.0)
    size = np.array([sides[turned][best], sides[not turned][best]])
    if max_size is not None and (size > max_size).any():
        raise PoorFit(
            f"outline {size[0]:.3f} x {size[1]:.3f} m, over {max_size[0]:.3f} x {max_size[1]:.3f} m"
        )
    return center, np.array([np.cos(yaw), np.sin(yaw)])


def detect_target_lidar(
    cloud: np.ndarray,
    spec: TargetSpec,
    t_init: RigidTransform | None,
    p: LidarParams,
) -> LidarDetection:
    """Full board detection: filter -> crop -> RANSAC -> plane outline ->
    plane frame -> occupancy -> window -> circle refinement -> 3D lift.

    The prior `t_init` only places the crop (the points within the board's
    half diagonal plus _CROP_MARGIN of its translation), orients the plane's
    normal like its board z, and picks which of the outline's four axes is
    the board x: the one nearest its own. With no prior (None), the filtered
    cloud gives one: its centroid, its least-squares plane turned to face the
    sensor as board z, and board x horizontal. The plane frame (`normalize_plane`)
    then takes the RANSAC plane's normal as z and that axis as x, so the grid
    lies in the board plane with the design offsets along its axes, and the
    outline's center plus the design offsets are the `preferred` centers.
    The grid centers are lifted back at the inliers' mean height in that
    frame and snapped onto the plane; so is the outline's center, which with
    the frame is the detection's pose."""
    radius = np.hypot(spec.board_width, spec.board_height) / 2 + _CROP_MARGIN
    try:
        filtered = filter_cloud(cloud, p)
        if t_init is None:
            plane = _fit_plane_lsq(filtered)
            n = -plane.normal() if plane.d < 0 else plane.normal()  # board z faces the sensor
            x = np.cross([0.0, 0.0, 1.0], n)
            frame = normalize_plane(n, x if x.any() else [1.0, 0.0, 0.0])
            t_init = RigidTransform(frame.T, filtered.mean(axis=0))
        prior_x, _, prior_z = t_init.rotation.T
        crop = match_points(filtered, t_init.translation, radius)
        plane, inliers = ransac_plane(crop, p)
        n = plane.normal()
        n_board = -n if n @ prior_z < 0 else n
        frame = normalize_plane(n_board, prior_x)
        max_size = _OUTLINE_SLACK * np.array([spec.board_width, spec.board_height])
        center, axis = board_outline(inliers @ frame.T, max_size)
        center = np.append(center, 0.0) @ frame  # lidar frame, off the plane along n
        frame = normalize_plane(n_board, axis @ frame[:2])
        grid_pts = inliers @ frame.T
        grid = build_occupancy(grid_pts, p.grid_res)
        window = find_target_region(grid, spec)
        center = (frame @ center)[:2]
        preferred = center + np.array(spec.circle_offsets)
        centers_2d = refine_circles(grid, window, spec, preferred=preferred)
        check_circle_geometry(centers_2d, spec)
    except LidarStageError as e:
        raise type(e)(f"stage '{e.stage}': {e}") from e
    flat = np.vstack([center, centers_2d])
    lifted = np.column_stack([flat, np.full(len(flat), grid_pts[:, 2].mean())]) @ frame
    lifted -= np.outer(lifted @ n + plane.d, n)  # snap exactly onto the plane
    fitness = float(np.sqrt(np.mean(plane.distances(inliers) ** 2)))
    return LidarDetection(RigidTransform(frame.T, lifted[0]), lifted[1:], fitness)
