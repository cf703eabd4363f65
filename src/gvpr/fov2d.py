"""Planar camera field-of-view sectors and their overlap.

A camera on the ground plane is modeled as a circular sector: apex at the
camera position, radius ``r`` meters, opening angle ``theta`` centered on
the heading. Headings are compass angles in radians, measured from north
(the +t1 axis) toward east (the +t0 axis), so the view direction is
``(sin(alpha), cos(alpha))``.

The overlap of two sectors with the same field-of-view parameters is the
area of their intersection divided by the area of one sector. It is
computed on the discretized sector polygons by Green's theorem: each
polygon's edges are clipped parametrically to the other polygon, each edge
against O(1) of the other's edges picked by angle, and the clipped pieces'
area terms are summed. ``fov_overlap_mc`` is an independent Monte-Carlo
estimator over the exact (non-discretized) sectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_EMPTY_AREA = 1e-12  # fp slivers below this area count as empty
_SIDE_TOL = 16 * math.ulp(1.0)  # on-edge distance per unit of coordinate scale


@dataclass(frozen=True)
class CameraPose2D:
    """Planar camera pose: position in meters, compass heading in radians.

    ``alpha`` is normalized to [0, 2*pi) on construction.
    """

    t0: float
    t1: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and math.isfinite(self.alpha)):
            raise ValueError("pose coordinates must be finite")
        object.__setattr__(self, "alpha", self.alpha % TWO_PI)

    @property
    def position(self) -> np.ndarray:
        return np.array([self.t0, self.t1])


@dataclass(frozen=True)
class FovParams:
    """Field-of-view opening angle (radians) and radius (meters).

    ``theta`` is restricted to (0, pi] so that every sector polygon is
    convex; zero-size fields of view are rejected because they would make
    the overlap ratio 0/0.
    """

    theta: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.theta <= math.pi:
            raise ValueError(f"theta must be in (0, pi], got {self.theta}")
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")


def wrapped_angle_diff(a: float, b: float) -> float:
    """Absolute angular difference on the circle: min(|d|, 2*pi - |d|)."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def check_arc_segments(arc_segments: int) -> None:
    """Reject anything but a Python or NumPy integer >= 2: floats (also NaN and inf) included."""
    if not isinstance(arc_segments, numbers.Integral) or arc_segments < 2:
        raise ValueError(f"arc_segments must be an integer >= 2, got {arc_segments!r}")


def _arc_directions(alpha, fov: FovParams, arc_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """East and north components of the unit directions from the apex to the arc vertices.

    The vertices run counter-clockwise, from compass angle alpha + theta/2
    down to alpha - theta/2. ``alpha`` may be a column of headings, one row each.
    """
    # decreasing compass angle = counter-clockwise in the (east, north) plane
    ang = alpha + fov.theta / 2 - fov.theta * np.arange(arc_segments + 1) / arc_segments
    return np.sin(ang), np.cos(ang)


def _side(u, p, q):
    """u x (p - q) over vectors stacked on the first axis: positive where p lies left of u from q.

    One coordinate at a time, so a single temporary of the full shape is alive.
    """
    out = p[1] - q[1]
    out *= u[0]
    tmp = p[0] - q[0]
    tmp *= u[1]
    out -= tmp
    return out


def _canonical(a: CameraPose2D, b: CameraPose2D) -> tuple[CameraPose2D, CameraPose2D]:
    ka, kb = (a.t0, a.t1, a.alpha), (b.t0, b.t1, b.alpha)
    return (a, b) if ka <= kb else (b, a)


_WINDOW = np.arange(4)[:, None, None, None]  # chords k-1 .. k+2 around a piece in cells k, k+1: edges k .. k+3
_ROW_B = np.array([[False], [True]])


def _disk_and_windows(start, edge, ee, apex, alpha, fov, n, tol):
    """Each edge's interval inside the other sector's disk, and the lines to clip it against.

    Rows are as in ``fov_overlap``; ``alpha`` holds the heading of the
    sector each row is clipped against. The lines are indices into the
    other sector's edges, both rows stacked: the 4-cell chord window
    around each of the edge line's two pieces in the annulus
    h <= |x - c| <= r, then the two radial edges.
    """
    r, theta = fov.r, fov.theta
    # the other sector's disk: |w + t e| <= r with w = start - c, and the line's annulus pieces
    w = start - apex[:, ::-1, None]
    we = (w * edge).sum(axis=0)
    r2 = (r + tol) ** 2  # widened: a short chord with both ends on the circle is ill-conditioned there
    disc = we * we - ee * ((w * w).sum(axis=0) - r2)
    h = r * math.cos(theta / (2 * n))
    root = np.sqrt(np.maximum(np.stack((disc, disc + ee * (r2 - h * h))), 0.0))
    ends = (root[[0, 1, 1, 0]] * np.array([-1.0, -1.0, 1.0, 1.0])[:, None, None] - we) / ee
    pts = w[:, None] + ends * edge[:, None]  # (east/north, piece end, row, edge)
    behind = np.arctan2(pts[0], pts[1]) - (np.array(alpha) - math.pi)[:, None]
    behind -= TWO_PI * np.floor(behind / TWO_PI)  # compass angle from straight behind, in [0, 2 pi)
    cell = (math.pi + theta / 2 - behind) * (n / theta)  # in [0, n] inside the wedge
    k = np.floor(np.minimum(cell[0::2], cell[1::2]))  # (piece, row, edge)
    rows = np.array([[0], [n + 2]])
    idx = np.empty((10, 2, n + 2), dtype=np.intp)
    idx[:8] = np.minimum(np.maximum(k + _WINDOW, 1), n).reshape(8, 2, n + 2) + rows
    idx[8], idx[9] = rows, rows + n + 1
    return np.maximum(ends[0], 0.0), np.minimum(ends[3], 1.0), idx


def fov_overlap(a: CameraPose2D, b: CameraPose2D, fov: FovParams, arc_segments: int = 256) -> float:
    """Graded similarity of two cameras from their sector overlap.

    Returns area(A intersect B) / min(area(A), area(B)) in [0, 1], computed
    on the discretized sector polygons. Exactly 1.0 for identical poses and
    0.0 for disjoint sectors; symmetric in the two poses (the pair is
    ordered canonically first, so the result is bitwise identical either way).

    The area comes from Green's theorem. The boundary of A intersect B is the
    part of each polygon's boundary inside the other, so the area is the sum
    of (p(t_lo) x p(t_hi)) / 2 over every edge p(t) = p0 + t (p1 - p0) of
    either polygon, clipped parametrically (Cyrus-Beck) to [t_lo, t_hi]
    inside the other. Coordinates are relative to the apex of A, the
    canonically first pose. No vertex ring is built or sorted.

    Clipping an edge against sector S (apex c, radius r, opening theta,
    n = ``arc_segments``) takes O(1) constraints, not O(n):

    - S's two radial half-planes and the disk |x - c| <= r. The disk holds
      S, so clipping to it loses nothing.
    - Of S's n chords, only those in a window of 4 cells around each piece
      of the edge's line in the annulus h <= |x - c| <= r, where
      h = r cos(theta / 2n) is the inscribed radius.

    Proof that this is exact: the clip of a segment to a convex set is the
    intersection of the segment's intervals under the set's constraints, and
    it is unchanged by any subset of valid constraints that contains every
    binding one. Take a point x of the edge inside the radial half-planes
    and the disk. If |x - c| <= h, x is inside every chord, since each chord
    line lies at distance h from c. Otherwise x lies on a piece of the line
    in the annulus, and one chord decides x: the chord of the cell (angular
    sector of width theta/n) that contains x. A line meets the annulus in at
    most two pieces, and each subtends at most 2 arccos(h / r) = theta/n at
    c, so it touches at most two adjacent cells. The window takes those two
    cells from the angle of the piece's lower end and pads them by one cell
    on each side against rounding. When the window would hold every chord
    (n <= 8), the edge is clipped against all of them instead.

    Where A's and B's boundaries meet, both must put the meeting point at
    the same place, or the sum gains a stray fan triangle. So each side test
    of an edge pair is evaluated with the same rounding in both rows, and an
    end of A's edge within a small tolerance of B's line counts as on it.
    Where A's edge meets B's, B's edge ends at A's meeting point, projected
    onto it: nearly parallel edges then still meet at one point. Edges whose
    ends all lie within the tolerance of the other's line are collinear. A
    collinear pair running the same way is shared boundary and counts once,
    as A's edge (B's edges are open). A collinear pair running opposite ways
    only touches, and counts for neither.
    """
    check_arc_segments(arc_segments)
    if a == b:
        return 1.0
    p, q = _canonical(a, b)
    n, r, theta = arc_segments, fov.r, fov.theta
    cx, cy = q.t0 - p.t0, q.t1 - p.t1
    tol = _SIDE_TOL * (1.0 + abs(cx) + abs(cy) + r)
    # row 0 holds A's edges clipped against B, row 1 B's edges clipped against A
    apex = np.array([[0.0, cx], [0.0, cy]])  # (east/north, sector)
    ring = np.empty((2, 2, n + 3))  # (east/north, sector, vertex): apex, n + 1 arc vertices, apex
    ring[..., 0] = ring[..., -1] = apex
    ring[:, :, 1:-1] = r * np.stack(_arc_directions(np.array([[p.alpha], [q.alpha]]), fov, n)) + apex[..., None]
    tips = np.stack((ring[..., :-1], ring[..., 1:]), axis=1)  # (east/north, edge end, sector, edge)
    start = tips[:, 0]
    edge = tips[:, 1] - start
    ee = (edge * edge).sum(axis=0)
    cross = start[0] * tips[1, 1] - start[1] * tips[0, 1]  # twice each edge's area term
    length = np.full(n + 2, 2.0 * r * math.sin(theta / (2 * n)))
    length[[0, -1]] = r
    # the lines each edge is clipped against: the other sector's edges 0 and n + 1 (radial) and
    # 1 .. n (chords) as start, end and length, indexed (line, row, edge)
    other = np.concatenate((tips[:, :, ::-1].swapaxes(0, 1).reshape(4, 2, n + 2), length[None, None].repeat(2, 1)))
    if n + 2 <= 10:  # the windows would hold every chord: clip against all of them, the disk adds nothing
        lo, hi = 0.0, 1.0
        other = other.transpose(0, 2, 1)[..., None]
    else:
        lo, hi, idx = _disk_and_windows(start, edge, ee, apex, (q.alpha, p.alpha), fov, n, tol)
        other = np.take(other.reshape(5, -1), idx, axis=1)
    line_tips = other[:4].reshape(2, 2, *other.shape[1:]).swapaxes(0, 1)  # (east/north, end, line, row, edge)
    line_dir = line_tips[:, 1] - line_tips[:, 0]
    same_way = edge[0] * line_dir[0] + edge[1] * line_dir[1] > 0.0
    # sides, positive inside: s of the edge's ends against the line, o of the line's ends against the
    # edge; for a pair of edges one row's o is bitwise the other row's s
    s = _side(line_dir, tips[:, :, None], line_tips[:, :1])
    o = _side(edge, line_tips, start[:, None, None])
    # an end of A's edge within the tolerance of B's line is on it: s in row 0, o in row 1
    for a_ends, scale in ((s[:, :, 0], other[4, :, 0]), (o[:, :, 1], length)):
        a_ends[np.abs(a_ends) <= tol * scale] = 0.0
    collinear = (np.abs(s).max(axis=0) <= tol * other[4]) | (np.abs(o).max(axis=0) <= tol * length)
    with np.errstate(divide="ignore", invalid="ignore"):
        # where A's edge meets B's edge, B's edge takes A's meeting point, projected: both pieces end
        # at one point however nearly parallel the edges are
        t_a = o[0, :, 1] / (o[0, :, 1] - o[1, :, 1])
        shared = (((line_tips[0, 0, :, 1] - start[0, 1]) + t_a * line_dir[0, :, 1]) * edge[0, 1]
                  + ((line_tips[1, 0, :, 1] - start[1, 1]) + t_a * line_dir[1, :, 1]) * edge[1, 1]) / ee[1]
        del other, line_tips, line_dir  # the largest temporaries: release them before the clip
        t = s[0] / (s[0] - s[1])  # where the edge meets the line; +-inf when parallel
    meet = (s[0, :, 1] * s[1, :, 1] < 0.0) & (o[0, :, 1] * o[1, :, 1] <= 0.0) & ~collinear[:, 1]
    t[:, 1] = np.where(meet, shared, t[:, 1])
    t[collinear] = np.nan  # no bound
    entering = s[1] > s[0]
    lo = np.fmax(lo, np.fmax.reduce(np.where(entering, t, -np.inf), axis=0))
    hi = np.fmin(hi, np.fmin.reduce(np.where(entering, np.inf, t), axis=0))
    # a collinear pair is boundary of A and B only where both run the same way (both interiors on
    # its left), and it counts once, as A's edge: B's edges are open
    keep = np.maximum(hi - lo, 0.0)
    keep[(collinear & (_ROW_B | ~same_way)).any(axis=0)] = 0.0
    area = 0.5 * float(np.vdot(cross, keep))
    if area < _EMPTY_AREA:
        return 0.0
    ratio = area / (0.5 * float(np.min(cross.sum(axis=1))))
    return min(max(ratio, 0.0), 1.0)


def _sector_membership(pts: np.ndarray, pose: CameraPose2D, fov: FovParams) -> np.ndarray:
    """Analytic point-in-sector test: within radius and angular half-width."""
    dx = pts[:, 0] - pose.t0
    dy = pts[:, 1] - pose.t1
    dist2 = dx * dx + dy * dy
    ang = np.arctan2(dx, dy)  # compass angle of the point as seen from the camera
    off = np.abs((ang - pose.alpha + math.pi) % TWO_PI - math.pi)
    return (dist2 <= fov.r * fov.r) & (off <= fov.theta / 2)


def fov_overlap_mc(
    a: CameraPose2D,
    b: CameraPose2D,
    fov: FovParams,
    samples: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of ``fov_overlap`` with its standard error.

    Uniform points are drawn in the joint bounding box of the two sectors
    and classified analytically against the exact (non-discretized)
    sectors. Conditioning on membership in the first (canonical) sector
    makes the estimate a binomial proportion: the returned standard error
    is sqrt(p * (1 - p) / n_in_first). Deterministic for a fixed seed.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    p, q = _canonical(a, b)
    rng = np.random.default_rng(seed)
    lo = np.minimum(p.position, q.position) - fov.r
    hi = np.maximum(p.position, q.position) + fov.r
    pts = rng.uniform(lo, hi, size=(samples, 2))
    in_p = _sector_membership(pts, p, fov)
    in_q = _sector_membership(pts, q, fov)
    n_p = int(in_p.sum())
    if n_p == 0:
        return 0.0, 0.0
    est = float(np.sum(in_p & in_q)) / n_p
    stderr = math.sqrt(est * (1.0 - est) / n_p)
    return est, stderr


def reference_pair(delta_t: float, delta_alpha: float) -> tuple[CameraPose2D, CameraPose2D]:
    """Canonical two-camera layout for a given translation/rotation offset.

    The first camera sits at the origin heading north; the second is
    displaced ``delta_t`` meters perpendicular to that view axis (the
    most favorable placement at a given distance) with its heading rotated
    by ``delta_alpha``.
    """
    return CameraPose2D(0.0, 0.0, 0.0), CameraPose2D(delta_t, 0.0, delta_alpha)


def calibrate_theta(
    target: float,
    delta_t: float,
    delta_alpha: float,
    r: float,
    arc_segments: int = 256,
) -> float:
    """Find the opening angle whose overlap at a reference offset hits a target.

    Bisects ``fov_overlap`` over theta in (0, pi] for the ``reference_pair``
    layout; the overlap must be monotone in theta on the bracket. The
    result satisfies |overlap(theta) - target| <= 1e-3. When the overlap
    equals the target over the whole bracket (e.g. target 1.0 at zero
    offset) the bracket midpoint is returned.
    """
    tol = 1e-3
    pose_a, pose_b = reference_pair(delta_t, delta_alpha)

    def g(theta: float) -> float:
        return fov_overlap(pose_a, pose_b, FovParams(theta, r), arc_segments) - target

    lo, hi = 1e-4, math.pi
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0 and g_hi == 0.0:
        return (lo + hi) / 2  # degenerate: every theta attains the target
    if (g_lo > 0) == (g_hi > 0):
        raise ValueError(
            f"target {target} not bracketed on theta in ({lo:.1e}, pi]: "
            f"overlap spans [{g_lo + target:.4f}, {g_hi + target:.4f}]"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) <= tol / 4 or hi - lo < 1e-7:
            break
        if (g_mid > 0) == (g_hi > 0):
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    if abs(g_mid) > tol:
        raise RuntimeError(f"bisection failed to reach |overlap - target| <= {tol}")
    return mid
