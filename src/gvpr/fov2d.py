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
area terms are summed. Only the edges that may cross the other sector's
boundary are clipped: an edge provably inside keeps all of itself, and one
provably outside, or beyond the other's disk, keeps nothing.
``fov_overlap_mc`` is an independent Monte-Carlo estimator over the exact
(non-discretized) sectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

DEFAULT_ARC_SEGMENTS = 256  # sector arc discretization of every overlap, unless a caller names another

_EMPTY_AREA = 1e-12  # fp slivers below this area count as empty
_SIDE_TOL = 16 * math.ulp(1.0)  # on-edge distance per unit of coordinate scale
_CULL_MARGIN = 1e-9  # fov_overlap's inside/outside margin per unit of coordinate scale, far above _SIDE_TOL


def wrap_heading(alpha):
    """The heading rule: ``alpha % 2*pi`` in [0, 2*pi), a remainder that rounds up to 2*pi (of a tiny negative
    alpha) read as 0, so a second wrap changes no bit. Element by element for arrays; a float for a float."""
    w = np.mod(alpha, TWO_PI)
    w = np.where(w == TWO_PI, 0.0, w)
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class CameraPose2D:
    """Planar camera pose: position in meters, compass heading in radians.

    Coordinates must be finite; ``wrap_heading`` wraps ``alpha``, so a pose rebuilt from its fields is itself.
    """

    t0: float
    t1: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and math.isfinite(self.alpha)):
            raise ValueError("pose coordinates must be finite")
        object.__setattr__(self, "alpha", wrap_heading(self.alpha))

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
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"r must be positive and finite, got {self.r}")


def wrapped_angle_diff(a, b):
    """Absolute angular difference on the circle: min(|d|, 2*pi - |d|), element by element for
    arrays; a float for two floats."""
    d = np.abs(np.subtract(a, b)) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    return d if isinstance(d, np.ndarray) else float(d)


def planar_distance(a, b) -> np.ndarray:
    """Center distance of pose rows (t0, t1, ...) as sqrt(d0*d0 + d1*d1), d = a - b, element by element."""
    d0, d1 = np.subtract(a[..., 0], b[..., 0]), np.subtract(a[..., 1], b[..., 1])
    d0 *= d0  # in place: the same products and sum, with no array beyond d0 and d1
    d0 += np.multiply(d1, d1, out=d1)
    return np.sqrt(d0, out=d0)


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


_WINDOW = np.arange(4)[:, None, None]  # chords k-1 .. k+2 around a piece in cells k, k+1: edges k .. k+3
_CLIP_ALL_MAX_SEGMENTS = 8  # up to this n, two 4-chord windows could hold every chord: clip against all of them
# the line's two annulus pieces end where it enters the disk, the inner circle, then leaves them: root and sign
_PIECE_ROOT = np.array([0, 1, 1, 0])
_PIECE_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])[:, None]


def _triage(ring, fov, n, h, tol, m):
    """Each sector's interior edges, as a (sector, edge) mask, and the flat (sector, edge) indices of the
    edges left to clip, A's first, with the number of A's among them.

    ``ring`` is indexed (east/north, sector, vertex) as in ``fov_overlap``, whose docstring proves that the
    clip keeps 1 of an interior edge and 0 of an outside one. A vertex is inside the other sector when it
    lies within h - m of the other apex and more than m r on the inner side of both its radial lines. An
    edge is interior when both its ends are inside, and outside when both lie more than m r beyond one
    radial line.
    """
    other = ring[:, ::-1]
    u = other[..., 1::n + 1] - other[..., ::n + 1]  # (east/north, sector, radial): the other's radial directions
    w = ring - other[..., :1]  # from the other apex
    sides = u[0, ..., None] * w[1, :, None] - u[1, ..., None] * w[0, :, None]  # (sector, radial, vertex): u x w
    # else a line within h - m of the apex could pass within tol of both ends of a chord: then no edge is interior
    chord = 2.0 * fov.r * math.sin(fov.theta / (2 * n))
    inner = max(h - m, 0.0) if chord * chord * m > 32.0 * tol * tol * h else 0.0
    mr = m * fov.r
    flags = np.empty((2, 3, n + 3), dtype=bool)  # (sector, inside / beyond the first radial / the last, vertex)
    np.less((w * w).sum(axis=0), inner * inner, out=flags[:, 0])
    flags[:, 0] &= np.minimum(sides[:, 0], sides[:, 1]) > mr
    np.less(sides, -mr, out=flags[:, 1:])
    both = flags[..., :-1] & flags[..., 1:]  # (sector, kind, edge)
    clip = ~both.any(axis=1)
    return both[:, 0], clip.ravel().nonzero()[0], int(np.count_nonzero(clip[0]))


def _disk_and_windows(cand, nc, edges, apex, alpha, fov, n, h, tol):
    """Of the edges ``cand`` (flat (sector, edge) indices, A's first, ``nc`` of them A's), those that reach
    the other sector's disk, each one's interval inside it, and its lines.

    ``edges`` is indexed (row, sector, edge) and ``apex`` (east/north, sector), as in ``fov_overlap``;
    ``alpha`` holds the heading of the sector each sector's edges are clipped against. Returns the live edges (interval
    hi > lo) as flat (sector, edge) indices, A's first, the number of A's among them, their
    intervals, and per live edge 11 flat indices into the same edges: the edge itself, the other
    sector's chords in the 4-cell window around each of the edge line's two pieces in the annulus
    h <= |x - c| <= r, then the other sector's two radial edges.
    """
    r, theta = fov.r, fov.theta
    tips = edges.reshape(5, -1)[:4].take(cand, axis=1)
    start = tips[:2]
    edge = tips[2:] - start
    ee = (edge * edge).sum(axis=0)
    # the other sector's disk: |w + t e| <= r with w = start - c, and the line's annulus pieces
    w = start - apex[:, ::-1].repeat((nc, len(cand) - nc), axis=1)
    we = (w * edge).sum(axis=0)
    r2 = (r + tol) ** 2  # widened: a short chord with both ends on the circle is ill-conditioned there
    disc = we * we - ee * ((w * w).sum(axis=0) - r2)
    root = np.sqrt(np.maximum(np.concatenate((disc[None], (disc + ee * (r2 - h * h))[None])), 0.0))
    ends = (root[_PIECE_ROOT] * _PIECE_SIGN - we) / ee
    lo, hi = np.maximum(ends[0], 0.0), np.minimum(ends[3], 1.0)
    reach = (hi > lo).nonzero()[0]
    na = int(reach.searchsorted(nc))
    pts = (w[:, None] + ends * edge[:, None]).take(reach, axis=2)  # (east/north, piece end, edge)
    behind = np.arctan2(pts[0], pts[1])
    behind[:, :na] -= alpha[0] - math.pi
    behind[:, na:] -= alpha[1] - math.pi
    behind -= TWO_PI * np.floor(behind / TWO_PI)  # compass angle from straight behind, in [0, 2 pi)
    cell = (math.pi + theta / 2 - behind) * (n / theta)  # in [0, n] inside the wedge
    k = np.floor(np.minimum(cell[0::2], cell[1::2]))  # (piece, edge)
    live = cand.take(reach)
    idx = np.empty((11, len(live)), dtype=np.intp)
    idx[0] = live
    idx[1:9] = np.minimum(np.maximum(k + _WINDOW, 1), n).reshape(8, -1)
    idx[9], idx[10] = 0, n + 1
    idx[1:, :na] += n + 2  # A's edges are clipped against B's, the second sector's
    return live, na, lo.take(reach), hi.take(reach), idx


def fov_overlap(a: CameraPose2D, b: CameraPose2D, fov: FovParams, arc_segments: int = DEFAULT_ARC_SEGMENTS) -> float:
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

    Most edges need no clip. With n > 8, each sector's vertices are first
    tested against the other sector with a margin m = 1e-9 (1 + |c| + r),
    about 2.8e5 times the side tolerance tol (c: the apex of B from the
    apex of A). A vertex is inside when it lies within h - m of the other
    apex and more than m r on the inner side of both radial lines (side
    values u x w of the radial direction u, of length r, and the offset w
    from the other apex). An edge is interior when both its ends are inside:
    it keeps exactly 1. It is outside when both its ends lie more than m r
    beyond the same radial line: it keeps 0. Only the other edges go to the
    disk test and the clip, both sectors' on one flat axis, A's first. Proof
    that the clip would give the same values (the rounding of every side
    value is a few ulps of r (1 + |c| + r), far below the margin):

    - Interior edge, both side values: each end lies more than m from every
      line it is clipped against, since each chord line lies h from the
      other apex. So both side values exceed tol times the line's length:
      nothing is zeroed, and no end pair lies within tol of its line.
    - Interior edge, no collinear flag: nor do both ends of a line lie
      within tol of the edge's line. Within r of the apex, a line through
      both ends of a radial edge to within tol stays within about 3 tol of
      it. A line through both ends of a chord to within 2 tol, and within
      h - m of the apex, needs chord^2 (m - 2 tol) <= 16 tol^2 h. Unless
      chord^2 m > 32 tol^2 h, no edge is taken as interior.
    - Interior edge, t and the disk: both side values are positive, so
      t = s0 / (s0 - s1) is negative on entering and at least 1 (or +inf)
      on leaving: every t falls outside (0, 1). Both ends lie well inside
      the widened disk, so its interval is [0, 1]. The clip keeps
      hi - lo = 1 - 0 = 1.
    - Outside edge: against that radial line both side values are below
      -m r, so they are not zeroed, and they have one sign, so the meeting
      point rule of B's edges does not apply. Then t >= 1 on entering, and
      t < 0 (or -inf) on leaving, and the interval is empty. The one
      exception is when both ends of the radial line lie within tol of the
      edge's line. Then the edge's ends, more than m off the radial line,
      lie over 10^4 r from the apex. The edge is at most r long, so it
      misses the disk, and its disk interval is already empty.
    - The disk test: an edge whose interval inside the other disk is empty
      (hi <= lo) keeps 0, whatever its lines are. The clip only raises lo
      (by fmax) and lowers hi (by fmin), and a collinear pair only sets the
      kept length to 0, so it keeps max(hi - lo, 0) = 0.

    The clipped edges' kept lengths are scattered into a vector that is 1
    on the interior edges and 0 elsewhere. So the area sum takes the same
    terms in the same order. A zero term's sign may differ, which changes
    no nonzero sum.

    Where A's and B's boundaries meet, both must put the meeting point at
    the same place, or the sum gains a stray fan triangle. So each side test
    of an edge pair is evaluated with the same rounding for both edges, and an
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
    scale = 1.0 + abs(cx) + abs(cy) + r
    tol = _SIDE_TOL * scale
    apex = np.array([[0.0, cx], [0.0, cy]])  # (east/north, sector)
    ring = np.empty((2, 2, n + 3))  # (east/north, sector, vertex): apex, n + 1 arc vertices, apex
    ring[..., 0] = ring[..., -1] = apex
    arc = np.concatenate(_arc_directions(np.array([[p.alpha], [q.alpha]]), fov, n)).reshape(2, 2, n + 1)
    ring[:, :, 1:-1] = r * arc + apex[..., None]
    # every edge of both sectors, A's first: start and end (east/north each), then length
    edges = np.empty((5, 2, n + 2))
    edges[:2], edges[2:4] = ring[..., :-1], ring[..., 1:]
    edges[4] = 2.0 * r * math.sin(theta / (2 * n))
    edges[4, :, 0] = edges[4, :, -1] = r
    cross = edges[0] * edges[3] - edges[1] * edges[2]  # twice each edge's area term
    if n <= _CLIP_ALL_MAX_SEGMENTS:  # every edge against every edge of the other, and the disk adds nothing
        live, na, lo, hi = slice(None), n + 2, 0.0, 1.0
        keep = np.zeros(2 * (n + 2))
        own = edges.reshape(5, -1)
        lines = own.take(np.arange(n + 2)[:, None] + np.array([n + 2, 0]).repeat(n + 2), axis=1)  # (5, line, edge)
    else:
        h = r * math.cos(theta / (2 * n))
        interior, cand, nc = _triage(ring, fov, n, h, tol, _CULL_MARGIN * scale)
        live, na, lo, hi, idx = _disk_and_windows(cand, nc, edges, apex, (q.alpha, p.alpha), fov, n, h, tol)
        keep = interior.ravel().astype(float)  # an interior edge keeps all of itself
        gathered = edges.reshape(5, -1).take(idx, axis=1)
        own, lines = gathered[:, 0], gathered[:, 1:]
    # the clip, on one edge axis: A's edges [:na] against B's lines, B's [na:] against A's
    tips = own[:4].reshape(2, 2, -1).swapaxes(0, 1)  # (east/north, edge end, edge)
    start = tips[:, 0]
    edge = tips[:, 1] - start
    line_tips = lines[:4].reshape(2, 2, *lines.shape[1:]).swapaxes(0, 1)  # (east/north, end, line, edge)
    line_dir = line_tips[:, 1] - line_tips[:, 0]
    same_way = edge[0] * line_dir[0] + edge[1] * line_dir[1] > 0.0
    # sides, positive inside: s of the edge's ends against the line, o of the line's ends against the
    # edge; for a pair of edges one's o is bitwise the other's s
    s = _side(line_dir, tips[:, :, None], line_tips[:, :1])
    o = _side(edge, line_tips, start[:, None, None])
    # an end of A's edge within the tolerance of B's line is on it: s of A's edges, o of B's
    near_s, near_o = np.abs(s) <= tol * lines[4], np.abs(o) <= tol * own[4]
    s[..., :na][near_s[..., :na]] = 0.0
    o[..., na:][near_o[..., na:]] = 0.0
    collinear = near_s.all(axis=0) | near_o.all(axis=0)  # both ends of one within the tolerance of the other
    with np.errstate(divide="ignore", invalid="ignore"):
        # where A's edge meets B's edge, B's edge takes A's meeting point, projected: both pieces end
        # at one point however nearly parallel the edges are
        ob, eb = o[..., na:], edge[:, na:]
        t_a = ob[0] / (ob[0] - ob[1])
        shared = (((line_tips[0, 0, :, na:] - start[0, na:]) + t_a * line_dir[0, :, na:]) * eb[0]
                  + ((line_tips[1, 0, :, na:] - start[1, na:]) + t_a * line_dir[1, :, na:]) * eb[1])
        shared /= (eb * eb).sum(axis=0)
        t = s[0] / (s[0] - s[1])  # where the edge meets the line; +-inf when parallel
    meet = (s[0, :, na:] * s[1, :, na:] < 0.0) & (ob[0] * ob[1] <= 0.0) & ~collinear[:, na:]
    t[:, na:] = np.where(meet, shared, t[:, na:])
    t[collinear] = np.nan  # no bound
    entering = s[1] > s[0]
    lo = np.fmax(lo, np.fmax.reduce(np.where(entering, t, -np.inf), axis=0))
    hi = np.fmin(hi, np.fmin.reduce(np.where(entering, np.inf, t), axis=0))
    # a collinear pair is boundary of A and B only where both run the same way (both interiors on
    # its left), and it counts once, as A's edge: B's edges are open
    same_way[:, na:] = False
    kept = np.maximum(hi - lo, 0.0)
    kept[(collinear & ~same_way).any(axis=0)] = 0.0
    keep[live] = kept  # an edge that is outside, or misses the other disk, keeps nothing
    area = 0.5 * float(np.vdot(cross, keep))
    if area < _EMPTY_AREA:
        return 0.0
    ratio = area / (0.5 * float(cross.sum(axis=1).min()))
    return min(max(ratio, 0.0), 1.0)


def _sector_membership(pts: np.ndarray, pose: CameraPose2D, fov: FovParams) -> np.ndarray:
    """Analytic point-in-sector test: within radius and angular half-width."""
    dx = pts[:, 0] - pose.t0
    dy = pts[:, 1] - pose.t1
    dist2 = dx * dx + dy * dy
    ang = np.arctan2(dx, dy)  # compass angle of the point as seen from the camera
    return (dist2 <= fov.r * fov.r) & (wrapped_angle_diff(ang, pose.alpha) <= fov.theta / 2)


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
    arc_segments: int = DEFAULT_ARC_SEGMENTS,
) -> float:
    """Find the opening angle whose overlap at a reference offset hits a target.

    Bisects ``fov_overlap`` over theta in (0, pi] for the ``reference_pair``
    layout; the overlap must be monotone in theta on the bracket. The
    result satisfies |overlap(theta) - target| <= 1e-3. When the overlap
    equals the target over the whole bracket (e.g. target 1.0 at zero
    offset) the bracket midpoint is returned.
    """
    for name, value in (("target", target), ("delta_t", delta_t), ("delta_alpha", delta_alpha)):
        if not math.isfinite(value):  # before any pose is built, whose error names no argument
            raise ValueError(f"{name} must be finite, got {value}")
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
