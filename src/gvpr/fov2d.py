"""Planar camera field-of-view sectors and their overlap.

A camera on the ground plane is modeled as a circular sector: apex at the
camera position, radius ``r`` meters, opening angle ``theta`` centered on
the heading. Headings are compass angles in radians, measured from north
(the +t1 axis) toward east (the +t0 axis), so the view direction is
``(sin(alpha), cos(alpha))``.

The overlap of two sectors with the same field-of-view parameters is the
area of their intersection divided by the area of one sector. It is
computed by discretizing each arc, collecting the vertex set of the two
convex polygons' intersection in one shot and applying the shoelace
formula; ``fov_overlap_mc`` is an independent Monte-Carlo estimator over
the exact (non-discretized) sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counter-clockwise vertices, shape (n, 2)."""

    vertices: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 (x, y) vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        if _signed_area(v) < -_EMPTY_AREA:
            raise ValueError("polygon vertices must be counter-clockwise")
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return len(self.vertices)


def wrapped_angle_diff(a: float, b: float) -> float:
    """Absolute angular difference on the circle: min(|d|, 2*pi - |d|)."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _signed_area(v: np.ndarray) -> float:
    """Shoelace area relative to the first vertex, so far-off coordinates keep their digits;
    that vertex sits at the origin, so the terms that close the ring are zero."""
    x, y = (v - v[:1]).T.copy()
    return 0.5 * float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))


def polygon_area(p: Polygon) -> float:
    """Shoelace area of a CCW polygon, clamped to be nonnegative."""
    return max(_signed_area(p.vertices), 0.0)


def sector_polygon(pose: CameraPose2D, fov: FovParams, arc_segments: int = 256) -> Polygon:
    """Discretize the camera's field-of-view sector as a convex CCW polygon.

    The polygon is the apex followed by ``arc_segments + 1`` points on the
    arc of radius ``fov.r`` spanning compass angles
    [alpha - theta/2, alpha + theta/2]. Its area converges to
    theta * r**2 / 2 from below as ``arc_segments`` grows.
    """
    if arc_segments < 2:
        raise ValueError("arc_segments must be >= 2")
    # decreasing compass angle = counter-clockwise in the (east, north) plane
    ang = pose.alpha + fov.theta / 2 - fov.theta * np.arange(arc_segments + 1) / arc_segments
    arc = np.column_stack((pose.t0 + fov.r * np.sin(ang), pose.t1 + fov.r * np.cos(ang)))
    return Polygon(np.vstack(([pose.t0, pose.t1], arc)))


def _is_convex_ccw(v: np.ndarray) -> bool:
    """Cross-product sign scan: all turns left (or straight) for CCW input."""
    b = np.roll(v, -1, axis=0)
    c = np.roll(v, -2, axis=0)
    cross = (b[:, 0] - v[:, 0]) * (c[:, 1] - b[:, 1]) - (b[:, 1] - v[:, 1]) * (c[:, 0] - b[:, 0])
    scale = float(np.max(np.abs(v))) + 1.0
    return bool(np.all(cross >= -1e-9 * scale * scale))


def _side(e: np.ndarray, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Cross product of edge direction ``e`` with ``p - a``: positive left of the edge from ``a``."""
    return e[..., 0] * (p[..., 1] - a[..., 1]) - e[..., 1] * (p[..., 0] - a[..., 0])


def _sides(p: np.ndarray, q: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of ring ``p`` on or left of every edge of ring ``q``, and edges of ``p`` that
    cross each edge's line from strictly one side to the other; within ``tol`` counts as on."""
    e = q[1:] - q[:-1]
    t = tol * np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])
    inside, crossed = np.empty(len(p) - 1, dtype=bool), np.empty((len(p) - 1, len(e)), dtype=bool)
    for lo in range(0, len(p) - 1, 32):  # 32-edge blocks bound the temporaries (68 kB at 256 segments)
        d = _side(e, q[:-1], p[lo:lo + 33, None])
        left, right = d > t, d < -t
        inside[lo:lo + 32] = ~right[:-1].any(axis=1)
        crossed[lo:lo + 32] = (left[:-1] & right[1:]) | (right[:-1] & left[1:])
    return inside, crossed


def _intersection_ring(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Vertices of the intersection of two convex CCW polygons, sorted CCW about their mean:
    each polygon's vertices in the other plus the proper edge crossings. The on-edge tolerance
    keeps touching vertices and collinear edges from losing or adding a vertex on rounding noise."""
    if (np.max(va[:, 0]) < np.min(vb[:, 0]) or np.max(vb[:, 0]) < np.min(va[:, 0])
            or np.max(va[:, 1]) < np.min(vb[:, 1]) or np.max(vb[:, 1]) < np.min(va[:, 1])):
        return va[:0]
    tol = _SIDE_TOL * (1.0 + max(np.max(np.abs(va)), np.max(np.abs(vb))))
    ra, rb = np.vstack((va, va[:1])), np.vstack((vb, vb[:1]))
    (inside_a, crossed_a), (inside_b, crossed_b) = _sides(ra, rb, tol), _sides(rb, ra, tol)
    k, i = np.nonzero(crossed_a & crossed_b.T)
    d0, d1 = _side(rb[i + 1] - rb[i], rb[i], ra[k]), _side(rb[i + 1] - rb[i], rb[i], ra[k + 1])
    crossings = ra[k] + (d0 / (d0 - d1))[:, None] * (ra[k + 1] - ra[k])
    pts = np.concatenate((va[inside_a], vb[inside_b], crossings))
    if len(pts) < 3:
        return pts
    x, y = (pts - pts.mean(axis=0)).T.tolist()
    # sorted(), not np.argsort: paging in NumPy's SIMD sort code alone raises peak RSS ~0.3 MB
    return pts[sorted(range(len(pts)), key=lambda j: math.atan2(y[j], x[j]))]


def convex_intersection(a: Polygon, b: Polygon) -> Polygon | None:
    """Intersection of two convex CCW polygons, or None when disjoint.

    Built by ``_intersection_ring`` with repeated vertices dropped; results
    with area below 1e-12 m^2 count as empty. Non-convex input is an error.
    """
    for name, poly in (("first", a), ("second", b)):
        if not _is_convex_ccw(poly.vertices):
            raise ValueError(f"{name} polygon is not convex")
    out = _intersection_ring(a.vertices, b.vertices)
    out = out[np.any(out != np.roll(out, -1, axis=0), axis=1)]
    if _signed_area(out) < _EMPTY_AREA:  # also true below 3 vertices
        return None
    return Polygon(out)


def _canonical(a: CameraPose2D, b: CameraPose2D) -> tuple[CameraPose2D, CameraPose2D]:
    ka, kb = (a.t0, a.t1, a.alpha), (b.t0, b.t1, b.alpha)
    return (a, b) if ka <= kb else (b, a)


def fov_overlap(a: CameraPose2D, b: CameraPose2D, fov: FovParams, arc_segments: int = 256) -> float:
    """Graded similarity of two cameras from their sector overlap.

    Returns area(A intersect B) / min(area(A), area(B)) in [0, 1], computed
    on the discretized sector polygons. Exactly 1.0 for identical poses and
    0.0 for disjoint sectors; symmetric in the two poses (the pair is
    ordered canonically before intersecting so the result is bitwise identical
    either way).
    """
    if a == b:
        return 1.0
    p, q = _canonical(a, b)
    pa = sector_polygon(p, fov, arc_segments)
    pb = sector_polygon(q, fov, arc_segments)
    ring = _intersection_ring(pa.vertices, pb.vertices)
    area = _signed_area(ring)
    if area < _EMPTY_AREA:
        return 0.0
    ratio = area / min(polygon_area(pa), polygon_area(pb))
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
    tol: float = 1e-3,
) -> float:
    """Find the opening angle whose overlap at a reference offset hits a target.

    Bisects ``fov_overlap`` over theta in (0, pi] for the ``reference_pair``
    layout; the overlap must be monotone in theta on the bracket. The
    result satisfies |overlap(theta) - target| <= ``tol``. When the overlap
    equals the target over the whole bracket (e.g. target 1.0 at zero
    offset) the bracket midpoint is returned.
    """
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
