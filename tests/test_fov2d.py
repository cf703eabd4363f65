"""Field-of-view sector geometry and overlap tests."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from gvpr import fov2d, relabel
from gvpr.fov2d import (
    _EMPTY_AREA,
    CameraPose2D,
    FovParams,
    _arc_directions,
    calibrate_theta,
    check_arc_segments,
    fov_overlap,
    fov_overlap_mc,
    TWO_PI,
    reference_pair,
    planar_distance,
    wrap_heading,
    wrapped_angle_diff,
)
from gvpr.synth import SynthConfig, generate_world

FOV90_50 = FovParams(theta=math.radians(90.0), r=50.0)
WINDOWED_LOW = fov2d._CLIP_ALL_MAX_SEGMENTS + 1  # the fewest arc segments the triage, disk test and windows run at


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


def _signed_area(v: np.ndarray):
    """Shoelace area relative to the first vertex, so far-off coordinates keep their digits;
    that vertex sits at the origin, so the terms that close the ring are zero. A scalar of
    ``v``'s dtype."""
    x, y = (v - v[:1]).T.copy()
    return 0.5 * (np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))


def polygon_area(p: Polygon) -> float:
    """Shoelace area of a CCW polygon, clamped to be nonnegative."""
    return max(float(_signed_area(p.vertices)), 0.0)


def sector_polygon(pose: CameraPose2D, fov: FovParams, arc_segments: int = 256) -> Polygon:
    """Discretize the camera's field-of-view sector as a convex CCW polygon.

    The polygon is the apex followed by ``arc_segments + 1`` points on the
    arc of radius ``fov.r`` spanning compass angles
    [alpha - theta/2, alpha + theta/2]: the polygons ``fov_overlap``
    clips. Its area converges to theta * r**2 / 2 from below as
    ``arc_segments`` grows.
    """
    check_arc_segments(arc_segments)
    ux, uy = _arc_directions(pose.alpha, fov, arc_segments)
    arc = np.column_stack((pose.t0 + fov.r * ux, pose.t1 + fov.r * uy))
    return Polygon(np.vstack(([pose.t0, pose.t1], arc)))


def _reference_clip_halfplane(pts, a, b):
    """Keep the part of polygon ``pts`` left of the directed line a -> b."""
    n = len(pts)
    if n == 0:
        return pts
    e = b - a
    d = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
    nxt = np.roll(pts, -1, axis=0)
    dn = np.roll(d, -1)
    keep = d >= 0.0
    crossing = keep != (dn >= 0.0)
    denom = np.where(crossing, d - dn, 1.0)
    t = np.where(crossing, d / denom, 0.0)
    ipts = pts + t[:, None] * (nxt - pts)
    counts = keep.astype(np.intp) + crossing.astype(np.intp)
    out = np.empty((int(counts.sum()), 2), dtype=pts.dtype)
    pos = np.cumsum(counts) - counts
    out[pos[keep]] = pts[keep]
    out[pos[crossing] + keep[crossing]] = ipts[crossing]
    return out


def _reference_fov_overlap(a, b, fov, arc_segments=256, dtype=np.float64):
    """The former fov_overlap: Sutherland-Hodgman clipping, one half-plane per sector edge.

    With ``dtype=np.longdouble`` the same float64 polygons are clipped, and all three areas
    summed, in extended precision.
    """
    if a == b:
        return 1.0
    p, q = (a, b) if (a.t0, a.t1, a.alpha) <= (b.t0, b.t1, b.alpha) else (b, a)
    pa, pb = sector_polygon(p, fov, arc_segments), sector_polygon(q, fov, arc_segments)
    va, vb = pa.vertices.astype(dtype), pb.vertices.astype(dtype)
    if (np.max(va[:, 0]) < np.min(vb[:, 0]) or np.max(vb[:, 0]) < np.min(va[:, 0])
            or np.max(va[:, 1]) < np.min(vb[:, 1]) or np.max(vb[:, 1]) < np.min(va[:, 1])):
        return 0.0
    out = va
    for i in range(len(vb)):
        out = _reference_clip_halfplane(out, vb[i], vb[(i + 1) % len(vb)])
        if len(out) < 3:
            return 0.0
    x, y = out[:, 0], out[:, 1]
    area = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    if area < 1e-12:
        return 0.0
    smaller = min(max(_signed_area(v), 0.0) for v in (va, vb))  # the sectors' areas, as polygon_area
    return min(max(float(area / smaller), 0.0), 1.0)


def random_pose(rng, span=30.0):
    return CameraPose2D(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
    )


class TestTypes:
    def test_pose_normalizes_heading(self):
        assert CameraPose2D(0, 0, math.radians(540.0)).alpha == pytest.approx(math.pi)
        assert CameraPose2D(0, 0, -math.pi / 2).alpha == pytest.approx(1.5 * math.pi)

    def test_pose_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CameraPose2D(math.nan, 0, 0)
        with pytest.raises(ValueError):
            CameraPose2D(0, math.inf, 0)

    def test_fov_params_bounds(self):
        with pytest.raises(ValueError):
            FovParams(theta=0.0, r=1.0)
        with pytest.raises(ValueError):
            FovParams(theta=math.pi + 0.01, r=1.0)
        with pytest.raises(ValueError):
            FovParams(theta=1.0, r=0.0)
        FovParams(theta=math.pi, r=0.1)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
    def test_fov_params_reject_a_nonfinite_radius(self, r):
        with pytest.raises(ValueError, match=f"r must be positive and finite, got {r}"):
            FovParams(theta=1.0, r=r)

    def test_polygon_needs_three_ccw_vertices(self):
        with pytest.raises(ValueError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            Polygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))  # clockwise
        Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


class TestSectorPolygon:
    def test_area_converges_to_sector_area(self):
        # theta * r^2 / 2 for theta=pi/2, r=50
        target = 0.25 * math.pi * 2500.0
        poly = sector_polygon(CameraPose2D(0, 0, 0), FOV90_50, arc_segments=10_000)
        assert polygon_area(poly) == pytest.approx(target, rel=1e-3)

    def test_inscribed_area_below_true_area(self):
        for segs in (2, 8, 64):
            poly = sector_polygon(CameraPose2D(0, 0, 1.0), FOV90_50, arc_segments=segs)
            assert polygon_area(poly) < 0.25 * math.pi * 2500.0

    def test_vertex_count(self):
        poly = sector_polygon(CameraPose2D(0, 0, 0), FOV90_50, arc_segments=2)
        assert len(poly) == 4  # apex plus 3 arc points

    def test_isometry_moves_polygon_rigidly(self):
        a = sector_polygon(CameraPose2D(0, 0, 0), FOV90_50, arc_segments=32)
        b = sector_polygon(CameraPose2D(5, 5, math.pi), FOV90_50, arc_segments=32)
        assert polygon_area(a) == pytest.approx(polygon_area(b), abs=1e-9)

    def test_rejects_tiny_segment_count(self):
        with pytest.raises(ValueError):
            sector_polygon(CameraPose2D(0, 0, 0), FOV90_50, arc_segments=1)


class TestPolygonArea:
    def test_unit_square(self):
        sq = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert polygon_area(sq) == 1.0

    def test_collinear_triangle_is_zero(self):
        tri = Polygon(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert polygon_area(tri) == 0.0


class TestFovOverlap:
    def test_identical_poses(self):
        p = CameraPose2D(3.2, -1.0, 0.7)
        assert fov_overlap(p, p, FOV90_50) == 1.0

    def test_identical_poses_still_check_arc_segments(self):
        p = CameraPose2D(3.2, -1.0, 0.7)
        with pytest.raises(ValueError, match="arc_segments"):
            fov_overlap(p, p, FOV90_50, -3)

    @pytest.mark.parametrize("arc_segments", [2.5, math.nan, math.inf, 8.0])
    def test_non_integer_arc_segments_rejected(self, arc_segments):
        a, b = CameraPose2D(0.0, 0.0, 0.0), CameraPose2D(10.0, 0.0, 0.3)
        with pytest.raises(ValueError, match="arc_segments"):
            fov_overlap(a, b, FOV90_50, arc_segments)

    def test_numpy_integer_arc_segments_accepted(self):
        a, b = CameraPose2D(0.0, 0.0, 0.0), CameraPose2D(10.0, 0.0, 0.3)
        assert fov_overlap(a, b, FOV90_50, np.int64(8)) == fov_overlap(a, b, FOV90_50, 8)

    def test_rotation_anchor(self):
        a, b = reference_pair(0.0, math.radians(40.0))
        assert fov_overlap(a, b, FOV90_50) == pytest.approx(0.5563, abs=0.002)

    def test_translation_anchor(self):
        a, b = reference_pair(25.0, 0.0)
        assert fov_overlap(a, b, FOV90_50) == pytest.approx(0.4501, abs=0.002)

    def test_opposite_headings_share_only_apex(self):
        a = CameraPose2D(0, 0, 0)
        b = CameraPose2D(0, 0, math.pi)
        assert fov_overlap(a, b, FOV90_50) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_pose(rng), random_pose(rng)
            assert fov_overlap(a, b, FOV90_50) == fov_overlap(b, a, FOV90_50)

    def test_range_and_disjoint_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = random_pose(rng, span=80), random_pose(rng, span=80)
            psi = fov_overlap(a, b, FOV90_50)
            assert 0.0 <= psi <= 1.0
        far = CameraPose2D(500.0, 0.0, 0.0)
        assert fov_overlap(CameraPose2D(0, 0, 0), far, FOV90_50) == 0.0

    def test_isometry_invariance(self):
        rng = np.random.default_rng(8)
        phi, tx, ty = 1.234, 17.0, -4.0
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])

        def moved(p):
            x, y = rot @ np.array([p.t0, p.t1]) + np.array([tx, ty])
            d = rot @ np.array([math.sin(p.alpha), math.cos(p.alpha)])
            return CameraPose2D(float(x), float(y), math.atan2(d[0], d[1]))

        for _ in range(10):
            a, b = random_pose(rng), random_pose(rng)
            before = fov_overlap(a, b, FOV90_50)
            after = fov_overlap(moved(a), moved(b), FOV90_50)
            assert after == pytest.approx(before, abs=1e-9)

    def test_far_from_origin_keeps_the_label(self):
        # at UTM-scale positions an absolute-coordinate shoelace loses ~0.05 m^2 of sector area
        east, north = 500_000.0, 4_000_000.0
        sector = polygon_area(sector_polygon(CameraPose2D(east, north, 0.0), FOV90_50))
        assert sector == pytest.approx(polygon_area(sector_polygon(CameraPose2D(0, 0, 0), FOV90_50)), abs=1e-6)
        near = fov_overlap(CameraPose2D(0.0, 0.0, 0.0), CameraPose2D(20.0, 10.0, 0.6), FOV90_50)
        far = fov_overlap(CameraPose2D(east, north, 0.0), CameraPose2D(east + 20.0, north + 10.0, 0.6), FOV90_50)
        assert far == pytest.approx(near, abs=1e-9)
        assert f"{far:.6f}" == f"{near:.6f}"

    def test_translation_monotonicity(self):
        direction = math.radians(30.0)
        prev = 1.1
        for dist in np.linspace(0.0, 120.0, 25):
            b = CameraPose2D(dist * math.sin(direction), dist * math.cos(direction), 0.0)
            psi = fov_overlap(CameraPose2D(0, 0, 0), b, FOV90_50)
            assert psi <= prev + 1e-12
            prev = psi

    def test_discretization_convergence(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = random_pose(rng), random_pose(rng)
            coarse = fov_overlap(a, b, FOV90_50, arc_segments=256)
            fine = fov_overlap(a, b, FOV90_50, arc_segments=4096)
            assert abs(coarse - fine) <= 1e-3


def _degenerate_sweep():
    """Pose pairs whose sectors touch, share an apex, edge or tip, or nearly do."""
    rng = np.random.default_rng(31)
    half = FovParams(math.pi, 50.0)
    cases = [  # a side test without tolerance loses a vertex on rounding noise in these two
        (CameraPose2D(-7.963506198816667, 8.592644473482864, 5.111058590890684),
         CameraPose2D(11.446125210063355, 54.671557314080765, 5.111058590890683), half, 2),
        (CameraPose2D(27.871578431490803, 14.669477753198755, 2.0718347848082725),
         CameraPose2D(3.8547478025327377, -29.184733521659915, 6.042116550797663), half, 7),
    ]
    for theta in (math.radians(90.0), math.radians(37.0), math.pi):
        fov = FovParams(theta, 50.0)
        for n in (2, 7, 256):
            for _ in range(3):
                x, y, al = *rng.uniform(-30.0, 30.0, 2), float(rng.uniform(0.0, 2.0 * math.pi))
                a = CameraPose2D(x, y, al)
                for rot in (0.0, theta, theta + 1e-12, theta - 1e-12, math.pi, theta / n):
                    cases.append((a, CameraPose2D(x, y, al + rot), fov, n))
                for ang in (al, al + 0.3):  # centers exactly 2r apart, facing each other
                    cases.append((a, CameraPose2D(x + 100.0 * math.sin(ang), y + 100.0 * math.cos(ang),
                                                  ang + math.pi), fov, n))
                for dist in (0.0, 10.0, 99.0):  # opposite headings
                    cases.append((a, CameraPose2D(x - dist * math.sin(al), y - dist * math.cos(al),
                                                  al + math.pi), fov, n))
                for edge in (al - theta / 2, al + theta / 2):  # apex on the other's edge line or its end
                    for dist in (20.0, -20.0, 50.0):
                        cases.append((a, CameraPose2D(x + dist * math.sin(edge), y + dist * math.cos(edge),
                                                      al), fov, n))
                for j in (0, n // 2):  # apex on an arc vertex of the other, looking back
                    ang = al + theta / 2 - theta * j / n
                    cases.append((a, CameraPose2D(x + 50.0 * math.sin(ang), y + 50.0 * math.cos(ang),
                                                  al + math.pi + float(rng.uniform(-1.0, 1.0))), fov, n))
    return cases


def _two_piece_layout(east=0.0, north=0.0):
    """B's last radial edge runs west to east along a line 0.99 h north of A's apex, h = r cos(theta / 2n)
    the inscribed radius: it meets A's annulus h <= |x - apex| <= r in two pieces, over two cells apart.
    A comes first canonically, so the edge is off the apex the area terms are taken about."""
    fov, n = FovParams(math.radians(120.0), 50.0), 16
    h = fov.r * math.cos(fov.theta / (2 * n))
    a = CameraPose2D(east, north, 0.0)
    b = CameraPose2D(east + 20.0, north + 0.99 * h, 1.5 * math.pi + fov.theta / 2)
    return a, b, fov, n


# a known kernel defect: a sector turned a hair short of whole segments from one with the same
# apex gets the hair's sliver counted twice, an error of |eps| / theta (5.7e-13 and 5.7e-12 here)
_SLIVER_TWICE = pytest.mark.xfail(strict=True, reason="fov_overlap counts the sliver twice")
_SLIVER_TWICE_CASES = {(256, -1e-13), (1024, -1e-13), (1024, -1e-12)}


class TestReferenceEquivalence:
    """The windowed Cyrus-Beck kernel against the frozen Sutherland-Hodgman reference: |dpsi| <= 1e-12."""

    @pytest.mark.parametrize("segments", [2, 7, 256])
    @pytest.mark.parametrize("theta_deg", [37.0, 90.0, 120.0, 180.0])
    def test_random_sweep(self, theta_deg, segments):
        fov = FovParams(math.radians(theta_deg), 50.0)
        rng = np.random.default_rng(1000 * int(theta_deg) + segments)
        overlapping = 0
        for _ in range(300):
            a, b = random_pose(rng), random_pose(rng)
            psi = fov_overlap(a, b, fov, segments)
            assert abs(psi - _reference_fov_overlap(a, b, fov, segments)) <= 1e-12, (a, b)
            overlapping += 0.0 < psi < 1.0
        assert overlapping >= 50

    def test_edge_with_two_annulus_pieces(self):
        a, b, fov, n = _two_piece_layout()
        h = fov.r * math.cos(fov.theta / (2 * n))
        cells = [(fov.theta / 2 - math.atan2(x, 0.99 * h)) * n / fov.theta
                 for x in (-math.sqrt(fov.r ** 2 - (0.99 * h) ** 2), math.sqrt(h ** 2 - (0.99 * h) ** 2))]
        assert cells[0] - cells[1] > 2.0  # one window of four cells cannot hold both pieces
        psi = fov_overlap(a, b, fov, n)
        assert psi > 1e-4
        assert abs(psi - _reference_fov_overlap(a, b, fov, n)) <= 1e-12

    def test_two_annulus_pieces_far_from_origin(self):
        near = fov_overlap(*_two_piece_layout())
        far = fov_overlap(*_two_piece_layout(500_000.0, 4_000_000.0))
        assert abs(far - near) <= 1e-12

    @pytest.mark.parametrize("segments", [3, 9])
    def test_edge_along_a_chord_from_outside(self, segments):
        # B's last radial edge runs along the line of A's middle chord with B beyond it: they touch
        # along a segment, and the shared piece of boundary must not count as area
        fov = FovParams(math.radians(10.0), 50.0)
        a = CameraPose2D(0.0, 0.0, 0.0)
        b = CameraPose2D(5.0, fov.r * math.cos(fov.theta / (2 * segments)), 1.5 * math.pi + fov.theta / 2)
        assert fov_overlap(a, b, fov, segments) == 0.0
        assert _reference_fov_overlap(a, b, fov, segments) == 0.0

    def test_acceptance_geometry_pairs(self):
        # the pair generator of tests/test_acceptance.py::test_03
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            a = CameraPose2D(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0, 2 * math.pi))
            off_r = rng.uniform(0.0, 60.0)
            off_ang = rng.uniform(0, 2 * math.pi)
            b = CameraPose2D(a.t0 + off_r * math.sin(off_ang), a.t1 + off_r * math.cos(off_ang),
                             rng.uniform(0, 2 * math.pi))
            psi = fov_overlap(a, b, FOV90_50)
            assert abs(psi - _reference_fov_overlap(a, b, FOV90_50)) <= 1e-12
            if 0.05 <= psi <= 0.95:
                checked += 1
                rng.integers(0, 2 ** 31)  # test_03's Monte-Carlo seed; keeps the stream in step

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_synth_world_labels(self, seed, tmp_path, monkeypatch):
        table = generate_world(SynthConfig(places=4, images_per_place=7, seed=seed)).train_poses
        labels = relabel.pairwise_similarity(table, FOV90_50)
        relabel.save_labels(tmp_path / "new.csv", labels.ids, [(labels.query, labels.map, labels.psi)])
        monkeypatch.setattr(relabel, "fov_overlap", _reference_fov_overlap)
        expected = relabel.pairwise_similarity(table, FOV90_50)
        relabel.save_labels(tmp_path / "reference.csv", expected.ids, [(expected.query, expected.map, expected.psi)])
        assert sum(0.0 < lab.psi < 1.0 for lab in expected) > 10
        assert [(lab.query_id, lab.map_id) for lab in labels] == [(lab.query_id, lab.map_id) for lab in expected]
        assert max(abs(x.psi - y.psi) for x, y in zip(labels, expected)) <= 1e-12
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_degenerate_layouts(self):
        for a, b, fov, n in _degenerate_sweep():
            got = fov_overlap(a, b, fov, n)
            assert got == fov_overlap(b, a, fov, n)
            assert abs(got - _reference_fov_overlap(a, b, fov, n)) <= 1e-12, (a, b, fov, n)

    @pytest.mark.parametrize("theta_deg, segments", [(37.0, 256), (37.0, 9), (90.0, 7)])
    def test_shared_apex_rotated_by_whole_segments_and_a_hair(self, theta_deg, segments):
        # the arcs' chords are nearly collinear and cross at small angles: both sectors' clips must
        # put each meeting point at the same place, or whole fan triangles go missing or count twice
        fov = FovParams(math.radians(theta_deg), 50.0)
        a = CameraPose2D(-9.475, 19.452, 2.843)
        for j in (1, 2, segments // 2):
            for eps in (1e-14, -1e-13, 1e-13, -1e-12, 1e-12, -1e-9, 1e-9):
                b = CameraPose2D(a.t0, a.t1, a.alpha + j * fov.theta / segments + eps)
                got = fov_overlap(a, b, fov, segments)
                assert abs(got - _reference_fov_overlap(a, b, fov, segments)) <= 1e-12, (j, eps)

    @pytest.mark.parametrize("segments, eps", [
        pytest.param(n, eps, marks=_SLIVER_TWICE if (n, eps) in _SLIVER_TWICE_CASES else ())
        for n in (256, 1024) for eps in (1e-14, -1e-13, 1e-13, -1e-12, 1e-12, -1e-9, 1e-9)])
    @pytest.mark.skipif(not np.finfo(np.longdouble).eps < np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_narrow_shared_apex_against_extended_precision(self, segments, eps):
        # at theta = 10 deg the frozen reference's float64 clipping is off by up to ~1e-12, more
        # than the kernel's own error: the same clipper in long double is the oracle here
        fov = FovParams(math.radians(10.0), 50.0)
        a = CameraPose2D(-9.475, 19.452, 2.843)
        for j in (1, segments // 2):
            b = CameraPose2D(a.t0, a.t1, a.alpha + j * fov.theta / segments + eps)
            got = fov_overlap(a, b, fov, segments)
            assert abs(got - _reference_fov_overlap(a, b, fov, segments, np.longdouble)) <= 1e-13, j

    def test_shared_apex_rotated_by_whole_segments(self):
        # the overlap is exactly (n - j) / n fan triangles of the discretized sector
        a = CameraPose2D(4.0, -7.0, 0.3)
        for n in (2, 7, 64):
            for j in range(1, n + 1):
                b = CameraPose2D(4.0, -7.0, 0.3 + j * FOV90_50.theta / n)
                assert fov_overlap(a, b, FOV90_50, n) == pytest.approx((n - j) / n, abs=1e-12)

    @pytest.mark.parametrize("segments", range(2, WINDOWED_LOW))
    def test_windows_equal_every_chord_where_they_could_hold_them_all(self, segments, monkeypatch):
        """Up to ``_CLIP_ALL_MAX_SEGMENTS`` segments, where it is no slower, the kernel clips each edge against
        every chord and skips the triage, the disk and the windows. Forced through them, the same pairs give
        the same bits at every segment count up to there."""
        rng = np.random.default_rng(40 + segments)
        cases = [(a, b, fov) for a, b, fov, n in _degenerate_sweep() if n == segments]
        for theta_deg in (10.0, 45.0, 90.0, 120.0, 180.0):
            fov = FovParams(math.radians(theta_deg), 50.0)
            for _ in range(30):
                a = random_pose(rng)
                near = CameraPose2D(a.t0 + float(rng.normal(0.0, 5.0)), a.t1 + float(rng.normal(0.0, 5.0)),
                                    a.alpha + float(rng.normal(0.0, 0.3)))
                shared_apex = CameraPose2D(a.t0, a.t1, a.alpha + float(rng.uniform(-fov.theta, fov.theta)))
                cases += [(a, random_pose(rng), fov), (a, near, fov), (a, shared_apex, fov)]
        every_chord = [fov_overlap(a, b, fov, segments) for a, b, fov in cases]
        windowed_calls = []
        windows = fov2d._disk_and_windows
        monkeypatch.setattr(fov2d, "_CLIP_ALL_MAX_SEGMENTS", 1)
        monkeypatch.setattr(fov2d, "_disk_and_windows", lambda *args: windowed_calls.append(1) or windows(*args))
        windowed = [fov_overlap(a, b, fov, segments) for a, b, fov in cases]
        assert _bits(windowed) == _bits(every_chord)
        assert len(windowed_calls) == sum(a != b for a, b, _ in cases)
        assert sum(0.0 < psi < 1.0 for psi in every_chord) >= 200


def _frozen_side(u, p, q):
    out = p[1] - q[1]
    out *= u[0]
    tmp = p[0] - q[0]
    tmp *= u[1]
    out -= tmp
    return out


def _frozen_disk_and_windows(start, edge, ee, apex, alpha, fov, n, tol):
    """The disk intervals and chord windows of ``_frozen_fov_overlap``, for every edge of both rows."""
    r, theta = fov.r, fov.theta
    w = start - apex[:, ::-1, None]
    we = (w * edge).sum(axis=0)
    r2 = (r + tol) ** 2
    disc = we * we - ee * ((w * w).sum(axis=0) - r2)
    h = r * math.cos(theta / (2 * n))
    root = np.sqrt(np.maximum(np.stack((disc, disc + ee * (r2 - h * h))), 0.0))
    ends = (root[[0, 1, 1, 0]] * np.array([-1.0, -1.0, 1.0, 1.0])[:, None, None] - we) / ee
    pts = w[:, None] + ends * edge[:, None]
    behind = np.arctan2(pts[0], pts[1]) - (np.array(alpha) - math.pi)[:, None]
    behind -= TWO_PI * np.floor(behind / TWO_PI)
    cell = (math.pi + theta / 2 - behind) * (n / theta)
    k = np.floor(np.minimum(cell[0::2], cell[1::2]))
    rows = np.array([[0], [n + 2]])
    idx = np.empty((10, 2, n + 2), dtype=np.intp)
    idx[:8] = np.minimum(np.maximum(k + np.arange(4)[:, None, None, None], 1), n).reshape(8, 2, n + 2) + rows
    idx[8], idx[9] = rows, rows + n + 1
    return np.maximum(ends[0], 0.0), np.minimum(ends[3], 1.0), idx


def _frozen_fov_overlap(a, b, fov, arc_segments=256):
    """``fov_overlap`` as it stood before it culled the edges that miss the other sector's disk: every
    edge of both sectors is clipped, in two rows (A's edges against B, B's against A). Frozen here as
    the bit-for-bit reference of the culled kernel."""
    if a == b:
        return 1.0
    p, q = (a, b) if (a.t0, a.t1, a.alpha) <= (b.t0, b.t1, b.alpha) else (b, a)
    n, r, theta = arc_segments, fov.r, fov.theta
    cx, cy = q.t0 - p.t0, q.t1 - p.t1
    tol = 16 * math.ulp(1.0) * (1.0 + abs(cx) + abs(cy) + r)
    apex = np.array([[0.0, cx], [0.0, cy]])
    ring = np.empty((2, 2, n + 3))
    ring[..., 0] = ring[..., -1] = apex
    ring[:, :, 1:-1] = r * np.stack(_arc_directions(np.array([[p.alpha], [q.alpha]]), fov, n)) + apex[..., None]
    tips = np.stack((ring[..., :-1], ring[..., 1:]), axis=1)
    start = tips[:, 0]
    edge = tips[:, 1] - start
    ee = (edge * edge).sum(axis=0)
    cross = start[0] * tips[1, 1] - start[1] * tips[0, 1]
    length = np.full(n + 2, 2.0 * r * math.sin(theta / (2 * n)))
    length[[0, -1]] = r
    other = np.concatenate((tips[:, :, ::-1].swapaxes(0, 1).reshape(4, 2, n + 2), length[None, None].repeat(2, 1)))
    if n <= 8:
        lo, hi = 0.0, 1.0
        other = other.transpose(0, 2, 1)[..., None]
    else:
        lo, hi, idx = _frozen_disk_and_windows(start, edge, ee, apex, (q.alpha, p.alpha), fov, n, tol)
        other = np.take(other.reshape(5, -1), idx, axis=1)
    line_tips = other[:4].reshape(2, 2, *other.shape[1:]).swapaxes(0, 1)
    line_dir = line_tips[:, 1] - line_tips[:, 0]
    same_way = edge[0] * line_dir[0] + edge[1] * line_dir[1] > 0.0
    s = _frozen_side(line_dir, tips[:, :, None], line_tips[:, :1])
    o = _frozen_side(edge, line_tips, start[:, None, None])
    for a_ends, scale in ((s[:, :, 0], other[4, :, 0]), (o[:, :, 1], length)):
        a_ends[np.abs(a_ends) <= tol * scale] = 0.0
    collinear = (np.abs(s).max(axis=0) <= tol * other[4]) | (np.abs(o).max(axis=0) <= tol * length)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_a = o[0, :, 1] / (o[0, :, 1] - o[1, :, 1])
        shared = (((line_tips[0, 0, :, 1] - start[0, 1]) + t_a * line_dir[0, :, 1]) * edge[0, 1]
                  + ((line_tips[1, 0, :, 1] - start[1, 1]) + t_a * line_dir[1, :, 1]) * edge[1, 1]) / ee[1]
        t = s[0] / (s[0] - s[1])
    meet = (s[0, :, 1] * s[1, :, 1] < 0.0) & (o[0, :, 1] * o[1, :, 1] <= 0.0) & ~collinear[:, 1]
    t[:, 1] = np.where(meet, shared, t[:, 1])
    t[collinear] = np.nan
    entering = s[1] > s[0]
    lo = np.fmax(lo, np.fmax.reduce(np.where(entering, t, -np.inf), axis=0))
    hi = np.fmin(hi, np.fmin.reduce(np.where(entering, np.inf, t), axis=0))
    keep = np.maximum(hi - lo, 0.0)
    keep[(collinear & (np.array([[False], [True]]) | ~same_way)).any(axis=0)] = 0.0
    area = 0.5 * float(np.vdot(cross, keep))
    if area < _EMPTY_AREA:
        return 0.0
    ratio = area / (0.5 * float(np.min(cross.sum(axis=1))))
    return min(max(ratio, 0.0), 1.0)


def _bit_sweep(theta_deg, segments):
    """Seeded pairs of every layout the cull could get wrong: random, near (within 5 m), shared apex,
    turned by whole segments and a hair, centers 2r apart (facing each other, and back to back), and
    arcs that overlap by a hair."""
    fov = FovParams(math.radians(theta_deg), 50.0)
    rng = np.random.default_rng(10_000 * int(theta_deg) + segments)
    cases = []
    for _ in range(12):
        a = random_pose(rng)
        near = CameraPose2D(a.t0 + float(rng.uniform(-5.0, 5.0)), a.t1 + float(rng.uniform(-5.0, 5.0)),
                            a.alpha + float(rng.normal(0.0, 0.5)))
        shared_apex = CameraPose2D(a.t0, a.t1, a.alpha + float(rng.uniform(-fov.theta, fov.theta)))
        cases += [(a, random_pose(rng)), (a, near), (a, shared_apex)]
    a = random_pose(rng)
    for j in (1, 2, segments // 2):
        for eps in (-1e-9, -1e-11, -1e-13, 1e-13, 1e-11, 1e-9):
            cases.append((a, CameraPose2D(a.t0, a.t1, a.alpha + j * fov.theta / segments + eps)))
    for ang in (a.alpha, a.alpha + 0.3):
        far = (a.t0 + 2 * fov.r * math.sin(ang), a.t1 + 2 * fov.r * math.cos(ang))
        cases += [(a, CameraPose2D(*far, ang + math.pi)),  # facing each other
                  (CameraPose2D(a.t0, a.t1, ang + math.pi), CameraPose2D(*far, ang))]  # back to back
    for gap in (1e-3, 1e-2, 0.1, 0.5, 2.0):  # facing each other, arcs overlapping by a hair: edges barely reach the disk
        ang = a.alpha + float(rng.uniform(-0.5, 0.5)) * fov.theta
        d = 2 * fov.r - gap
        cases.append((a, CameraPose2D(a.t0 + d * math.sin(ang), a.t1 + d * math.cos(ang),
                                      ang + math.pi + float(rng.uniform(-0.5, 0.5)) * fov.theta)))
    return fov, cases


class TestCulledKernelBits:
    """The kernel clips only the edges that reach the other sector's disk: the same psi, bit for bit,
    as the frozen kernel that clips every edge."""

    def test_degenerate_layouts(self):
        cases = _degenerate_sweep()
        assert _bits([fov_overlap(a, b, fov, n) for a, b, fov, n in cases]) == \
            _bits([_frozen_fov_overlap(a, b, fov, n) for a, b, fov, n in cases])

    @pytest.mark.parametrize("segments", [9, 16, WINDOWED_LOW, 64, 256, 1024])
    @pytest.mark.parametrize("theta_deg", [10.0, 37.0, 90.0, 120.0, 180.0])
    def test_seeded_sweep(self, theta_deg, segments):
        fov, cases = _bit_sweep(theta_deg, segments)
        got = [fov_overlap(a, b, fov, segments) for a, b in cases]
        assert _bits(got) == _bits([_frozen_fov_overlap(a, b, fov, segments) for a, b in cases])
        assert sum(0.0 < psi < 1.0 for psi in got) >= 10

    @staticmethod
    def _split(monkeypatch, a, b, fov, n):
        """psi of the pair, and per sector (A's, then B's) the edges that reach the other's disk, split three
        ways: interior (kept whole), outside (kept 0) and clipped. The edges that reach the disk are those
        the disk test keeps when ``_triage`` passes every edge on, which gives psi bit for bit as well."""
        seen = []
        triage, windows = fov2d._triage, fov2d._disk_and_windows
        monkeypatch.setattr(fov2d, "_triage", lambda *args: seen.append(triage(*args)) or seen[-1])
        monkeypatch.setattr(fov2d, "_disk_and_windows", lambda *args: seen.append(windows(*args)) or seen[-1])
        psi = fov_overlap(a, b, fov, n)
        (interior, cand, _), (clipped, *_) = seen
        monkeypatch.setattr(fov2d, "_triage", lambda ring, fov, n, *args: (
            np.zeros((2, n + 2), dtype=bool), np.arange(2 * (n + 2)), n + 2))
        seen.clear()
        assert _bits(fov_overlap(a, b, fov, n)) == _bits(psi)
        (reach, *_), = seen
        interior = interior.ravel().nonzero()[0]
        outside = np.setdiff1d(reach, np.union1d(interior, cand))
        assert np.array_equal(np.sort(np.concatenate((interior, outside, clipped))), reach)  # disjoint, and all of it
        per_sector = [[np.count_nonzero((e >= lo) & (e < lo + n + 2)) for e in (reach, interior, outside, clipped)]
                      for lo in (0, n + 2)]
        return psi, per_sector

    @pytest.mark.parametrize("segments", [WINDOWED_LOW, 256])
    def test_a_sector_with_no_live_edge(self, segments, monkeypatch):
        # B looks away from A with its apex 1.8 r off: A's arc reaches B's disk, behind B, so those edges are
        # outside; B reaches nowhere near A's
        a, b = CameraPose2D(0.0, 0.0, 0.5 * math.pi), CameraPose2D(90.0, 0.0, 0.5 * math.pi)
        psi, (split_a, split_b) = self._split(monkeypatch, a, b, FOV90_50, segments)
        reach_a, interior_a, outside_a, clipped_a = split_a
        assert reach_a > 0 and reach_a == interior_a + outside_a + clipped_a == outside_a
        assert split_b == [0, 0, 0, 0]
        assert _bits(psi) == _bits(_frozen_fov_overlap(a, b, FOV90_50, segments)) == _bits(0.0)

    @pytest.mark.parametrize("segments", [WINDOWED_LOW, 256])
    def test_every_edge_live(self, segments, monkeypatch):
        # a shared apex: every edge of each sector lies within r of the other's apex. The arcs lie on one
        # circle, beyond every chord of the other's, so no edge is interior: those outside the other's wedge
        # are outside, and the radial edges and the arc where the wedges overlap are clipped
        a, b = CameraPose2D(3.0, -4.0, 0.2), CameraPose2D(3.0, -4.0, 0.9)
        psi, splits = self._split(monkeypatch, a, b, FOV90_50, segments)
        for reach, interior, outside, clipped in splits:
            assert reach == interior + outside + clipped == segments + 2
            assert interior == 0 and outside > 0 and clipped > 2
        assert 0.0 < psi < 1.0 and _bits(psi) == _bits(_frozen_fov_overlap(a, b, FOV90_50, segments))

    def test_interior_edges_keep_themselves_whole(self, monkeypatch):
        # A's apex 10 m behind B's, with the same heading: most of A's arc lies inside B, within its inscribed
        # radius, and the rest beyond a radial line of B's; of B only the radial edges reach A's disk
        a, b = CameraPose2D(0.0, -10.0, 0.0), CameraPose2D(0.0, 0.0, 0.0)
        psi, (split_a, split_b) = self._split(monkeypatch, a, b, FOV90_50, 256)
        reach_a, interior_a, outside_a, clipped_a = split_a
        assert reach_a == 258 and interior_a > 200 and outside_a > 40 and clipped_a == 2
        assert split_b == [2, 0, 0, 2]
        assert _bits(psi) == _bits(_frozen_fov_overlap(a, b, FOV90_50, 256))

    @pytest.mark.parametrize("segments", [9, WINDOWED_LOW, 256, 1024, 4096])
    def test_where_the_margin_decides(self, segments):
        """Vertices on either side of the margin m = 1e-9 (1 + |c| + r): A's chord on B's radial line, off it
        by a fraction of tol, by a few tol, by m / 2, by m give or take a millionth of it, and by 2 m; a vertex
        of A at h - m from B's apex, give or take a few ulp; shared apexes; a third of the pairs 1e6 m from the
        origin; a sector so small and narrow that no edge is taken as interior."""
        cases = []
        for theta_deg in (10.0, 90.0, 180.0):
            fov = FovParams(math.radians(theta_deg), 50.0)
            for k in (0, segments // 2, segments - 1):
                for same_way in (True, False):
                    cases += _chord_on_radial_line(fov, segments, k, same_way)
            cases += _vertex_at_inscribed_radius(fov, segments)
            a = CameraPose2D(-9.475, 19.452, 2.843)
            for rot in (fov.theta, fov.theta + 1e-9, fov.theta - 1e-9, fov.theta / segments, math.pi):
                cases.append((a, CameraPose2D(a.t0, a.t1, a.alpha + rot), fov))
        cases += [(CameraPose2D(a.t0 + 1e6, a.t1 - 1e6, a.alpha), CameraPose2D(b.t0 + 1e6, b.t1 - 1e6, b.alpha), fov)
                  for a, b, fov in cases[::3]]
        # a 10-micron sector 0.03 deg wide: at 4,096 segments its chord is too short for the interior test
        cases += _chord_on_radial_line(FovParams(5e-4, 1e-5), segments, segments // 2, True)
        got = [fov_overlap(a, b, fov, segments) for a, b, fov in cases]
        assert _bits(got) == _bits([_frozen_fov_overlap(a, b, fov, segments) for a, b, fov in cases])
        assert sum(0.0 < psi < 1.0 for psi in got) >= 50

    def test_clip_axis_per_pair_at_256_segments(self, monkeypatch):
        """The work bound: on 400 seeded pairs whose sectors overlap, at most 16 edges a pair, and 6 on average,
        reach the clip axis (measured: at most 9, and 4.45 on average). Before the triage, 293.5 a pair did on
        average, and all 516 edges of both sectors on a pair with a shared apex."""
        clipped = []
        windows = fov2d._disk_and_windows
        monkeypatch.setattr(fov2d, "_disk_and_windows", lambda *args: clipped.append(windows(*args)) or clipped[-1])
        rng = np.random.default_rng(256)
        counts = []
        while len(counts) < 400:
            a, b = random_pose(rng), random_pose(rng)
            clipped.clear()
            if 0.0 < fov_overlap(a, b, FOV90_50, 256) < 1.0:
                (live, *_), = clipped
                counts.append(len(live))
        assert max(counts) <= 16 and np.mean(counts) <= 6.0, (max(counts), np.mean(counts))


def _chord_on_radial_line(fov, n, k, same_way):
    """Pairs whose A's chord k (between arc vertices k and k + 1) lies along B's first radial line, running
    its way or against it, displaced toward B's inside by eps (outside when negative): a fraction of tol, a
    few tol, and m and around it. B's apex lies on the line r / 4 from the chord's nearer end, so both
    chord ends lie within h - m of it."""
    a = CameraPose2D(0.0, 0.0, 0.3)
    east, north = _arc_directions(a.alpha, fov, n)
    v0, v1 = fov.r * np.array([east[k], north[k]]), fov.r * np.array([east[k + 1], north[k + 1]])
    tau = (v1 - v0) / math.hypot(*(v1 - v0))
    u = tau if same_way else -tau  # B's first radial direction, compass angle alpha_b + theta / 2
    base = v0 - 0.25 * fov.r * tau if same_way else v1 + 0.25 * fov.r * tau
    alpha_b = math.atan2(u[0], u[1]) - fov.theta / 2
    left = np.array([-u[1], u[0]])  # toward B's inside
    scale = 1.0 + abs(base[0]) + abs(base[1]) + fov.r
    tol, m = 16 * math.ulp(1.0) * scale, 1e-9 * scale
    cases = []
    for eps in (tol / 3, 3 * tol, m / 2, m * (1 - 1e-6), m * (1 + 1e-6), 2 * m):
        for signed in (eps, -eps):
            apex = base - signed * left
            cases.append((a, CameraPose2D(float(apex[0]), float(apex[1]), alpha_b), fov))
    return cases


def _vertex_at_inscribed_radius(fov, n):
    """Pairs whose A's arc vertex n // 2 lies on B's heading, h - m from B's apex give or take a few ulp."""
    a = CameraPose2D(0.0, 0.0, 1.1)
    east, north = _arc_directions(a.alpha, fov, n)
    vertex = fov.r * np.array([east[n // 2], north[n // 2]])
    h = fov.r * math.cos(fov.theta / (2 * n))
    cases = []
    for heading in (a.alpha + math.pi, a.alpha + 2.0):
        direction = np.array([math.sin(heading), math.cos(heading)])
        apex = vertex - h * direction
        m = 1e-9 * (1.0 + abs(apex[0]) + abs(apex[1]) + fov.r)
        for ulps in (-4, -1, 0, 1, 4):
            apex = vertex - (h - m + ulps * math.ulp(h)) * direction
            cases.append((a, CameraPose2D(float(apex[0]), float(apex[1]), heading), fov))
    return cases


class TestFovOverlapMc:
    def test_identical_poses_exact_one(self):
        p = CameraPose2D(1.0, 2.0, 0.3)
        est, stderr = fov_overlap_mc(p, p, FOV90_50, samples=20_000, seed=0)
        assert est == 1.0
        assert stderr == 0.0

    def test_disjoint_sectors_zero(self):
        a = CameraPose2D(0, 0, 0)
        b = CameraPose2D(400.0, 0, 0)
        est, _ = fov_overlap_mc(a, b, FOV90_50, samples=20_000, seed=1)
        assert est == 0.0

    def test_rotation_anchor_within_three_stderr(self):
        a, b = reference_pair(0.0, math.radians(40.0))
        est, stderr = fov_overlap_mc(a, b, FOV90_50, samples=10**6, seed=3)
        assert abs(est - 0.5563) <= 3.0 * stderr + 0.002

    def test_deterministic_for_seed(self):
        a, b = reference_pair(10.0, math.radians(20.0))
        one = fov_overlap_mc(a, b, FOV90_50, samples=50_000, seed=12)
        two = fov_overlap_mc(a, b, FOV90_50, samples=50_000, seed=12)
        assert one == two

    def test_no_sample_in_the_first_sector_is_zero_without_error(self):
        """A sector of 1e-9 rad covers ~1e-6 m^2 of a 500 m x 100 m box: no sample lands in it."""
        est = fov_overlap_mc(CameraPose2D(0, 0, 0), CameraPose2D(400.0, 0, 0), FovParams(1e-9, 50.0), samples=1000)
        assert est == (0.0, 0.0)

    def test_rejects_tiny_sample_counts(self):
        a, b = reference_pair(10.0, 0.0)
        with pytest.raises(ValueError):
            fov_overlap_mc(a, b, FOV90_50, samples=10, seed=0)


class TestCalibrateTheta:
    def test_rotation_case(self):
        theta = calibrate_theta(0.5, 0.0, math.radians(40.0), 50.0)
        assert math.degrees(theta) == pytest.approx(80.0, abs=1.0)

    def test_translation_case(self):
        theta = calibrate_theta(0.5, 25.0, 0.0, 50.0)
        assert math.degrees(theta) == pytest.approx(102.0, abs=1.0)

    def test_solution_hits_target(self):
        theta = calibrate_theta(0.5, 25.0, 0.0, 50.0)
        a, b = reference_pair(25.0, 0.0)
        psi = fov_overlap(a, b, FovParams(theta, 50.0))
        assert abs(psi - 0.5) <= 1e-3

    def test_degenerate_target_returns_bracket_midpoint(self):
        theta = calibrate_theta(1.0, 0.0, 0.0, 50.0)
        assert 0.0 < theta <= math.pi

    def test_unreachable_target_errors(self):
        with pytest.raises(ValueError, match="bracket"):
            calibrate_theta(0.9, 120.0, 0.0, 50.0)


class TestWrappedAngleDiff:
    def test_wraps_the_short_way(self):
        assert wrapped_angle_diff(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2)
        assert wrapped_angle_diff(0.0, math.pi) == pytest.approx(math.pi)
        assert wrapped_angle_diff(1.0, 1.0) == 0.0

    def test_arrays_equal_the_scalar_rule_element_by_element(self):
        def scalar(a, b):  # the former float-only rule
            d = abs(a - b) % (2.0 * math.pi)
            return min(d, 2.0 * math.pi - d)

        two_pi = 2.0 * math.pi
        edges = [0.0, -0.0, math.pi, -math.pi, two_pi, -two_pi, 2 * two_pi, -3 * two_pi, 5e-324, -5e-324,
                 np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0), np.nextafter(two_pi, 0.0),
                 np.nextafter(two_pi, 7.0), 1e-14, -1e-14, 1e300]
        rng = np.random.default_rng(41)
        a = np.concatenate([np.repeat(edges, len(edges)), rng.uniform(-20.0, 20.0, 2_000)])
        b = np.concatenate([np.tile(edges, len(edges)), rng.uniform(-20.0, 20.0, 2_000)])
        got = wrapped_angle_diff(a, b)
        want = np.array([scalar(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert (a - b < 0).any() and got.shape == a.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert [wrapped_angle_diff(x, y) for x, y in zip(a.tolist(), b.tolist())] == want.tolist()
        assert type(wrapped_angle_diff(1.0, 2.0)) is float


class TestPlanarDistance:
    def test_bitwise_equal_to_the_relabel_formula(self):
        """The former relabel distance, ``d = a[:, :2] - b[:, :2]; sqrt(d0*d0 + d1*d1)``, and its scalar
        form, element by element; headings play no part."""
        rng = np.random.default_rng(43)
        scales = np.repeat([1e-300, 1e-3, 1.0, 25.0, 1e3, 1e150], 500)[:, None]
        a = np.column_stack([rng.normal(size=(3_000, 2)) * scales, rng.uniform(-7.0, 7.0, 3_000)])
        b = np.column_stack([rng.normal(size=(3_000, 2)) * scales, rng.uniform(-7.0, 7.0, 3_000)])
        b[:100, :2] = a[:100, :2]  # zero distance
        d = a[:, :2] - b[:, :2]
        want = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        got = planar_distance(a, b)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        scalar = [math.sqrt((x0 - y0) * (x0 - y0) + (x1 - y1) * (x1 - y1))
                  for (x0, x1, _), (y0, y1, _) in zip(a.tolist(), b.tolist())]
        assert got.tolist() == scalar
        assert np.array_equal(planar_distance(b, a), got)  # a - b and b - a square alike
        grid = planar_distance(a[:40, None], b[None, :30])  # broadcast: every row of a against every row of b
        assert grid.shape == (40, 30) and np.array_equal(grid[7], planar_distance(a[7], b[:30]))


def _bits(x) -> list:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


class TestWrapHeading:
    """``wrap_heading``, the one heading rule: in [0, 2 pi), idempotent, one result for a float and an array."""

    @staticmethod
    def headings() -> np.ndarray:
        k = np.arange(-4.0, 5.0) * TWO_PI
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1e-300, -1e-300, 1e300, -1e300,
                 *k, *np.nextafter(k, math.inf), *np.nextafter(k, -math.inf), math.pi, -math.pi]
        rng = np.random.default_rng(47)
        sweep = [rng.uniform(-20.0, 20.0, 2_000), rng.normal(0.0, 1e-15, 500), rng.uniform(-1e6, 1e6, 500)]
        return np.concatenate([edges, *sweep])

    def test_in_range_and_idempotent_with_one_result_per_form(self):
        x = self.headings()
        got = wrap_heading(x)
        assert got is not x and ((got >= 0.0) & (got < TWO_PI)).all()
        assert _bits(wrap_heading(got)) == _bits(got)
        scalar = [wrap_heading(v) for v in x.tolist()]
        assert all(type(w) is float for w in scalar) and _bits(scalar) == _bits(got)
        assert _bits(got) == _bits(np.abs(got))  # never -0.0

    def test_equals_the_remainder_below_two_pi_and_zero_at_it(self):
        x = self.headings()
        rem = x % TWO_PI
        below = rem < TWO_PI
        assert (~below).any()  # tiny negative headings, whose remainder rounds up to 2 pi
        assert _bits(wrap_heading(x)[below]) == _bits(rem[below])
        assert (wrap_heading(x[~below]) == 0.0).all()
        assert wrap_heading(-1e-17) == 0.0 and -1e-17 % TWO_PI == TWO_PI

    def test_a_pose_rebuilt_from_its_fields_is_the_same_pose(self):
        for alpha in self.headings().tolist():
            p = CameraPose2D(1.5, -2.0, alpha)
            again = CameraPose2D(p.t0, p.t1, p.alpha)
            assert again == p and _bits(again.alpha) == _bits(p.alpha) == _bits(wrap_heading(alpha))
        assert CameraPose2D(0.0, 0.0, -1e-17).alpha == 0.0
