"""Field-of-view sector geometry and overlap tests."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from gvpr import relabel
from gvpr.fov2d import (
    _EMPTY_AREA,
    CameraPose2D,
    FovParams,
    _arc_directions,
    calibrate_theta,
    check_arc_segments,
    fov_overlap,
    fov_overlap_mc,
    reference_pair,
    wrapped_angle_diff,
)
from gvpr.synth import SynthConfig, generate_world

FOV90_50 = FovParams(theta=math.radians(90.0), r=50.0)


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
    out = np.empty((int(counts.sum()), 2))
    pos = np.cumsum(counts) - counts
    out[pos[keep]] = pts[keep]
    out[pos[crossing] + keep[crossing]] = ipts[crossing]
    return out


def _reference_fov_overlap(a, b, fov, arc_segments=256):
    """The former fov_overlap: Sutherland-Hodgman clipping, one half-plane per sector edge."""
    if a == b:
        return 1.0
    p, q = (a, b) if (a.t0, a.t1, a.alpha) <= (b.t0, b.t1, b.alpha) else (b, a)
    pa, pb = sector_polygon(p, fov, arc_segments), sector_polygon(q, fov, arc_segments)
    va, vb = pa.vertices, pb.vertices
    if (np.max(va[:, 0]) < np.min(vb[:, 0]) or np.max(vb[:, 0]) < np.min(va[:, 0])
            or np.max(va[:, 1]) < np.min(vb[:, 1]) or np.max(vb[:, 1]) < np.min(va[:, 1])):
        return 0.0
    out = va
    for i in range(len(vb)):
        out = _reference_clip_halfplane(out, vb[i], vb[(i + 1) % len(vb)])
        if len(out) < 3:
            return 0.0
    x, y = out[:, 0], out[:, 1]
    area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    if area < 1e-12:
        return 0.0
    return min(max(area / min(polygon_area(pa), polygon_area(pb)), 0.0), 1.0)


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
        relabel.save_labels(tmp_path / "new.csv", labels)
        monkeypatch.setattr(relabel, "fov_overlap", _reference_fov_overlap)
        expected = relabel.pairwise_similarity(table, FOV90_50)
        relabel.save_labels(tmp_path / "reference.csv", expected)
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

    def test_shared_apex_rotated_by_whole_segments(self):
        # the overlap is exactly (n - j) / n fan triangles of the discretized sector
        a = CameraPose2D(4.0, -7.0, 0.3)
        for n in (2, 7, 64):
            for j in range(1, n + 1):
                b = CameraPose2D(4.0, -7.0, 0.3 + j * FOV90_50.theta / n)
                assert fov_overlap(a, b, FOV90_50, n) == pytest.approx((n - j) / n, abs=1e-12)


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
