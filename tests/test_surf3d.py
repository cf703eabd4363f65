"""Pinhole projection and visible-surface overlap tests."""

import math

import numpy as np
import pytest

from gvpr.surf3d import (
    Intrinsics,
    PointCloud,
    Pose6DOF,
    UndefinedOverlapError,
    VisibleSet,
    iou_matrix,
    load_intrinsics,
    load_point_cloud,
    load_poses_6dof,
    project_points,
    surface_overlap,
)

IDENTITY = np.eye(3)
CENTERED = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


def camera_at(x, y=0.0, z=0.0):
    """Identity-orientation camera whose center sits at (x, y, z)."""
    return Pose6DOF(IDENTITY, np.array([-x, -y, -z]))


def toy_scene():
    """Three cameras over four points with exactly representable windows.

    fx=2, cx=0.5, width=1 makes the horizontal window x_cam in
    [-0.25, 0.25); camera centers and points are dyadic so every boundary
    comparison is exact. Visible sets: A={0,1}, B={1,2}, C={3}.
    """
    cloud = PointCloud(np.array([
        [0.0, 0.0, 1.0],
        [0.25, 0.0, 1.0],
        [0.5, 0.0, 1.0],
        [0.75, 0.0, 1.0],
    ]))
    intr = Intrinsics(fx=2.0, fy=2.0, cx=0.5, cy=0.5, width=1, height=1)
    cams = {
        "camA": camera_at(0.125),
        "camB": camera_at(0.5),
        "camC": camera_at(0.875),
    }
    return cloud, intr, cams


class TestTypes:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose6DOF(np.eye(3) * 2.0, np.zeros(3))

    def test_rotation_must_not_reflect(self):
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Pose6DOF(flip, np.zeros(3))

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
        with pytest.raises(ValueError):
            Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=10)

    def test_cloud_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_visible_set_strictly_increasing(self):
        VisibleSet("a", (0, 2, 5))
        with pytest.raises(ValueError):
            VisibleSet("a", (0, 2, 2))
        with pytest.raises(ValueError):
            VisibleSet("a", (-1, 2))


class TestProjectPoints:
    def test_principal_axis_point_included(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 1.0]]))
        vis = project_points(cloud, Pose6DOF(IDENTITY, np.zeros(3)), CENTERED)
        assert vis.indices == (0,)

    def test_point_behind_camera_excluded(self):
        cloud = PointCloud(np.array([[0.0, 0.0, -1.0]]))
        vis = project_points(cloud, Pose6DOF(IDENTITY, np.zeros(3)), CENTERED)
        assert vis.indices == ()

    def test_point_on_right_edge_excluded(self):
        # u = fx*x/z + cx = width exactly: the half-open bound drops it
        cloud = PointCloud(np.array([[0.5, 0.0, 1.0]]))
        vis = project_points(cloud, Pose6DOF(IDENTITY, np.zeros(3)), CENTERED)
        assert vis.indices == ()
        # left edge u = 0 stays in
        cloud = PointCloud(np.array([[-0.5, 0.0, 1.0]]))
        vis = project_points(cloud, Pose6DOF(IDENTITY, np.zeros(3)), CENTERED)
        assert vis.indices == (0,)

    def test_point_at_optical_center_excluded(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        vis = project_points(cloud, Pose6DOF(IDENTITY, np.zeros(3)), CENTERED)
        assert vis.indices == ()

    def test_set_semantics_under_point_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2.0, 2.0, size=(40, 3)) + np.array([0.0, 0.0, 3.0])
        cloud = PointCloud(pts)
        perm = rng.permutation(40)
        shuffled = PointCloud(pts[perm])
        pose = Pose6DOF(IDENTITY, np.zeros(3))
        vis_a = project_points(cloud, pose, CENTERED)
        vis_b = project_points(shuffled, pose, CENTERED)
        seen_a = {tuple(pts[i]) for i in vis_a.indices}
        seen_b = {tuple(pts[perm][i]) for i in vis_b.indices}
        assert seen_a == seen_b

    def test_rigid_consistency(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(60, 3)) + np.array([0.0, 0.0, 4.0])
        pose = Pose6DOF(IDENTITY, np.array([0.2, -0.1, 0.0]))
        # world-frame rigid motion: rotate about z by 0.8 rad, then shift
        c, s = math.cos(0.8), math.sin(0.8)
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        shift = np.array([5.0, -3.0, 2.0])
        moved_cloud = PointCloud(pts @ q.T + shift)
        moved_pose = Pose6DOF(pose.rotation @ q.T,
                              pose.translation - pose.rotation @ q.T @ shift)
        before = project_points(PointCloud(pts), pose, CENTERED)
        after = project_points(moved_cloud, moved_pose, CENTERED)
        assert before.indices == after.indices


class TestSurfaceOverlap:
    def test_equal_nonempty_sets(self):
        a = VisibleSet("a", (1, 4, 9))
        b = VisibleSet("b", (1, 4, 9))
        assert surface_overlap(a, b) == 1.0

    def test_one_shared_of_two_and_two(self):
        a = VisibleSet("a", (0, 1))
        b = VisibleSet("b", (1, 2))
        assert surface_overlap(a, b) == 1.0 / 3.0

    def test_disjoint_nonempty(self):
        assert surface_overlap(VisibleSet("a", (0,)), VisibleSet("b", (1,))) == 0.0

    def test_both_empty_is_an_error(self):
        with pytest.raises(UndefinedOverlapError):
            surface_overlap(VisibleSet("a", ()), VisibleSet("b", ()))

    def test_one_empty_is_zero(self):
        assert surface_overlap(VisibleSet("a", ()), VisibleSet("b", (3,))) == 0.0

    def test_symmetric(self):
        a = VisibleSet("a", (0, 1, 2, 5))
        b = VisibleSet("b", (2, 5, 7))
        assert surface_overlap(a, b) == surface_overlap(b, a)


class TestIouMatrix:
    def test_equals_surface_overlap_on_random_masks(self):
        rng = np.random.default_rng(21)
        masks = rng.random((9, 300)) < rng.uniform(0.0, 0.6, size=(9, 1))
        masks[[2, 5]] = False  # two blind cameras: their pair is undefined
        sets = [VisibleSet(f"c{i}", np.flatnonzero(m)) for i, m in enumerate(masks)]
        iou = iou_matrix(masks)
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if not a.indices and not b.indices:
                    with pytest.raises(UndefinedOverlapError):
                        surface_overlap(a, b)
                    assert math.isnan(iou[i, j])
                else:
                    assert iou[i, j] == surface_overlap(a, b)
        assert np.isnan(iou).sum() == 4


class TestToyScene:
    def test_hand_enumerated_sets(self):
        cloud, intr, cams = toy_scene()
        vis = {name: project_points(cloud, pose, intr, image_id=name)
               for name, pose in cams.items()}
        assert vis["camA"].indices == (0, 1)
        assert vis["camB"].indices == (1, 2)
        assert vis["camC"].indices == (3,)

    def test_exact_rational_overlaps(self):
        cloud, intr, cams = toy_scene()
        vis = {name: project_points(cloud, pose, intr, image_id=name)
               for name, pose in cams.items()}
        assert surface_overlap(vis["camA"], vis["camB"]) == 1.0 / 3.0
        assert surface_overlap(vis["camA"], vis["camC"]) == 0.0
        assert surface_overlap(vis["camB"], vis["camC"]) == 0.0


class TestLoaders:
    def test_point_cloud_roundtrip(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 1\n0.5 -1 2\n\n3 4 5\n")
        cloud = load_point_cloud(path)
        assert len(cloud) == 3
        assert cloud.points[1][1] == -1.0

    def test_point_cloud_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 1\n1 2\n")
        with pytest.raises(ValueError, match=":2"):
            load_point_cloud(path)

    def test_pose_csv_roundtrip(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text(
            "id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2\n"
            "a,1,0,0,0,1,0,0,0,1,0.5,0,0\n"
        )
        poses = load_poses_6dof(path)
        assert poses[0][0] == "a"
        assert poses[0][1].translation[0] == 0.5

    def test_pose_csv_rejects_duplicates_and_bad_rotations(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text(
            "id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2\n"
            "a,1,0,0,0,1,0,0,0,1,0,0,0\n"
            "a,1,0,0,0,1,0,0,0,1,0,0,0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_poses_6dof(path)
        path.write_text(
            "id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2\n"
            "a,2,0,0,0,2,0,0,0,2,0,0,0\n"
        )
        with pytest.raises(ValueError, match=":2"):
            load_poses_6dof(path)

    def test_intrinsics_formats(self, tmp_path):
        path = tmp_path / "intr.cfg"
        path.write_text("fx = 100\nfy: 100\ncx 50\ncy 50  # center\nwidth 100\nheight 100\n")
        k = load_intrinsics(path)
        assert (k.fx, k.width) == (100.0, 100)

    def test_intrinsics_missing_and_unknown_fields(self, tmp_path):
        path = tmp_path / "intr.cfg"
        path.write_text("fx 1\nfy 1\ncx 0\ncy 0\nwidth 10\n")
        with pytest.raises(ValueError, match="missing"):
            load_intrinsics(path)
        path.write_text("fx 1\nfy 1\ncx 0\ncy 0\nwidth 10\nheight 10\nskew 3\n")
        with pytest.raises(ValueError, match="unknown"):
            load_intrinsics(path)
