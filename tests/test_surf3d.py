"""Pinhole projection and visible-surface overlap tests."""

import contextlib
import dataclasses
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gvpr import surf3d
from gvpr.io import LineError, file_reader, text_lines
from gvpr.surf3d import (
    Z_NEAR,
    Intrinsics,
    PointCloud,
    Pose6DOF,
    UndefinedOverlapError,
    VisibleSet,
    check_rigid,
    intersection_counts,
    iou_pairs,
    load_intrinsics,
    load_point_cloud,
    load_poses_6dof,
    project_points,
    surface_overlap,
    visible_mask,
)
from gvpr.cli import main
from perfbench import corridor

ROOT = Path(__file__).resolve().parent.parent
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

    @pytest.mark.parametrize("rotation, translation, message", [
        (np.eye(2), np.zeros(3), "rotation must be 3x3, got (2, 2)"),
        (np.eye(3), np.zeros((3, 1)), "translation must be a 3-vector, got (3, 1)"),
        (np.eye(3), [0.0, math.inf, 0.0], "pose entries must be finite"),
        (np.diag([1.0, math.nan, 1.0]), np.zeros(3), "pose entries must be finite"),
    ])
    def test_pose_shapes_and_values(self, rotation, translation, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Pose6DOF(rotation, translation)

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

    @pytest.mark.parametrize("fx", [100.0, 1e308])
    def test_overflow_lets_no_warning_escape(self, fx):
        # fx * x overflows to +-inf for a coordinate or a focal length near 1e308: the mask is the one
        # computed with every warning ignored, and no warning is raised
        k = dataclasses.replace(CENTERED, fx=fx, fy=fx)
        cloud = PointCloud(np.array([[1e308, 0.0, 1.0], [-1e308, 1e308, 2.0], [1.5e308, -1.5e308, 1e308],
                                     [0.0, 0.0, 1.0], [1e-3, -1e-3, 1e300], [1e-300, 0.0, 1.0]]))
        pose = Pose6DOF(IDENTITY, np.array([1e308, 0.0, 0.0]))
        for p in (Pose6DOF(IDENTITY, np.zeros(3)), pose):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with np.errstate(all="ignore"):
                    quiet = visible_mask(cloud, p, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(visible_mask(cloud, p, k), quiet)

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


class TestIouPairs:
    def test_equals_surface_overlap_on_random_masks(self):
        rng = np.random.default_rng(21)
        masks = rng.random((9, 300)) < rng.uniform(0.0, 0.6, size=(9, 1))
        masks[[2, 5]] = False  # two blind cameras: their pair is undefined
        sets = [VisibleSet(f"c{i}", np.flatnonzero(m)) for i, m in enumerate(masks)]
        i, j, iou = joined(iou_pairs(mask_counts(masks)))
        assert np.all(i < j) and np.all(np.diff(i * len(masks) + j) > 0)  # upper triangle, row-major
        got = dict(zip(zip(i.tolist(), j.tolist()), iou.tolist()))
        for a, b in itertools.combinations(range(len(sets)), 2):
            if not sets[a].indices and not sets[b].indices:
                with pytest.raises(UndefinedOverlapError):
                    surface_overlap(sets[a], sets[b])
                assert (a, b) not in got
            else:
                assert got[a, b] == surface_overlap(sets[a], sets[b])
        assert len(got) == 9 * 8 // 2 - 1

    @pytest.mark.parametrize("cameras", [0, 1])
    def test_fewer_than_two_cameras_have_no_pairs(self, cameras):
        assert list(iou_pairs(np.full((cameras, cameras), 10, dtype=np.int64))) == []

    def test_tiles_hold_their_rows_pairs(self, monkeypatch):
        """Each tile is one run of rows: its pairs' i lie in it, and the tiles keep row-major order."""
        monkeypatch.setattr("gvpr.surf3d._PAIR_CELLS", 3 * 10)
        masks = np.random.default_rng(4).random((10, 50)) < 0.3
        tiles = list(iou_pairs(mask_counts(masks)))
        assert [np.unique(i).tolist() for i, _, _ in tiles] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert all((i.dtype, j.dtype, iou.dtype) == (np.intp, np.intp, np.float64) for i, j, iou in tiles)


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
        assert poses.ids == ("a",)
        assert poses.translations[0, 0] == 0.5

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

    def test_pose_csv_checks_each_record_once(self, tmp_path, monkeypatch):
        """A file of three read blocks is checked a block at a time, and the joined table not again; a bad
        record in a later block still names its own line."""
        rng = np.random.default_rng(8)
        rotations = np.linalg.qr(rng.normal(size=(2_049, 3, 3)))[0]
        rotations[np.linalg.det(rotations) < 0] *= -1.0
        translations = rng.normal(size=(2_049, 3))
        rows = [f"c{k}," + ",".join(map(repr, [*r.ravel().tolist(), *t.tolist()]))
                for k, (r, t) in enumerate(zip(rotations, translations))]
        path = tmp_path / "poses6.csv"
        path.write_text("\n".join(["id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2", *rows]) + "\n")
        checked = []

        def counting(r, t):
            checked.append(len(r))
            return check_rigid(r, t)

        monkeypatch.setattr(surf3d, "check_rigid", counting)
        poses = load_poses_6dof(path)
        assert sum(checked) == 2_049
        assert poses.ids == tuple(f"c{k}" for k in range(2_049))
        assert np.array_equal(poses.rotations, rotations) and np.array_equal(poses.translations, translations)
        rows[1_500] = ",".join(["c1500", "2", *rows[1_500].split(",")[2:]])  # r00 = 2: not orthonormal
        path.write_text("\n".join(["id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2", *rows]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1502: rotation is not orthonormal$"):
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

    @pytest.mark.parametrize("text, message", [
        ("fx 1\nfy 1\nfx 2\n", "3: duplicate field 'fx'"),
        ("fx 1\nfy one\n", "2: non-numeric value for 'fy'"),
        ("\n# camera\n  # fitted\n\t\nfx 1\n\nfy one\n", "7: non-numeric value for 'fy'"),  # skipped lines count
    ])
    def test_intrinsics_line_errors(self, tmp_path, text, message):
        path = tmp_path / "intr.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_intrinsics(path)
        assert str(err.value) == f"{path}:{message}"


# Frozen references: the line-by-line parser, the broadcast projection and the
# per-row intersection counts and IoU matrix that load_point_cloud, visible_mask
# and iou_pairs replaced. The fast versions must match them bit for bit.
@file_reader
def _reference_load_point_cloud(path) -> PointCloud:
    rows = []
    for lineno, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise LineError(lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise LineError(lineno, "non-numeric coordinate") from None
    if not rows:
        raise ValueError("empty point cloud")
    return PointCloud(np.array(rows))


def _reference_visible_mask(cloud, pose, k):
    cam = cloud.points @ pose.rotation.T + pose.translation
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * cam[:, 0] / z + k.cx
        v = k.fy * cam[:, 1] / z + k.cy
    return (z > Z_NEAR) & (u >= 0.0) & (u < k.width) & (v >= 0.0) & (v < k.height)


def _reference_iou_matrix(masks):
    inter = np.stack([np.count_nonzero(masks & row, axis=1) for row in masks])
    sizes = np.diagonal(inter)
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, np.nan)


def _reference_pairs(masks) -> tuple:
    """The upper triangle of ``_reference_iou_matrix`` in row-major order, NaN pairs dropped."""
    iou = _reference_iou_matrix(masks)
    i, j = np.triu_indices(len(masks), k=1)
    defined = ~np.isnan(iou[i, j])
    return i[defined], j[defined], iou[i, j][defined]


def mask_counts(masks) -> np.ndarray:
    """Intersection counts of a (cameras, points) mask stack by one float64 product, exact below 2**53 points."""
    m = masks.astype(np.float64)
    return (m @ m.T).astype(np.int64)


def joined(tiles) -> tuple:
    """The (i, j, IoU) tiles of ``iou_pairs`` end to end."""
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    return tuple(np.concatenate(column) for column in zip(empty, *tiles))


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_pairs_equal(got, want):
    for column, expected in zip(got, want, strict=True):
        assert_bit_equal(column, expected)


def load_error(loader, path):
    with pytest.raises(ValueError) as err:
        loader(path)
    return str(err.value)


class TestMatchesReference:
    # 4,096-point blocks: 5,000 ends in a partial block, 13,001 spans four.
    @pytest.mark.parametrize("points, seed", [(5_000, 3), (13_001, 11), (9_999, 29)])
    def test_corridor_scenes(self, tmp_path, points, seed):
        scene = corridor.generate_scene(points, 12, seed)
        paths = corridor.write_scene(tmp_path, scene)
        cloud = load_point_cloud(paths["cloud"])
        assert_bit_equal(cloud.points, _reference_load_point_cloud(paths["cloud"]).points)
        assert_bit_equal(cloud.points, scene.points)
        k = load_intrinsics(paths["intrinsics"])
        masks = []
        for _, pose in load_poses_6dof(paths["poses"]):
            masks.append(visible_mask(cloud, pose, k))
            assert_bit_equal(masks[-1], _reference_visible_mask(cloud, pose, k))
        masks = np.stack(masks)
        assert 0 < masks.sum() < masks.size
        table = load_poses_6dof(paths["poses"])
        counts = intersection_counts(cloud, table.rotations, table.translations, k)
        assert_bit_equal(counts, mask_counts(masks))
        assert_pairs_equal(joined(iou_pairs(counts)), _reference_pairs(masks))

    def test_points_on_the_image_edges(self):
        # Points placed on the four image edges of each camera project to within a few ulps
        # of a bound, so a projection that rounds differently flips some of them.
        scene = corridor.generate_scene(10, 12, 7)
        cam = scene.camera
        k = Intrinsics(cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
        rng = np.random.default_rng(8)
        for rot, t in zip(scene.rotations, scene.translations):
            n = 4_000
            z = rng.uniform(0.5, 20.0, n)
            u = rng.uniform(0.0, cam.width, n)
            v = rng.uniform(0.0, cam.height, n)
            edge = rng.integers(0, 4, n)
            u = np.where(edge == 0, 0.0, np.where(edge == 1, cam.width, u))
            v = np.where(edge == 2, 0.0, np.where(edge == 3, cam.height, v))
            xyz = np.column_stack(((u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z))
            cloud = PointCloud((xyz - t) @ rot)
            pose = Pose6DOF(rot, t)
            want = _reference_visible_mask(cloud, pose, k)
            assert 0.05 < want.mean() < 0.95
            assert_bit_equal(visible_mask(cloud, pose, k), want)

    # tiles of one row, of three rows (a short last tile at 1, 4 and 40 cameras) and one tile for all rows
    @pytest.mark.parametrize("tile_rows", [1, 3, 100])
    @pytest.mark.parametrize("shape", [(9, 3 * 4096 + 7), (6, 4096), (1, 5_000), (1, 0), (4, 1), (40, 300)])
    def test_masks_with_empty_rows(self, monkeypatch, shape, tile_rows):
        monkeypatch.setattr("gvpr.surf3d._PAIR_CELLS", tile_rows * shape[0])
        rng = np.random.default_rng(shape[1])
        masks = rng.random(shape) < rng.uniform(0.0, 0.9, size=(shape[0], 1))
        masks[::3] = False  # blind cameras: pairs of them are NaN
        assert np.isnan(_reference_iou_matrix(masks)).any()
        assert_pairs_equal(joined(iou_pairs(mask_counts(masks))), _reference_pairs(masks))

    @pytest.mark.parametrize("content", [
        b"0 0 1\r\n0.5 -1 2\r\n3 4 5\r\n",
        b"0 0 1\r0.5 -1 2\r3 4 5\r",
        b"\n\n0 0 1\n\n   \n0.5 -1 2\n\n",
        b"0\t0\t1\n\t0.5 -1\t2 \n",
        b"0 0 1\n0.5 -1 2",
        b"0 0 1\r\n\r0.5 -1 2\n\r\n3\t4 5",
        b"1e-320 -0.0 1_0.25\n",
    ], ids=["crlf", "lone-cr", "blank-lines", "tabs", "no-final-newline", "mixed", "signed-zero-and-subnormal"])
    def test_cloud_file_layouts(self, tmp_path, content):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(content)
        assert_bit_equal(load_point_cloud(path).points, _reference_load_point_cloud(path).points)

    def test_mixed_endings_across_read_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        endings = [b"\n", b"\r\n", b"\r", b"\n\n", b"\r\n \t\r\n"]
        lines = [b"%r\t%r %r" % tuple(xyz) + endings[e]
                 for xyz, e in zip(rng.normal(size=(4_000, 3)).tolist(), rng.integers(0, 5, 4_000))]
        path = tmp_path / "cloud.xyz"
        path.write_bytes(b"".join(lines))
        cloud = load_point_cloud(path)
        assert len(cloud) == 4_000
        assert_bit_equal(cloud.points, _reference_load_point_cloud(path).points)

    @pytest.mark.parametrize("bad", ["1 2", "1 2 x"], ids=["two-tokens", "non-numeric"])
    @pytest.mark.parametrize("lineno", [1, 2_345, 4_999, 5_000])
    def test_bad_line_far_into_the_file(self, tmp_path, bad, lineno):
        rng = np.random.default_rng(lineno)
        lines = [f"{x!r} {y!r} {z!r}" for x, y, z in rng.normal(size=(5_000, 3)).tolist()]
        lines[lineno - 1] = bad
        path = tmp_path / "cloud.xyz"
        path.write_text("\n".join(lines) + "\n")
        message = load_error(load_point_cloud, path)
        reason = "expected 3 coordinates, got 2" if bad == "1 2" else "non-numeric coordinate"
        assert message == f"{path}:{lineno}: {reason}"
        assert message == load_error(_reference_load_point_cloud, path)

    def test_first_of_two_bad_lines_reported(self, tmp_path):
        lines = ["0 0 1"] * 3_000
        lines[1_500], lines[1_501] = "0 0 z", "1 2"
        path = tmp_path / "cloud.xyz"
        path.write_text("\n".join(lines))
        assert load_error(load_point_cloud, path) == f"{path}:1501: non-numeric coordinate"

    @pytest.mark.parametrize("content", [b"", b"\n\r\n  \n"], ids=["empty", "blank"])
    def test_empty_cloud(self, tmp_path, content):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(content)
        assert load_error(load_point_cloud, path) == f"{path}: empty point cloud"


def scene_inputs(scene):
    cam = scene.camera
    k = Intrinsics(cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height)
    return k, [Pose6DOF(rot, t) for rot, t in zip(scene.rotations, scene.translations)]


def pose_arrays(poses):
    """The (n, 3, 3) rotations and (n, 3) translations of Pose6DOFs, as a PoseTable6DOF holds them."""
    return np.array([pose.rotation for pose in poses]), np.array([pose.translation for pose in poses])


def mask_stack_counts(cloud, poses, k):
    masks = np.stack([visible_mask(cloud, pose, k) for pose in poses])
    return mask_counts(masks), masks


def near_bound_cloud(scene, per_camera, seed):
    """Points placed on each camera's four image edges and at depths within a few ulps of
    ``Z_NEAR``: their masks flip when a projection rounds differently."""
    cam = scene.camera
    rng = np.random.default_rng(seed)
    parts = []
    for rot, t in zip(scene.rotations, scene.translations):
        z = np.where(rng.random(per_camera) < 0.5, rng.uniform(0.5, 20.0, per_camera),
                     Z_NEAR + rng.integers(-8, 9, per_camera) * 1e-16)
        u = rng.uniform(0.0, cam.width, per_camera)
        v = rng.uniform(0.0, cam.height, per_camera)
        edge = rng.integers(0, 5, per_camera)  # 4: inside the image, depth decides
        u = np.where(edge == 0, 0.0, np.where(edge == 1, cam.width, u))
        v = np.where(edge == 2, 0.0, np.where(edge == 3, cam.height, v))
        xyz = np.column_stack(((u - cam.cx) * z / cam.fx, (v - cam.cy) * z / cam.fy, z))
        parts.append((xyz - t) @ rot)
    return PointCloud(np.concatenate(parts))


def facing_scene(cameras, points, seed):
    """``points`` in a 0.2 m cube at the origin and ``cameras`` on a 10 m circle around it, each facing it:
    every camera sees every point, so the cull keeps every camera for every bucket."""
    rng = np.random.default_rng(seed)
    yaws = 2 * math.pi * (np.arange(cameras) + rng.random(cameras)) / cameras
    rotations = np.stack([corridor.yaw_rotation(yaw + math.pi) for yaw in yaws])
    centres = 10 * np.column_stack([np.cos(yaws), np.sin(yaws), np.zeros(cameras)])
    translations = -np.einsum("kij,kj->ki", rotations, centres)
    ids = tuple(f"cam{i:04d}" for i in range(cameras))
    return corridor.Scene(rng.uniform(-0.1, 0.1, (points, 3)), ids, rotations, translations, corridor.Camera())


def assert_counts_of_the_mask_stack(cloud, scene):
    """``intersection_counts`` of a scene's cameras equals the per-camera mask stack's, exactly; the masks."""
    k, poses = scene_inputs(scene)
    want, masks = mask_stack_counts(cloud, poses, k)
    assert_bit_equal(intersection_counts(cloud, *pose_arrays(poses), k), want)
    return masks


def traced_peak(run):
    """The ``tracemalloc`` peak of ``run()``, and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def bucket_boxes(cloud):
    return [(cloud.points[rows].min(axis=0), cloud.points[rows].max(axis=0)) for rows in surf3d._buckets(cloud.points)]


def check_intersection_count_bits():
    """``intersection_counts`` against the per-camera mask stack's, exactly, on the corridor scenes, the
    near-bound points of ``TestIntersectionCounts`` and the cases that put the bucket cull at its limits;
    run under a given BLAS thread count by the tests."""
    cases = [(points, cameras, 100 * cameras + points % 97)
             for points in (4_095, 4_096, 4_097, 13_001) for cameras in (2, 12, 50, 300)]
    # 52 cameras: sub-blocks of 315 points; clouds of 1 and 2 points, and of one bucket less one, one
    # bucket and one bucket and a lone point
    cases += [(13_001, 52, 1), (1, 12, 2), (2, 12, 3), (511, 50, 4), (512, 50, 5), (513, 50, 6)]
    for points, cameras, seed in cases:
        scene = corridor.generate_scene(points, cameras, seed)
        masks = assert_counts_of_the_mask_stack(PointCloud(scene.points), scene)
        assert points < 3 or 0 < masks.sum() < masks.size
    # cameras stand inside buckets' boxes: each box spans the corridor's width and height
    scene = corridor.generate_scene(13_001, 50, 7)
    centres = np.einsum("kji,kj->ki", scene.rotations, -scene.translations)
    assert any(np.all((lo <= c) & (c <= hi)) for lo, hi in bucket_boxes(PointCloud(scene.points)) for c in centres)
    # planar clouds, whose boxes have no extent across the plane: one wall, and the floor
    for axis, value in ((1, 0.5 * corridor.CORRIDOR_WIDTH_M), (2, 0.0)):
        points = scene.points.copy()
        points[:, axis] = value
        masks = assert_counts_of_the_mask_stack(PointCloud(points), scene)
        assert 0 < masks.sum() < masks.size
    # every camera kept for every bucket; sub-blocks of 2**14 // 224 = 73 points, so every full bucket of
    # 512 = 7 * 73 + 1 points ends in a lone row, and the last bucket is a lone point
    scene = facing_scene(224, 1_537, 5)
    assert assert_counts_of_the_mask_stack(PointCloud(scene.points), scene).all()
    # a principal point left of, right of, above and below the image, with near-bound points for it
    for cx, cy in ((-200.0, 240.0), (900.0, 240.0), (320.0, -150.0), (320.0, 700.0)):
        scene = corridor.generate_scene(4_097, 50, 9)
        scene = dataclasses.replace(scene, camera=dataclasses.replace(scene.camera, cx=cx, cy=cy))
        cloud = PointCloud(np.concatenate([scene.points, near_bound_cloud(scene, 20, 10).points]))
        masks = assert_counts_of_the_mask_stack(cloud, scene)
        assert 0 < masks.sum() < masks.size
    scene = corridor.generate_scene(10, 12, 7)
    masks = assert_counts_of_the_mask_stack(near_bound_cloud(scene, 1_000, 8), scene)
    assert 0.05 < masks.mean() < 0.95
    # every point of a bucket at one spot, on an image edge or within ulps of Z_NEAR: each box is a point,
    # whose bounds sit at a rounding's distance from the frustum's
    spots = near_bound_cloud(scene, 10, 9).points
    cloud = PointCloud(np.repeat(spots, surf3d._BUCKET, axis=0))
    assert all(np.array_equal(lo, hi) for lo, hi in bucket_boxes(cloud))
    masks = assert_counts_of_the_mask_stack(cloud, scene)
    assert 0.05 < masks.mean() < 0.95
    # the whole cloud at one spot, which some cameras see: no longest axis
    seen = masks[:, ::surf3d._BUCKET]
    spot = spots[np.flatnonzero(seen.any(axis=0) & ~seen.all(axis=0))[0]]
    masks = assert_counts_of_the_mask_stack(PointCloud(np.repeat(spot[None], 1_000, axis=0)), scene)
    assert 0 < masks.sum() < masks.size


class TestIntersectionCounts:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_equals_the_mask_stack_under_blas_threads(self, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(str(p) for p in (ROOT / "src", ROOT, ROOT / "tests")))
        done = subprocess.run([sys.executable, "-c", "import test_surf3d; test_surf3d.check_intersection_count_bits()"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("step", [1, 2, 3, 315])
    @pytest.mark.parametrize("points", [1, 2, 4_097, 8_193])
    def test_sub_block_sizes(self, monkeypatch, step, points):
        # A bucket with c of the 12 cameras kept is projected step * 12 // c rows at a time, so the
        # sub-blocks vary from bucket to bucket and some end in a lone row; with every camera kept, a
        # step of 1 makes every row a lone one. 4,097 and 8,193 points end in a one-point bucket.
        scene = corridor.generate_scene(points, 12, step)
        k, poses = scene_inputs(scene)
        monkeypatch.setattr("gvpr.surf3d._PROJECT_CELLS", step * len(poses))
        near = near_bound_cloud(scene, 50, points).points
        for cloud in (PointCloud(scene.points), PointCloud(np.concatenate([scene.points, near])[-points:])):
            assert_bit_equal(intersection_counts(cloud, *pose_arrays(poses), k), mask_stack_counts(cloud, poses, k)[0])

    def test_a_lone_point_is_seen_as_in_the_whole_cloud(self):
        """Each point alone, through ``visible_mask`` and ``intersection_counts``, against its column of the
        whole cloud's masks: a one-row product, BLAS's vector path, flipped 388 of these 43,200."""
        scene = corridor.generate_scene(10, 12, 7)
        k, poses = scene_inputs(scene)
        cloud = near_bound_cloud(scene, 300, 8)
        masks = mask_stack_counts(cloud, poses, k)[1]
        assert masks.size == 43_200 and 0.05 < masks.mean() < 0.95
        alone = [[visible_mask(PointCloud(point[None]), pose, k)[0] for point in cloud.points] for pose in poses]
        assert np.array_equal(alone, masks)
        rotations, translations = pose_arrays(poses)
        for point, column in zip(cloud.points, masks.T):
            assert_bit_equal(intersection_counts(PointCloud(point[None]), rotations, translations, k),
                             mask_counts(column[:, None]))

    def test_no_camera_has_no_counts(self):
        counts = intersection_counts(PointCloud(np.eye(3)), np.empty((0, 3, 3)), np.empty((0, 3)), CENTERED)
        assert_bit_equal(counts, np.zeros((0, 0), dtype=np.int64))

    def test_memory_is_bounded_by_a_point_block(self):
        # 60 cameras x 60,000 points: the mask stack alone is 3.6 MB
        scene = corridor.generate_scene(60_000, 60, 13)
        k, poses = scene_inputs(scene)
        cloud = PointCloud(scene.points)
        rotations, translations = pose_arrays(poses)
        intersection_counts(PointCloud(cloud.points[:5]), rotations, translations, k)  # first-call imports
        block_peak, got = traced_peak(lambda: intersection_counts(cloud, rotations, translations, k))
        stack_peak, want = traced_peak(lambda: mask_stack_counts(cloud, poses, k)[0])
        assert_bit_equal(got, want)
        assert block_peak < 4_000_000 < stack_peak

    def test_each_block_is_added_into_the_counts_in_place(self):
        """1,000 cameras: the mask buffer, the int64 counts and one float32 product of a block, with no int64
        copy of the product (8 MB)."""
        assert_within_the_in_place_bound(corridor.generate_scene(5_000, 1_000, 13), seen_by_all=False)

    def test_every_camera_kept_for_every_bucket_stays_in_place(self):
        """1,000 cameras that all see every point of a small cloud, so the cull keeps each for every bucket and
        every product is 1,000 x 1,000: the bound of the test above."""
        assert_within_the_in_place_bound(facing_scene(1_000, 5_000, 13), seen_by_all=True)


def assert_within_the_in_place_bound(scene, seen_by_all):
    """``intersection_counts`` equals the mask stack's counts, within the mask buffer, the int64 counts and one
    float32 product of a 4,096-point block's every camera, plus 2 MB."""
    cameras = len(scene.ids)
    k, poses = scene_inputs(scene)
    cloud = PointCloud(scene.points)
    rotations, translations = pose_arrays(poses)
    intersection_counts(PointCloud(cloud.points[:5]), rotations[:3], translations[:3], k)  # first-call imports
    peak, got = traced_peak(lambda: intersection_counts(cloud, rotations, translations, k))
    want, masks = mask_stack_counts(cloud, poses, k)
    assert_bit_equal(got, want)
    assert masks.all() == seen_by_all
    held = 4 * 4_096 * cameras + 8 * cameras**2 + 4 * cameras**2
    assert peak < held + 2_000_000, f"{(peak - held) / 1e6:.1f} MB beyond the buffer, counts and product"


class TestCloudParsers:
    """The C text reader's points, or the line rule's points or error: always the reference's."""

    @pytest.mark.parametrize("content", [
        "\u0663 2 3\n",  # an Arabic-Indic digit, which only ``float`` reads
        "1\xa02 3\n",
        "1 2\x0b3\n",
        "1 2\x1c3\n",
        "nan 0 0\n",
        "0 0 1\n1 2 3 4\n",
        "1 2 3 4\n",
        "1 2 3\n4 5 6 7 8 9\n",
        "1\n2\n3\n",
        "1 2 3\x854 5 6\n",
        "1 2 3\n# 4 5 6\n",
        "inf 0 0\n",
    ], ids=["arabic-indic-digit", "no-break-space", "vertical-tab", "file-separator", "nan", "four-columns-at-2",
            "four-columns", "six-columns", "one-column", "next-line", "hash", "inf"])
    def test_equals_the_reference(self, tmp_path, content):
        path = tmp_path / "cloud.xyz"
        path.write_text(content, encoding="utf-8", newline="")

        def outcome(loader):
            try:
                return loader(path).points.tobytes()
            except ValueError as e:
                return str(e)

        assert outcome(load_point_cloud) == outcome(_reference_load_point_cloud)

    @pytest.mark.parametrize("content, message", [
        ("nan 0 0\n", ": point coordinates must be finite"),
        ("1 2 3 4\n", ":1: expected 3 coordinates, got 4"),
        ("0 0 1\n1 2 3 4\n", ":2: expected 3 coordinates, got 4"),
    ])
    def test_errors(self, tmp_path, content, message):
        path = tmp_path / "cloud.xyz"
        path.write_text(content)
        assert load_error(load_point_cloud, path) == f"{path}{message}"

    @pytest.mark.parametrize("content", [b"", b"\n\r\n  \n"], ids=["empty", "blank"])
    def test_empty_cloud_lets_no_warning_escape(self, tmp_path, content):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_error(load_point_cloud, path) == f"{path}: empty point cloud"


def blinded_scene(points, cameras, seed, blind):
    """A corridor scene with its camera ids in shuffled order, ``blind`` of its cameras turned away from
    every point: pairs of two blind cameras have no IoU."""
    scene = corridor.generate_scene(points, cameras, seed)
    rng = np.random.default_rng(seed)
    translations = scene.translations.copy()
    translations[rng.permutation(cameras)[:blind]] = (0.0, 0.0, -1_000.0)  # every point lies behind
    ids = tuple(f"cam{k}" if k % 3 else f"Cam{k:03d}" for k in rng.permutation(cameras))  # "cam10" < "cam9"
    return dataclasses.replace(scene, ids=ids, translations=translations)


def run_overlap3d(paths, out) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["overlap3d", "--cloud", paths["cloud"], "--poses", paths["poses"],
                     "--intrinsics", paths["intrinsics"], "--out", str(out)]) == 0
    return stdout.getvalue()


class TestOverlap3dLabels:
    def test_shuffled_ids_and_blind_cameras_equal_the_reference(self, tmp_path):
        """The labels file and counts against the frozen path: the reference IoU matrix in file order, its
        pairs sorted by id key with NaN pairs dropped."""
        scene = blinded_scene(3_000, 14, 4, blind=2)
        paths = corridor.write_scene(tmp_path, scene)
        stdout = run_overlap3d(paths, tmp_path / "labels.csv")
        k, poses = scene_inputs(scene)
        cloud = PointCloud(scene.points)
        masks = np.stack([_reference_visible_mask(cloud, pose, k) for pose in poses])
        assert (~masks.any(axis=1)).sum() == 2
        iou = _reference_iou_matrix(masks)
        rows = sorted((min(scene.ids[a], scene.ids[b]), max(scene.ids[a], scene.ids[b]), iou[a, b])
                      for a, b in itertools.combinations(range(len(scene.ids)), 2) if not math.isnan(iou[a, b]))
        want = "".join(f"{q},{m},{psi:.6f}\r\n" for q, m, psi in rows)
        assert (tmp_path / "labels.csv").read_bytes().decode() == "query_id,map_id,psi\r\n" + want
        assert stdout == f"labels={len(rows)}\nskipped_undefined=1\n"

    def test_labels_hold_no_cameras_squared_floats(self, tmp_path, monkeypatch):
        """From the counts of 600 cameras to the labels file: one tile of counts, one 4,096-row block of
        records and the poses, whatever the label count. The whole-run label columns took 24 B a label
        (4.3 MB here); before them, the IoU matrix, its triangle's indices and a sort of the labels took
        130 B a label."""
        cameras = 600
        scene = blinded_scene(2, cameras, 6, blind=0)  # the poses file; the counts stand in for its cameras
        paths = corridor.write_scene(tmp_path, scene)
        rng = np.random.default_rng(6)
        masks = rng.random((cameras, 400)) < rng.uniform(0.05, 0.5, size=(cameras, 1))
        masks[rng.permutation(cameras)[:10]] = False
        counts = mask_counts(masks)
        monkeypatch.setattr("gvpr.surf3d.intersection_counts", lambda *args: counts)
        run_overlap3d(paths, tmp_path / "warm.csv")  # first-call imports
        tracemalloc.start()
        try:
            stdout = run_overlap3d(paths, tmp_path / "labels.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labels = cameras * (cameras - 1) // 2 - 45
        assert stdout == f"labels={labels}\nskipped_undefined=45\n"
        assert peak < 3_000_000, f"{peak / 1e6:.2f} MB"
