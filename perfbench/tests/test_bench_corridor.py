import numpy as np

from gvpr import surf3d
from gvpr.cli import main
from perfbench import corridor
from perfbench.workloads import read_rows


def test_rotations_are_proper(tmp_path):
    for yaw in np.linspace(0.0, 6.0, 7):
        r = corridor.yaw_rotation(float(yaw))
        assert np.allclose(r @ r.T, np.eye(3))
        assert np.isclose(np.linalg.det(r), 1.0)


def test_same_seed_same_scene():
    a, b = corridor.generate_scene(500, 6, seed=3), corridor.generate_scene(500, 6, seed=3)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.rotations, b.rotations)
    assert not np.array_equal(a.points, corridor.generate_scene(500, 6, seed=4).points)


def test_cli_loaders_accept_written_scene(tmp_path):
    scene = corridor.generate_scene(2_000, 8, seed=1)
    paths = corridor.write_scene(tmp_path, scene)
    poses = surf3d.load_poses_6dof(paths["poses"])
    assert [ident for ident, _ in poses] == list(scene.ids)
    for (_, pose), rot, t in zip(poses, scene.rotations, scene.translations):
        assert np.array_equal(pose.rotation, rot) and np.array_equal(pose.translation, t)
    assert np.array_equal(surf3d.load_point_cloud(paths["cloud"]).points, scene.points)
    assert surf3d.load_intrinsics(paths["intrinsics"]).width == scene.camera.width


def test_oracle_matches_project_points(tmp_path):
    scene = corridor.generate_scene(3_000, 10, seed=2)
    vis = corridor.visibility_matrix(scene)
    k = surf3d.Intrinsics(**vars(scene.camera))
    cloud = surf3d.PointCloud(scene.points)
    for row, rot, t in zip(vis, scene.rotations, scene.translations):
        visible = surf3d.project_points(cloud, surf3d.Pose6DOF(rot, t), k)
        assert visible.indices == tuple(np.flatnonzero(row).tolist())


def test_ious_spread_strictly_inside_unit_interval(tmp_path):
    scene = corridor.generate_scene(4_000, 24, seed=5)
    paths = corridor.write_scene(tmp_path, scene)
    out = tmp_path / "labels.csv"
    assert main(["overlap3d", "--cloud", paths["cloud"], "--poses", paths["poses"],
                 "--intrinsics", paths["intrinsics"], "--out", str(out)]) == 0
    psi = np.array([float(row[2]) for row in read_rows(out)])
    assert len(psi) == 24 * 23 // 2  # every camera sees some wall: no undefined pair
    inner = psi[(psi > 0.0) & (psi < 1.0)]
    assert np.all(psi < 1.0)
    assert len(inner) >= 0.2 * len(psi)
    assert inner.max() - inner.min() > 0.3
