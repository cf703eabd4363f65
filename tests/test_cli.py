"""End-to-end command-line tests, run in process via main(argv)."""

import math
import struct

import numpy as np
import pytest

from gvpr import embed, retrieval
from gvpr.cli import main

TOY_CLOUD = "0 0 1\n0.25 0 1\n0.5 0 1\n0.75 0 1\n"
TOY_INTRINSICS = "fx = 2\nfy = 2\ncx = 0.5\ncy = 0.5\nwidth = 1\nheight = 1\n"
POSE6_HEADER = "id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2"


def pose6_row(image_id, x):
    return f"{image_id},1,0,0,0,1,0,0,0,1,{-x},0,0"


def write_toy_scene(d, camera_xs):
    cloud = d / "cloud.xyz"
    cloud.write_text(TOY_CLOUD)
    intr = d / "intrinsics.txt"
    intr.write_text(TOY_INTRINSICS)
    poses = d / "poses6.csv"
    rows = [POSE6_HEADER] + [pose6_row(i, x) for i, x in camera_xs]
    poses.write_text("\n".join(rows) + "\n")
    return cloud, poses, intr


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    rc = main([
        "synth", "--out-dir", str(d), "--places", "6", "--images-per-place", "6",
        "--channels", "8", "--locations", "4", "--seed", "7",
    ])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def labels_csv(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("labels") / "train_labels.csv"
    rc = main([
        "relabel", "--poses", str(world_dir / "train_poses.csv"),
        "--out", str(out), "--arc-segments", "64",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_path(world_dir, labels_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    rc = main([
        "train", "--labels", str(labels_csv),
        "--features", str(world_dir / "train_features.bin"),
        "--out", str(out), "--strategy", "D", "--batch-size", "8",
        "--d-out", "8", "--epochs", "2", "--seed", "11",
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_prints_counts_and_writes_files(self, world_dir, capsys):
        # fixture already ran; rerun into a fresh dir to capture stdout
        d = world_dir.parent / "world_echo"
        rc = main(["synth", "--out-dir", str(d), "--places", "6",
                   "--images-per-place", "6", "--channels", "8",
                   "--locations", "4", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "train_images=18" in out
        assert "map_images=9" in out
        assert "query_images=9" in out
        for name in ("train_poses.csv", "map_features.bin", "gt.csv"):
            assert (d / name).exists()

    def test_same_seed_same_bytes(self, world_dir, tmp_path):
        rc = main(["synth", "--out-dir", str(tmp_path), "--places", "6",
                   "--images-per-place", "6", "--channels", "8",
                   "--locations", "4", "--seed", "7"])
        assert rc == 0
        for name in ("train_poses.csv", "train_features.bin", "gt.csv"):
            assert (tmp_path / name).read_bytes() == (world_dir / name).read_bytes()


class TestRelabel:
    def test_counts_match_file(self, labels_csv, capsys, world_dir):
        again = labels_csv.parent / "again.csv"
        rc = main(["relabel", "--poses", str(world_dir / "train_poses.csv"),
                   "--out", str(again), "--arc-segments", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        n_rows = len(again.read_text().splitlines()) - 1
        assert n_rows == 18 * 17 // 2
        assert f"labels={n_rows}" in out
        assert "positive=" in out and "hard_negative=" in out

    def test_rerun_is_byte_identical(self, labels_csv, world_dir):
        again = labels_csv.parent / "identical.csv"
        rc = main(["relabel", "--poses", str(world_dir / "train_poses.csv"),
                   "--out", str(again), "--arc-segments", "64"])
        assert rc == 0
        assert again.read_bytes() == labels_csv.read_bytes()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["relabel", "--poses", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_header_only_table_is_runtime_error(self, tmp_path, capsys):
        poses = tmp_path / "empty.csv"
        poses.write_text("id,scene,t0,t1,alpha_deg\n")
        rc = main(["relabel", "--poses", str(poses), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "no pose records" in capsys.readouterr().err


class TestOverlap3d:
    def test_toy_scene_labels(self, tmp_path, capsys):
        cloud, poses, intr = write_toy_scene(
            tmp_path, [("camA", 0.125), ("camB", 0.5), ("camC", 0.875)]
        )
        out = tmp_path / "labels3d.csv"
        rc = main(["overlap3d", "--cloud", str(cloud), "--poses", str(poses),
                   "--intrinsics", str(intr), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "labels=3" in stdout
        assert "skipped_undefined=0" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "query_id,map_id,psi"
        assert lines[1:] == [
            "camA,camB,0.333333",
            "camA,camC,0.000000",
            "camB,camC,0.000000",
        ]

    def test_blind_camera_pairs_are_skipped(self, tmp_path, capsys):
        cloud, poses, intr = write_toy_scene(
            tmp_path,
            [("camA", 0.125), ("camB", 0.5), ("camC", 0.875),
             ("blind1", 100.0), ("blind2", 200.0)],
        )
        out = tmp_path / "labels3d.csv"
        rc = main(["overlap3d", "--cloud", str(cloud), "--poses", str(poses),
                   "--intrinsics", str(intr), "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "labels=9" in stdout
        assert "skipped_undefined=1" in stdout

    def test_single_pose_rejected(self, tmp_path, capsys):
        cloud, poses, intr = write_toy_scene(tmp_path, [("camA", 0.125)])
        rc = main(["overlap3d", "--cloud", str(cloud), "--poses", str(poses),
                   "--intrinsics", str(intr), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "at least 2" in capsys.readouterr().err


class TestTrain:
    def test_reports_steps_and_final_loss(self, world_dir, labels_csv, tmp_path, capsys):
        out = tmp_path / "model.bin"
        trace = tmp_path / "trace.csv"
        rc = main([
            "train", "--labels", str(labels_csv),
            "--features", str(world_dir / "train_features.bin"),
            "--out", str(out), "--strategy", "D", "--batch-size", "8",
            "--d-out", "8", "--epochs", "2", "--seed", "11", "--trace", str(trace),
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        n_labels = 18 * 17 // 2
        expected_steps = 2 * (n_labels // 8)
        assert f"steps={expected_steps}" in stdout
        assert "final_loss=" in stdout
        assert len(trace.read_text().splitlines()) == expected_steps + 1
        model = embed.load_model(out)
        assert model.trained and model.d_out == 8

    def test_rerun_is_byte_identical(self, world_dir, labels_csv, model_path, tmp_path):
        out = tmp_path / "model.bin"
        rc = main([
            "train", "--labels", str(labels_csv),
            "--features", str(world_dir / "train_features.bin"),
            "--out", str(out), "--strategy", "D", "--batch-size", "8",
            "--d-out", "8", "--epochs", "2", "--seed", "11",
        ])
        assert rc == 0
        assert out.read_bytes() == model_path.read_bytes()

    def test_indivisible_batch_size_fails_cleanly(self, world_dir, labels_csv, tmp_path, capsys):
        rc = main([
            "train", "--labels", str(labels_csv),
            "--features", str(world_dir / "train_features.bin"),
            "--out", str(tmp_path / "m.bin"), "--strategy", "A", "--batch-size", "10",
        ])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err


class TestEval:
    def test_model_mode_metrics(self, world_dir, model_path, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        rc = main([
            "eval", "--model", str(model_path),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"),
            "--ks", "1,5", "--out", str(out_csv),
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "recall@1" in stdout and "recall@5" in stdout
        assert "queries_evaluated" in stdout
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "metric,value"
        metrics = dict(line.split(",") for line in lines[1:])
        assert 0.0 <= float(metrics["recall@1"]) <= 100.0
        assert float(metrics["recall@1"]) <= float(metrics["recall@5"])
        total = int(metrics["queries_evaluated"]) + int(metrics["queries_excluded"])
        assert total == 9

    def test_localization_rows(self, world_dir, model_path, capsys):
        rc = main([
            "eval", "--model", str(model_path),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"), "--ks", "1,5",
            "--query-poses", str(world_dir / "query_poses.csv"),
            "--map-poses", str(world_dir / "map_poses.csv"),
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "loc@0.25m_2deg" in stdout
        assert "loc@0.5m_5deg" in stdout
        assert "loc@5m_10deg" in stdout

    def test_whitening_path(self, world_dir, model_path, capsys):
        rc = main([
            "eval", "--model", str(model_path),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"), "--pca-dim", "4", "--ks", "1",
        ])
        assert rc == 0
        assert "recall@1" in capsys.readouterr().out

    def test_descriptor_mode_matches_model_mode(self, world_dir, model_path, tmp_path, capsys):
        model = embed.load_model(model_path)
        paths = {}
        for role in ("query", "map"):
            ids, mat = embed.compute_descriptors(
                model, embed.read_features(world_dir / f"{role}_features.bin")
            )
            paths[role] = tmp_path / f"{role}_desc.bin"
            retrieval.write_descriptors(paths[role], retrieval.DescriptorSet(tuple(ids), mat))

        rc = main([
            "eval", "--query-descriptors", str(paths["query"]),
            "--map-descriptors", str(paths["map"]),
            "--gt", str(world_dir / "gt.csv"), "--ks", "1,5",
        ])
        desc_out = capsys.readouterr().out
        assert rc == 0

        rc = main([
            "eval", "--model", str(model_path),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"), "--ks", "1,5",
        ])
        model_out = capsys.readouterr().out
        assert rc == 0
        # float32 descriptor serialization does not change the metric lines
        assert desc_out == model_out

    def test_mixing_modes_is_usage_error(self, world_dir, model_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "eval", "--model", str(model_path),
                "--query-descriptors", str(tmp_path / "q.bin"),
                "--map-descriptors", str(tmp_path / "m.bin"),
                "--gt", str(world_dir / "gt.csv"),
            ])
        assert err.value.code == 2

    def test_incomplete_model_mode_is_usage_error(self, world_dir, model_path):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--model", str(model_path), "--gt", str(world_dir / "gt.csv")])
        assert err.value.code == 2

    def test_lone_query_poses_is_usage_error(self, world_dir, model_path):
        with pytest.raises(SystemExit) as err:
            main([
                "eval", "--model", str(model_path),
                "--query-features", str(world_dir / "query_features.bin"),
                "--map-features", str(world_dir / "map_features.bin"),
                "--gt", str(world_dir / "gt.csv"),
                "--query-poses", str(world_dir / "query_poses.csv"),
            ])
        assert err.value.code == 2

    def test_bad_threshold_spec_is_usage_error(self, world_dir, model_path):
        with pytest.raises(SystemExit) as err:
            main([
                "eval", "--model", str(model_path),
                "--query-features", str(world_dir / "query_features.bin"),
                "--map-features", str(world_dir / "map_features.bin"),
                "--gt", str(world_dir / "gt.csv"), "--ks", "1,5",
                "--query-poses", str(world_dir / "query_poses.csv"),
                "--map-poses", str(world_dir / "map_poses.csv"),
                "--loc-thresholds", "1:2:3",
            ])
        assert err.value.code == 2


class TestProfile:
    def poses_csv(self, d):
        path = d / "poses.csv"
        rows = ["id,scene,t0,t1,alpha_deg"]
        rows += [f"p{i},s,{12.5 * i},0,{15 * i}" for i in range(4)]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_raw_records(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--poses", str(self.poses_csv(tmp_path)),
                   "--out", str(out), "--arc-segments", "64"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "records=6" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "translation_m,rotation_deg,psi"
        assert len(lines) == 7

    def test_binned_records(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--poses", str(self.poses_csv(tmp_path)),
                   "--out", str(out), "--bins", "2", "--arc-segments", "64"])
        assert rc == 0
        assert len(out.read_text().splitlines()) <= 3


class TestCalibrateTheta:
    def test_pure_translation_target(self, capsys):
        rc = main(["calibrate-theta", "--target", "0.5",
                   "--delta-t", "25", "--delta-alpha-deg", "0"])
        stdout = capsys.readouterr().out
        assert rc == 0
        value = float(stdout.split("theta_deg=")[1])
        assert value == pytest.approx(102.0, abs=1.0)

    def test_pure_rotation_target(self, capsys):
        rc = main(["calibrate-theta", "--target", "0.5",
                   "--delta-t", "0", "--delta-alpha-deg", "40"])
        stdout = capsys.readouterr().out
        assert rc == 0
        value = float(stdout.split("theta_deg=")[1])
        assert value == pytest.approx(80.0, abs=1.0)

    def test_unreachable_target_fails_cleanly(self, capsys):
        rc = main(["calibrate-theta", "--target", "0.99",
                   "--delta-t", "120", "--delta-alpha-deg", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMalformedInputs:
    """Each malformed input file ends as `error: <path>: ...` with exit 1."""

    def run_with(self, tmp_path, capsys, world_dir, model_path, command, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        cloud, poses6, intr = write_toy_scene(tmp_path, [("camA", 0.125), ("camB", 0.5)])
        features = str(world_dir / "query_features.bin")
        labels = tmp_path / "labels.csv"
        labels.write_text("query_id,map_id,psi\n")
        argv = {
            "eval-query-features": ["eval", "--model", str(model_path), "--query-features", str(bad),
                                    "--map-features", features, "--gt", str(world_dir / "gt.csv")],
            "eval-model": ["eval", "--model", str(bad), "--query-features", features,
                           "--map-features", features, "--gt", str(world_dir / "gt.csv")],
            "train-features": ["train", "--labels", str(labels), "--features", str(bad),
                               "--out", str(tmp_path / "m.bin")],
            "train-labels": ["train", "--labels", str(bad), "--features", features,
                             "--out", str(tmp_path / "m.bin")],
            "eval-gt": ["eval", "--model", str(model_path), "--query-features", features,
                        "--map-features", features, "--gt", str(bad), "--ks", "1"],
            "relabel-poses": ["relabel", "--poses", str(bad), "--out", str(tmp_path / "o.csv")],
            "overlap3d-poses": ["overlap3d", "--cloud", str(cloud), "--poses", str(bad),
                                "--intrinsics", str(intr), "--out", str(tmp_path / "o.csv")],
            "overlap3d-cloud": ["overlap3d", "--cloud", str(bad), "--poses", str(poses6),
                                "--intrinsics", str(intr), "--out", str(tmp_path / "o.csv")],
            "overlap3d-intrinsics": ["overlap3d", "--cloud", str(cloud), "--poses", str(poses6),
                                     "--intrinsics", str(bad), "--out", str(tmp_path / "o.csv")],
        }[command]
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", ["eval-query-features", "train-features"])
    def test_features_header_beyond_file_size(self, tmp_path, capsys, world_dir, model_path, command):
        header = b"GVPR" + struct.pack("<IIII", 1, 1, 2**31, 2**31)
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "huge.bin",
                      header + struct.pack("<H", 1) + b"a" + b"\x00" * 64)

    def test_model_header_beyond_file_size(self, tmp_path, capsys, world_dir, model_path):
        header = b"GVPM" + struct.pack("<IIIf", 1, 2**31, 2**31, 3.0)
        self.run_with(tmp_path, capsys, world_dir, model_path, "eval-model", "huge_model.bin",
                      header + b"\x00" * 64)

    @pytest.mark.parametrize("command", ["eval-query-features", "train-features"])
    def test_non_utf8_feature_id(self, tmp_path, capsys, world_dir, model_path, command):
        header = b"GVPR" + struct.pack("<IIII", 1, 1, 8, 4)
        record = struct.pack("<H", 2) + b"\xff\xfe" + np.ones(32, dtype="<f4").tobytes()
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "bad_id.bin", header + record)

    @pytest.mark.parametrize("command, content", [
        ("train-labels", b"query_id,map_id,psi\na,b\xff,0.5\n"),
        ("eval-gt", b"query_id,map_id\nq\xff,m\n"),
        ("relabel-poses", b"id,scene,t0,t1,alpha_deg\np\xe9,s,0,0,0\n"),
        ("overlap3d-poses", (POSE6_HEADER + "\n").encode() + b"cam\xff,1,0,0,0,1,0,0,0,1,0,0,0\n"),
        ("overlap3d-cloud", b"0 0 1\n0.5 0\xff 1\n"),
        ("overlap3d-intrinsics", b"fx = 2 # \xff\nfy = 2\n"),
    ])
    def test_non_utf8_text_file(self, tmp_path, capsys, world_dir, model_path, command, content):
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "bad.txt", content)


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["relabel", "--poses", "x.csv"])
        assert err.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
