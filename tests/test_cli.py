"""End-to-end command-line tests, run in process via main(argv)."""

import math
import re
import struct
import warnings

import numpy as np
import pytest

from gvpr import embed, retrieval, synth
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

    def test_nan_candidate_radius_is_runtime_error(self, world_dir, tmp_path, capsys):
        rc = main(["relabel", "--poses", str(world_dir / "train_poses.csv"),
                   "--out", str(tmp_path / "o.csv"), "--candidate-radius-m", "nan"])
        assert rc == 1
        assert "candidate_radius must be at least 2r" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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
        assert model.d_out == 8

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

    def test_saved_model_eval_uses_reloaded_float32_values(self, world_dir, labels_csv, tmp_path):
        model_file = tmp_path / "p27.bin"
        assert main([
            "train", "--labels", str(labels_csv), "--features", str(world_dir / "train_features.bin"),
            "--out", str(model_file), "--d-out", "8", "--epochs", "1", "--seed", "3", "--gem-p", "2.7",
        ]) == 0
        out_csv = tmp_path / "metrics.csv"
        assert main([
            "eval", "--model", str(model_file),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"), "--ks", "1,5", "--out", str(out_csv),
        ]) == 0
        model = embed.load_model(model_file)
        assert model.gem_p == float(np.float32(2.7)) != 2.7
        assert np.array_equal(model.W, model.W.astype(np.float32))

        def descriptors(name):
            ids, mat = embed.compute_descriptors(model, embed.read_features(world_dir / name))
            return retrieval.DescriptorSet(tuple(ids), mat, normalized=True)

        queries, map_set = descriptors("query_features.bin"), descriptors("map_features.bin")
        rankings = retrieval.nn_search(queries, map_set, 5)
        gt = synth.load_ground_truth(world_dir / "gt.csv", queries.ids, map_set.ids)
        recall = retrieval.recall_at_k(rankings, gt, [1, 5])
        expected = ["metric,value"] + [f"recall@{k},{recall.percent[k]:.4f}" for k in (1, 5)] + [
            f"queries_evaluated,{recall.evaluated}", f"queries_excluded,{recall.excluded}"]
        assert out_csv.read_text().splitlines() == expected

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


FEATURE_FILE_COMMANDS = ["eval-query-features", "eval-map-features", "train-features",
                         "eval-query-descriptors", "eval-map-descriptors"]


def file_locations(command, default=4):
    """Locations per channel of a well-formed file for the command: 1 for descriptor files."""
    return 1 if command.endswith("descriptors") else default


class TestMalformedInputs:
    """Each malformed input file ends as `error: <path>: ...` with exit 1."""

    def run_with(self, tmp_path, capsys, world_dir, model_path, command, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        cloud, poses6, intr = write_toy_scene(tmp_path, [("camA", 0.125), ("camB", 0.5)])
        features = str(world_dir / "query_features.bin")
        descriptors = tmp_path / "descriptors.bin"
        retrieval.write_descriptors(descriptors, retrieval.DescriptorSet(("d0", "d1"), np.eye(2, 8)))
        labels = tmp_path / "labels.csv"
        labels.write_text("query_id,map_id,psi\n")
        world_eval = ["eval", "--model", str(model_path), "--query-features", features,
                      "--map-features", str(world_dir / "map_features.bin"),
                      "--gt", str(world_dir / "gt.csv"), "--ks", "1"]
        argv = {
            "eval-query-features": ["eval", "--model", str(model_path), "--query-features", str(bad),
                                    "--map-features", features, "--gt", str(world_dir / "gt.csv")],
            "eval-map-features": ["eval", "--model", str(model_path), "--query-features", features,
                                  "--map-features", str(bad), "--gt", str(world_dir / "gt.csv")],
            "eval-query-descriptors": ["eval", "--query-descriptors", str(bad), "--map-descriptors",
                                       str(descriptors), "--gt", str(world_dir / "gt.csv")],
            "eval-map-descriptors": ["eval", "--query-descriptors", str(descriptors), "--map-descriptors",
                                     str(bad), "--gt", str(world_dir / "gt.csv")],
            "eval-model": ["eval", "--model", str(bad), "--query-features", features,
                           "--map-features", features, "--gt", str(world_dir / "gt.csv")],
            "train-features": ["train", "--labels", str(labels), "--features", str(bad),
                               "--out", str(tmp_path / "m.bin")],
            "train-labels": ["train", "--labels", str(bad), "--features", features,
                             "--out", str(tmp_path / "m.bin")],
            "eval-gt": ["eval", "--model", str(model_path), "--query-features", features,
                        "--map-features", features, "--gt", str(bad), "--ks", "1"],
            "eval-query-poses": [*world_eval, "--query-poses", str(bad),
                                 "--map-poses", str(world_dir / "map_poses.csv")],
            "eval-map-poses": [*world_eval, "--query-poses", str(world_dir / "query_poses.csv"),
                               "--map-poses", str(bad)],
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
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        return err

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
    @pytest.mark.parametrize("count, channels, locations", [(1, 0, 4), (1, 8, 0), (0, 8, 4)])
    def test_features_header_with_zero_field(self, tmp_path, capsys, world_dir, model_path, command,
                                             count, channels, locations):
        header = b"GVPR" + struct.pack("<IIII", 1, count, channels, locations)
        record = struct.pack("<H", 1) + b"a" + np.ones(channels * locations, dtype="<f4").tobytes()
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "zero.bin", header + record * count)

    @pytest.mark.parametrize("d_out, channels, gem_p", [
        (0, 8, 3.0), (8, 0, 3.0), (8, 8, 0.0), (8, 8, -1.0), (8, 8, math.nan),
    ])
    def test_model_header_with_bad_field(self, tmp_path, capsys, world_dir, model_path, d_out, channels, gem_p):
        header = b"GVPM" + struct.pack("<IIIf", 1, d_out, channels, gem_p)
        self.run_with(tmp_path, capsys, world_dir, model_path, "eval-model", "bad_model.bin",
                      header + np.ones(d_out * channels, dtype="<f4").tobytes())

    @pytest.mark.parametrize("command", ["eval-query-features", "train-features"])
    def test_non_utf8_feature_id(self, tmp_path, capsys, world_dir, model_path, command):
        header = b"GVPR" + struct.pack("<IIII", 1, 1, 8, 4)
        record = struct.pack("<H", 2) + b"\xff\xfe" + np.ones(32, dtype="<f4").tobytes()
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "bad_id.bin", header + record)

    @pytest.mark.parametrize("command", FEATURE_FILE_COMMANDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_feature_value(self, tmp_path, capsys, world_dir, model_path, command, value):
        locations = file_locations(command)
        header = b"GVPR" + struct.pack("<IIII", 1, 1, 8, locations)
        values = np.ones(8 * locations, dtype="<f4")
        values[5] = value
        record = struct.pack("<H", 1) + b"a" + values.tobytes()
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "non_finite.bin", header + record)

    def test_nan_model_weight(self, tmp_path, capsys, world_dir, model_path):
        header = b"GVPM" + struct.pack("<IIIf", 1, 8, 8, 3.0)
        w = np.ones(64, dtype="<f4")
        w[9] = math.nan
        self.run_with(tmp_path, capsys, world_dir, model_path, "eval-model", "nan_model.bin", header + w.tobytes())

    @pytest.mark.parametrize("command", FEATURE_FILE_COMMANDS + ["eval-model"])
    def test_signalling_nan_fails_without_a_warning(self, tmp_path, capsys, world_dir, model_path, command):
        if command == "eval-model":
            content, message = b"GVPM" + struct.pack("<IIIf", 1, 8, 8, 3.0), "W must be finite"
            values = np.ones(64, dtype="<f4")
        else:
            locations = file_locations(command)
            content = b"GVPR" + struct.pack("<IIII", 1, 1, 8, locations) + struct.pack("<H", 1) + b"a"
            message, values = "feature values must be finite", np.ones(8 * locations, dtype="<f4")
        values.view("<u4")[5] = 0x7F800001  # quiet bit clear: a cast to float64 raises NumPy's invalid flag
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the CLI would print such a warning to stderr before the error
            err = self.run_with(tmp_path, capsys, world_dir, model_path, command, "snan.bin",
                                content + values.tobytes())
        assert err == f"error: {tmp_path / 'snan.bin'}: {message}\n"

    @pytest.mark.parametrize("command", FEATURE_FILE_COMMANDS)
    def test_features_truncated_at_every_byte(self, tmp_path, capsys, world_dir, model_path, command):
        tiny = tmp_path / "tiny.bin"
        shape = (2, file_locations(command, default=2))
        embed.write_features(tiny, [embed.FeatureMap(i, np.ones(shape)) for i in ("a", "b")])
        data = tiny.read_bytes()
        assert len(embed.read_features(tiny)) == 2
        for cut in range(len(data)):
            self.run_with(tmp_path, capsys, world_dir, model_path, command, "cut.bin", data[:cut])

    @pytest.mark.parametrize("command", FEATURE_FILE_COMMANDS)
    @pytest.mark.parametrize("offset, delta", [
        (4, 1), (8, -1), (8, 1), (12, -1), (12, 1), (16, -1), (16, 1),
    ], ids=["version", "count-1", "count+1", "channels-1", "channels+1", "locations-1", "locations+1"])
    def test_features_header_field_mutated(self, tmp_path, capsys, world_dir, model_path, command,
                                           offset, delta):
        valid = tmp_path / "valid.bin"
        rng = np.random.default_rng(offset + delta)
        shape = (8, file_locations(command))
        embed.write_features(valid, [embed.FeatureMap(i, rng.uniform(0.0, 2.0, shape)) for i in ("a", "bb", "c")])
        assert len(embed.read_features(valid)) == 3
        data = bytearray(valid.read_bytes())
        (field,) = struct.unpack_from("<I", data, offset)
        struct.pack_into("<I", data, offset, field + delta)
        self.run_with(tmp_path, capsys, world_dir, model_path, command, "mutated.bin", bytes(data))

    @pytest.mark.parametrize("command", ["eval-query-features", "eval-map-features"])
    @pytest.mark.parametrize("channels, fill, message", [
        (5, 1.0, "feature map 'a' has 5 channels, model expects 8"),
        (8, 0.0, "zero-norm embedding before normalization"),
    ], ids=["channel-mismatch", "all-zero"])
    def test_features_that_do_not_fit_the_model(self, tmp_path, capsys, world_dir, model_path, command,
                                                channels, fill, message):
        misfit = tmp_path / "misfit.bin"
        embed.write_features(misfit, [embed.FeatureMap(i, np.full((channels, 4), fill)) for i in ("a", "b")])
        err = self.run_with(tmp_path, capsys, world_dir, model_path, command, "misfit_maps.bin",
                            misfit.read_bytes())
        assert err == f"error: {tmp_path / 'misfit_maps.bin'}: {message}\n"

    @pytest.mark.parametrize("offset, delta", [
        (4, 1), (8, -1), (8, 1), (12, -1), (12, 1),
    ], ids=["version", "d_out-1", "d_out+1", "channels-1", "channels+1"])
    def test_model_header_field_mutated(self, tmp_path, capsys, world_dir, model_path, offset, delta):
        data = bytearray(model_path.read_bytes())
        assert embed.load_model(model_path).W.shape == (8, 8)
        (field,) = struct.unpack_from("<I", data, offset)
        struct.pack_into("<I", data, offset, field + delta)
        self.run_with(tmp_path, capsys, world_dir, model_path, "eval-model", "mutated_model.bin", bytes(data))

    @pytest.mark.parametrize("command", FEATURE_FILE_COMMANDS)
    def test_duplicate_feature_id(self, tmp_path, capsys, world_dir, model_path, command):
        dup = tmp_path / "dup.bin"
        shape = (8, file_locations(command))
        embed.write_features(dup, [embed.FeatureMap(i, np.ones(shape)) for i in ("a", "b", "a")])
        err = self.run_with(tmp_path, capsys, world_dir, model_path, command, "dup_ids.bin", dup.read_bytes())
        assert err == f"error: {tmp_path / 'dup_ids.bin'}: duplicate feature id 'a'\n"

    def test_model_truncated_at_every_byte(self, tmp_path, capsys, world_dir, model_path):
        tiny = tmp_path / "tiny_model.bin"
        embed.save_model(tiny, embed.init_model(2, 2))
        data = tiny.read_bytes()
        assert embed.load_model(tiny).W.shape == (2, 2)
        for cut in range(len(data)):
            self.run_with(tmp_path, capsys, world_dir, model_path, "eval-model", "cut_model.bin", data[:cut])

    @pytest.mark.parametrize("field, value", [
        ("width", "inf"), ("width", "1e400"), ("width", "nan"), ("width", "0"), ("height", "2.5"),
        ("fx", "nan"), ("fy", "-inf"), ("cx", "nan"), ("cx", "inf"), ("cy", "-inf"),
    ])
    def test_bad_intrinsics_value(self, tmp_path, capsys, world_dir, model_path, field, value):
        lines = [f"{field} = {value}" if line.startswith(f"{field} ") else line
                 for line in TOY_INTRINSICS.splitlines()]
        self.run_with(tmp_path, capsys, world_dir, model_path, "overlap3d-intrinsics", "bad_intr.txt",
                      ("\n".join(lines) + "\n").encode())

    @pytest.mark.parametrize("coordinate", ["nan", "inf", "-inf"])
    def test_non_finite_cloud_coordinate(self, tmp_path, capsys, world_dir, model_path, coordinate):
        self.run_with(tmp_path, capsys, world_dir, model_path, "overlap3d-cloud", "bad_cloud.xyz",
                      f"0 0 1\n0.5 {coordinate} 1\n".encode())

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

    @pytest.mark.parametrize("command, header", [
        ("train-labels", "query_id,map_id,psi"), ("eval-gt", "query_id,map_id"),
        ("relabel-poses", "id,scene,t0,t1,alpha_deg"), ("overlap3d-poses", POSE6_HEADER),
    ])
    def test_csv_field_over_the_csv_module_limit(self, tmp_path, capsys, world_dir, model_path,
                                                 command, header):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, command, "long_field.csv",
                            f"{header}\n{'x' * 200_000},1\n".encode())
        assert err == f"error: {tmp_path / 'long_field.csv'}: field larger than field limit (131072)\n"

    def test_gt_positive_outside_the_map_set(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), "--places", "8", "--images-per-place", "2",
                     "--channels", "4", "--locations", "1", "--seed", "1"]) == 0
        argv = ["eval", "--query-descriptors", str(tmp_path / "query_features.bin"),
                "--map-descriptors", str(tmp_path / "map_features.bin"), "--ks", "1,2"]
        gt = (tmp_path / "gt.csv").read_text().splitlines()
        assert len(gt) == 5  # header and one positive for each of the 4 queries
        assert main(argv + ["--gt", str(tmp_path / "gt.csv")]) == 0
        query, _ = gt[3].split(",")
        gt[3] = f"{query},no_such_map"
        bad = tmp_path / "bad_gt.csv"
        bad.write_text("\n".join(gt) + "\n")
        capsys.readouterr()
        assert main(argv + ["--gt", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:4: unknown map id 'no_such_map'\n"

    @pytest.mark.parametrize("whiten", [[], ["--whiten"]], ids=["plain", "whiten"])
    def test_malformed_gt_fails_before_search(self, tmp_path, capsys, monkeypatch, world_dir, model_path,
                                              whiten):
        gt = (world_dir / "gt.csv").read_text().splitlines()
        gt[2] = gt[2].split(",")[0] + ",no_such_map"
        bad = tmp_path / "bad_gt.csv"
        bad.write_text("\n".join(gt) + "\n")

        def no_search(*args, **kwargs):
            raise AssertionError("nn_search ran before the gt file was read")

        monkeypatch.setattr(retrieval, "nn_search", no_search)
        argv = ["eval", "--model", str(model_path), "--query-features", str(world_dir / "query_features.bin"),
                "--map-features", str(world_dir / "map_features.bin"), "--gt", str(bad), "--ks", "1"]
        assert main(argv + whiten) == 1
        assert capsys.readouterr().err == f"error: {bad}:3: unknown map id 'no_such_map'\n"

    def test_header_only_gt(self, tmp_path, capsys, world_dir, model_path):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "eval-gt", "no_gt.csv",
                            b"query_id,map_id\n")
        assert err == f"error: {tmp_path / 'no_gt.csv'}: every query has an empty positive set; recall undefined\n"

    def test_query_poses_without_a_query(self, tmp_path, capsys, world_dir, model_path):
        rows = (world_dir / "query_poses.csv").read_text().splitlines(keepends=True)
        missing = rows.pop(3).split(",")[0]
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "eval-query-poses", "q_poses.csv",
                            "".join(rows).encode())
        assert err == f"error: {tmp_path / 'q_poses.csv'}: missing query pose for {missing!r}\n"

    def test_map_poses_without_a_top_match(self, tmp_path, capsys, world_dir, model_path):
        header = (world_dir / "map_poses.csv").read_text().splitlines(keepends=True)[0]
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "eval-map-poses", "m_poses.csv",
                            header.encode())
        path = re.escape(str(tmp_path / "m_poses.csv"))
        assert re.fullmatch(rf"error: {path}: missing map pose for '[^']+'\n", err)

    def test_header_only_labels(self, tmp_path, capsys, world_dir, model_path):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "train-labels", "no_labels.csv",
                            b"query_id,map_id,psi\n")
        assert err == f"error: {tmp_path / 'no_labels.csv'}: no labels to train on\n"

    def test_labels_without_features(self, tmp_path, capsys, world_dir, model_path):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "train-labels", "stray_labels.csv",
                            b"query_id,map_id,psi\nyy,zz,0.5\n")
        features = world_dir / "query_features.bin"
        assert err == f"error: {tmp_path / 'stray_labels.csv'}: ids not in {features}: yy, zz\n"


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
