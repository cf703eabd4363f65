"""End-to-end command-line tests, run in process via main(argv)."""

import csv
import inspect
import itertools
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from gvpr import cli, embed, fov2d, relabel, retrieval, synth
from gvpr import io as gvpr_io
from gvpr.cli import main
from gvpr.fov2d import CameraPose2D, FovParams, wrapped_angle_diff
from gvpr.sampler import BatchStrategy

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

    def test_memory_is_one_block_whatever_the_pair_count(self, tmp_path, capsys):
        """1,500 poses in two interleaved scenes, in threes 300 m apart: 624,250 labels, whose three
        columns alone take 15 MB, written a block at a time (about 7.5 MB; the whole-run table took 70 MB).
        The ids need CSV quoting, and their ``str`` order differs from the file's; the file equals
        ``write_csv`` of the per-pair reference sorted by key."""
        marks = ["a,b", 'q"u', "new\nline", "caf\u00e9", " x"]
        ids = [f"{marks[k % 5]}{1_500 - k:04d}" for k in range(1_500)]
        scenes = ["s1" if k % 3 == 0 else "s0" for k in range(1_500)]
        poses = tmp_path / "poses.csv"
        gvpr_io.write_csv(poses, relabel.POSES_HEADER, (
            [ident, scene, repr(300.0 * (k // 3) + 10.0 * (k % 3) * (1 + k // 3 % 4)), "0.0", repr(7.0 * k)]
            for k, (ident, scene) in enumerate(zip(ids, scenes))))
        out, fov = tmp_path / "labels.csv", FovParams(math.radians(90.0), 50.0)
        tracemalloc.start()
        try:
            rc = main(["relabel", "--poses", str(poses), "--out", str(out), "--arc-segments", "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        table = relabel.load_poses(poses)
        rows = [CameraPose2D(*row) for row in table.poses.tolist()]
        want = []
        for a, b in itertools.combinations(range(1_500), 2):
            if scenes[a] == scenes[b]:
                d0, d1 = rows[a].t0 - rows[b].t0, rows[a].t1 - rows[b].t1
                psi = fov2d.fov_overlap(rows[a], rows[b], fov, 8) if math.sqrt(d0 * d0 + d1 * d1) <= 100.0 else 0.0
                want.append((*sorted((ids[a], ids[b])), psi))
        want.sort(key=lambda label: label[:2])
        reference = tmp_path / "reference.csv"
        gvpr_io.write_csv(reference, relabel.LABELS_HEADER, ((q, m, f"{psi:.6f}") for q, m, psi in want))
        assert len(want) == 1_000 * 999 // 2 + 500 * 499 // 2 == 624_250
        assert out.read_bytes() == reference.read_bytes()
        psi = [label[2] for label in want]
        positive, soft = sum(p >= 0.5 for p in psi), sum(0.0 < p < 0.5 for p in psi)
        assert positive and soft
        assert capsys.readouterr().out == (f"labels=624250\npositive={positive}\nsoft_negative={soft}\n"
                                           f"hard_negative={len(psi) - positive - soft}\n")
        assert peak <= 12_000_000, f"{peak / 1e6:.1f} MB"

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

    def test_weights_beyond_float32_leave_no_model(self, world_dir, labels_csv, tmp_path, capsys):
        """A rate of 1e306 gives weights finite in float64 but not in float32, which load_model would reject."""
        out = tmp_path / "model.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy cast warning would reach stderr before the error
            rc = main(["train", "--labels", str(labels_csv), "--features", str(world_dir / "train_features.bin"),
                       "--out", str(out), "--strategy", "D", "--batch-size", "8", "--lr", "1e306"])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: model overflows float32: gem_p 3, largest \|w\| \S+e\+30\d\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_rate_rejected_before_any_file(self, tmp_path, capsys, lr):
        """The rate is checked before the inputs are read: absent input files are never named."""
        out = tmp_path / "model.bin"
        rc = main(["train", "--labels", str(tmp_path / "absent.csv"), "--features", str(tmp_path / "absent.bin"),
                   "--out", str(out), "--lr", lr])
        assert rc == 1
        assert capsys.readouterr().err == f"error: lr0 must be finite and nonnegative, got {lr}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--batch-size", "-4", "batch_size must be positive"),
        ("--batch-size", "0", "batch_size must be positive"),
        ("--lr-decay-after", "0", "lr_decay_after must be a positive pair count"),
    ])
    def test_nonpositive_count_rejected_before_any_file(self, tmp_path, capsys, option, value, message):
        rc = main(["train", "--labels", str(tmp_path / "absent.csv"), "--features", str(tmp_path / "absent.bin"),
                   "--out", str(tmp_path / "model.bin"), option, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_batch_size_rejected_for_one_label(self, world_dir, tmp_path, capsys):
        """A one-label file skips the sampler, whose rule the config checks all the same."""
        labels = tmp_path / "labels.csv"
        labels.write_text("query_id,map_id,psi\np000_i000,p000_i001,0.9\n")
        rc = main(["train", "--labels", str(labels), "--features", str(world_dir / "train_features.bin"),
                   "--out", str(tmp_path / "m.bin"), "--batch-size", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: batch_size must be positive\n"

    def test_indivisible_batch_size_rejected_for_one_label(self, world_dir, tmp_path, capsys):
        """A one-label file skips the sampler, but not its batch size rule, which holds before any file is read."""
        labels, out = tmp_path / "labels.csv", tmp_path / "m.bin"
        labels.write_text("query_id,map_id,psi\np000_i000,p000_i001,0.9\n")
        for features in (world_dir / "train_features.bin", tmp_path / "absent.bin"):
            rc = main(["train", "--labels", str(labels), "--features", str(features),
                       "--out", str(out), "--strategy", "A", "--batch-size", "30"])
            assert rc == 1
            assert capsys.readouterr().err == "error: strategy A needs batch_size divisible by 4, got 30\n"
            assert not out.exists()

    @pytest.mark.parametrize("d_out", ["-3", "0"])
    def test_nonpositive_descriptor_dimension_rejected(self, world_dir, labels_csv, tmp_path, capsys, d_out):
        """The dimension rule holds before any file is read."""
        out = tmp_path / "model.bin"
        absent_labels, absent_features = tmp_path / "absent.csv", tmp_path / "absent.bin"
        for labels, features in ((labels_csv, world_dir / "train_features.bin"), (labels_csv, absent_features),
                                 (absent_labels, absent_features)):
            rc = main(["train", "--labels", str(labels), "--features", str(features), "--out", str(out),
                       "--d-out", d_out])
            assert rc == 1
            assert capsys.readouterr().err == f"error: d_out must be a positive integer, got {d_out}\n"
            assert not out.exists()

    @pytest.mark.parametrize("seed, lr, train_seed, epochs, message", [
        (1, "1e308", "0", "3", "step 1: d must be finite"),
        (25, "1.79e308", "25", "1", "step 0: non-finite weights after update"),
    ], ids=["step-1", "step-0"])
    def test_divergence_names_the_step_and_no_file(self, tmp_path, capsys, seed, lr, train_seed, epochs, message):
        """Faults of the features file end before step 0, so a divergence at any step comes from the updates:
        the line names the step, not the features, and no model is written."""
        features, labels, out = tmp_path / "features.bin", tmp_path / "labels.csv", tmp_path / "model.bin"
        rng = np.random.default_rng(seed)
        embed.write_features(features, [embed.FeatureMap(i, rng.uniform(0.5, 2.0, (3, 2))) for i in "ab"])
        labels.write_text("query_id,map_id,psi\na,b,0.0\n")
        argv = ["train", "--labels", str(labels), "--features", str(features), "--out", str(out),
                "--seed", train_seed, "--d-out", "2", "--batch-size", "4", "--epochs", epochs]
        assert main([*argv, "--lr", lr]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert main([*argv, "--lr", "0.1"]) == 0  # the same files train at a sane rate
        assert out.exists()

    def test_indivisible_batch_size_fails_cleanly(self, world_dir, labels_csv, tmp_path, capsys):
        rc = main([
            "train", "--labels", str(labels_csv),
            "--features", str(world_dir / "train_features.bin"),
            "--out", str(tmp_path / "m.bin"), "--strategy", "A", "--batch-size", "10",
        ])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err


class TestTrainFromFeatureRows:
    """`gvpr train` pools the labelled records from the file's float32 values, a block at a time."""

    @pytest.mark.parametrize("loss", ["gcl", "cl"])
    @pytest.mark.parametrize("labels, strategy", [("world", "A"), ("world", "B"), ("world", "C"), ("world", "D"),
                                                  ("one", "A")])
    def test_model_is_train_over_read_features(self, world_dir, labels_csv, tmp_path, labels, strategy, loss):
        """The model file is ``save_model`` of ``embed.train`` over ``read_features``, byte for byte."""
        features, out, want = world_dir / "train_features.bin", tmp_path / "model.bin", tmp_path / "want.bin"
        if labels == "one":  # two records, neither first in the file, named against file order
            labels_csv = tmp_path / "labels.csv"
            labels_csv.write_text("query_id,map_id,psi\np002_i003,p001_i000,0.4\n")
        rc = main(["train", "--labels", str(labels_csv), "--features", str(features), "--out", str(out),
                   "--loss", loss, "--strategy", strategy, "--batch-size", "12", "--d-out", "8", "--epochs", "2",
                   "--gem-p", "2.5", "--seed", "11"])
        assert rc == 0
        cfg = embed.TrainConfig(loss_kind=loss, epochs=2, batch_size=12, strategy=BatchStrategy[strategy], seed=11)
        model = embed.init_model(8, 8, gem_p=2.5, seed=11)
        trained, _ = embed.train(model, relabel.load_labels(labels_csv), embed.read_features(features), cfg)
        embed.save_model(want, trained)
        assert out.read_bytes() == want.read_bytes()

    def test_memory_is_the_file_one_pooling_block_and_the_pooled_rows(self, tmp_path, capsys):
        """3,841 records of 32 x 8 values, each labelled, the last alone in its pooling block: the file's
        float32 values take 3.9 MB, and a float64 copy of them, or of the labelled records, 7.9 MB more."""
        rng = np.random.default_rng(29)
        n, channels, locations = 15 * 256 + 1, 32, 8
        features, labels = tmp_path / "features.bin", tmp_path / "labels.csv"
        ids = [f"r{i:04d}" for i in range(n)]
        gvpr_io.write_feature_array(features, ids, rng.uniform(0.0, 2.0, (n, channels, locations)))
        psi = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.0, 1.0, n))
        labels.write_text("query_id,map_id,psi\n" + "".join(
            f"{ids[i]},{ids[(i + 1) % n]},{p:.6f}\n" for i, p in enumerate(psi)))
        argv = ["train", "--labels", str(labels), "--features", str(features), "--out", str(tmp_path / "m.bin")]
        assert main(argv) == 0  # first-call imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        raw_bytes, pooled_bytes = 4 * n * channels * locations, 8 * n * channels
        block_bytes = 8 * embed._POOL_BLOCK * channels * locations  # one block of float64 values
        assert peak <= raw_bytes + 4 * block_bytes + pooled_bytes + 1_000_000, f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("blocks", [4, 8])
    def test_memory_is_one_features_block_and_the_labelled_pooled_rows(self, tmp_path, capsys, blocks):
        """Records of 4 x 64 values, 1,024 to a features block, one record more than ``blocks`` blocks, and
        every eighth record labelled: the peak is one block, one pooling block's float64 temporaries, the
        labelled rows and the file's ids, whatever the size of its values (8.4 MB at 8 blocks)."""
        rng = np.random.default_rng(37)
        channels, locations = 4, 64
        n = blocks * (gvpr_io._FEATURE_BLOCK_BYTES // (4 * channels * locations)) + 1
        features, labels = tmp_path / "features.bin", tmp_path / "labels.csv"
        ids = [f"r{i:05d}" for i in range(n)]
        gvpr_io.write_feature_array(features, ids, rng.uniform(0.0, 2.0, (n, channels, locations)))
        named = ids[::8]
        psi = np.where(rng.random(len(named)) < 0.25, 0.0, rng.uniform(0.0, 1.0, len(named)))
        labels.write_text("query_id,map_id,psi\n" + "".join(
            f"{a},{b},{p:.6f}\n" for a, b, p in zip(named, named[1:] + named[:1], psi)))
        argv = ["train", "--labels", str(labels), "--features", str(features), "--out", str(tmp_path / "m.bin")]
        assert main(argv) == 0  # first-call imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        pooling = 3 * 8 * embed._POOL_BLOCK * channels * locations  # GeM's float64 temporaries of one pooling block
        rows = len(named) * (8 * channels + 200)  # pooled rows; labels, ids and the trainer's per-label arrays
        seen = n * 100  # the file's ids, which the duplicate-id rule keeps
        assert peak <= gvpr_io._FEATURE_BLOCK_BYTES + pooling + rows + seen + 1_000_000, f"{peak / 1e6:.2f} MB"


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
        gt = {qid: set() for qid in queries.ids}
        for q, m in zip(*synth.load_ground_truth(world_dir / "gt.csv", queries.ids, map_set.ids)):
            gt[queries.ids[q]].add(map_set.ids[m])
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

    @pytest.mark.parametrize("option", ["--query-descriptors", "--map-descriptors"])
    def test_lone_descriptor_file_is_usage_error(self, world_dir, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as err:
            main(["eval", option, str(tmp_path / "absent.bin"), "--gt", str(world_dir / "gt.csv")])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: --query-descriptors and --map-descriptors go together\n")

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

    @pytest.mark.parametrize("ks", ["abc", "0", "-3", "1,x", "5,0"])
    def test_bad_ranks_are_usage_errors_before_any_file_is_read(self, tmp_path, ks, capsys):
        absent = [str(tmp_path / name) for name in ("model.bin", "q.bin", "m.bin", "gt.csv", "qp.csv", "mp.csv")]
        with pytest.raises(SystemExit) as err:
            main(["eval", "--model", absent[0], "--query-features", absent[1], "--map-features", absent[2],
                  "--gt", absent[3], "--query-poses", absent[4], "--map-poses", absent[5], "--ks", ks])
        assert err.value.code == 2
        assert "--ks" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--ks", "--ks must list at least one rank"),
        ("--loc-thresholds", "--loc-thresholds must list at least one meters:degrees pair"),
    ])
    def test_empty_list_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, option, message):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--query-descriptors", str(tmp_path / "q.bin"), "--map-descriptors", str(tmp_path / "m.bin"),
                  "--gt", str(tmp_path / "gt.csv"), option, ","])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"gvpr eval: error: {message}\n")

    def test_bad_threshold_spec_is_usage_error_before_any_file_is_read(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--query-descriptors", str(tmp_path / "q.bin"), "--map-descriptors", str(tmp_path / "m.bin"),
                  "--gt", str(tmp_path / "gt.csv"), "--query-poses", str(tmp_path / "qp.csv"),
                  "--map-poses", str(tmp_path / "mp.csv"), "--loc-thresholds", "5:x"])
        assert err.value.code == 2

    def test_bad_threshold_spec_without_poses_is_usage_error_before_any_file_is_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--query-descriptors", str(tmp_path / "q.bin"), "--map-descriptors", str(tmp_path / "m.bin"),
                  "--gt", str(tmp_path / "gt.csv"), "--loc-thresholds", "nonsense"])
        assert err.value.code == 2
        assert "bad threshold 'nonsense'" in capsys.readouterr().err

    def test_rank_beyond_the_map_is_a_runtime_error(self, world_dir, model_path, capsys):
        map_path = world_dir / "map_features.bin"
        rc = main(["eval", "--model", str(model_path),
                   "--query-features", str(world_dir / "query_features.bin"), "--map-features", str(map_path),
                   "--gt", str(world_dir / "gt.csv"), "--ks", "1,10000"])
        assert rc == 1
        want = re.escape(f"error: {map_path}: the map holds ") + r"\d+" + re.escape(" descriptors, fewer than the ")
        assert re.fullmatch(want + re.escape("10000 ranks --ks asks for\n"), capsys.readouterr().err)

    def test_rank_beyond_a_descriptor_map_fails_before_any_search(self, tmp_path, capsys, monkeypatch):
        q, m, gt = tmp_path / "q.bin", tmp_path / "m.bin", tmp_path / "gt.csv"
        rng = np.random.default_rng(2)
        retrieval.write_descriptors(q, retrieval.DescriptorSet(["q0"], rng.normal(size=(1, 3))))
        retrieval.write_descriptors(m, retrieval.DescriptorSet(["m0", "m1", "m2"], rng.normal(size=(3, 3))))
        gt.write_text("query_id,map_id\nq0,m1\n")

        def no_search(*args):
            raise AssertionError("searched")
        monkeypatch.setattr(retrieval, "_top_k", no_search)
        rc = main(["eval", "--query-descriptors", str(q), "--map-descriptors", str(m), "--gt", str(gt)])
        assert rc == 1
        want = f"error: {m}: the map holds 3 descriptors, fewer than the 10 ranks --ks asks for\n"
        assert capsys.readouterr().err == want

    def test_descriptor_dimensions_that_disagree_name_both_files(self, tmp_path, capsys, monkeypatch):
        q, m, gt = tmp_path / "q.bin", tmp_path / "m.bin", tmp_path / "gt.csv"
        rng = np.random.default_rng(3)
        retrieval.write_descriptors(q, retrieval.DescriptorSet(["q0", "q1"], rng.normal(size=(2, 4))))
        retrieval.write_descriptors(m, retrieval.DescriptorSet(["m0", "m1"], rng.normal(size=(2, 3))))
        gt.write_text("query_id,map_id\nq0,m1\n")

        def no_search(*args):
            raise AssertionError("searched")
        monkeypatch.setattr(retrieval, "_top_k", no_search)
        for extra in ([], ["--whiten"]):
            rc = main(["eval", "--query-descriptors", str(q), "--map-descriptors", str(m), "--gt", str(gt),
                       "--ks", "1", *extra])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {q}: descriptors of dimension 4, but 3 in {m}\n"

    @pytest.mark.parametrize("pca_dim", ["0", "-2"])
    def test_non_positive_pca_dim_is_a_usage_error_before_any_file_is_read(self, tmp_path, pca_dim, capsys):
        absent = [str(tmp_path / name) for name in ("model.bin", "q.bin", "m.bin", "gt.csv")]
        with pytest.raises(SystemExit) as err:
            main(["eval", "--model", absent[0], "--query-features", absent[1], "--map-features", absent[2],
                  "--gt", absent[3], "--pca-dim", pca_dim])
        assert err.value.code == 2
        assert f"--pca-dim must be positive, got {pca_dim}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--pca-dim", "9"], "d_pca must be in [1, 4], got 9"),
        (["--pca-dim", "5"], "d_pca must be in [1, 4], got 5"),
        (["--whiten"], "need more than 4 samples to whiten, got 4"),
        (["--pca-dim", "4"], "need more than 4 samples to whiten, got 4"),
    ])
    def test_whitening_beyond_the_descriptor_map_names_the_map_file(self, tmp_path, capsys, monkeypatch, extra,
                                                                    message):
        q, m, gt = tmp_path / "q.bin", tmp_path / "m.bin", tmp_path / "gt.csv"
        rng = np.random.default_rng(4)
        retrieval.write_descriptors(q, retrieval.DescriptorSet([f"q{k}" for k in range(4)], rng.normal(size=(4, 4))))
        retrieval.write_descriptors(m, retrieval.DescriptorSet([f"m{k}" for k in range(4)], rng.normal(size=(4, 4))))
        gt.write_text("query_id,map_id\nq0,m1\n")

        def no_whitening(*args):
            raise AssertionError("whitened")
        monkeypatch.setattr(retrieval, "apply_whitening", no_whitening)
        monkeypatch.setattr(retrieval, "_top_k", no_whitening)
        assert main(["eval", "--query-descriptors", str(q), "--map-descriptors", str(m), "--gt", str(gt),
                     "--ks", "1", *extra]) == 1
        assert capsys.readouterr().err == f"error: {m}: {message}\n"

    def test_pca_dim_beyond_the_model_names_the_map_features(self, world_dir, model_path, capsys):
        map_path = world_dir / "map_features.bin"
        d_out = embed.load_model(model_path).W.shape[0]
        rc = main(["eval", "--model", str(model_path), "--query-features", str(world_dir / "query_features.bin"),
                   "--map-features", str(map_path), "--gt", str(world_dir / "gt.csv"), "--ks", "1",
                   "--pca-dim", str(d_out + 1)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {map_path}: d_pca must be in [1, {d_out}], got {d_out + 1}\n"

    @pytest.mark.parametrize("spec", ["nan:5", "5:nan", "-1:5", "5:-2", "0.25:2,-0.5:5"])
    def test_nan_or_negative_threshold_is_a_usage_error_before_any_file_is_read(self, tmp_path, capsys, spec):
        absent = [str(tmp_path / name) for name in ("q.bin", "m.bin", "gt.csv", "qp.csv", "mp.csv")]
        with pytest.raises(SystemExit) as err:
            main(["eval", "--query-descriptors", absent[0], "--map-descriptors", absent[1], "--gt", absent[2],
                  "--query-poses", absent[3], "--map-poses", absent[4], f"--loc-thresholds={spec}"])
        assert err.value.code == 2
        assert "meters and degrees must be nonnegative" in capsys.readouterr().err

    def test_infinite_threshold_localizes_every_query(self, world_dir, model_path, capsys):
        rc = main([
            "eval", "--model", str(model_path),
            "--query-features", str(world_dir / "query_features.bin"),
            "--map-features", str(world_dir / "map_features.bin"),
            "--gt", str(world_dir / "gt.csv"), "--ks", "1",
            "--query-poses", str(world_dir / "query_poses.csv"),
            "--map-poses", str(world_dir / "map_poses.csv"),
            "--loc-thresholds", "inf:inf,0:0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"^loc@infm_infdeg\s+100\.0000$", out, re.M)
        assert re.search(r"^loc@0m_0deg\s+\S+$", out, re.M)

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


def csv_records(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in list(csv.reader(fh))[1:] if row]


def public_metrics(queries, map_set, gt_path, ks, poses=None, thresholds="0.25:2,0.5:5,5:10"):
    """The metrics CSV lines of ``eval`` by the public path: nn_search, recall_at_k, localization_accuracy,
    with the gt and poses files read here, one CameraPose2D per pose. Each figure is also recounted
    from a reference search by per-query loops, which share no code with the program."""
    rankings = retrieval.nn_search(queries, map_set, max(ks))
    positives = {qid: set() for qid in queries.ids}
    for qid, mid in csv_records(gt_path):
        positives[qid].add(mid)
    recall = retrieval.recall_at_k(rankings, positives, ks)
    ranked = _reference_ranked_ids(queries, map_set)
    assert [[mid for mid, _ in r.hits] for r in rankings] == [row[:max(ks)] for row in ranked]
    scored = [(row, positives[qid]) for qid, row in zip(queries.ids, ranked) if positives[qid]]
    assert (recall.evaluated, recall.excluded) == (len(scored), len(queries.ids) - len(scored))
    for k in ks:
        assert recall[k] == 100.0 * sum(not pos.isdisjoint(row[:k]) for row, pos in scored) / len(scored)
    lines = ["metric,value"] + [f"recall@{k},{recall[k]:.4f}" for k in ks]
    if poses:
        q_poses, m_poses = ({r[0]: CameraPose2D(float(r[2]), float(r[3]), math.radians(float(r[4])))
                             for r in csv_records(path)} for path in poses)
        spec = [part.split(":") for part in thresholds.split(",")]
        loc = retrieval.localization_accuracy(rankings, q_poses, m_poses,
                                              [(float(m), math.radians(float(d))) for m, d in spec])
        for (meters, rad), pct in loc.items():
            correct = 0
            for qid, row in zip(queries.ids, ranked):
                qp, mp = q_poses[qid], m_poses[row[0]]
                correct += (math.hypot(qp.t0 - mp.t0, qp.t1 - mp.t1) <= meters
                            and wrapped_angle_diff(qp.alpha, mp.alpha) <= rad)
            assert pct == 100.0 * correct / len(ranked)
        lines += [f"loc@{m:g}m_{math.degrees(r):g}deg,{pct:.4f}" for (m, r), pct in loc.items()]
    return lines + [f"queries_evaluated,{recall.evaluated}", f"queries_excluded,{recall.excluded}"]


def _reference_ranked_ids(queries, map_set):
    """Every map id per query, nearest first: the whole distance matrix, then one lexsort per query."""
    ids = sorted(map_set.ids)
    m = map_set.matrix[[map_set.ids.index(i) for i in ids]]
    q = queries.matrix
    d2 = np.sum(q * q, axis=1)[:, None] + np.sum(m * m, axis=1)[None, :] - 2.0 * (q @ m.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    return [[ids[j] for j in np.lexsort((np.arange(len(ids)), row))] for row in dist]


class TestEvalMatchesThePublicPath:
    """The CLI's metrics CSV equals the one the public functions give, line for line."""

    def run_eval(self, tmp_path, argv):
        out = tmp_path / "metrics.csv"
        assert main(["eval", *map(str, argv), "--out", str(out)]) == 0
        return out.read_text().splitlines()

    @pytest.mark.parametrize("places, seed, ks, thresholds", [
        (6, 7, "1,2,5", "0.25:2,0.5:5,5:10"),
        (10, 21, "1,3,4,20", "1:10,4:30,10:45,25:180"),
    ])
    def test_synth_world_with_whitening_and_poses(self, tmp_path, model_path, places, seed, ks, thresholds):
        w = tmp_path / "world"
        assert main(["synth", "--out-dir", str(w), "--places", str(places), "--images-per-place", "8",
                     "--channels", "8", "--locations", "4", "--seed", str(seed)]) == 0
        poses = (w / "query_poses.csv", w / "map_poses.csv")
        got = self.run_eval(tmp_path, [
            "--model", model_path, "--query-features", w / "query_features.bin",
            "--map-features", w / "map_features.bin", "--gt", w / "gt.csv", "--whiten", "--ks", ks,
            "--query-poses", poses[0], "--map-poses", poses[1], "--loc-thresholds", thresholds])
        model = embed.load_model(model_path)
        queries, map_set = (retrieval.DescriptorSet(*embed.file_descriptors(w / f"{role}_features.bin", model),
                                                    normalized=True) for role in ("query", "map"))
        transform = retrieval.fit_pca_whitening(map_set, map_set.dim)
        queries, map_set = (retrieval.apply_whitening(transform, s) for s in (queries, map_set))
        ranks = sorted({int(k) for k in ks.split(",")})
        assert got == public_metrics(queries, map_set, w / "gt.csv", ranks, poses, thresholds)

    def test_tie_heavy_grid_with_excluded_queries(self, tmp_path):
        rng = np.random.default_rng(31)
        n_query, n_map = 40, 60
        q_ids = [f"q{i:02d}" for i in range(n_query)]
        m_ids = [f"m{i:02d}" for i in rng.permutation(n_map)]  # map rows out of id order
        # integer descriptors on a small grid: many exact distance ties, also across the k-th place
        queries = retrieval.DescriptorSet(q_ids, rng.integers(-1, 2, size=(n_query, 3)).astype(float))
        map_set = retrieval.DescriptorSet(m_ids, rng.integers(-1, 2, size=(n_map, 3)).astype(float))
        paths = {name: tmp_path / f"{name}.bin" for name in ("q", "m")}
        retrieval.write_descriptors(paths["q"], queries)
        retrieval.write_descriptors(paths["m"], map_set)
        gt = tmp_path / "gt.csv"
        d2 = np.sum((queries.matrix[:, None, :] - map_set.matrix[None, :, :]) ** 2, axis=2)
        rows = []
        for qi in range(5, n_query):  # one of the nearest, often tied, and one at random
            nearest = np.flatnonzero(d2[qi] == d2[qi].min())
            rows += [f"{q_ids[qi]},{m_ids[rng.choice(nearest)]}", f"{q_ids[qi]},{rng.choice(m_ids)}"]
        gt.write_text("query_id,map_id\n" + "\n".join(rows + rows[:7]) + "\n")  # 5 queries without positives
        # grid poses: translation errors of whole meters and headings 90 degrees apart meet the thresholds exactly
        pose_paths = []
        for role, ids in (("q", q_ids), ("m", m_ids)):
            path = tmp_path / f"{role}_poses.csv"
            path.write_text("id,scene,t0,t1,alpha_deg\n" + "".join(
                f"{i},s,{rng.integers(0, 2)},{rng.integers(0, 3)},{90 * rng.integers(-4, 5)}\n" for i in ids))
            pose_paths.append(path)
        thresholds = "0:0,1:90,2:90,2.5:180"
        ks = "1,2,3,7,60"
        got = self.run_eval(tmp_path, [
            "--query-descriptors", paths["q"], "--map-descriptors", paths["m"], "--gt", gt, "--ks", ks,
            "--query-poses", pose_paths[0], "--map-poses", pose_paths[1], "--loc-thresholds", thresholds])
        assert got[-1] == "queries_excluded,5"
        want = public_metrics(retrieval.read_descriptors(paths["q"]), retrieval.read_descriptors(paths["m"]),
                              gt, [1, 2, 3, 7, 60], pose_paths, thresholds)
        assert got == want


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

    @pytest.mark.parametrize("bins", [None, 7])
    def test_file_equals_the_row_writer(self, world_dir, tmp_path, bins):
        """Raw and binned, the array writer's file is the former rows': `f"{x:.6f}"` of the distance,
        ``math.degrees`` of the rotation and psi."""
        out = tmp_path / "profile.csv"
        table = relabel.load_poses(world_dir / "train_poses.csv")
        assert main(["profile", "--poses", str(world_dir / "train_poses.csv"), "--out", str(out),
                     "--arc-segments", "8", *(["--bins", str(bins)] if bins else [])]) == 0
        records = relabel.fov_distance_profile(table, FovParams(math.radians(90.0), 50.0), bins, 8)
        rows = ([f"{t:.6f}", f"{math.degrees(r):.6f}", f"{psi:.6f}"] for t, r, psi in records.tolist())
        gvpr_io.write_csv(tmp_path / "reference.csv", ["translation_m", "rotation_deg", "psi"], rows, "\n")
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_binned_records(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        rc = main(["profile", "--poses", str(self.poses_csv(tmp_path)),
                   "--out", str(out), "--bins", "2", "--arc-segments", "64"])
        assert rc == 0
        assert len(out.read_text().splitlines()) <= 3

    @pytest.mark.parametrize("records, message", [
        ([], "profile needs at least 2 poses"),
        (["a,s1,0,0,0"], "profile needs at least 2 poses"),
        (["a,s1,0,0,0", "b,s2,1,0,0", "c,s3,2,0,0"], "no same-scene pairs to profile"),
    ], ids=["header-only", "one-pose", "no-shared-scene"])
    def test_pose_faults_name_the_poses_path(self, tmp_path, capsys, records, message):
        poses = tmp_path / "poses.csv"
        poses.write_text("\n".join(["id,scene,t0,t1,alpha_deg", *records]) + "\n")
        out = tmp_path / "profile.csv"
        assert main(["profile", "--poses", str(poses), "--out", str(out), "--bins", "3"]) == 1
        assert capsys.readouterr().err == f"error: {poses}: {message}\n"
        assert not out.exists()

    def test_bad_bins_is_the_arguments_fault(self, tmp_path, capsys):
        """The bins rule holds before the poses file is read."""
        out = tmp_path / "profile.csv"
        for poses in (self.poses_csv(tmp_path), tmp_path / "absent.csv"):
            assert main(["profile", "--poses", str(poses), "--out", str(out), "--bins", "0"]) == 1
            assert capsys.readouterr().err == "error: bins must be a positive count\n"
            assert not out.exists()


class TestNonFiniteRadiusAndMargin:
    """An infinite radius or margin, or one whose batch loss overflows, is one `error:` line and exit 1, before
    any file is read and with no output: relabel and profile dropped or wrote NaN psi, calibrate-theta raised,
    and train blamed the features."""

    @pytest.mark.parametrize("command, message", [
        (["relabel", "--radius-m", "inf"], "r must be positive and finite, got inf"),
        (["profile", "--radius-m", "inf"], "r must be positive and finite, got inf"),
        (["profile", "--radius-m", "nan"], "r must be positive and finite, got nan"),
        (["train", "--tau", "inf"], "tau must be positive and finite, got inf"),
        (["train", "--tau", "nan"], "tau must be positive and finite, got nan"),
        (["train", "--tau", "1e200"], "tau 1e+200 overflows the loss of a batch of 64 pairs"),
        (["train", "--tau", "1e153", "--batch-size", "1024"], "tau 1e+153 overflows the loss of a batch of 1024 pairs"),
    ])
    def test_file_commands(self, tmp_path, capsys, command, message):
        inputs = {"relabel": ["--poses", "absent.csv"], "profile": ["--poses", "absent.csv"],
                  "train": ["--labels", "absent.csv", "--features", "absent.bin"]}[command[0]]
        out = tmp_path / "out"
        rc = main([command[0], *(str(tmp_path / a) if a.startswith("absent") else a for a in inputs),
                   "--out", str(out), *command[1:]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_relabel_of_a_world(self, world_dir, tmp_path, capsys):
        out = tmp_path / "labels.csv"
        rc = main(["relabel", "--poses", str(world_dir / "train_poses.csv"), "--out", str(out), "--radius-m", "inf"])
        assert (rc, capsys.readouterr()) == (1, ("", "error: r must be positive and finite, got inf\n"))
        assert not out.exists()

    def test_calibrate_theta(self, capsys):
        rc = main(["calibrate-theta", "--delta-t", "5", "--delta-alpha-deg", "10", "--radius-m", "inf"])
        assert (rc, capsys.readouterr()) == (1, ("", "error: r must be positive and finite, got inf\n"))


ABSENT_INPUTS = {
    "relabel": ["--poses", "absent.csv", "--out", "out"],
    "profile": ["--poses", "absent.csv", "--out", "out"],
    "train": ["--labels", "absent.csv", "--features", "absent.bin", "--out", "out"],
    "eval": ["--model", "absent.bin", "--query-features", "absent.bin", "--map-features", "absent.bin",
             "--gt", "absent.csv", "--out", "out"],
    "synth": ["--out-dir", "out"],
    "calibrate-theta": ["--delta-t", "5", "--delta-alpha-deg", "10"],
}


OPTION_FAULTS = [
    *((command, option, value, 1, message) for command in ("relabel", "profile") for option, value, message in [
        ("--theta-deg", "0", "theta must be in (0, pi], got 0.0"),
        ("--radius-m", "0", "r must be positive and finite, got 0.0"),
        ("--arc-segments", "1", "arc_segments must be an integer >= 2, got 1"),
    ]),
    ("relabel", "--candidate-radius-m", "1", 1, "candidate_radius must be at least 2r = 100.0 m (or infinite)"),
    ("profile", "--bins", "0", 1, "bins must be a positive count"),
    ("train", "--tau", "0", 1, "tau must be positive and finite, got 0.0"),
    ("train", "--lr", "-1", 1, "lr0 must be finite and nonnegative, got -1.0"),
    ("train", "--lr-decay-after", "0", 1, "lr_decay_after must be a positive pair count"),
    ("train", "--epochs", "0", 1, "epochs must be >= 1"),
    ("train", "--batch-size", "6", 1, "strategy A needs batch_size divisible by 4, got 6"),
    ("train", "--d-out", "0", 1, "d_out must be a positive integer, got 0"),
    ("train", "--gem-p", "0", 2, "--gem-p must be positive and finite in float32, got 0.0"),
    ("train", "--seed", "-1", 1, "seed must be nonnegative, got -1"),
    ("eval", "--ks", "0", 2, "--ks ranks must be positive, got 0"),
    ("eval", "--loc-thresholds", "x", 2, "bad threshold 'x', expected meters:degrees"),
    ("eval", "--pca-dim", "0", 2, "--pca-dim must be positive, got 0"),
    ("synth", "--places", "1", 1, "need at least 2 places (one per scene)"),
    ("synth", "--seed", "-1", 1, "seed must be nonnegative, got -1"),
    ("calibrate-theta", "--target", "nan", 1, "target must be finite, got nan"),
    ("calibrate-theta", "--delta-t", "nan", 1, "delta_t must be finite, got nan"),
    ("calibrate-theta", "--delta-t", "inf", 1, "delta_t must be finite, got inf"),
    ("calibrate-theta", "--delta-alpha-deg", "nan", 1, "delta_alpha must be finite, got nan"),
]


class TestOptionRulesBeforeAnyFile:
    """Every option with a range rule fails by its own message before any input file is read: each run
    names absent inputs, so a rule checked after a read would print `No such file` instead."""

    @pytest.mark.parametrize("command, option, value, code, message", OPTION_FAULTS,
                             ids=[f"{command}{option}" for command, option, *_ in OPTION_FAULTS])
    def test_option_fault_names_the_option(self, tmp_path, capsys, command, option, value, code, message):
        argv = [str(tmp_path / a) if a.startswith("absent") or a == "out" else a for a in ABSENT_INPUTS[command]]
        try:
            rc = main([command, *argv, option, value])
        except SystemExit as e:  # a usage error
            rc = e.code
        err = capsys.readouterr().err
        assert rc == code
        assert err.endswith(f"error: {message}\n")
        assert "No such file" not in err
        assert not (tmp_path / "out").exists()


class TestGemP:
    """`--gem-p` is stored as float32 in the model file: outside (0, float32 max] it is a usage error."""

    @pytest.mark.parametrize("gem_p", ["inf", "1e308", "nan", "0", "-2", "1e-50"])
    def test_beyond_float32_is_a_usage_error_before_any_file_is_read(self, tmp_path, capsys, gem_p):
        """Before, `--gem-p inf` trained every step and then failed in save_model, and `1e308` blamed the features."""
        out = tmp_path / "m.bin"
        with pytest.raises(SystemExit) as err:
            main(["train", "--labels", str(tmp_path / "absent.csv"), "--features", str(tmp_path / "absent.bin"),
                  "--out", str(out), "--gem-p", gem_p])
        assert err.value.code == 2
        assert f"--gem-p must be positive and finite in float32, got {float(gem_p)}" in capsys.readouterr().err
        assert not out.exists()

    def test_at_the_float32_limit_passes_the_usage_check(self, world_dir, tmp_path, capsys):
        """The largest float32 passes the usage check; v ** p then overflows in the pooling, which names gem_p."""
        labels = tmp_path / "labels.csv"
        labels.write_text("query_id,map_id,psi\np000_i000,p000_i001,0.9\n")
        rc = main(["train", "--labels", str(labels), "--features", str(world_dir / "train_features.bin"),
                   "--out", str(tmp_path / "m.bin"), "--gem-p", "3.4028234e38", "--batch-size", "4"])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {world_dir / 'train_features.bin'}: "
                                           "GeM pooling overflows at gem_p 3.40282e+38\n")


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
        labels.write_text("query_id,map_id,psi\nd0,d1,0.5\n")  # a header-only file fails before the features
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

    def test_descriptors_that_overflow(self, tmp_path, capsys, world_dir):
        """A valid model and valid features whose pooling power v ** p overflows: one error line."""
        model, bright = tmp_path / "steep_model.bin", tmp_path / "bright.bin"
        embed.save_model(model, embed.init_model(4, 8, gem_p=100.0))
        embed.write_features(bright, [embed.FeatureMap(i, np.full((8, 4), 1e5)) for i in ("a", "b")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the CLI would print such a warning to stderr before the error
            rc = main(["eval", "--model", str(model), "--query-features", str(bright),
                       "--map-features", str(bright), "--gt", str(world_dir / "gt.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bright}: GeM pooling overflows at gem_p 100\n"

    def test_training_that_overflows_prints_one_line(self, tmp_path, capsys):
        """Pooling 1e5 to the power 100 overflows: the run ends before step 0 without NumPy warnings."""
        bright, labels = tmp_path / "bright.bin", tmp_path / "labels.csv"
        embed.write_features(bright, [embed.FeatureMap(i, np.full((8, 4), 1e5)) for i in ("a", "b")])
        labels.write_text("query_id,map_id,psi\na,b,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the CLI would print such a warning to stderr before the error
            rc = main(["train", "--labels", str(labels), "--features", str(bright), "--out", str(tmp_path / "m.bin"),
                       "--gem-p", "100", "--d-out", "4", "--batch-size", "4"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bright}: GeM pooling overflows at gem_p 100\n"

    def test_zero_record_fails_before_step_0_naming_the_features(self, tmp_path, capsys):
        """A record of zeros pools to a zero row, whose embedding has no direction: a one-label file fails
        from the features alone, so the error names them."""
        features, labels = tmp_path / "features.bin", tmp_path / "labels.csv"
        embed.write_features(features, [embed.FeatureMap("a", np.zeros((8, 4))),
                                        embed.FeatureMap("b", np.ones((8, 4)))])
        labels.write_text("query_id,map_id,psi\na,b,0.5\n")
        rc = main(["train", "--labels", str(labels), "--features", str(features), "--out", str(tmp_path / "m.bin"),
                   "--d-out", "4", "--batch-size", "4"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {features}: zero-norm embedding before normalization\n"
        assert not (tmp_path / "m.bin").exists()

    def test_zero_record_fails_as_eval_does_whatever_the_seed(self, tmp_path, capsys):
        """12 records, ``r0`` all zeros and named by one of 12 labels: every seed fails before its first
        step with eval's line for the same file, whichever batch first draws ``r0``, and writes no model."""
        features, labels, model = tmp_path / "features.bin", tmp_path / "labels.csv", tmp_path / "model.bin"
        rng = np.random.default_rng(0)
        embed.write_features(features, [embed.FeatureMap(f"r{k}", rng.uniform(0.5, 2.0, (8, 4)) if k else np.zeros((8, 4)))
                                        for k in range(12)])
        psi = [1.0, 0.8, 0.6, 0.5, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.9]
        labels.write_text("\n".join(["query_id,map_id,psi", *(f"r{k},r{k + 1},{p}" for k, p in enumerate(psi)),
                                     "r1,r11,0.4"]) + "\n")
        embed.save_model(model, embed.init_model(4, 8, seed=1))
        assert main(["eval", "--model", str(model), "--query-features", str(features), "--map-features", str(features),
                     "--gt", str(labels)]) == 1
        line = capsys.readouterr().err
        assert line == f"error: {features}: zero-norm embedding before normalization\n"
        for seed in range(6):
            out = tmp_path / f"model{seed}.bin"
            rc = main(["train", "--labels", str(labels), "--features", str(features), "--out", str(out),
                       "--batch-size", "4", "--epochs", "3", "--seed", str(seed)])
            assert (rc, capsys.readouterr().err) == (1, line)
            assert not out.exists()

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
        (0, 8, 3.0), (8, 0, 3.0), (8, 8, 0.0), (8, 8, -1.0), (8, 8, math.nan), (8, 8, math.inf),
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
            raise AssertionError("the search ran before the gt file was read")

        monkeypatch.setattr(retrieval, "_top_k", no_search)
        argv = ["eval", "--model", str(model_path), "--query-features", str(world_dir / "query_features.bin"),
                "--map-features", str(world_dir / "map_features.bin"), "--gt", str(bad), "--ks", "1"]
        assert main(argv + whiten) == 1
        assert capsys.readouterr().err == f"error: {bad}:3: unknown map id 'no_such_map'\n"

    def test_labels_without_a_quota_group(self, tmp_path, capsys):
        # strategy A fills a quarter of each batch from psi in (0, 0.5): a file with no such pair is at fault
        assert main(["synth", "--out-dir", str(tmp_path), "--places", "8", "--images-per-place", "10",
                     "--seed", "5"]) == 0
        labels = tmp_path / "labels.csv"
        assert main(["relabel", "--poses", str(tmp_path / "train_poses.csv"), "--out", str(labels)]) == 0
        header, *rows = labels.read_text().splitlines()
        kept = [row for row in rows if not 0.0 < float(row.split(",")[2]) < 0.5]
        assert 0 < len(kept) < len(rows)
        no_soft = tmp_path / "no_soft_negatives.csv"
        no_soft.write_text("\n".join([header, *kept]) + "\n")
        train = ["train", "--features", str(tmp_path / "train_features.bin"), "--out", str(tmp_path / "m.bin")]
        capsys.readouterr()
        assert main([*train, "--labels", str(no_soft)]) == 1
        assert capsys.readouterr().err == (
            f"error: {no_soft}: strategy A needs pairs with psi in (0, 0.5); none indexed\n")
        # a batch size the strategy cannot split is the argument's fault, so no path
        assert main([*train, "--labels", str(labels), "--batch-size", "30"]) == 1
        assert capsys.readouterr().err == "error: strategy A needs batch_size divisible by 4, got 30\n"

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
        # the labels fail before the features file is read
        rc = main(["train", "--labels", str(tmp_path / "no_labels.csv"), "--features", str(tmp_path / "absent.bin"),
                   "--out", str(tmp_path / "model.bin")])
        assert (rc, capsys.readouterr().err) == (1, err)

    def test_labels_without_features(self, tmp_path, capsys, world_dir, model_path):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "train-labels", "stray_labels.csv",
                            b"query_id,map_id,psi\nyy,zz,0.5\n")
        features = world_dir / "query_features.bin"
        assert err == f"error: {tmp_path / 'stray_labels.csv'}: ids not in {features}: 'yy', 'zz'\n"

    def test_label_id_with_a_newline_stays_on_one_line(self, tmp_path, capsys, world_dir, model_path):
        err = self.run_with(tmp_path, capsys, world_dir, model_path, "train-labels", "nl_labels.csv",
                            b'query_id,map_id,psi\n"p000_i000\nX",zz,0.5\n')
        features = world_dir / "query_features.bin"
        assert err == f"error: {tmp_path / 'nl_labels.csv'}: ids not in {features}: 'p000_i000\\nX', 'zz'\n"


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


class TestDefaults:
    """An option that sets a library value defaults to that value, parsed with the required arguments only."""

    class Stop(Exception):
        pass

    def stop(self, *args, **kwargs):
        raise self.Stop

    def parse(self, *argv):
        parser = cli.build_parser()
        return parser, parser.parse_args(argv)

    def test_synth_builds_the_default_config(self, monkeypatch, tmp_path):
        _, args = self.parse("synth", "--out-dir", str(tmp_path))
        made = []
        monkeypatch.setattr(synth, "generate_world", lambda cfg: made.append(cfg) or self.stop())
        with pytest.raises(self.Stop):
            args.func(args)
        assert made == [synth.SynthConfig()]

    def test_train_builds_the_default_config(self, monkeypatch):
        _, args = self.parse("train", "--labels", "l.csv", "--features", "f.bin", "--out", "m.bin")
        made, config = [], embed.TrainConfig
        monkeypatch.setattr(embed, "TrainConfig", lambda **kwargs: made.append(config(**kwargs)) or made[-1])
        monkeypatch.setattr(relabel, "load_labels", self.stop)
        with pytest.raises(self.Stop):
            args.func(args)
        assert made == [config()]
        assert args.gem_p == inspect.signature(embed.init_model).parameters["gem_p"].default

    def test_arc_segments(self):
        poses = ["--poses", "p.csv", "--out", "o.csv"]
        required = {"relabel": poses, "profile": poses, "calibrate-theta": ["--delta-t", "1", "--delta-alpha-deg", "0"]}
        for command, argv in required.items():
            assert self.parse(command, *argv)[1].arc_segments == fov2d.DEFAULT_ARC_SEGMENTS
        for f in (fov2d.fov_overlap, fov2d.calibrate_theta, relabel.pairwise_similarity, relabel.fov_distance_profile):
            assert inspect.signature(f).parameters["arc_segments"].default == fov2d.DEFAULT_ARC_SEGMENTS

    def test_loc_thresholds(self):
        parser, args = self.parse("eval", "--gt", "gt.csv")
        parsed = cli._parse_thresholds(parser, args.loc_thresholds)
        assert np.array(parsed).tobytes() == np.array(retrieval.DEFAULT_LOC_THRESHOLDS).tobytes()
