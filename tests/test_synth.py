"""Synthetic benchmark world generator tests."""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gvpr.embed import FeatureMap
from gvpr.fov2d import planar_distance, wrapped_angle_diff
from gvpr.io import read_feature_records, write_csv
from gvpr.relabel import PoseTable
from gvpr.synth import (
    CENTER_JITTER_M,
    HEADING_GAIN,
    HEADING_JITTER_RAD,
    NOISE_LEVEL,
    PLACE_SPACING_M,
    POSITION_GAIN,
    POSITION_JITTER_M,
    POSITIVE_DISTANCE_M,
    POSITIVE_HEADING_RAD,
    SynthConfig,
    _ground_truth,
    generate_world,
    load_ground_truth,
    save_ground_truth,
    write_world,
)


def _reference_world(cfg):
    """Frozen per-image generator: one set of RNG calls and one feature map per image.

    Returns {role: (PoseTable, (n, channels, locations) values)} and the ground truth.
    """
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.channels, cfg.locations)
    h1, h2, q1, q2 = rng.normal(size=(4,) + shape)
    grid = math.ceil(math.sqrt(cfg.places))
    n_train_places = cfg.places // 2
    ids = {"train": [], "map": [], "query": []}
    poses = {"train": [], "map": [], "query": []}
    features = {"train": [], "map": [], "query": []}
    for p in range(cfg.places):
        center = np.array([(p % grid), (p // grid)]) * PLACE_SPACING_M
        center = center + rng.uniform(-CENTER_JITTER_M, CENTER_JITTER_M, size=2)
        mean_heading = rng.uniform(0.0, 2.0 * math.pi)
        proto = rng.uniform(0.5, 2.0, size=shape)
        for i in range(cfg.images_per_place):
            pos = center + rng.normal(0.0, POSITION_JITTER_M, size=2)
            heading = mean_heading + rng.normal(0.0, HEADING_JITTER_RAD)
            values = (
                proto
                + HEADING_GAIN * ((math.sin(heading) - math.sin(mean_heading)) * h1
                                  + (math.cos(heading) - math.cos(mean_heading)) * h2)
                + POSITION_GAIN * ((pos[0] - center[0]) / POSITION_JITTER_M * q1
                                   + (pos[1] - center[1]) / POSITION_JITTER_M * q2)
                + NOISE_LEVEL * rng.normal(size=shape)
            )
            role = "train" if p < n_train_places else ("map" if i % 2 == 0 else "query")
            ids[role].append(f"p{p:03d}_i{i:03d}")
            poses[role].append((pos[0], pos[1], heading))
            features[role].append(np.maximum(values, 0.0))
    out = {}
    for role, scene in (("train", "train"), ("map", "val"), ("query", "val")):
        rows = np.array(poses[role], dtype=np.float64).reshape(-1, 3)
        out[role] = (PoseTable(tuple(ids[role]), (scene,) * len(rows), rows), np.stack(features[role]))
    return out, _ground_truth(out["query"][0], out["map"][0])


@pytest.fixture(scope="module")
def world():
    return generate_world(SynthConfig(places=8, images_per_place=6, channels=8,
                                      locations=4, seed=3))


class TestGenerateWorld:
    def test_split_sizes(self, world):
        # half the places train; val images alternate map/query
        assert len(world.train_poses) == 4 * 6
        assert len(world.map_poses) == 4 * 3
        assert len(world.query_poses) == 4 * 3

    def test_id_format_and_scenes(self, world):
        assert set(world.train_poses.scenes) == {"train"}
        assert set(world.map_poses.scenes + world.query_poses.scenes) == {"val"}
        assert world.train_poses.ids[0] == "p000_i000"

    def test_features_align_with_poses(self, world):
        for poses, feats in (
            (world.train_poses, world.train_features),
            (world.map_poses, world.map_features),
            (world.query_poses, world.query_features),
        ):
            assert [fm.id for fm in feats] == list(poses.ids)
            assert all(fm.values.shape == (8, 4) for fm in feats)
            assert all(np.all(fm.values >= 0.0) for fm in feats)

    def test_ground_truth_matches_thresholds(self, world):
        q_poses = dict(zip(world.query_poses.ids, map(tuple, world.query_poses.poses)))
        m_poses = dict(zip(world.map_poses.ids, map(tuple, world.map_poses.poses)))
        assert set(world.gt_positives) == set(q_poses)
        for qid, qp in q_poses.items():
            expected = sorted(
                mid for mid, mp in m_poses.items()
                if math.hypot(qp[0] - mp[0], qp[1] - mp[1]) <= POSITIVE_DISTANCE_M
                and wrapped_angle_diff(qp[2], mp[2]) < POSITIVE_HEADING_RAD
            )
            assert list(world.gt_positives[qid]) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_ground_truth_matches_double_loop(self, seed):
        """The per-query array test against the pairwise loop it replaced."""
        world = generate_world(SynthConfig(places=12, images_per_place=30, channels=2,
                                           locations=1, seed=seed))
        expected = {}
        for qid, (q0, q1, qa) in zip(world.query_poses.ids, world.query_poses.poses.tolist()):
            pos = []
            for mid, (m0, m1, ma) in zip(world.map_poses.ids, world.map_poses.poses.tolist()):
                dist = math.hypot(q0 - m0, q1 - m1)
                rot = wrapped_angle_diff(qa, ma)
                if dist <= POSITIVE_DISTANCE_M and rot < POSITIVE_HEADING_RAD:
                    pos.append(mid)
            expected[qid] = tuple(sorted(pos))
        assert world.gt_positives == expected
        assert 0 < sum(map(len, expected.values())) < len(expected) * 15

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_ground_truth_equals_the_frozen_hypot_form(self, seed):
        """The planar distance rule against the former ``np.hypot`` per query row."""
        world = generate_world(SynthConfig(places=16, images_per_place=24, channels=1, locations=1, seed=seed))
        maps = world.map_poses
        order = sorted(range(len(maps)), key=maps.ids.__getitem__)
        t0, t1, alpha = maps.poses[order].T
        want = {}
        for qid, (q0, q1, qa) in zip(world.query_poses.ids, world.query_poses.poses.tolist()):
            near = np.hypot(q0 - t0, q1 - t1) <= POSITIVE_DISTANCE_M
            hits = np.flatnonzero(near & (wrapped_angle_diff(qa, alpha) < POSITIVE_HEADING_RAD))
            want[qid] = tuple(maps.ids[order[i]] for i in hits)
        assert _ground_truth(world.query_poses, maps) == want == world.gt_positives
        assert 0 < sum(map(len, want.values()))

    @staticmethod
    def _full_scan(queries, maps):
        """The former rule: every map row measured for every query, in map-id order."""
        order = sorted(range(len(maps)), key=maps.ids.__getitem__)
        rows = maps.poses[order]
        want = {}
        for qid, q in zip(queries.ids, queries.poses):
            near = np.flatnonzero(planar_distance(q, rows) <= POSITIVE_DISTANCE_M)
            hits = near[wrapped_angle_diff(q[2], rows[near, 2]) < POSITIVE_HEADING_RAD]
            want[qid] = tuple(maps.ids[order[i]] for i in hits.tolist())
        return want

    @pytest.mark.parametrize("places, seed", [(40, 4), (120, 9)])
    def test_t0_window_equals_the_full_scan(self, places, seed):
        world = generate_world(SynthConfig(places=places, images_per_place=6, channels=1, locations=1, seed=seed))
        want = self._full_scan(world.query_poses, world.map_poses)
        assert world.gt_positives == want
        assert 0 < sum(map(len, want.values())) < len(want) * 6

    def test_t0_window_edges(self):
        """Map rows exactly 25 m away along t0 are positives; those an ulp beyond are not; ties in t0
        and far coordinates keep their map-id order."""
        queries = PoseTable(("qa", "qb", "qc"), ("s",) * 3, [[0.0, 0.0, 0.1], [1e5 + 0.3, -7.0, 6.0], [-3.0, 2.0, 3.0]])
        rows, ids = [], []
        for q0, q1, qa in queries.poses.tolist():
            for dx in (-25.0, 25.0, np.nextafter(25.0, 30.0), -np.nextafter(25.0, 30.0), 0.0, 24.0):
                for dy in (0.0, np.nextafter(0.0, 1.0), 7.0):
                    ids.append(f"m{len(ids):03d}")
                    rows.append([q0 + dx, q1 + dy, qa + 0.1])
        order = np.random.default_rng(5).permutation(len(ids))  # the map file's order is not the id order
        maps = PoseTable(tuple(ids[i] for i in order), ("s",) * len(ids), np.array(rows)[order])
        got = _ground_truth(queries, maps)
        assert got == self._full_scan(queries, maps)
        assert "m000" in got["qa"] and "m006" not in got["qa"]
        assert all(list(hits) == sorted(hits) and len(hits) >= 9 for hits in got.values())

    def test_same_place_images_usually_positive(self, world):
        # co-located images mostly stay within the positive thresholds
        n_pos = sum(len(v) for v in world.gt_positives.values())
        assert n_pos >= len(world.query_poses)

    def test_deterministic(self, world):
        again = generate_world(SynthConfig(places=8, images_per_place=6, channels=8,
                                           locations=4, seed=3))
        assert again.gt_positives == world.gt_positives
        assert np.array_equal(again.train_features[0].values,
                              world.train_features[0].values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(places=1)
        with pytest.raises(ValueError):
            SynthConfig(images_per_place=1)
        with pytest.raises(ValueError):
            SynthConfig(channels=0)


class TestColumnarGenerator:
    """``generate_world`` against the frozen per-image loop, bit for bit."""

    @pytest.mark.parametrize("cfg", [
        SynthConfig(places=8, images_per_place=6, channels=8, locations=4, seed=3),
        SynthConfig(places=12, images_per_place=7, channels=1, locations=1, seed=0),
        SynthConfig(places=5, images_per_place=5, channels=3, locations=2, seed=42),
        SynthConfig(seed=0),
        SynthConfig(places=1001, images_per_place=3, channels=2, locations=3, seed=3),
    ], ids=repr)
    def test_equals_the_per_image_loop(self, cfg):
        want, want_gt = _reference_world(cfg)
        world = generate_world(cfg)
        for role, poses, values in (("train", world.train_poses, world.train_values),
                                    ("map", world.map_poses, world.map_values),
                                    ("query", world.query_poses, world.query_values)):
            table, ref_values = want[role]
            assert poses.ids == table.ids
            assert poses.scenes == table.scenes
            assert poses.poses.tobytes() == table.poses.tobytes()
            assert values.dtype == ref_values.dtype and values.shape == ref_values.shape
            assert values.tobytes() == ref_values.tobytes()
        assert world.gt_positives == want_gt
        assert sum(map(len, want_gt.values())) > 0
        if cfg.places > 1000:
            assert world.query_poses.ids[-1] == f"p{cfg.places - 1}_i001"

    def test_peak_memory_is_the_role_arrays(self):
        """A copy of every role, or one draw array for the whole world, would double the peak."""
        generate_world(SynthConfig(places=2, images_per_place=2, channels=1, locations=1))  # first-call imports
        tracemalloc.start()
        try:
            world = generate_world(SynthConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        role_bytes = world.train_values.nbytes + world.map_values.nbytes + world.query_values.nbytes
        assert role_bytes == 960 * 32 * 8 * 8
        assert peak <= 1.5 * role_bytes

    def test_feature_maps_are_checked_views_of_the_role_arrays(self, world, monkeypatch):
        checked = []
        original = FeatureMap.__post_init__

        def counting(fm):
            checked.append(fm.id)
            original(fm)

        monkeypatch.setattr(FeatureMap, "__post_init__", counting)
        for poses, values, maps in ((world.train_poses, world.train_values, world.train_features),
                                    (world.map_poses, world.map_values, world.map_features),
                                    (world.query_poses, world.query_values, world.query_features)):
            assert isinstance(maps, tuple)
            assert [fm.id for fm in maps] == list(poses.ids)
            assert all(np.shares_memory(fm.values, values) for fm in maps)
            assert np.array_equal(np.stack([fm.values for fm in maps]), values)
        assert len(checked) == len(world.train_poses) + len(world.map_poses) + len(world.query_poses)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_world_rejects_non_finite_values(self, world, bad):
        values = world.map_values.copy()
        values[1, 2, 3] = bad
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            replace(world, map_values=values)

    def test_world_rejects_rows_that_miss_the_poses(self, world):
        with pytest.raises(ValueError, match="need 12 feature rows"):
            replace(world, query_values=world.query_values[:-1])
        with pytest.raises(ValueError, match="need 12 feature rows"):
            replace(world, query_values=world.query_values[:, 0])

    def test_written_features_are_the_role_arrays(self, tmp_path, world):
        paths = write_world(tmp_path / "w", world)
        for role, poses, values in (("train", world.train_poses, world.train_values),
                                    ("map", world.map_poses, world.map_values),
                                    ("query", world.query_poses, world.query_values)):
            ids, read = read_feature_records(paths[f"{role}_features"])
            assert ids == list(poses.ids)
            assert np.array_equal(read, values.astype(np.float32))


class TestGroundTruthIO:
    def test_roundtrip_preserves_empty_queries(self, tmp_path, world):
        path = tmp_path / "gt.csv"
        save_ground_truth(path, world.gt_positives)
        query_ids, map_ids = world.query_poses.ids, world.map_poses.ids
        queries, maps = load_ground_truth(path, query_ids, map_ids)
        again = {qid: [] for qid in query_ids}
        for q, m in zip(queries.tolist(), maps.tolist()):
            again[query_ids[q]].append(map_ids[m])
        assert {q: tuple(sorted(m)) for q, m in again.items()} == dict(world.gt_positives)

    def test_file_equals_the_row_writer(self, tmp_path, world):
        """The array writer's file is the former ``csv.writer`` rows' file, ids that need quoting too."""
        awkward = {"q,1": ("m 1", 'm"2'), "q\n0": (), "q0": ("m 1", "m3", "é"), **world.gt_positives}
        save_ground_truth(tmp_path / "gt.csv", awkward)
        rows = ([qid, mid] for qid in sorted(awkward) for mid in awkward[qid])
        write_csv(tmp_path / "reference.csv", ["query_id", "map_id"], rows)
        assert (tmp_path / "gt.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_positives_are_distinct_sorted_rows(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_id,map_id\nq2,m1\nq1,m2\n\nq2,m0\nq2,m1\nq1,m2\n")
        queries, maps = load_ground_truth(path, ["q0", "q1", "q2"], ["m0", "m1", "m2"])
        assert list(zip(queries.tolist(), maps.tolist())) == [(1, 2), (2, 0), (2, 1)]

    def test_unknown_query_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_id,map_id\nmystery,m1\n")
        with pytest.raises(ValueError, match="mystery"):
            load_ground_truth(path, ["q1"], ["m1"])

    def test_header_checked(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            load_ground_truth(path, ["q1"], ["m1"])

    def test_write_world_creates_all_files(self, tmp_path, world):
        paths = write_world(tmp_path / "w", world)
        assert len(paths) == 7
        assert all(os.path.exists(p) for p in paths.values())
