"""Synthetic benchmark world generator tests."""

import math
import os

import numpy as np
import pytest

from gvpr.fov2d import wrapped_angle_diff
from gvpr.synth import (
    POSITIVE_DISTANCE_M,
    POSITIVE_HEADING_RAD,
    SynthConfig,
    _ground_truth,
    generate_world,
    load_ground_truth,
    save_ground_truth,
    write_world,
)


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
