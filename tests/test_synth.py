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
        for rec in world.train_poses.records:
            assert rec.scene == "train"
        for rec in world.map_poses.records + world.query_poses.records:
            assert rec.scene == "val"
        assert world.train_poses.records[0].image_id == "p000_i000"

    def test_features_align_with_poses(self, world):
        for poses, feats in (
            (world.train_poses, world.train_features),
            (world.map_poses, world.map_features),
            (world.query_poses, world.query_features),
        ):
            assert [fm.id for fm in feats] == [r.image_id for r in poses.records]
            assert all(fm.values.shape == (8, 4) for fm in feats)
            assert all(np.all(fm.values >= 0.0) for fm in feats)

    def test_ground_truth_matches_thresholds(self, world):
        q_poses = {r.image_id: r.pose for r in world.query_poses.records}
        m_poses = {r.image_id: r.pose for r in world.map_poses.records}
        assert set(world.gt_positives) == set(q_poses)
        for qid, qp in q_poses.items():
            expected = sorted(
                mid for mid, mp in m_poses.items()
                if math.hypot(qp.t0 - mp.t0, qp.t1 - mp.t1) <= POSITIVE_DISTANCE_M
                and wrapped_angle_diff(qp.alpha, mp.alpha) < POSITIVE_HEADING_RAD
            )
            assert list(world.gt_positives[qid]) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_ground_truth_matches_double_loop(self, seed):
        """The per-query array test against the pairwise loop it replaced."""
        world = generate_world(SynthConfig(places=12, images_per_place=30, channels=2,
                                           locations=1, seed=seed))
        expected = {}
        for q in world.query_poses.records:
            pos = []
            for m in world.map_poses.records:
                dist = math.hypot(q.pose.t0 - m.pose.t0, q.pose.t1 - m.pose.t1)
                rot = wrapped_angle_diff(q.pose.alpha, m.pose.alpha)
                if dist <= POSITIVE_DISTANCE_M and rot < POSITIVE_HEADING_RAD:
                    pos.append(m.image_id)
            expected[q.image_id] = tuple(sorted(pos))
        assert world.gt_positives == expected
        assert 0 < sum(map(len, expected.values())) < len(expected) * 15

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
        query_ids = [r.image_id for r in world.query_poses.records]
        map_ids = [r.image_id for r in world.map_poses.records]
        again = load_ground_truth(path, query_ids, map_ids)
        assert {q: tuple(sorted(m)) for q, m in again.items()} == dict(world.gt_positives)

    def test_positives_share_the_map_id_strings(self, tmp_path, world):
        path = tmp_path / "gt.csv"
        save_ground_truth(path, world.gt_positives)
        query_ids = [r.image_id for r in world.query_poses.records]
        map_ids = {r.image_id: r.image_id for r in world.map_poses.records}
        gt = load_ground_truth(path, query_ids, list(map_ids))
        positives = [m for ms in gt.values() for m in ms]
        assert positives and all(m is map_ids[m] for m in positives)

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
