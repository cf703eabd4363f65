"""Pose-table relabeling, classification and persistence tests."""

import math

import numpy as np
import pytest

from gvpr import relabel
from gvpr.fov2d import CameraPose2D, FovParams, fov_overlap
from gvpr.relabel import (
    PoseRecord,
    PoseTable,
    SimilarityClass,
    SimilarityLabel,
    class_counts,
    classify,
    fov_distance_profile,
    load_labels,
    load_poses,
    pairwise_similarity,
    save_labels,
    save_poses,
)

FOV = FovParams(theta=math.radians(90.0), r=50.0)


def rec(image_id, t0, t1, alpha_deg, scene="s"):
    return PoseRecord(image_id, CameraPose2D(t0, t1, math.radians(alpha_deg)), scene)


class TestPoseTable:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            PoseTable((rec("a", 0, 0, 0), rec("a", 1, 0, 0)))

    def test_rejects_empty_scene(self):
        with pytest.raises(ValueError, match="scene"):
            PoseTable((rec("a", 0, 0, 0, scene=""),))


class TestClassify:
    def test_boundaries(self):
        assert classify(0.5) is SimilarityClass.POSITIVE
        assert classify(np.nextafter(0.0, 1.0)) is SimilarityClass.SOFT_NEGATIVE
        assert classify(0.0) is SimilarityClass.HARD_NEGATIVE

    def test_representative_values(self):
        assert classify(0.5563) is SimilarityClass.POSITIVE
        assert classify(0.1678) is SimilarityClass.SOFT_NEGATIVE
        assert classify(1.0) is SimilarityClass.POSITIVE

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify(1.01)
        with pytest.raises(ValueError):
            classify(-0.01)


class TestPairwiseSimilarity:
    def test_identical_poses_label_one(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert labels == [SimilarityLabel("a", "b", 1.0)]

    def test_far_pair_short_circuits_to_zero(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 200.0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert labels[0].psi == 0.0

    def test_short_circuit_agrees_with_geometry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dist = float(rng.uniform(101.0, 400.0))
            ang = float(rng.uniform(0, 2 * math.pi))
            a = CameraPose2D(0, 0, float(rng.uniform(0, 2 * math.pi)))
            b = CameraPose2D(dist * math.sin(ang), dist * math.cos(ang),
                             float(rng.uniform(0, 2 * math.pi)))
            assert fov_overlap(a, b, FOV) == 0.0

    def test_translation_anchor_through_the_pipeline(self):
        # heading north, offset due east: perpendicular to the view axis
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 25.0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert labels[0].psi == pytest.approx(0.4501, abs=0.002)

    def test_cross_scene_pairs_never_emitted(self):
        table = PoseTable((rec("a", 0, 0, 0, "x"), rec("b", 0, 0, 0, "y")))
        assert pairwise_similarity(table, FOV) == []

    def test_candidate_radius_omits_far_pairs(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 150.0, 0, 0), rec("c", 600.0, 0, 0)))
        labels = pairwise_similarity(table, FOV, candidate_radius=500.0)
        pairs = {(lab.query_id, lab.map_id) for lab in labels}
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs
        assert ("b", "c") in pairs

    def test_candidate_radius_below_two_r_rejected(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 1, 0, 0)))
        with pytest.raises(ValueError, match="2r"):
            pairwise_similarity(table, FOV, candidate_radius=80.0)

    def test_nan_candidate_radius_rejected(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 1, 0, 0)))
        with pytest.raises(ValueError, match="2r"):
            pairwise_similarity(table, FOV, candidate_radius=math.nan)

    def test_arc_segments_checked_when_no_pair_reaches_geometry(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 500.0, 0, 0)))
        with pytest.raises(ValueError, match="arc_segments"):
            pairwise_similarity(table, FOV, arc_segments=1)

    def test_canonical_order_and_sorting(self):
        table = PoseTable((rec("zz", 0, 0, 0), rec("aa", 1, 0, 0), rec("mm", 2, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert [(lab.query_id, lab.map_id) for lab in labels] == [
            ("aa", "mm"), ("aa", "zz"), ("mm", "zz"),
        ]

    def test_record_order_does_not_change_output(self):
        recs = (rec("a", 0, 0, 10), rec("b", 12, 3, 80), rec("c", 30, -4, 200))
        fwd = pairwise_similarity(PoseTable(recs), FOV)
        rev = pairwise_similarity(PoseTable(recs[::-1]), FOV)
        assert fwd == rev


class TestProfile:
    def test_single_pair_single_record(self):
        table = PoseTable((rec("a", 0, 0, 0), rec("b", 10.0, 0, 30.0)))
        records = fov_distance_profile(table, FOV)
        assert records.shape == (1, 3)
        assert records[0][0] == pytest.approx(10.0)
        assert records[0][1] == pytest.approx(math.radians(30.0))

    def test_equal_orientation_monotone_in_distance(self):
        recs = tuple(rec(f"p{i}", 7.0 * i, 0, 0) for i in range(12))
        records = fov_distance_profile(PoseTable(recs), FOV)
        by_dist = records[np.argsort(records[:, 0])]
        assert all(b <= a + 1e-12 for a, b in zip(by_dist[:, 2], by_dist[1:, 2]))

    def test_binned_aggregation(self):
        recs = tuple(rec(f"p{i}", 9.0 * i, 0, 0) for i in range(10))
        raw = fov_distance_profile(PoseTable(recs), FOV)
        binned = fov_distance_profile(PoseTable(recs), FOV, bins=4)
        assert binned.shape[1] == 3
        assert len(binned) <= 4
        assert binned[:, 2].min() >= raw[:, 2].min() - 1e-12
        assert binned[:, 2].max() <= raw[:, 2].max() + 1e-12

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            fov_distance_profile(PoseTable((rec("a", 0, 0, 0),)), FOV)

    @pytest.mark.parametrize("kwargs, message", [
        ({"bins": 0}, "bins"), ({"arc_segments": 1}, "arc_segments"),
    ])
    def test_arguments_checked_before_any_pair(self, monkeypatch, kwargs, message):
        def no_geometry(*args):
            raise AssertionError("fov_overlap evaluated before the arguments were checked")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        recs = tuple(rec(f"p{i}", 9.0 * i, 0, 0) for i in range(4))
        with pytest.raises(ValueError, match=message):
            fov_distance_profile(PoseTable(recs), FOV, **kwargs)


class TestPersistence:
    def test_pose_roundtrip_normalizes_heading(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\nimg1,cityA,100.5,-3.25,540\n")
        table = load_poses(path)
        assert table.records[0].pose.alpha == pytest.approx(math.pi)
        out = tmp_path / "again.csv"
        save_poses(out, table)
        assert load_poses(out).records[0].pose.alpha == pytest.approx(math.pi)

    def test_load_poses_errors(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1\n")
        with pytest.raises(ValueError, match="header"):
            load_poses(path)
        path.write_text("id,scene,t0,t1,alpha_deg\na,s,1,2,bad\n")
        with pytest.raises(ValueError, match=":2"):
            load_poses(path)
        path.write_text("id,scene,t0,t1,alpha_deg\na,s,1,2,0\na,s,1,2,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_poses(path)

    def test_labels_roundtrip_with_six_decimals(self, tmp_path):
        path = tmp_path / "labels.csv"
        labels = [SimilarityLabel("a", "b", 1 / 3), SimilarityLabel("a", "c", 0.0)]
        save_labels(path, labels)
        text = path.read_text()
        assert "0.333333" in text
        again = load_labels(path)
        assert again[0].psi == pytest.approx(1 / 3, abs=1e-6)
        assert again[1].psi == 0.0

    def test_load_labels_validates(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("query_id,map_id,psi\na,b,1.5\n")
        with pytest.raises(ValueError, match=":2"):
            load_labels(path)


class TestClassCounts:
    def test_counts(self):
        labels = [
            SimilarityLabel("a", "b", 0.9),
            SimilarityLabel("a", "c", 0.5),
            SimilarityLabel("a", "d", 0.2),
            SimilarityLabel("a", "e", 0.0),
        ]
        counts = class_counts(labels)
        assert counts[SimilarityClass.POSITIVE] == 2
        assert counts[SimilarityClass.SOFT_NEGATIVE] == 1
        assert counts[SimilarityClass.HARD_NEGATIVE] == 1
