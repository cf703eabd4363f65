"""Pose-table relabeling, classification and persistence tests."""

import csv
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from gvpr import relabel
from gvpr.fov2d import TWO_PI, CameraPose2D, FovParams, fov_overlap, planar_distance, wrapped_angle_diff
from gvpr.relabel import (
    LabelTable,
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
from gvpr.io import id_order, read_blocks
from gvpr.retrieval import DescriptorSet, _top_k
from gvpr.surf3d import load_point_cloud, load_poses_6dof
from gvpr.synth import _ground_truth, load_ground_truth

FOV = FovParams(theta=math.radians(90.0), r=50.0)


def rec(image_id, t0, t1, alpha_deg, scene="s"):
    return image_id, CameraPose2D(t0, t1, math.radians(alpha_deg)), scene


class TestPoseTable:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            PoseTable.of((rec("a", 0, 0, 0), rec("a", 1, 0, 0)))

    @pytest.mark.parametrize("ids, scenes, shape, message", [
        (["a", "b"], ["s"], (2, 3), "2 ids and 1 scenes for pose rows of shape (2, 3)"),
        (["a", "b"], ["s", "s"], (3, 3), "2 ids and 2 scenes for pose rows of shape (3, 3)"),
        (["a", "b"], ["s", "s"], (2, 2), "2 ids and 2 scenes for pose rows of shape (2, 2)"),
        (["a", ""], ["s", "s"], (2, 3), "image id must be nonempty"),
    ])
    def test_rejects_columns_that_disagree_and_empty_ids(self, ids, scenes, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PoseTable(ids, scenes, np.zeros(shape))

    def test_rejects_empty_scene(self):
        with pytest.raises(ValueError, match="scene"):
            PoseTable.of((rec("a", 0, 0, 0, scene=""),))

    @pytest.mark.parametrize("bad", [(0, 0, math.nan), (0, 0, math.inf), (1, 0, -math.inf), (2, 1, math.nan)])
    def test_rejects_nonfinite_rows(self, bad):
        """A NaN row dropped every pair it was in, even at infinite reach; now the table refuses it."""
        rows = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rows[bad[:2]] = bad[2]
        with pytest.raises(ValueError, match="pose coordinates must be finite"):
            PoseTable(["a", "b", "c"], ["s"] * 3, rows)

    def test_wraps_headings_into_a_copy(self):
        rows = np.array([[1.0, 2.0, 7.0], [0.0, 0.0, -1e-17], [3.0, 4.0, -0.0]])
        given = rows.copy()
        table = PoseTable(["a", "b", "c"], ["s"] * 3, rows)
        assert table.poses[:, 2].tolist() == [7.0 % TWO_PI, 0.0, 0.0]
        assert np.signbit(table.poses[:, 2]).tolist() == [False] * 3
        assert rows.view(np.uint64).tolist() == given.view(np.uint64).tolist()
        assert table.poses[:, :2].tolist() == given[:, :2].tolist()

    def test_rows_rebuild_their_poses_bit_for_bit(self, tmp_path):
        path = tmp_path / "poses.csv"
        degrees = ["-1e-14", "-1e-15", "-5e-324", "-0.0", "0", "360", "-360", "720.5", "1e300", "-179.25"]
        path.write_text("id,scene,t0,t1,alpha_deg\n" + "".join(f"p{i},s,{i},-{i},{a}\n" for i, a in enumerate(degrees)))
        rows = load_poses(path).poses
        want = [(p.t0, p.t1, p.alpha) for p in (CameraPose2D(float(i), -float(i), math.radians(float(a)))
                                                 for i, a in enumerate(degrees))]
        assert rows.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        for row in rows.tolist():
            p = CameraPose2D(*row)
            assert np.array([p.t0, p.t1, p.alpha]).view(np.uint64).tolist() == np.array(row).view(np.uint64).tolist()


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
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert list(labels) == [SimilarityLabel("a", "b", 1.0)]

    def test_far_pair_short_circuits_to_zero(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 200.0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert list(labels)[0].psi == 0.0

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
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 25.0, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert list(labels)[0].psi == pytest.approx(0.4501, abs=0.002)

    def test_cross_scene_pairs_never_emitted(self):
        table = PoseTable.of((rec("a", 0, 0, 0, "x"), rec("b", 0, 0, 0, "y")))
        assert list(pairwise_similarity(table, FOV)) == []

    def test_candidate_radius_omits_far_pairs(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 150.0, 0, 0), rec("c", 600.0, 0, 0)))
        labels = pairwise_similarity(table, FOV, candidate_radius=500.0)
        pairs = {(lab.query_id, lab.map_id) for lab in labels}
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs
        assert ("b", "c") in pairs

    def test_candidate_radius_below_two_r_rejected(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 1, 0, 0)))
        with pytest.raises(ValueError, match="2r"):
            pairwise_similarity(table, FOV, candidate_radius=80.0)

    def test_nan_candidate_radius_rejected(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 1, 0, 0)))
        with pytest.raises(ValueError, match="2r"):
            pairwise_similarity(table, FOV, candidate_radius=math.nan)

    def test_arc_segments_checked_when_no_pair_reaches_geometry(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 500.0, 0, 0)))
        with pytest.raises(ValueError, match="arc_segments"):
            pairwise_similarity(table, FOV, arc_segments=1)

    def test_canonical_order_and_sorting(self):
        table = PoseTable.of((rec("zz", 0, 0, 0), rec("aa", 1, 0, 0), rec("mm", 2, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert [(lab.query_id, lab.map_id) for lab in labels] == [
            ("aa", "mm"), ("aa", "zz"), ("mm", "zz"),
        ]

    def test_record_order_does_not_change_output(self):
        recs = (rec("a", 0, 0, 10), rec("b", 12, 3, 80), rec("c", 30, -4, 200))
        fwd = pairwise_similarity(PoseTable.of(recs), FOV)
        rev = pairwise_similarity(PoseTable.of(recs[::-1]), FOV)
        assert list(fwd) == list(rev)


class TestProfile:
    def test_single_pair_single_record(self):
        table = PoseTable.of((rec("a", 0, 0, 0), rec("b", 10.0, 0, 30.0)))
        records = fov_distance_profile(table, FOV)
        assert records.shape == (1, 3)
        assert records[0][0] == pytest.approx(10.0)
        assert records[0][1] == pytest.approx(math.radians(30.0))

    def test_equal_orientation_monotone_in_distance(self):
        recs = tuple(rec(f"p{i}", 7.0 * i, 0, 0) for i in range(12))
        records = fov_distance_profile(PoseTable.of(recs), FOV)
        by_dist = records[np.argsort(records[:, 0])]
        assert all(b <= a + 1e-12 for a, b in zip(by_dist[:, 2], by_dist[1:, 2]))

    def test_binned_aggregation(self):
        recs = tuple(rec(f"p{i}", 9.0 * i, 0, 0) for i in range(10))
        raw = fov_distance_profile(PoseTable.of(recs), FOV)
        binned = fov_distance_profile(PoseTable.of(recs), FOV, bins=4)
        assert binned.shape[1] == 3
        assert len(binned) <= 4
        assert binned[:, 2].min() >= raw[:, 2].min() - 1e-12
        assert binned[:, 2].max() <= raw[:, 2].max() + 1e-12

    def test_needs_two_poses(self):
        with pytest.raises(ValueError):
            fov_distance_profile(PoseTable.of((rec("a", 0, 0, 0),)), FOV)

    @pytest.mark.parametrize("bins", [None, 4], ids=["raw", "binned"])
    def test_needs_a_same_scene_pair(self, bins):
        table = PoseTable.of((rec("a", 0, 0, 0, scene="s"), rec("b", 10.0, 0, 0, scene="t")))
        with pytest.raises(ValueError, match="^no same-scene pairs to profile$"):
            fov_distance_profile(table, FOV, bins=bins)

    @pytest.mark.parametrize("kwargs, message", [
        ({"bins": 0}, "bins"), ({"arc_segments": 1}, "arc_segments"),
    ])
    def test_arguments_checked_before_any_pair(self, monkeypatch, kwargs, message):
        def no_geometry(*args):
            raise AssertionError("fov_overlap evaluated before the arguments were checked")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        recs = tuple(rec(f"p{i}", 9.0 * i, 0, 0) for i in range(4))
        with pytest.raises(ValueError, match=message):
            fov_distance_profile(PoseTable.of(recs), FOV, **kwargs)


def _reference_profile(table, fov, bins, arc_segments):
    """The former profile: one pair at a time, the scalar heading rule, ``sorted(zip(...))`` of
    Python tuples and per-bin means."""
    rows = table.poses.tolist()
    poses = [CameraPose2D(*row) for row in rows]
    dist, rot, psi = [], [], []
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if table.scenes[a] != table.scenes[b]:
                continue
            d0, d1 = rows[a][0] - rows[b][0], rows[a][1] - rows[b][1]
            dist.append(math.sqrt(d0 * d0 + d1 * d1))
            rot.append(wrapped_angle_diff(rows[a][2], rows[b][2]))
            psi.append(0.0 if dist[-1] > 2.0 * fov.r else fov_overlap(poses[a], poses[b], fov, arc_segments))
    out = np.array(sorted(zip(dist, rot, psi)), dtype=np.float64)
    if bins is None:
        return out
    edges = np.linspace(0.0, float(np.max(out[:, 0])), bins + 1)
    which = np.clip(np.digitize(out[:, 0], edges[1:-1], right=True), 0, bins - 1)
    agg = []
    for b in range(bins):
        sel = out[which == b]
        if len(sel):
            agg.append((0.5 * (edges[b] + edges[b + 1]), float(np.mean(sel[:, 1])), float(np.mean(sel[:, 2]))))
    return np.array(agg, dtype=np.float64)


def _shuffled_scenes(seed):
    """Three scenes of poses in shuffled record order, with ties in distance and in rotation."""
    rng = np.random.default_rng(seed)
    entries = []
    for s, n in enumerate((30, 18, 12)):
        xy = rng.uniform(-60.0, 60.0, (n, 2))
        xy[:6] = np.round(xy[:6] / 20.0) * 20.0  # lattice points: many equal distances
        alpha = rng.uniform(-400.0, 400.0, n)
        alpha[:8] = alpha[0] + 360.0 * rng.integers(-2, 3, 8)  # equal headings, wrapped
        entries += [(f"s{s}_{k:02d}", CameraPose2D(x, y, math.radians(a)), f"scene{s}")
                    for k, ((x, y), a) in enumerate(zip(xy.tolist(), alpha.tolist()))]
    return PoseTable.of([entries[k] for k in rng.permutation(len(entries))])


class TestArrayPairPath:
    """Profile and labels on arrays, bit-identical to the per-pair references but for the binned means,
    which agree to 1e-12 relative: they are summed per block in walk order, not over sorted rows."""

    @pytest.mark.parametrize("bins", [None, 1, 7, 40])
    def test_profile_equals_the_per_pair_reference(self, bins):
        table = _shuffled_scenes(3)
        got = fov_distance_profile(table, FOV, bins=bins, arc_segments=16)
        want = _reference_profile(table, FOV, bins, 16)
        assert len(want) and got.shape == want.shape
        if bins is None:
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        else:  # the bins present and their centers are exact; a mean is a per-block sum over a count
            assert got[:, 0].view(np.uint64).tolist() == want[:, 0].view(np.uint64).tolist()
            np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-12, atol=0.0)

    def test_labels_equal_the_key_sort_reference(self):
        """The walk runs on the table ranked by id; the reference measures each pair in row order and
        sorts Python labels by key, so a pair's psi comes from ``fov_overlap`` with its poses swapped."""
        table = _shuffled_scenes(3)  # three scenes, ids in an order unlike the rows
        poses = [CameraPose2D(*row) for row in table.poses.tolist()]
        want = []
        for a, b in itertools.combinations(range(len(table)), 2):
            if table.scenes[a] == table.scenes[b]:
                d0, d1 = poses[a].t0 - poses[b].t0, poses[a].t1 - poses[b].t1
                near = math.sqrt(d0 * d0 + d1 * d1) <= 2.0 * FOV.r
                psi = fov_overlap(poses[a], poses[b], FOV, 16) if near else 0.0
                want.append(SimilarityLabel(*sorted((table.ids[a], table.ids[b])), psi))
        want.sort(key=lambda lab: (lab.query_id, lab.map_id))
        assert sorted(table.ids) != list(table.ids) and 0 < sum(0.0 < lab.psi < 1.0 for lab in want)
        got = list(pairwise_similarity(table, FOV, arc_segments=16))
        assert got == want
        assert all(type(lab.psi) is float for lab in got)

    def test_relabel_memory_per_label(self, monkeypatch):
        """Labels leave the pair arrays as columns: no object per label."""
        def no_geometry(*args):
            raise AssertionError("no pair lies within 2r")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        table = PoseTable([f"p{k}" for k in range(600)], ["s"] * 600,
                          np.column_stack([150.0 * np.arange(600), np.zeros(600), np.zeros(600)]))
        tracemalloc.start()
        try:
            labels = pairwise_similarity(table, FOV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels) == 179_700 and not labels.psi.any()
        assert peak <= 200 * len(labels), f"{peak / len(labels):.0f} B per label"

    def test_table_names_only_labeled_ids(self):
        """A scene of one pose names no label, so its id is left out of the table."""
        table = PoseTable.of((rec("zz", 0, 0, 0), rec("aa", 1, 0, 0), rec("lone", 2, 0, 0, scene="t"),
                              rec("mm", 3, 0, 0)))
        labels = pairwise_similarity(table, FOV)
        assert labels.ids == ("aa", "mm", "zz")
        assert labels.query.tolist() == [0, 0, 1] and labels.map.tolist() == [1, 2, 2] and len(labels) == 3
        assert LabelTable.of(labels) is labels
        again = LabelTable.of(list(labels))
        assert again.ids == labels.ids and list(again) == list(labels)

    def test_profile_memory_per_pair(self, monkeypatch):
        """One scene of 1,500 poses 150 m apart on a line: 1,124,250 pairs. The raw profile holds three
        columns a pair, their sort order and the output: 64 B a pair."""
        def no_geometry(*args):
            raise AssertionError("no pair lies within 2r")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        table = PoseTable([f"p{k}" for k in range(1_500)], ["s"] * 1_500,
                          np.column_stack([150.0 * np.arange(1_500), 7.0 * np.sin(np.arange(1_500)),
                                           np.arange(1_500) % 5.0]))
        pairs = 1_500 * 1_499 // 2
        tracemalloc.start()
        try:
            records = fov_distance_profile(table, FOV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.shape == (pairs, 3) == (1_124_250, 3)
        assert peak <= 80 * pairs, f"{peak / pairs:.0f} B per pair"
        i, j, dist, psi = _dense_same_scene_pairs(table, FOV, 8)
        rot = wrapped_angle_diff(table.poses[i, 2], table.poses[j, 2])
        assert records.tobytes() == np.stack((dist, rot, psi), axis=1)[np.lexsort((psi, rot, dist))].tobytes()

    def test_binned_profile_memory_is_one_block(self, monkeypatch):
        """One scene of 1,200 poses 150 m apart on a line: 719,400 pairs in 20 bins. Holding every pair
        with its rotation and psi, stacked and sorted, takes about 69 MB; one block takes a few MB."""
        def no_geometry(*args):
            raise AssertionError("no pair lies within 2r")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        table = PoseTable([f"p{k}" for k in range(1_200)], ["s"] * 1_200,
                          np.column_stack([150.0 * np.arange(1_200), np.zeros(1_200), np.zeros(1_200)]))
        tracemalloc.start()
        try:
            records = fov_distance_profile(table, FOV, bins=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.shape == (20, 3) and not records[:, 1:].any()
        edges = np.linspace(0.0, 150.0 * 1_199, 21)
        assert records[:, 0].tolist() == (0.5 * (edges[:-1] + edges[1:])).tolist()
        assert peak <= 8_000_000, f"{peak / 1e6:.1f} MB"


def _dense_same_scene_pairs(table, fov, arc_segments, reach=math.inf):
    """The former enumerator, frozen: every same-scene pair from ``np.triu_indices`` first, then the
    reach cut, on arrays as large as all candidates."""
    rows_of: dict = {}
    for pos, scene in enumerate(table.scenes):
        rows_of.setdefault(scene, []).append(pos)
    ij = [np.take(rows, np.triu_indices(len(rows), k=1)) for rows in rows_of.values()]
    i, j = np.concatenate(ij, axis=1) if ij else np.empty((2, 0), dtype=np.intp)
    d = table.poses[i, :2] - table.poses[j, :2]
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    near = dist <= reach
    i, j, dist = i[near], j[near], dist[near]
    psi = np.zeros(len(dist))
    within = np.flatnonzero(dist <= 2.0 * fov.r)
    poses = [CameraPose2D(*row) for row in table.poses.tolist()]
    pairs = zip(i[within].tolist(), j[within].tolist())
    psi[within] = [fov_overlap(poses[a], poses[b], fov, arc_segments) for a, b in pairs]
    return i, j, dist, psi


def _scattered_scenes(seed, sizes, extent):
    """Scenes of the given sizes, their rows interleaved in shuffled order, poses uniform in a square
    of half-width ``extent``, a third of them on a 20 m lattice: pairs exactly 2r and 4r apart."""
    rng = np.random.default_rng(seed)
    scenes = [f"scene{s}" for s, n in enumerate(sizes) for _ in range(n)]
    scenes = [scenes[k] for k in rng.permutation(len(scenes))]
    xy = rng.uniform(-extent, extent, (len(scenes), 2))
    xy[::3] = np.round(xy[::3] / 20.0) * 20.0
    poses = np.column_stack([xy, rng.uniform(0.0, TWO_PI, len(scenes))]).reshape(-1, 3)
    return PoseTable([f"p{k:04d}" for k in range(len(scenes))], scenes, poses)


def _walked_pairs(table, fov, arc_segments, reach=math.inf):
    """Arrays (i, j, center distance, psi): the blocks of ``relabel._scored_blocks`` end to end."""
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))
    blocks = relabel._scored_blocks(table, fov, arc_segments, reach)
    return tuple(np.concatenate(column) for column in zip(empty, *blocks))


class TestBlockWalk:
    """The walk yields the frozen dense enumerator's pairs in row-major order, one row block at a time."""

    TABLES = {
        "uneven": ((40, 7, 1, 23, 1, 2), 150.0),
        "one_pose_scenes": ((1, 1, 1), 150.0),
        "empty": ((), 150.0),
        "beyond_one_block": ((400, 30), 1_500.0),
    }

    @pytest.mark.parametrize("block", [None, 1, 50])
    @pytest.mark.parametrize("name", list(TABLES))
    def test_pairs_equal_the_dense_enumerator(self, monkeypatch, name, block):
        """The reference is reordered by (i, j), the walk's row-major order, and compared byte for byte."""
        sizes, extent = self.TABLES[name]
        if block is not None:
            monkeypatch.setattr(relabel, "_PAIR_BLOCK", block)
        elif name == "beyond_one_block":
            assert 400 * 399 // 2 > relabel._PAIR_BLOCK
        table = _scattered_scenes(len(name), sizes, extent)
        for reach in (2.0 * FOV.r, 4.0 * FOV.r, math.inf):
            got = _walked_pairs(table, FOV, 8, reach)
            want = _dense_same_scene_pairs(table, FOV, 8, reach)
            order = np.lexsort((want[1], want[0]))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w[order].tobytes()
            i, j = got[:2]
            assert (i < j).all() and (np.diff(i * len(table) + j) > 0).all()  # row-major, each pair once
        assert len(got[0]) == sum(n * (n - 1) // 2 for n in sizes)

    @pytest.mark.parametrize("block", [None, 1, 50])
    def test_measures_no_cross_scene_candidate(self, monkeypatch, block):
        """Rows of six scenes interleaved: each block measures each of its rows against the later rows
        of that row's scene only, at most sum n(n - 1) candidates; one cross-scene rectangle is more."""
        measured = []

        def counted(a, b):
            dist = planar_distance(a, b)
            measured.append(dist.size)
            return dist

        if block is not None:
            monkeypatch.setattr(relabel, "_PAIR_BLOCK", block)
        monkeypatch.setattr(relabel, "planar_distance", counted)
        sizes = self.TABLES["uneven"][0]
        table = _scattered_scenes(6, sizes, 150.0)
        pairs = sum(len(i) for i, _, _ in relabel._pair_blocks(table, math.inf))
        assert pairs == sum(n * (n - 1) // 2 for n in sizes)
        assert sum(measured) <= sum(n * (n - 1) for n in sizes) < len(table) * (len(table) - 1) // 2

    def test_memory_is_one_block_and_the_output(self, monkeypatch):
        """One scene of 1,200 poses 150 m apart on a line, at reach 200: 1,199 pairs kept of 719,400
        candidates. The dense enumerator holds every candidate (about 46 MB), the block walk one block
        (about 4 MB)."""
        def no_geometry(*args):
            raise AssertionError("no pair lies within 2r")

        monkeypatch.setattr(relabel, "fov_overlap", no_geometry)
        table = PoseTable([f"p{k}" for k in range(1_200)], ["s"] * 1_200,
                          np.column_stack([150.0 * np.arange(1_200), np.zeros(1_200), np.zeros(1_200)]))
        bound = 8_000_000

        def peak_of(enumerate_pairs):
            tracemalloc.start()
            try:
                pairs = enumerate_pairs(table, FOV, 8, 200.0)
                return pairs, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (i, j, dist, psi), peak = peak_of(_walked_pairs)
        assert len(i) == 1_199 and np.array_equal(j, i + 1) and not psi.any()
        assert peak <= bound, f"{peak / 1e6:.1f} MB"
        dense, dense_peak = peak_of(_dense_same_scene_pairs)
        assert all(np.array_equal(d, g) for d, g in zip(dense, (i, j, dist, psi)))
        assert dense_peak > bound, f"{dense_peak / 1e6:.1f} MB"


def _dense_group_pairs(group):
    """The pairs i < j of rows of one group, frozen: ``np.triu_indices`` of all rows, then the same-group cut."""
    i, j = np.triu_indices(len(group), k=1)
    same = group[i] == group[j]
    return i[same], j[same]


class TestPairRuns:
    """``_pair_runs``, the one pair walk of relabel and overlap3d, against the frozen dense enumerator."""

    GROUPS = {
        "one_group": np.zeros(40, dtype=np.intp),
        "six_interleaved": np.random.default_rng(3).permutation(np.repeat(np.arange(6), [40, 7, 1, 23, 1, 2])),
        "one_row_groups": np.arange(9),
        "no_rows": np.empty(0, dtype=np.intp),
    }

    @pytest.mark.parametrize("block", [None, 1, 50])
    @pytest.mark.parametrize("name", list(GROUPS))
    def test_runs_equal_the_dense_enumerator(self, monkeypatch, name, block):
        """Consecutive runs of rows, each of at most ``_PAIR_BLOCK`` pairs or one row's, whose pairs are the
        dense enumerator's in its row-major order, byte for byte."""
        if block is not None:
            monkeypatch.setattr(relabel, "_PAIR_BLOCK", block)
        group = self.GROUPS[name]
        runs = list(relabel._pair_runs(group))
        first = 0
        for lo, count, i, j in runs:
            assert lo == first and len(j) == count.sum() and j.dtype == np.intp
            assert i.tobytes() == np.repeat(np.arange(lo, lo + len(count)), count).tobytes()
            assert count.sum() <= relabel._PAIR_BLOCK or len(count) == 1
            first = lo + len(count)
        assert len(group) - 1 <= first <= len(group)  # every row that has a later row
        empty = [np.empty(0, dtype=np.intp)]
        i = np.concatenate(empty + [i for _, _, i, _ in runs])
        j = np.concatenate(empty + [j for _, _, _, j in runs])
        want_i, want_j = _dense_group_pairs(group)
        assert (i.dtype, j.dtype) == (want_i.dtype, want_j.dtype)
        assert i.tobytes() == want_i.tobytes() and j.tobytes() == want_j.tobytes()

    def test_blocks_of_one_run(self, monkeypatch):
        """A run of three rows of one group of ten: 3 * 9 pairs at most."""
        monkeypatch.setattr(relabel, "_PAIR_BLOCK", 3 * (10 - 1))
        runs = list(relabel._pair_runs(np.zeros(10, dtype=np.intp)))
        assert [(lo, count.tolist()) for lo, count, _, _ in runs] == [(0, [9, 8, 7]), (3, [6, 5, 4]), (6, [3, 2, 1])]


class TestPersistence:
    def test_pose_roundtrip_normalizes_heading(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\nimg1,cityA,100.5,-3.25,540\n")
        table = load_poses(path)
        assert table.poses[0, 2] == pytest.approx(math.pi)
        out = tmp_path / "again.csv"
        save_poses(out, table)
        assert load_poses(out).poses[0, 2] == pytest.approx(math.pi)

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

    def test_columns_equal_the_per_row_reference_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(23)
        edges = ["0", "-0.0", "720", "-720", "360", "-360", "180", "-180", "1e308", "-1e308",
                 "1.7976931348623157e308", "5e-324", "-5e-324", "-1e-14", "-2e-14", "-1e-300",
                 "359.99999999999994", "1e-300", " 45 ", "1_000", "-359.99999999999994"]
        randoms = [repr(float(x)) for x in np.concatenate([rng.uniform(-1e3, 1e3, 300), rng.normal(0, 1e-12, 50),
                                                           rng.uniform(-1e300, 1e300, 50)])]
        degrees = edges + randoms
        positions = ["-0.0", "1e308", "5e-324", "-7.25"] + randoms
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\n" + "".join(
            f"p{i},s{i % 3},{positions[i % len(positions)]},{positions[-1 - i % len(positions)]},{a}\n"
            for i, a in enumerate(degrees)))
        want_ids, want_scenes, poses = _reference_load_poses(path)
        want = np.array([(p.t0, p.t1, p.alpha) for p in poses])
        table = load_poses(path)
        assert table.ids == want_ids and table.scenes == want_scenes
        assert table.poses.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert want[degrees.index("-1e-14"), 2] == 0.0  # a tiny negative heading wraps to 0, not 2 pi

    def test_wrapped_heading_reaches_the_overlap_unchanged(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\na,s,0,0,-1e-14\nb,s,3.5,1.25,20\nc,s,-2,4,-2e-14\n")
        _, _, poses = _reference_load_poses(path)
        assert poses[0].alpha == poses[2].alpha == 0.0
        want = [fov_overlap(poses[a], poses[b], FOV, 64) for a, b in ((0, 1), (0, 2), (1, 2))]
        labels = pairwise_similarity(load_poses(path), FOV, arc_segments=64)
        assert [lab.psi for lab in labels] == want

    def test_labels_roundtrip_with_six_decimals(self, tmp_path):
        path = tmp_path / "labels.csv"
        save_labels(path, ("a", "b", "c"), [(np.array([0, 0]), np.array([1, 2]), np.array([1 / 3, 0.0]))])
        text = path.read_text()
        assert "0.333333" in text
        again = list(load_labels(path))
        assert again[0].psi == pytest.approx(1 / 3, abs=1e-6)
        assert again[1].psi == 0.0

    def test_label_file_roundtrip_is_byte_identical_at_the_rounding_edges(self, tmp_path):
        psis = [0.0, 1.0, 0.5, 1 / 3]
        for k in (0, 1, 2, 499_999, 999_999):  # (k + 0.5) 1e-6, where the sixth decimal rounds
            x = (k + 0.5) * 1e-6
            psis += [float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, 1.0))]
        labels = [SimilarityLabel(f"q{n:02d}", f"m{n % 3}", p) for n, p in enumerate(psis)]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        table = LabelTable.of(labels)
        save_labels(first, table.ids, [(table.query, table.map, table.psi)])
        assert first.read_bytes().decode("utf-8").split("\r\n") == [
            "query_id,map_id,psi", *(f"{lab.query_id},{lab.map_id},{lab.psi:.6f}" for lab in labels), ""]
        table = load_labels(first)
        assert list(table) == [SimilarityLabel(lab.query_id, lab.map_id, float(f"{lab.psi:.6f}")) for lab in labels]
        save_labels(again, table.ids, [(table.query, table.map, table.psi)])
        assert again.read_bytes() == first.read_bytes()

    def test_load_labels_memory_per_label(self, tmp_path):
        """Labels are read into columns: no object per label, and each id string held once."""
        ids = [f"p{k // 20:03d}_i{k % 20:03d}" for k in range(200)]  # the synth worlds' id shape
        rng = np.random.default_rng(6)
        path = tmp_path / "labels.csv"
        pairs = [(a, b) for n, a in enumerate(ids) for b in ids[n + 1:]]
        path.write_bytes("query_id,map_id,psi\r\n".encode() + "".join(
            f"{a},{b},{p:.6f}\r\n" for (a, b), p in zip(pairs, rng.uniform(0.0, 1.0, len(pairs)))).encode())
        tracemalloc.start()
        try:
            table = load_labels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == len(pairs) == 19_900 and table.ids == tuple(ids)
        assert peak <= 160 * len(pairs), f"{peak / len(pairs):.0f} B per label"
        save_labels(tmp_path / "again.csv", table.ids, [(table.query, table.map, table.psi)])
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_load_labels_peak_is_about_twice_its_table(self, tmp_path):
        """244,650 labels of 700 ids: the blocks are dropped before the codes are ranked, so the peak is
        the blocks and their join, about twice the table; with the ranked columns as well it was 2.7 times."""
        ids = [f"p{k // 20:03d}_i{k % 20:03d}" for k in range(700)]
        i, j = np.triu_indices(700, k=1)
        path = tmp_path / "labels.csv"
        save_labels(path, ids, [(i, j, np.random.default_rng(7).uniform(0.0, 1.0, len(i)))])
        tracemalloc.start()
        try:
            table = load_labels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = table.query.nbytes + table.map.nbytes + table.psi.nbytes
        assert len(table) == 244_650 and table.query.tolist() == i.tolist() and table.map.tolist() == j.tolist()
        assert peak <= 2.2 * table_bytes + 1_000_000, f"{peak / table_bytes:.2f} times the table"

    def test_load_labels_validates(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("query_id,map_id,psi\na,b,1.5\n")
        with pytest.raises(ValueError, match=":2"):
            load_labels(path)


POSE6 = "id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2"


def pose6(image_id, entry="0", rotation="1,0,0,0,1,0,0,0,1"):
    return f"{image_id},{rotation},{entry},0,0"


def read_gt(path):
    return load_ground_truth(path, ["q1", "q2"], ["m1", "m2"])


MANY_POSES = [f"p{i},s,{i},0,0" if i % 7 else "" for i in range(1, 1200)]  # blanks between; 1,199 records
MANY_POSES6 = [pose6(f"c{i}") if i % 5 else "" for i in range(1, 1200)]


class TestBulkCsvFirstFault:
    """Each reader reports the first bad record of the file, numbered as csv records from 2 with
    blank records counted, whatever fault comes later and whichever block of records it is in."""

    @pytest.mark.parametrize("reader, header, records, line, message", [
        (load_poses, "id,scene,t0,t1,alpha_deg",
         ["a,s,0,0,0", "", "b,s,1,1,1", "", "c,s,x,0,0", "d,s,0,0", "e,s,0,0,nan"], 6, "non-numeric pose entry"),
        (load_poses, "id,scene,t0,t1,alpha_deg",
         ["a,s,0,0,0", "", "b,s,1,1", "", "c,s,x,0,0", "e,s,0,0,inf"], 4, "expected 5 fields, got 4"),
        (load_poses, "id,scene,t0,t1,alpha_deg",
         ["a,s,0,0,0", "a,s,1,1,1", "", "b,s,1e999,0,0", "c,s,x,0,0"], 5, "pose coordinates must be finite"),
        (load_poses, "id,scene,t0,t1,alpha_deg",
         ['"a\nb",s,0,0,0', "", "c,s,0,0,0,9", "d,s,x,0,0"], 4, "expected 5 fields, got 6"),
        (load_poses, "id,scene,t0,t1,alpha_deg",
         MANY_POSES + ["q,s,0,0,0", "", "r,s,0,y,0", "t,s"], 1203, "non-numeric pose entry"),
        (load_poses, "id,scene,t0,t1,alpha_deg",
         MANY_POSES + ["q,s,0,0", "r,s,0,y,0"], 1201, "expected 5 fields, got 4"),
        (load_labels, "query_id,map_id,psi", ["a,b,0.5", "", "a,c,1.5", "a,d,zz"], 4, "psi must be in [0, 1], got 1.5"),
        (load_labels, "query_id,map_id,psi", ["a,b,0.5", "a,d,zz", "", "a,c"], 3, "non-numeric psi"),
        (read_gt, "query_id,map_id", ["q1,m1", "", "q2,zz", "qq,m1", "q1"], 4, "unknown map id 'zz'"),
        (read_gt, "query_id,map_id", ["q1,m1", "qq,zz", "", "q1,m1,m2"], 3, "unknown query id 'qq'"),
        (load_poses_6dof, POSE6, [pose6("a"), "", pose6("a"), pose6("b", "x")], 4, "duplicate id 'a'"),
        (load_poses_6dof, POSE6, [pose6("a"), pose6("b", "x"), "", pose6("a")], 3, "non-numeric pose entry"),
        (load_poses_6dof, POSE6, MANY_POSES6 + [pose6("c3"), pose6("d", "x")], 1201, "duplicate id 'c3'"),
        *((load_poses_6dof, POSE6, MANY_POSES6 + [pose6("q"), "", bad, pose6("z", "x"), pose6("q")], 1203, message)
          for bad, message in [
              (pose6("d", rotation="1,0,0,0,1,0,0,0.01,1"), "rotation is not orthonormal"),
              (pose6("d", rotation="1,0,0,0,1,0,0,0,-1"), "rotation determinant must be +1 (no reflections)"),
              (pose6("d", rotation="1,0,0,0,nan,0,0,0,1"), "pose entries must be finite"),
              (pose6("d", "-inf"), "pose entries must be finite"),
              (pose6("d", rotation="1,0,0,0,1,0,0,0,one"), "non-numeric pose entry"),
              (pose6("q"), "duplicate id 'q'"),
          ]),
    ], ids=["poses-value-before-count", "poses-count-before-value", "poses-row-before-table",
            "poses-multiline-record", "poses-second-block", "poses-count-in-second-block",
            "labels-range-before-value", "labels-value-before-count", "gt-map-before-query",
            "gt-query-before-count", "pose6-duplicate-before-value", "pose6-value-before-duplicate",
            "pose6-duplicate-across-blocks", "pose6-second-block-not-orthonormal", "pose6-second-block-reflection",
            "pose6-second-block-nan", "pose6-second-block-infinite", "pose6-second-block-value",
            "pose6-second-block-duplicate"])
    def test_first_fault_wins(self, tmp_path, reader, header, records, line, message):
        path = tmp_path / "input.csv"
        path.write_text("\n".join([header, *records]) + "\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_table_fault_after_every_record_is_read(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\na,s,0,0,0\n\nb,,1,1,1\na,s,1,1,1\n")
        with pytest.raises(ValueError) as err:
            load_poses(path)
        assert str(err.value) == f"{path}: image 'b' has an empty scene name"


class TestJoinedBlocks:
    """``read_blocks`` joins its blocks' columns, and a file with no record is ``parse([])``."""

    def test_lists_and_arrays_are_joined_end_to_end(self):
        blocks = [[["a", "1"], [], ["b", "2"]], [], [["c", "3"]]]
        def parse(rows):
            return [r[0] for r in rows], np.array([float(r[1]) for r in rows])

        ids, values = read_blocks(iter(blocks), 2, parse, 1, "fields")
        assert ids == ["a", "b", "c"] and values.tolist() == [1.0, 2.0, 3.0]

    def test_no_record_is_parse_of_no_record(self):
        def parse(rows):
            return [len(rows)], np.full(len(rows) + 1, 7.0)

        for blocks in ([], [[[], []]]):  # no block, and a block of blank records
            counts, values = read_blocks(iter(blocks), 2, parse, 1, "fields")
            assert counts == [0] and values.tolist() == [7.0]

    def test_header_only_files(self, tmp_path):
        """Each joining reader on a file of no record: the shapes and dtypes of its empty result, or its error."""
        path = tmp_path / "input.csv"
        path.write_text("id,scene,t0,t1,alpha_deg\r\n")
        poses = load_poses(path)
        assert (poses.ids, poses.scenes, poses.poses.shape, poses.poses.dtype) == ((), (), (0, 3), np.float64)
        path.write_text("query_id,map_id,psi\r\n")
        labels = load_labels(path)
        assert (labels.ids, len(labels)) == ((), 0)
        assert [(c.shape, c.dtype) for c in (labels.query, labels.map, labels.psi)] == \
            [((0,), np.intp), ((0,), np.intp), ((0,), np.float64)]
        path.write_text("query_id,map_id\r\n")
        assert [(c.shape, c.dtype) for c in read_gt(path)] == [((0,), np.int64), ((0,), np.int64)]
        path.write_text(POSE6 + "\r\n")
        cameras = load_poses_6dof(path)
        assert (cameras.ids, cameras.rotations.shape, cameras.translations.shape) == ((), (0, 3, 3), (0, 3))
        assert cameras.rotations.dtype == cameras.translations.dtype == np.float64
        for content in ("", "\n \n\r\n"):
            path.write_text(content)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty point cloud$"):
                load_point_cloud(path)


def _reference_load_poses(path):
    """The former per-row reader: ids, scenes and one CameraPose2D per record."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if row]
    poses = [CameraPose2D(float(r[2]), float(r[3]), math.radians(float(r[4]))) for r in rows]
    return tuple(r[0] for r in rows), tuple(r[1] for r in rows), poses


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


class TestIdOrder:
    """Ids rank in Python ``str`` order everywhere, by ``io.id_order``. NumPy's fixed-width strings drop
    trailing NULs, so "a" and "a\\x00" would tie in a NumPy sort. The inputs are library tables: the csv
    module of Python 3.10 refuses a NUL in a file."""

    IDS = ("a\x00", "b", "a")  # str order: "a" < "a\x00" < "b"

    def test_id_order(self):
        assert np.array(["a", "a\x00"]).tolist() == ["a", "a"]  # why no NumPy sort may rank ids
        order = id_order(self.IDS)
        assert order.dtype == np.intp and order.tolist() == [2, 0, 1]
        assert id_order(()).tolist() == []

    def test_pose_table_by_id_and_label_blocks(self):
        table = PoseTable.of(rec(ident, k, 0, 0) for k, ident in enumerate(self.IDS))
        ranked = table.by_id()
        assert ranked.ids == ("a", "a\x00", "b")
        assert ranked.poses[:, 0].tolist() == [2.0, 0.0, 1.0]
        ids, blocks = relabel.label_blocks(table, FOV)
        assert tuple(ids) == ("a", "a\x00", "b")
        pairs = [(ids[i], ids[j]) for i, j, _ in blocks for i, j in zip(i.tolist(), j.tolist())]
        assert pairs == [("a", "a\x00"), ("a", "b"), ("a\x00", "b")]

    def test_label_table_of(self):
        table = LabelTable.of([SimilarityLabel("a\x00", "b", 0.5), SimilarityLabel("a", "a\x00", 0.25)])
        assert table.ids == ("a", "a\x00", "b")
        assert [(q, m) for q, m, _ in table.records()] == [("a\x00", "b"), ("a", "a\x00")]

    def test_top_k_breaks_ties_by_map_id(self):
        map_set = DescriptorSet(self.IDS, np.ones((3, 2)))  # every map row at the same distance
        rows, _ = _top_k(DescriptorSet(("q",), np.ones((1, 2))), map_set, 3)
        assert [map_set.ids[r] for r in rows[0].tolist()] == ["a", "a\x00", "b"]

    def test_ground_truth_lists_positives_in_map_id_order(self):
        maps = PoseTable.of(rec(ident, k, 0, 0) for k, ident in enumerate(self.IDS))
        queries = PoseTable.of([rec("q", 1, 0, 0)])
        assert _ground_truth(queries, maps) == {"q": ("a", "a\x00", "b")}
