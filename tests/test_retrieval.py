"""Nearest-neighbor search, recall, localization and whitening tests."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gvpr.fov2d import CameraPose2D, wrapped_angle_diff
from gvpr.retrieval import (
    _TILE_ROWS,
    DEFAULT_LOC_THRESHOLDS,
    DescriptorSet,
    Ranking,
    WhitenTransform,
    _localization,
    _top_k,
    apply_whitening,
    fit_pca_whitening,
    localization_accuracy,
    nn_search,
    read_descriptors,
    recall_at_k,
    write_descriptors,
)
from gvpr.synth import SynthConfig, generate_world

ROOT = Path(__file__).resolve().parent.parent


def dset(ids, rows, **kw):
    return DescriptorSet(ids=tuple(ids), matrix=np.asarray(rows, dtype=float), **kw)


def _tiled_inner_products(q, m):
    """``q @ m.T`` by the documented rule of the search: 256 query rows at a time, the last tile
    zero-padded to 256 rows, against ``m`` zero-padded to a multiple of 64 rows."""
    tile_rows, pad_rows = 256, 64
    m_pad = np.zeros((-(-len(m) // pad_rows) * pad_rows, m.shape[1]))
    m_pad[:len(m)] = m
    out = np.empty((len(q), len(m)))
    for lo in range(0, len(q), tile_rows):
        rows = q[lo:lo + tile_rows]
        tile = np.zeros((tile_rows, q.shape[1]))
        tile[:len(rows)] = rows
        out[lo:lo + len(rows)] = (tile @ m_pad.T)[:len(rows), :len(m)]
    return out


def _reference_nn_search(queries, map_set, k, inner_products=_tiled_inner_products):
    """The dense search: the full distance matrix, then one lexsort per query."""
    order = np.argsort(np.array(map_set.ids))
    m = map_set.matrix[order]
    ids = [map_set.ids[i] for i in order]
    q = queries.matrix
    d2 = (np.sum(q * q, axis=1)[:, None] + np.sum(m * m, axis=1)[None, :]) - 2.0 * inner_products(q, m)
    dist = np.sqrt(np.maximum(d2, 0.0))
    out = []
    for qi, query_id in enumerate(queries.ids):
        row = dist[qi]
        top = np.lexsort((np.arange(len(ids)), row))[:k]
        out.append(Ranking(query_id, tuple((ids[j], float(row[j])) for j in top)))
    return out


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


class TestContainers:
    def test_descriptor_set_validation(self):
        with pytest.raises(ValueError, match="unique"):
            dset(["a", "a"], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            dset(["a"], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="finite"):
            dset(["a"], [[np.inf]])
        with pytest.raises(ValueError, match="unit-norm"):
            dset(["a"], [[2.0, 0.0]], normalized=True)
        ok = dset(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], normalized=True)
        assert len(ok) == 2 and ok.dim == 2

    @pytest.mark.parametrize("make, message", [
        (lambda: DescriptorSet(("a", "b", "c"), np.ones(3)), "matrix must be 2-dimensional, got shape (3,)"),
        (lambda: WhitenTransform(np.zeros(3), np.eye(4)), "inconsistent shapes: mean (3,), projection (4, 4)"),
        (lambda: WhitenTransform(np.zeros((1, 3)), np.eye(3)), "inconsistent shapes: mean (1, 3), projection (3, 3)"),
        (lambda: WhitenTransform(np.zeros(3), np.ones((4, 3))), "cannot whiten to more dimensions than the input has"),
    ])
    def test_shapes_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_ranking_validation(self):
        with pytest.raises(ValueError):
            Ranking("q", ())
        with pytest.raises(ValueError, match="non-decreasing"):
            Ranking("q", (("a", 2.0), ("b", 1.0)))
        r = Ranking("q", (("a", 1.0), ("b", 2.0), ("c", 2.0)))
        assert r.hits == (("a", 1.0), ("b", 2.0), ("c", 2.0))


class TestNnSearch:
    def test_hand_ordering(self):
        queries = dset(["q"], [[0.0, 0.0]])
        refs = dset(["b", "a", "c"], [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        (r,) = nn_search(queries, refs, k=3)
        assert [mid for mid, _ in r.hits] == ["b", "a", "c"]
        assert [d for _, d in r.hits] == pytest.approx([1.0, 2.0, 3.0])

    def test_exact_tie_broken_by_id(self):
        queries = dset(["q"], [[0.0, 0.0]])
        refs = dset(["z", "a"], [[1.0, 0.0], [-1.0, 0.0]])
        (r,) = nn_search(queries, refs, k=2)
        assert [mid for mid, _ in r.hits] == ["a", "z"]

    @pytest.mark.parametrize("ids", [("a", "a\x00"), ("a\x00", "a")])
    def test_tie_broken_by_python_str_order_in_either_row_order(self, ids):
        # NumPy's fixed-width unicode order holds "a" and "a\x00" equal
        queries = dset(["q"], [[0.0, 0.0]])
        (r,) = nn_search(queries, dset(ids, [[1.0, 0.0], [0.0, 1.0]]), k=2)
        assert [mid for mid, _ in r.hits] == ["a", "a\x00"]

    def test_invariant_under_map_row_permutation(self):
        rng = np.random.default_rng(0)
        queries = dset([f"q{i}" for i in range(5)], rng.normal(size=(5, 4)))
        ids = [f"m{i:02d}" for i in range(12)]
        rows = rng.normal(size=(12, 4))
        perm = rng.permutation(12)
        fwd = nn_search(queries, dset(ids, rows), k=12)
        shuf = nn_search(queries, dset([ids[i] for i in perm], rows[perm]), k=12)
        assert fwd == shuf

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(1)
        q_rows = rng.normal(size=(20, 8))
        m_rows = rng.normal(size=(30, 8))
        m_ids = [f"m{i:02d}" for i in range(30)]
        queries = dset([f"q{i:02d}" for i in range(20)], q_rows)
        refs = dset(m_ids, m_rows)
        for qi, r in enumerate(nn_search(queries, refs, k=30)):
            naive = sorted(
                (float(np.linalg.norm(q_rows[qi] - m_rows[mi])), m_ids[mi])
                for mi in range(30)
            )
            assert [mid for mid, _ in r.hits] == [mid for _, mid in naive]
            assert [d for _, d in r.hits] == pytest.approx([d for d, _ in naive], abs=1e-9)

    def test_k_validation(self):
        queries = dset(["q"], [[0.0]])
        refs = dset(["a"], [[1.0]])
        for bad in (0, 2):
            with pytest.raises(ValueError):
                nn_search(queries, refs, k=bad)
        with pytest.raises(ValueError, match="dimension"):
            nn_search(queries, dset(["a"], [[1.0, 0.0]]), k=1)


class TestBlockedSearchMatchesReference:
    """nn_search equals the dense reference exactly: ids and float distances, every block boundary."""

    @pytest.mark.parametrize("nq", [1, _TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1, 2 * _TILE_ROWS + 3])
    def test_random_unit_descriptors(self, nq):
        rng = np.random.default_rng(nq)
        queries = dset([f"q{i:04d}" for i in range(nq)], unit_rows(rng, nq, 16), normalized=True)
        refs = dset([f"m{i:03d}" for i in range(300)], unit_rows(rng, 300, 16), normalized=True)
        for k in (1, 10, len(refs)):
            got = nn_search(queries, refs, k)
            assert got == _reference_nn_search(queries, refs, k)
            # Against one full q @ m.T, which rounds some inner products otherwise: a 16-term dot
            # product of unit rows moves by at most 16 ulps of 1 (3.6e-15) with its summation order,
            # and with every distance above 0.5 a distance moves by no more than its d2 does.
            full = _reference_nn_search(queries, refs, k, inner_products=lambda q, m: q @ m.T)
            assert [[mid for mid, _ in r.hits] for r in got] == [[mid for mid, _ in r.hits] for r in full]
            got_d, full_d = ([d for r in rankings for _, d in r.hits] for rankings in (got, full))
            assert min(got_d) > 0.5
            np.testing.assert_allclose(got_d, full_d, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("nq", [3, _TILE_ROWS + 1])
    def test_exact_ties_across_the_kth_place(self, nq):
        rng = np.random.default_rng(7)
        # integer rows give exact integer squared distances, so many ties straddle the k-th place
        queries = dset([f"q{i}" for i in range(nq)], rng.integers(-1, 2, size=(nq, 3)))
        refs = dset([f"m{i:03d}" for i in range(200)], rng.integers(-1, 2, size=(200, 3)))
        for k in (1, 2, 5, 10, 57, len(refs)):
            assert nn_search(queries, refs, k) == _reference_nn_search(queries, refs, k)

    def test_map_rows_in_shuffled_id_order(self):
        rng = np.random.default_rng(11)
        queries = dset([f"q{i}" for i in range(_TILE_ROWS + 5)], rng.normal(size=(_TILE_ROWS + 5, 6)))
        rows = rng.normal(size=(150, 6)) * rng.uniform(0.5, 3.0, size=(150, 1))
        refs = dset([f"m{i:03d}" for i in rng.permutation(150)], rows)
        for k in (1, 10, len(refs)):
            assert nn_search(queries, refs, k) == _reference_nn_search(queries, refs, k)

    def test_hits_are_str_float_pairs(self):
        rng = np.random.default_rng(17)
        ids = np.array([f"m{i:03d}" for i in range(40)])  # np.str_ ids come back as str
        queries = dset(["q0", "q1", "q2"], unit_rows(rng, 3, 8))
        refs = dset(ids, unit_rows(rng, 40, 8))
        got = nn_search(queries, refs, 10)
        assert got == _reference_nn_search(queries, refs, 10)
        for r in got:
            assert type(r.hits) is tuple
            assert all(type(h) is tuple and type(h[0]) is str and type(h[1]) is float for h in r.hits)

    def test_rankings_are_built_checked(self, monkeypatch):
        rng = np.random.default_rng(19)
        queries = dset(["q0", "q1", "q2"], unit_rows(rng, 3, 4))
        refs = dset([f"m{i}" for i in range(6)], unit_rows(rng, 6, 4))
        checked = []
        monkeypatch.setattr(Ranking, "__post_init__",
                            lambda r, check=Ranking.__post_init__: (checked.append(r.query_id), check(r)))
        got = nn_search(queries, refs, 4)
        assert checked == ["q0", "q1", "q2"] and got == _reference_nn_search(queries, refs, 4)

    def test_overflowing_rows_rank_like_the_reference(self):
        # finite rows whose squared norms overflow give NaN distances, which sort last
        rows = [[1e200, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, -1e200], [3.0, 3.0]]
        refs = dset(["e", "a", "d", "b", "c"], rows)
        queries = dset(["q0", "q1"], [[0.0, 0.0], [1e200, 1e200]])
        for k in (1, 3, 5):
            with np.errstate(over="ignore", invalid="ignore"):
                pairs = list(zip(nn_search(queries, refs, k), _reference_nn_search(queries, refs, k)))
            for got, want in pairs:
                assert [mid for mid, _ in got.hits] == [mid for mid, _ in want.hits]
                assert np.array_equal([d for _, d in got.hits], [d for _, d in want.hits], equal_nan=True)


def _subset_mismatches(seed: int) -> list:
    """Cases where ``_top_k`` of a random subset of queries, in random order, differs from the
    full set's rows in map rows or in distance bits, over map sizes on both sides of the padding
    rule and dimensions 3, 16 and 300."""
    rng = np.random.default_rng(seed)
    nq = 2 * _TILE_ROWS + 88
    out = []
    for n_map in (1, 7, 300, 2003):
        for d in (3, 16, 300):
            queries = dset([f"q{i:03d}" for i in range(nq)], rng.normal(size=(nq, d)))
            refs = dset([f"m{i:04d}" for i in rng.permutation(n_map)], rng.normal(size=(n_map, d)))
            k = min(10, n_map)
            rows, dist = _top_k(queries, refs, k)
            for size in (1, 31, 257, nq):
                pick = rng.permutation(nq)[:size]
                sub = dset([queries.ids[i] for i in pick], queries.matrix[pick])
                sub_rows, sub_dist = _top_k(sub, refs, k)
                if not (np.array_equal(sub_rows, rows[pick]) and sub_dist.tobytes() == dist[pick].tobytes()):
                    out.append((n_map, d, size))
    return out


class TestBatchIndependence:
    """A query's map rows and distance bits do not depend on which other queries share the call."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_query_subsets_rank_as_in_the_full_set(self, threads):
        # BLAS reads its thread count once, at load: each count runs in its own interpreter
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", "import test_retrieval as t; print(t._subset_mismatches(5))"],
                              cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_memory_is_one_tile_of_products(self):
        """2,000 queries x 2,000 map rows: the whole q @ m.T takes 32 MB, one tile's products 0.5 MB."""
        rng = np.random.default_rng(29)
        queries = dset([f"q{i:04d}" for i in range(2_000)], unit_rows(rng, 2_000, 16), normalized=True)
        refs = dset([f"m{i:04d}" for i in range(2_000)], unit_rows(rng, 2_000, 16), normalized=True)
        tracemalloc.start()
        try:
            rows, dist = _top_k(queries, refs, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == dist.shape == (2_000, 10)
        assert peak <= 8_000_000, f"{peak / 1e6:.1f} MB"

    def test_memory_is_one_block_of_32_queries(self):
        """2,000 queries x 2,000 map rows of 16 dimensions, k = 1: the padded map (0.26 MB), one 32-row
        block's products (0.52 MB), squared distances and partition (0.51 MB each), and the results."""
        rng = np.random.default_rng(30)
        queries = dset([f"q{i:04d}" for i in range(2_000)], unit_rows(rng, 2_000, 16), normalized=True)
        refs = dset([f"m{i:04d}" for i in range(2_000)], unit_rows(rng, 2_000, 16), normalized=True)
        tracemalloc.start()
        try:
            rows, dist = _top_k(queries, refs, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == dist.shape == (2_000, 1)
        assert peak < 2 << 20, f"{peak / 1e6:.2f} MB"


class TestSquaredDistanceSelection:
    """Candidates are picked on squared distances, yet the ranking is that of the rounded distances."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_ties_made_by_the_sqrt_go_to_the_smaller_id(self, k):
        # |a|^2 = 1 + 2^-52 > |b|^2 = 1, but both square roots round to 1.0
        refs = dset(["a", "b"], [[1.0, 2.0**-26], [1.0, 0.0]])
        queries = dset(["q"], [[0.0, 0.0]])
        got = nn_search(queries, refs, k)
        assert got == _reference_nn_search(queries, refs, k)
        assert got[0].hits[0] == ("a", 1.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_integer_grid_ties_with_k_at_the_edges(self, seed):
        rng = np.random.default_rng(seed)
        nq, n_map = _TILE_ROWS + 9, 60
        queries = dset([f"q{i:03d}" for i in range(nq)], rng.integers(-2, 3, size=(nq, 2)))
        refs = dset([f"m{i:02d}" for i in rng.permutation(n_map)], rng.integers(-2, 3, size=(n_map, 2)))
        for k in (1, 2, n_map - 1, n_map):
            assert nn_search(queries, refs, k) == _reference_nn_search(queries, refs, k)

    def test_subnormal_squared_distances(self):
        rng = np.random.default_rng(19)
        # rows ~1e-160 apart: squared norms and distances are subnormal, the distances themselves not
        grid = np.concatenate([rng.integers(-3, 4, size=(40, 3)), rng.normal(size=(40, 3))]) * 1e-160
        queries = dset([f"q{i:02d}" for i in range(20)], grid[rng.permutation(80)[:20]] + 1e-161)
        refs = dset([f"m{i:02d}" for i in range(80)], grid)
        for k in (1, 2, 7, 79, 80):
            assert nn_search(queries, refs, k) == _reference_nn_search(queries, refs, k)


class TestRecall:
    def rankings(self):
        return [
            Ranking("q1", (("a", 0.1), ("b", 0.2), ("c", 0.3))),
            Ranking("q2", (("a", 0.1), ("b", 0.2), ("c", 0.3))),
        ]

    def test_hand_percentages(self):
        positives = {"q1": {"a"}, "q2": {"c"}}
        res = recall_at_k(self.rankings(), positives, ks=[1, 2, 3])
        assert res[1] == 50.0
        assert res[2] == 50.0
        assert res[3] == 100.0
        assert res.evaluated == 2 and res.excluded == 0

    def test_empty_positive_sets_are_excluded(self):
        positives = {"q1": {"a"}, "q2": set()}
        res = recall_at_k(self.rankings(), positives, ks=[1])
        assert res[1] == 100.0
        assert res.evaluated == 1 and res.excluded == 1

    def test_missing_entry_is_key_error(self):
        with pytest.raises(KeyError, match="q2"):
            recall_at_k(self.rankings(), {"q1": {"a"}}, ks=[1])

    def test_all_excluded_is_error(self):
        with pytest.raises(ValueError):
            recall_at_k(self.rankings(), {"q1": set(), "q2": set()}, ks=[1])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        queries = dset([f"q{i}" for i in range(15)], rng.normal(size=(15, 4)))
        refs = dset([f"m{i}" for i in range(25)], rng.normal(size=(25, 4)))
        rankings = nn_search(queries, refs, k=25)
        positives = {
            f"q{i}": set(rng.choice([f"m{j}" for j in range(25)], size=3, replace=False))
            for i in range(15)
        }
        res = recall_at_k(rankings, positives, ks=[1, 5, 10, 25])
        assert res[1] <= res[5] <= res[10] <= res[25]
        assert res[25] == 100.0

    def test_ks_validated(self):
        with pytest.raises(ValueError):
            recall_at_k(self.rankings(), {"q1": {"a"}, "q2": {"a"}}, ks=[])
        with pytest.raises(ValueError):
            recall_at_k(self.rankings(), {"q1": {"a"}, "q2": {"a"}}, ks=[0])


class TestLocalization:
    def test_no_queries(self):
        with pytest.raises(ValueError, match="^no rankings to evaluate$"):
            localization_accuracy([], {}, {})

    def test_threshold_tiers(self):
        rankings = [
            Ranking("near", (("m1", 0.1),)),
            Ranking("far", (("m2", 0.1),)),
        ]
        query_poses = {
            "near": CameraPose2D(0.0, 0.0, 0.0),
            "far": CameraPose2D(0.0, 0.0, 0.0),
        }
        map_poses = {
            "m1": CameraPose2D(0.1, 0.0, math.radians(1.0)),
            "m2": CameraPose2D(1.0, 0.0, math.radians(3.0)),
        }
        acc = localization_accuracy(rankings, query_poses, map_poses)
        assert acc[DEFAULT_LOC_THRESHOLDS[0]] == 50.0
        assert acc[DEFAULT_LOC_THRESHOLDS[1]] == 50.0
        assert acc[DEFAULT_LOC_THRESHOLDS[2]] == 100.0

    def test_heading_error_wraps(self):
        rankings = [Ranking("q", (("m", 0.0),))]
        qp = {"q": CameraPose2D(0.0, 0.0, math.radians(1.0))}
        mp = {"m": CameraPose2D(0.0, 0.0, math.radians(359.0))}
        acc = localization_accuracy(rankings, qp, mp)
        assert acc[DEFAULT_LOC_THRESHOLDS[0]] == 100.0

    def test_missing_poses_are_key_errors(self):
        rankings = [Ranking("q", (("m", 0.0),))]
        pose = CameraPose2D(0.0, 0.0, 0.0)
        with pytest.raises(KeyError, match="q"):
            localization_accuracy(rankings, {}, {"m": pose})
        with pytest.raises(KeyError, match="m"):
            localization_accuracy(rankings, {"q": pose}, {})

    def test_translation_error_is_math_hypot(self):
        # np.hypot (glibc) rounds this distance one ulp above math.hypot
        dx, dy = -3.277658789086793, -6.994410662103219
        t = math.hypot(dx, dy)
        below = float(np.nextafter(t, 0.0))
        rankings = [Ranking("q", (("m", 0.0),))]
        qp = {"q": CameraPose2D(dx, dy, 0.0)}
        mp = {"m": CameraPose2D(0.0, 0.0, 0.0)}
        acc = localization_accuracy(rankings, qp, mp, thresholds=[(t, 0.0), (below, 0.0)])
        assert acc == {(t, 0.0): 100.0, (below, 0.0): 0.0}

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_localization_equals_the_frozen_math_hypot_form(self, seed):
        """The planar distance rule against the former ``math.hypot`` per query, each query taking the
        pose of a same-scene map image drawn at random as its top-1 match."""
        world = generate_world(SynthConfig(places=16, images_per_place=24, channels=1, locations=1, seed=seed))
        rng = np.random.default_rng(seed)
        queries = world.query_poses.poses
        top = world.map_poses.poses[rng.integers(0, len(world.map_poses), len(queries))]
        top[::3] = queries[::3] + rng.normal(scale=(0.3, 0.3, 0.03), size=(len(queries[::3]), 3))  # near 0.25 m
        thresholds = (*DEFAULT_LOC_THRESHOLDS, (25.0, math.radians(40.0)), (400.0, math.pi))
        t_err = np.array([math.hypot(d0, d1) for d0, d1 in (queries - top)[:, :2].tolist()])
        r_err = wrapped_angle_diff(queries[:, 2], top[:, 2])
        want = {t: 100.0 * np.count_nonzero((t_err <= t[0]) & (r_err <= t[1])) / len(queries) for t in thresholds}
        got = _localization(queries, top, thresholds)
        assert got == want and list(got) == list(want)
        assert 0.0 < got[DEFAULT_LOC_THRESHOLDS[0]] < got[(400.0, math.pi)] < 100.0

    def test_duplicate_thresholds_count_once(self):
        rankings = [Ranking("q", (("m", 0.0),))]
        pose = {"q": CameraPose2D(0.0, 0.0, 0.0), "m": CameraPose2D(0.0, 0.0, 0.0)}
        assert localization_accuracy(rankings, pose, pose, thresholds=[(1.0, 1.0), (1.0, 1.0)]) == {(1.0, 1.0): 100.0}

    def test_custom_thresholds(self):
        rankings = [Ranking("q", (("m", 0.0),))]
        qp = {"q": CameraPose2D(0.0, 0.0, 0.0)}
        mp = {"m": CameraPose2D(3.0, 0.0, 0.0)}
        acc = localization_accuracy(rankings, qp, mp, thresholds=[(10.0, 1.0)])
        assert acc[(10.0, 1.0)] == 100.0


def correlated_training_set(n=200, d=8, seed=3):
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(d, d)) + np.diag(np.linspace(2.0, 0.5, d))
    rows = rng.normal(size=(n, d)) @ mixing.T + rng.normal(size=d)
    return dset([f"t{i:03d}" for i in range(n)], rows)


class TestWhitening:
    def test_row_that_collapses_to_zero_is_refused(self):
        """A row equal to the transform's mean whitens to zero, which has no unit direction."""
        s = dset(["a", "b"], [[0.6, 0.8], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^whitened descriptor collapsed to zero; cannot renormalize$"):
            apply_whitening(WhitenTransform(s.matrix[1], np.eye(2)), s)

    def test_whitened_training_set_has_identity_covariance(self):
        train = correlated_training_set()
        t = fit_pca_whitening(train, d_pca=8)
        out = apply_whitening(t, train, renormalize=False).matrix
        assert np.mean(out, axis=0) == pytest.approx(np.zeros(8), abs=1e-9)
        cov = out.T @ out / (len(train) - 1)
        assert np.max(np.abs(cov - np.eye(8))) <= 1e-6

    def test_reduced_dimension_keeps_unit_variance(self):
        train = correlated_training_set()
        t = fit_pca_whitening(train, d_pca=3)
        assert t.d_pca == 3
        out = apply_whitening(t, train, renormalize=False).matrix
        assert out.shape == (200, 3)
        var = np.var(out, axis=0, ddof=1)
        assert var == pytest.approx(np.ones(3), abs=1e-6)

    def test_sign_convention(self):
        t = fit_pca_whitening(correlated_training_set(), d_pca=5)
        for row in t.projection:
            nz = np.flatnonzero(np.abs(row) > 1e-12)
            assert row[nz[0]] > 0.0

    def test_renormalize_default_returns_unit_rows(self):
        train = correlated_training_set()
        t = fit_pca_whitening(train, d_pca=4)
        out = apply_whitening(t, train)
        assert out.normalized
        assert np.linalg.norm(out.matrix, axis=1) == pytest.approx(np.ones(len(train)))

    def test_apply_matches_affine_map(self):
        train = correlated_training_set()
        t = fit_pca_whitening(train, d_pca=6)
        other = correlated_training_set(n=10, seed=4)
        out = apply_whitening(t, other, renormalize=False).matrix
        manual = (other.matrix - t.mean) @ t.projection.T
        assert np.array_equal(out, manual)

    def test_fit_validation(self):
        train = correlated_training_set(n=8, d=8)
        with pytest.raises(ValueError, match="samples"):
            fit_pca_whitening(train, d_pca=8)
        with pytest.raises(ValueError):
            fit_pca_whitening(correlated_training_set(), d_pca=9)
        with pytest.raises(ValueError):
            fit_pca_whitening(correlated_training_set(), d_pca=0)

    def test_apply_dimension_mismatch(self):
        t = fit_pca_whitening(correlated_training_set(), d_pca=4)
        with pytest.raises(ValueError, match="mismatch"):
            apply_whitening(t, dset(["a"], [[1.0, 2.0]]))


class TestDescriptorIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(4, 6))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        original = dset([f"d{i}" for i in range(4)], rows, normalized=True)
        path = tmp_path / "descriptors.bin"
        write_descriptors(path, original)
        again = read_descriptors(path)
        assert again.ids == original.ids
        assert again.matrix == pytest.approx(original.matrix, abs=1e-7)
        assert not again.normalized

    @pytest.mark.parametrize("ids, rows, message", [
        ((), np.zeros((0, 3)), "no feature maps to write"),
        (("a", ""), np.ones((2, 3)), "feature map id must be nonempty"),
        (("a",), np.ones((1, 0)), "feature map must be (channels, locations), got (0, 1)"),
        (("x" * 70_000,), np.ones((1, 3)), "id too long to serialize: 'xxx"),
    ], ids=["empty-set", "empty-id", "zero-width", "long-id"])
    def test_sets_the_format_cannot_hold_rejected(self, tmp_path, ids, rows, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            write_descriptors(tmp_path / "descriptors.bin", dset(ids, rows))

    def test_feature_file_with_many_locations_rejected(self, tmp_path):
        from gvpr.embed import FeatureMap, write_features

        path = tmp_path / "features.bin"
        write_features(path, [FeatureMap("a", np.ones((2, 3)))])
        with pytest.raises(ValueError, match="descriptor"):
            read_descriptors(path)
