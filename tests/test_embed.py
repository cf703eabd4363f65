"""Pooling, descriptor model and trainer tests."""

import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from gvpr.embed import (
    EmbedModel,
    FeatureMap,
    TrainConfig,
    TrainingDiverged,
    _pooled_rows,
    batch_loss_and_grad,
    compute_descriptors,
    forward,
    gem_pool,
    init_model,
    load_model,
    read_features,
    save_model,
    train,
    write_features,
)
from gvpr.gcl import LossConfig, cl_grad_d, cl_loss, gcl_grad_d, gcl_loss
from gvpr.relabel import SimilarityLabel
from gvpr.sampler import BatchSampler, BatchStrategy, index_labels


def random_maps(rng, n, channels=6, locations=10, prefix="m"):
    return [
        FeatureMap(f"{prefix}{i:03d}", rng.uniform(0.0, 2.0, size=(channels, locations)))
        for i in range(n)
    ]


class TestContainers:
    def test_feature_map_validation(self):
        with pytest.raises(ValueError):
            FeatureMap("", np.ones((2, 3)))
        with pytest.raises(ValueError):
            FeatureMap("a", np.ones(5))
        with pytest.raises(ValueError):
            FeatureMap("a", np.array([[np.nan, 1.0]]))

    def test_feature_map_keeps_signed_values(self):
        fm = FeatureMap("a", np.array([[-1.5, 2.0]]))
        assert fm.values[0, 0] == -1.5
        assert (fm.channels, fm.locations) == (1, 2)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EmbedModel(gem_p=0.0, W=np.ones((2, 3)))
        with pytest.raises(ValueError):
            EmbedModel(gem_p=3.0, W=np.ones(3))
        model = EmbedModel(gem_p=3.0, W=np.ones((2, 3)))
        assert (model.d_out, model.channels) == (2, 3)

    def test_train_config_defaults_follow_loss_kind(self):
        assert TrainConfig(loss_kind="gcl").lr0 == pytest.approx(0.1)
        assert TrainConfig(loss_kind="cl").lr0 == pytest.approx(0.01)
        assert TrainConfig(loss_kind="cl", lr0=0.5).lr0 == 0.5
        assert TrainConfig(lr0=0.0).lr0 == 0.0

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="triplet")
        with pytest.raises(ValueError):
            TrainConfig(lr0=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)


class TestGemPool:
    def test_p1_is_mean(self):
        assert gem_pool(np.array([[1.0, 3.0], [0.5, 0.5]]), 1.0) == pytest.approx([2.0, 0.5])

    def test_hand_value_p3(self):
        got = gem_pool(np.array([[1.0, 2.0]]), 3.0)
        assert got[0] == pytest.approx(4.5 ** (1.0 / 3.0))

    def test_large_p_approaches_max(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.0, 5.0, size=(4, 50))
        got = gem_pool(v, 128.0)
        assert np.all(got <= v.max(axis=1) + 1e-9)
        # generalized mean is at least max * (1/L)^(1/p), about 3% here
        assert got == pytest.approx(v.max(axis=1), rel=0.05)

    def test_negatives_clamped_on_ingest(self):
        assert gem_pool(np.array([[-4.0, 2.0]]), 1.0) == pytest.approx([1.0])
        # fractional p stays defined despite negative inputs
        got = gem_pool(np.array([[-4.0, 2.0]]), 2.5)
        assert np.all(np.isfinite(got))

    def test_power_mean_monotone_in_p(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.1, 3.0, size=(3, 20))
        p1, p3, p8 = (gem_pool(v, p) for p in (1.0, 3.0, 8.0))
        assert np.all(p1 <= p3 + 1e-12)
        assert np.all(p3 <= p8 + 1e-12)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            gem_pool(np.ones((1, 2)), 0.0)


def _reference_gem_pool(v, p):
    """Frozen per-map GeM: one (channels, locations) map per call, reduced over axis 1."""
    v = np.asarray(v, dtype=np.float64)
    return np.mean(np.maximum(v, 0.0) ** p, axis=1) ** (1.0 / p)


class TestStackedGemPool:
    """The stacked pool equals the frozen per-map pool bit for bit."""

    @pytest.mark.parametrize("locations", [1, 7, 8, 9, 64, 257])
    def test_stack_equals_per_map_reference(self, locations):
        rng = np.random.default_rng(locations)
        stack = rng.uniform(-0.5, 2.0, size=(40, 6, locations))
        for p in (1.0, 2.700000047683716, 3.0, 8.0):
            want = np.stack([_reference_gem_pool(v, p) for v in stack])
            assert np.array_equal(gem_pool(stack, p), want)

    def test_mixed_location_counts_keep_input_order(self):
        rng = np.random.default_rng(3)
        maps = random_maps(rng, 9, locations=8, prefix="a") + random_maps(rng, 7, locations=9, prefix="b")
        maps = [maps[i] for i in rng.permutation(len(maps))]
        model = init_model(d_out=4, channels=6, gem_p=2.7, seed=1)
        want = np.stack([_reference_gem_pool(fm.values, model.gem_p) for fm in maps])
        assert np.array_equal(_pooled_rows(model, maps), want)
        ids, mat = compute_descriptors(model, maps)
        assert ids == [fm.id for fm in maps]
        assert mat[5] == pytest.approx(forward(model, maps[5]))

    def test_rank_checked(self):
        for shape in ((4,), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="expected"):
                gem_pool(np.ones(shape), 3.0)


def reference_descriptor(model, fm):
    """Frozen per-map forward pass: W @ gem_pool(fm) as a gemv, then divided by its norm."""
    v = model.W @ gem_pool(fm.values, model.gem_p)
    return v / float(np.linalg.norm(v))


class TestForward:
    def test_descriptor_is_unit_norm(self):
        rng = np.random.default_rng(4)
        model = init_model(d_out=5, channels=6, seed=0)
        for fm in random_maps(rng, 4):
            assert np.linalg.norm(forward(model, fm)) == pytest.approx(1.0)

    def test_matches_manual_composition(self):
        # one matmul (gemm) over all maps rounds differently from one gemv per map,
        # so agreement is to the last bits, not bit for bit
        rng = np.random.default_rng(5)
        model = init_model(d_out=16, channels=32, gem_p=2.0, seed=1)
        maps = random_maps(rng, 300, channels=32, locations=8)
        manual = np.stack([reference_descriptor(model, fm) for fm in maps])
        _, mat = compute_descriptors(model, maps)
        assert np.max(np.abs(mat - manual)) <= 1e-15
        one_by_one = np.stack([forward(model, fm) for fm in maps])
        assert np.max(np.abs(one_by_one - manual)) <= 1e-15

    def test_channel_mismatch(self):
        model = init_model(d_out=3, channels=6, seed=0)
        odd = FeatureMap("odd", np.ones((4, 2)))
        with pytest.raises(ValueError, match="channels"):
            forward(model, odd)
        rng = np.random.default_rng(14)
        maps = random_maps(rng, 3) + [odd]
        with pytest.raises(ValueError, match="'odd' has 4 channels, model expects 6"):
            compute_descriptors(model, maps)
        with pytest.raises(ValueError, match="'odd' has 4 channels, model expects 6"):
            train(model, [SimilarityLabel("m000", "odd", 1.0)], maps, TrainConfig(batch_size=2))

    def test_zero_norm_descriptor_rejected(self):
        model = init_model(d_out=3, channels=6, seed=0)
        dark = FeatureMap("dark", np.zeros((6, 4)))  # pools to zero, so W @ 0 = 0
        with pytest.raises(ValueError, match="zero-norm"):
            forward(model, dark)
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="zero-norm"):
            compute_descriptors(model, random_maps(rng, 2) + [dark])
        with pytest.raises(TrainingDiverged, match="step 0: zero-norm"):
            train(model, [SimilarityLabel("dark", "m000", 1.0)], random_maps(rng, 1) + [dark],
                  TrainConfig(batch_size=2))

    def test_init_model_deterministic(self):
        a = init_model(d_out=4, channels=8, seed=7)
        b = init_model(d_out=4, channels=8, seed=7)
        assert np.array_equal(a.W, b.W)

    def test_compute_descriptors_shape_and_order(self):
        rng = np.random.default_rng(6)
        maps = random_maps(rng, 5)
        model = init_model(d_out=4, channels=6, seed=0)
        ids, mat = compute_descriptors(model, maps)
        assert ids == [fm.id for fm in maps]
        assert mat.shape == (5, 4)
        assert mat[2] == pytest.approx(forward(model, maps[2]))


class TestBatchGradient:
    @pytest.mark.parametrize("loss_kind", ["gcl", "cl"])
    def test_matches_central_differences(self, loss_kind):
        rng = np.random.default_rng(8)
        n, channels, d_out = 6, 5, 4
        w = rng.normal(size=(d_out, channels))
        xi = rng.uniform(0.1, 2.0, size=(n, channels))
        xj = rng.uniform(0.1, 2.0, size=(n, channels))
        psi = rng.uniform(0.0, 1.0, size=n)
        cfg = LossConfig(tau=0.37)

        loss, gw = batch_loss_and_grad(w, xi, xj, psi, loss_kind, cfg)
        # central differences are only trustworthy away from the margin kink
        di = np.linalg.norm(
            (xi @ w.T) / np.linalg.norm(xi @ w.T, axis=1)[:, None]
            - (xj @ w.T) / np.linalg.norm(xj @ w.T, axis=1)[:, None],
            axis=1,
        )
        assert np.min(np.abs(di - cfg.tau)) > 1e-3

        h = 1e-6
        fd = np.zeros_like(w)
        for r in range(d_out):
            for c in range(channels):
                wp, wm = w.copy(), w.copy()
                wp[r, c] += h
                wm[r, c] -= h
                lp, _ = batch_loss_and_grad(wp, xi, xj, psi, loss_kind, cfg)
                lm, _ = batch_loss_and_grad(wm, xi, xj, psi, loss_kind, cfg)
                fd[r, c] = (lp - lm) / (2 * h)
        assert np.max(np.abs(fd - gw)) <= 1e-4 * max(1.0, float(np.max(np.abs(gw))))

    def test_identical_pair_graded_positive_is_stationary(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(3, 4))
        x = rng.uniform(0.5, 1.5, size=(2, 4))
        loss, gw = batch_loss_and_grad(w, x, x.copy(), np.ones(2), "gcl", LossConfig())
        assert loss == 0.0
        assert np.array_equal(gw, np.zeros_like(w))

    @pytest.mark.parametrize("loss_kind", ["gcl", "cl"])
    def test_matches_frozen_per_kind_formulas(self, loss_kind):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(4, 5))
        xi = rng.uniform(0.1, 2.0, size=(40, 5))
        xj = rng.uniform(0.1, 2.0, size=(40, 5))
        psi = np.concatenate([rng.uniform(0.0, 1.0, size=36), [0.0, 0.5, 1.0, 0.4999]])
        for tau in (0.2, 0.6, 1.4):
            cfg = LossConfig(tau=tau)
            loss, gw = batch_loss_and_grad(w, xi, xj, psi, loss_kind, cfg)
            ref_loss, ref_gw = reference_loss_and_grad(w, xi, xj, psi, loss_kind, cfg)
            assert loss == ref_loss
            assert np.array_equal(gw, ref_gw)

    @pytest.mark.parametrize("loss_kind", ["gcl", "cl"])
    @pytest.mark.parametrize("n", [1, 3, 64, 128])
    def test_matches_reference_bit_for_bit_at_edges(self, loss_kind, n):
        """Batch sizes from 1 to 128, rows at d = 0 and psi at both ends and inside."""
        rng = np.random.default_rng(100 + n)
        w = rng.normal(size=(8, 6))
        xi = rng.uniform(0.1, 2.0, size=(n, 6))
        xj = rng.uniform(0.1, 2.0, size=(n, 6))
        xj[::3] = xi[::3]  # identical rows give d = 0 exactly
        unit = lambda x: (x @ w.T) / np.linalg.norm(x @ w.T, axis=1)[:, None]
        assert not np.linalg.norm(unit(xi) - unit(xj), axis=1)[::3].any()
        psi = rng.uniform(0.0, 1.0, size=n)
        psi[1::4], psi[2::4] = 0.0, 1.0
        for tau in (0.3, 1.0):
            cfg = LossConfig(tau=tau)
            loss, gw = batch_loss_and_grad(w, xi, xj, psi, loss_kind, cfg)
            ref_loss, ref_gw = reference_loss_and_grad(w, xi, xj, psi, loss_kind, cfg)
            assert loss == ref_loss
            assert np.array_equal(gw, ref_gw)

    def test_zero_norm_embedding_raises(self):
        w = np.ones((2, 3))
        xi = np.zeros((1, 3))
        xj = np.ones((1, 3))
        with pytest.raises(ValueError, match="zero-norm"):
            batch_loss_and_grad(w, xi, xj, np.array([1.0]), "gcl", LossConfig())


def toy_training_setup(n_pos=6, n_soft=6, n_zero=6, channels=6, locations=8, seed=0):
    """Labels in all bands plus feature maps arranged so positives look alike."""
    rng = np.random.default_rng(seed)
    maps = {}
    labels = []
    base = rng.uniform(0.5, 1.5, size=(channels, locations))
    other = rng.uniform(0.5, 1.5, size=(channels, locations))

    def add(name, proto):
        maps[name] = FeatureMap(name, np.clip(proto + 0.05 * rng.normal(size=proto.shape), 0, None))

    for k in range(n_pos):
        a, b = f"p{k}a", f"p{k}b"
        add(a, base), add(b, base)
        labels.append(SimilarityLabel(a, b, float(rng.uniform(0.75, 1.0))))
        labels.append(SimilarityLabel(f"p{k}a", f"q{k}m", 0.6))
        add(f"q{k}m", base)
    for k in range(n_soft):
        a, b = f"s{k}a", f"s{k}b"
        add(a, base), add(b, other)
        labels.append(SimilarityLabel(a, b, float(rng.uniform(0.05, 0.45))))
    for k in range(n_zero):
        a, b = f"z{k}a", f"z{k}b"
        add(a, base), add(b, other)
        labels.append(SimilarityLabel(a, b, 0.0))
    return labels, maps


def reference_loss_and_grad(w, xi, xj, psi, loss_kind, loss_cfg):
    """Frozen batch loss and gradient with a separate binary branch on cl_loss/cl_grad_d."""
    zi, zj = xi @ w.T, xj @ w.T
    ni = np.linalg.norm(zi, axis=1)
    nj = np.linalg.norm(zj, axis=1)
    ui, uj = zi / ni[:, None], zj / nj[:, None]
    diff = ui - uj
    d = np.linalg.norm(diff, axis=1)
    if loss_kind == "gcl":
        losses = gcl_loss(d, psi, loss_cfg)
        g = gcl_grad_d(d, psi, loss_cfg)
    else:
        y = (psi >= 0.5).astype(np.float64)
        losses = cl_loss(d, y, loss_cfg)
        g = cl_grad_d(d, y, loss_cfg)
    scale = np.where(d > 0.0, g / np.where(d > 0.0, d, 1.0), 0.0)
    gu_i = scale[:, None] * diff
    gu_j = -gu_i
    gz_i = (gu_i - ui * np.sum(ui * gu_i, axis=1)[:, None]) / ni[:, None]
    gz_j = (gu_j - uj * np.sum(uj * gu_j, axis=1)[:, None]) / nj[:, None]
    gw = (gz_i.T @ xi + gz_j.T @ xj) / len(d)
    return float(np.mean(losses)), gw


def reference_train(model, labels, maps, cfg):
    """Final W of a training loop written label by label: one draw per step from a
    new BatchSampler on one shared Generator, np.stack gathers, train's lr schedule,
    and the frozen per-kind loss formulas."""
    pooled = {ident: gem_pool(fm.values, model.gem_p) for ident, fm in maps.items()}
    if len(labels) == 1:
        draw = lambda: (labels[0],) * cfg.batch_size
    else:
        idx, rng = index_labels(labels), np.random.default_rng(cfg.seed)
        draw = lambda: BatchSampler(idx, cfg.strategy, cfg.batch_size, seed=rng).next_batch().pairs
    w, seen = model.W.copy(), 0
    for _ in range(cfg.epochs * max(1, len(labels) // cfg.batch_size)):
        pairs = draw()
        xi = np.stack([pooled[lab.query_id] for lab in pairs])
        xj = np.stack([pooled[lab.map_id] for lab in pairs])
        psi = np.array([lab.psi for lab in pairs])
        _, gw = reference_loss_and_grad(w, xi, xj, psi, cfg.loss_kind, LossConfig(tau=cfg.tau))
        lr = cfg.lr0 * 0.1 ** (seen // cfg.lr_decay_after)
        seen += len(pairs)
        w = w - lr * gw
    return w


class TestTrain:
    @pytest.mark.parametrize("loss_kind", ["gcl", "cl"])
    @pytest.mark.parametrize(
        "strategy, n_labels", [(s, 24) for s in BatchStrategy] + [(BatchStrategy.A, 1)]
    )
    def test_matches_label_by_label_reference(self, strategy, n_labels, loss_kind):
        labels, maps = toy_training_setup()
        labels = labels[:n_labels]
        model = init_model(d_out=4, channels=6, seed=0)
        cfg = TrainConfig(loss_kind=loss_kind, strategy=strategy, epochs=5, batch_size=12,
                          lr_decay_after=30, seed=4)
        trained, _ = train(model, labels, maps, cfg)
        assert np.array_equal(trained.W, reference_train(model, labels, maps, cfg))

    def test_step_count_and_trace_length(self):
        labels, maps = toy_training_setup()
        model = init_model(d_out=4, channels=6, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=1)
        trained, trace = train(model, labels, maps, cfg)
        assert len(trace) == 2 * (len(labels) // 8)

    def test_zero_learning_rate_is_identity(self):
        labels, maps = toy_training_setup()
        model = init_model(d_out=4, channels=6, seed=0)
        trained, trace = train(model, labels, maps, TrainConfig(lr0=0.0, batch_size=8))
        assert np.array_equal(trained.W, model.W)

    def test_deterministic(self):
        labels, maps = toy_training_setup()
        model = init_model(d_out=4, channels=6, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=3)
        t1, trace1 = train(model, labels, maps, cfg)
        t2, trace2 = train(model, labels, maps, cfg)
        assert np.array_equal(t1.W, t2.W)
        assert trace1 == trace2

    def test_single_positive_pair_contracts_distance(self):
        rng = np.random.default_rng(10)
        maps = {
            "a": FeatureMap("a", rng.uniform(0.5, 1.5, size=(6, 8))),
            "b": FeatureMap("b", rng.uniform(0.5, 1.5, size=(6, 8))),
        }
        model = init_model(d_out=4, channels=6, seed=2)
        label = SimilarityLabel("a", "b", 1.0)

        def pair_distance(m):
            return float(np.linalg.norm(forward(m, maps["a"]) - forward(m, maps["b"])))

        before = pair_distance(model)
        trained, trace = train(model, [label], maps, TrainConfig(epochs=300, batch_size=4))
        assert pair_distance(trained) < before
        assert trace[-1] < trace[0]

    def test_binary_loss_path_runs(self):
        labels, maps = toy_training_setup()
        model = init_model(d_out=4, channels=6, seed=0)
        trained, trace = train(model, labels, maps, TrainConfig(loss_kind="cl", batch_size=8))
        assert not np.array_equal(trained.W, model.W)
        assert all(math.isfinite(v) for v in trace)

    def test_missing_features_named(self):
        labels, maps = toy_training_setup()
        maps.pop("p0a")
        model = init_model(d_out=4, channels=6, seed=0)
        with pytest.raises(ValueError, match="p0a"):
            train(model, labels, maps, TrainConfig(batch_size=8))

    def test_divergence_reports_step(self):
        maps = {
            "a": FeatureMap("a", np.zeros((3, 2))),
            "b": FeatureMap("b", np.ones((3, 2))),
        }
        model = init_model(d_out=2, channels=3, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train(model, [SimilarityLabel("a", "b", 1.0)], maps, TrainConfig(batch_size=2))
        assert err.value.step == 0

    @pytest.mark.parametrize("n_labels", [1, 24], ids=["single-label", "sampled"])
    def test_non_finite_distance_diverges_at_step_zero(self, n_labels):
        """Features near 1e300 are finite, but pooling cubes them past the float range."""
        labels, maps = toy_training_setup()
        huge = {ident: FeatureMap(ident, fm.values * 1e300) for ident, fm in maps.items()}
        model = init_model(d_out=4, channels=6, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(model, labels[:n_labels], huge, TrainConfig(batch_size=12))
        assert str(err.value) == "step 0: d must be finite"
        assert err.value.step == 0

    @pytest.mark.parametrize("loss_kind", ["gcl", "cl"])
    @pytest.mark.parametrize("n_labels", [1, 24], ids=["single-label", "sampled"])
    @pytest.mark.parametrize("psi", [-0.5, 1.5, math.nan, math.inf])
    def test_label_psi_outside_the_unit_interval_is_rejected(self, loss_kind, n_labels, psi):
        labels, maps = toy_training_setup()
        # duck-typed labels: SimilarityLabel itself already rejects such a psi
        labels = [SimpleNamespace(query_id=lab.query_id, map_id=lab.map_id, psi=lab.psi)
                  for lab in labels[:n_labels]]
        labels[0].psi = psi
        model = init_model(d_out=4, channels=6, seed=0)
        with pytest.raises(ValueError, match=r"^label psi must be in \[0, 1\]$"):
            train(model, labels, maps, TrainConfig(loss_kind=loss_kind, batch_size=12))


class TestBinaryFormats:
    def test_features_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        maps = random_maps(rng, 3, channels=4, locations=5, prefix="img_")
        path = tmp_path / "features.bin"
        write_features(path, maps)
        again = read_features(path)
        assert [fm.id for fm in again] == [fm.id for fm in maps]
        for a, b in zip(again, maps):
            assert a.values == pytest.approx(b.values, rel=1e-6)

    def test_features_roundtrip_signed_and_unicode(self, tmp_path):
        fm = FeatureMap("café/001", np.array([[-1.25, 0.0, 3.5]]))
        path = tmp_path / "one.bin"
        write_features(path, [fm])
        again = read_features(path)[0]
        assert again.id == "café/001"
        assert np.array_equal(again.values, fm.values)

    def test_values_equal_an_independent_parse(self, tmp_path):
        rng = np.random.default_rng(13)
        maps = [FeatureMap(ident, rng.normal(size=(3, 5))) for ident in ("a", "bb", "café", "x" * 300)]
        path = tmp_path / "features.bin"
        write_features(path, maps)
        data = path.read_bytes()
        _, count, channels, locations = struct.unpack_from("<IIII", data, 4)
        offset, ids, rows = 20, [], []
        for _ in range(count):
            (id_len,) = struct.unpack_from("<H", data, offset)
            ids.append(data[offset + 2:offset + 2 + id_len].decode("utf-8"))
            offset += 2 + id_len
            rows.append(np.frombuffer(data, "<f4", channels * locations, offset).reshape(channels, locations))
            offset += 4 * channels * locations
        got = read_features(path)
        assert [fm.id for fm in got] == ids
        for fm, want in zip(got, rows):
            assert fm.values.dtype == np.float64
            assert np.array_equal(fm.values, want.astype(np.float64))

    def test_duplicate_and_empty_ids_named_with_path(self, tmp_path):
        path = tmp_path / "dup.bin"
        write_features(path, [FeatureMap(i, np.ones((2, 2))) for i in ("a", "b", "c", "b", "a")])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate feature id 'b'$"):
            read_features(path)
        empty = tmp_path / "empty_id.bin"
        record = np.ones(4, dtype="<f4").tobytes()
        empty.write_bytes(b"GVPR" + struct.pack("<IIII", 1, 2, 2, 2) + struct.pack("<H", 1) + b"a" + record
                          + struct.pack("<H", 0) + record)
        with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: feature map id must be nonempty$"):
            read_features(empty)

    def test_mixed_shapes_rejected(self, tmp_path):
        maps = [FeatureMap("a", np.ones((2, 2))), FeatureMap("b", np.ones((2, 3)))]
        with pytest.raises(ValueError, match="shape"):
            write_features(tmp_path / "bad.bin", maps)

    def test_truncated_and_trailing(self, tmp_path):
        path = tmp_path / "features.bin"
        write_features(path, [FeatureMap("a", np.ones((2, 2)))])
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_features(clipped)
        padded = tmp_path / "padded.bin"
        padded.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_features(padded)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_features(path)

    def test_model_roundtrip(self, tmp_path):
        model = init_model(d_out=3, channels=5, gem_p=2.5, seed=4)
        path = tmp_path / "model.bin"
        save_model(path, model)
        again = load_model(path)
        assert again.gem_p == pytest.approx(2.5)
        assert again.W == pytest.approx(model.W, rel=1e-6)

    def test_model_file_magic_checked(self, tmp_path):
        rng = np.random.default_rng(12)
        fpath = tmp_path / "features.bin"
        write_features(fpath, random_maps(rng, 1))
        with pytest.raises(ValueError, match="model"):
            load_model(fpath)
