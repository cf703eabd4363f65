"""Pooling, normalization, descriptor model and trainer tests."""

import math

import numpy as np
import pytest

from gvpr.embed import (
    EmbedModel,
    FeatureMap,
    TrainConfig,
    TrainingDiverged,
    batch_loss_and_grad,
    compute_descriptors,
    forward,
    gem_pool,
    init_model,
    l2_normalize,
    l2_normalize_jvp,
    load_model,
    read_features,
    save_model,
    train,
    write_features,
)
from gvpr.gcl import LossConfig
from gvpr.relabel import SimilarityLabel
from gvpr.sampler import BatchStrategy, compose_batch, index_labels


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
        assert not model.trained

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
        fm = FeatureMap("a", np.array([[1.0, 3.0], [0.5, 0.5]]))
        assert gem_pool(fm, 1.0) == pytest.approx([2.0, 0.5])

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

    def test_feature_map_and_array_agree(self):
        v = np.array([[0.2, 1.7, 0.9]])
        assert np.array_equal(gem_pool(FeatureMap("a", v), 3.0), gem_pool(v, 3.0))

    def test_bad_p(self):
        with pytest.raises(ValueError):
            gem_pool(np.ones((1, 2)), 0.0)


class TestNormalize:
    def test_unit_norm_and_direction(self):
        v = np.array([3.0, 4.0])
        u = l2_normalize(v)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert u == pytest.approx([0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(4))

    def test_jvp_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=6)
            dv = rng.normal(size=6)
            h = 1e-6
            fd = (l2_normalize(v + h * dv) - l2_normalize(v - h * dv)) / (2 * h)
            assert l2_normalize_jvp(v, dv) == pytest.approx(fd, abs=1e-6)

    def test_jvp_is_tangent(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=5)
        jvp = l2_normalize_jvp(v, rng.normal(size=5))
        assert float(np.dot(jvp, l2_normalize(v))) == pytest.approx(0.0, abs=1e-12)


class TestForward:
    def test_descriptor_is_unit_norm(self):
        rng = np.random.default_rng(4)
        model = init_model(d_out=5, channels=6, seed=0)
        for fm in random_maps(rng, 4):
            assert np.linalg.norm(forward(model, fm)) == pytest.approx(1.0)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(5)
        model = init_model(d_out=3, channels=6, gem_p=2.0, seed=1)
        fm = random_maps(rng, 1)[0]
        manual = l2_normalize(model.W @ gem_pool(fm, 2.0))
        assert forward(model, fm) == pytest.approx(manual)

    def test_channel_mismatch(self):
        model = init_model(d_out=3, channels=6, seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward(model, FeatureMap("a", np.ones((4, 2))))

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


def reference_train(model, labels, maps, cfg):
    """Final W of a training loop written label by label: one compose_batch draw
    per step from one shared Generator, np.stack gathers, train's lr schedule."""
    pooled = {ident: gem_pool(fm, model.gem_p) for ident, fm in maps.items()}
    if len(labels) == 1:
        draw = lambda: (labels[0],) * cfg.batch_size
    else:
        idx, rng = index_labels(labels), np.random.default_rng(cfg.seed)
        draw = lambda: compose_batch(idx, cfg.strategy, cfg.batch_size, rng).pairs
    w, seen = model.W.copy(), 0
    for _ in range(cfg.epochs * max(1, len(labels) // cfg.batch_size)):
        pairs = draw()
        xi = np.stack([pooled[lab.query_id] for lab in pairs])
        xj = np.stack([pooled[lab.map_id] for lab in pairs])
        psi = np.array([lab.psi for lab in pairs])
        _, gw = batch_loss_and_grad(w, xi, xj, psi, cfg.loss_kind, LossConfig(tau=cfg.tau))
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
        assert trained.trained
        assert not model.trained

    def test_zero_learning_rate_is_identity(self):
        labels, maps = toy_training_setup()
        model = init_model(d_out=4, channels=6, seed=0)
        trained, trace = train(model, labels, maps, TrainConfig(lr0=0.0, batch_size=8))
        assert np.array_equal(trained.W, model.W)
        assert trained.trained

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
        assert trained.trained
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

    def test_model_roundtrip_marks_trained(self, tmp_path):
        model = init_model(d_out=3, channels=5, gem_p=2.5, seed=4)
        path = tmp_path / "model.bin"
        save_model(path, model)
        again = load_model(path)
        assert again.trained
        assert again.gem_p == pytest.approx(2.5)
        assert again.W == pytest.approx(model.W, rel=1e-6)

    def test_model_file_magic_checked(self, tmp_path):
        rng = np.random.default_rng(12)
        fpath = tmp_path / "features.bin"
        write_features(fpath, random_maps(rng, 1))
        with pytest.raises(ValueError, match="model"):
            load_model(fpath)
