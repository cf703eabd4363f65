"""Loss values and closed-form gradients against pinned values and finite differences."""

import math
import re

import numpy as np
import pytest

from gvpr.gcl import (
    LossConfig,
    cl_grad_d,
    cl_loss,
    gcl_grad_d,
    gcl_loss,
    pair_grad,
)

TAU_HALF = LossConfig(tau=0.5)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestConfigAndLabels:
    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(tau=-1.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match=f"^tau must be positive and finite, got {tau}$"):
            LossConfig(tau=tau)


class TestLossValues:
    def test_cl_positive(self):
        assert cl_loss(0.3, 1) == pytest.approx(0.045)

    def test_cl_negative_inside_margin(self):
        assert cl_loss(0.3, 0, TAU_HALF) == pytest.approx(0.02)

    def test_cl_negative_saturated(self):
        assert cl_loss(0.5, 0, TAU_HALF) == 0.0
        assert cl_loss(1.7, 0, TAU_HALF) == 0.0

    def test_gcl_blend_inside_margin(self):
        assert gcl_loss(0.3, 0.5, TAU_HALF) == pytest.approx(0.0325)

    def test_gcl_blend_outside_margin(self):
        assert gcl_loss(0.6, 0.5, TAU_HALF) == pytest.approx(0.09)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cl_loss(-0.1, 1)
        with pytest.raises(ValueError):
            cl_loss(0.1, 0.3)
        with pytest.raises(ValueError):
            gcl_loss(0.1, 1.5)


class TestGradientValues:
    def test_cl_positive_grad_is_distance(self):
        assert cl_grad_d(0.3, 1) == 0.3

    def test_cl_negative_grads(self):
        assert cl_grad_d(0.3, 0, TAU_HALF) == pytest.approx(-0.2)
        assert cl_grad_d(0.7, 0, TAU_HALF) == 0.0

    def test_gcl_grads(self):
        assert gcl_grad_d(0.3, 0.5, TAU_HALF) == pytest.approx(0.05)
        assert gcl_grad_d(0.6, 0.5, TAU_HALF) == pytest.approx(0.3)

    def test_continuity_at_margin(self):
        for psi in (0.0, 0.3, 1.0):
            below = gcl_grad_d(np.nextafter(0.5, 0.0), psi, TAU_HALF)
            at = gcl_grad_d(0.5, psi, TAU_HALF)
            assert at == pytest.approx(0.5 * psi, abs=1e-12)
            assert below == pytest.approx(at, abs=1e-9)
            lo = gcl_loss(np.nextafter(0.5, 0.0), psi, TAU_HALF)
            assert gcl_loss(0.5, psi, TAU_HALF) == pytest.approx(lo, abs=1e-9)


class TestEndpointReduction:
    def test_losses_agree_exactly_at_endpoints(self):
        for d in np.linspace(0.0, 2.5, 60):
            assert gcl_loss(d, 1.0) == cl_loss(d, 1)
            assert gcl_loss(d, 0.0) == cl_loss(d, 0)

    def test_gradients_agree_exactly_at_endpoints(self):
        for d in np.linspace(0.0, 2.5, 60):
            assert gcl_grad_d(d, 1.0) == cl_grad_d(d, 1)
            assert gcl_grad_d(d, 0.0) == cl_grad_d(d, 0)


class TestConvexCombinationBound:
    def test_between_the_binary_branches(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = float(rng.uniform(0.0, 2.0))
            psi = float(rng.uniform(0.0, 1.0))
            cfg = LossConfig(tau=float(rng.uniform(0.1, 1.5)))
            branches = (cl_loss(d, 0, cfg), cl_loss(d, 1, cfg))
            val = gcl_loss(d, psi, cfg)
            assert min(branches) - 1e-12 <= val <= max(branches) + 1e-12


class TestFiniteDifferences:
    def test_scalar_gradients_match_fd(self):
        taus = (0.5, 1.0)
        for tau in taus:
            cfg = LossConfig(tau=tau)
            for d in np.linspace(0.01, 2.0, 41):
                if abs(d - tau) <= 1e-4:
                    continue
                for psi in (0.0, 0.25, 0.5, 0.75, 1.0):
                    fd = central_diff(lambda x: gcl_loss(x, psi, cfg), d)
                    g = gcl_grad_d(d, psi, cfg)
                    assert abs(fd - g) <= 1e-5 * max(1.0, abs(g))
                for y in (0, 1):
                    fd = central_diff(lambda x: cl_loss(x, y, cfg), d)
                    g = cl_grad_d(d, y, cfg)
                    assert abs(fd - g) <= 1e-5 * max(1.0, abs(g))

    def test_pair_grad_matches_fd(self):
        rng = np.random.default_rng(4)
        cfg = LossConfig(tau=0.8)
        for _ in range(20):
            fi = rng.normal(size=5)
            fj = rng.normal(size=5)
            psi = float(rng.uniform(0.0, 1.0))
            d = float(np.linalg.norm(fi - fj))
            if abs(d - cfg.tau) <= 1e-4:
                continue
            res = pair_grad(fi, fj, psi, cfg)
            for axis in range(5):
                def loss_of(x, axis=axis):
                    f = fi.copy()
                    f[axis] = x
                    return gcl_loss(float(np.linalg.norm(f - fj)), psi, cfg)

                fd = central_diff(loss_of, fi[axis])
                assert abs(fd - res.grad_fi[axis]) <= 1e-5 * max(1.0, abs(res.grad_fi[axis]))


class TestPairGrad:
    def test_descriptor_shapes_must_agree(self):
        with pytest.raises(ValueError, match=re.escape("descriptor shapes differ: (3,) vs (2,)")):
            pair_grad([0.1, 0.2, 0.3], [0.1, 0.2], 0.5)

    def test_zero_distance_gives_zero_gradients(self):
        f = np.array([0.3, -0.7])
        res = pair_grad(f, f.copy(), 1.0)
        assert res.loss == 0.0
        assert np.array_equal(res.grad_fi, np.zeros(2))
        assert np.array_equal(res.grad_fj, np.zeros(2))

    def test_pinned_example(self):
        res = pair_grad([1.0, 0.0], [0.0, 0.0], 0.5, TAU_HALF)
        assert res.d_loss_d_distance == pytest.approx(0.5)
        assert res.grad_fi == pytest.approx([0.5, 0.0])

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            fi, fj = rng.normal(size=4), rng.normal(size=4)
            res = pair_grad(fi, fj, float(rng.uniform(0, 1)))
            assert np.array_equal(res.grad_fj, -res.grad_fi)

    def test_binary_label_uses_binary_loss(self):
        res = pair_grad([1.0, 0.0], [0.0, 0.0], 0.0, TAU_HALF)
        assert res.loss == 0.0  # d=1 beyond margin
        assert res.d_loss_d_distance == 0.0

    def test_binary_label_equals_binary_formulas(self):
        rng = np.random.default_rng(7)
        for tau in (0.3, 1.0):
            cfg = LossConfig(tau=tau)
            for _ in range(50):
                fi, fj = rng.normal(size=3) * 0.4, rng.normal(size=3) * 0.4
                d = float(np.linalg.norm(fi - fj))
                for y in (0, 1):
                    res = pair_grad(fi, fj, float(y), cfg)
                    assert res.loss == cl_loss(d, y, cfg)
                    assert res.d_loss_d_distance == cl_grad_d(d, y, cfg)
                    assert np.array_equal(res.grad_fi, (cl_grad_d(d, y, cfg) / d) * (fi - fj))

    def test_matches_the_checked_scalars_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for tau in (0.5, 1.0):
            cfg = LossConfig(tau=tau)
            zero = np.zeros(4)
            pairs = [(zero, zero.copy()), (np.array([0.0, tau, 0.0, 0.0]), zero)]  # d = 0 and d = tau
            pairs += [(rng.normal(size=4) * 0.5, rng.normal(size=4) * 0.5) for _ in range(40)]
            for fi, fj in pairs:
                d = float(np.linalg.norm(fi - fj))
                for psi in (0.0, 1.0, 0.5, float(rng.uniform(0.0, 1.0))):
                    res = pair_grad(fi, fj, psi, cfg)
                    assert res.loss.hex() == gcl_loss(d, psi, cfg).hex()
                    assert res.d_loss_d_distance.hex() == gcl_grad_d(d, psi, cfg).hex()
            assert float(np.linalg.norm(pairs[1][0])) == tau

    def test_inputs_rejected_with_the_checked_scalars_messages(self):
        for fi, psi, message in (([1.0, 0.0], 1.2, "psi must be <= 1.0"),
                                 ([1.0, 0.0], -0.1, "psi must be >= 0.0"),
                                 ([1.0, 0.0], NAN, "psi must be finite"),
                                 ([INF, 0.0], 0.5, "d must be finite")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                pair_grad(fi, [0.0, 0.0], psi)


class TestArrayBroadcasting:
    def test_vectorized_matches_scalar(self):
        d = np.array([0.1, 0.5, 0.9])
        psi = np.array([0.2, 0.5, 0.8])
        vec = gcl_loss(d, psi, TAU_HALF)
        for i in range(3):
            assert vec[i] == gcl_loss(float(d[i]), float(psi[i]), TAU_HALF)
        gvec = gcl_grad_d(d, psi, TAU_HALF)
        for i in range(3):
            assert gvec[i] == gcl_grad_d(float(d[i]), float(psi[i]), TAU_HALF)


NAN, INF = float("nan"), float("inf")
GRADED = [gcl_loss, gcl_grad_d]
BINARY = [cl_loss, cl_grad_d]


def _raises(fn, d, label, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(d, label, TAU_HALF)


class TestInputContract:
    """The public loss functions check d, then the label, each in a fixed order."""

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_d_is_reported_as_non_finite(self, fn, bad):
        _raises(fn, bad, 1.0, "d must be finite")
        _raises(fn, [0.2, bad], [1.0, 0.0], "d must be finite")

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    def test_negative_d(self, fn):
        _raises(fn, -1e-300, 1.0, "d must be >= 0.0")
        _raises(fn, [0.3, -0.1], [1.0, 0.0], "d must be >= 0.0")

    @pytest.mark.parametrize("fn", GRADED)
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_psi_is_reported_as_non_finite(self, fn, bad):
        _raises(fn, 0.3, bad, "psi must be finite")
        _raises(fn, [0.3, 0.4], [0.5, bad], "psi must be finite")

    @pytest.mark.parametrize("fn", GRADED)
    def test_psi_outside_the_unit_interval(self, fn):
        _raises(fn, 0.3, -1e-12, "psi must be >= 0.0")
        _raises(fn, 0.3, 1.0 + 1e-12, "psi must be <= 1.0")
        # both bounds broken: the lower bound is checked first
        _raises(fn, [0.3, 0.3], [2.0, -1.0], "psi must be >= 0.0")

    @pytest.mark.parametrize("fn", BINARY)
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_binary_label(self, fn, bad):
        _raises(fn, 0.3, bad, "label must be finite")

    @pytest.mark.parametrize("fn", BINARY)
    @pytest.mark.parametrize("bad", [-1.0, 0.5, 2.0])
    def test_binary_label_outside_zero_one(self, fn, bad):
        _raises(fn, 0.3, bad, "binary label must be 0 or 1")

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    def test_d_is_checked_before_the_label(self, fn):
        _raises(fn, NAN, NAN, "d must be finite")
        _raises(fn, -1.0, 2.0, "d must be >= 0.0")
        _raises(fn, -1.0, NAN, "d must be >= 0.0")

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    def test_empty_arrays_pass(self, fn):
        out = fn(np.array([]), np.array([]), TAU_HALF)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert fn([], [], TAU_HALF).shape == (0,)

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    def test_zero_d_inputs_give_python_floats(self, fn):
        for d, label in [(0.3, 1.0), (np.float64(0.3), np.float64(1.0)),
                         (np.array(0.3), np.array(1.0)), (0.3, 1)]:
            out = fn(d, label, TAU_HALF)
            assert type(out) is float
            assert out == fn(0.3, 1.0, TAU_HALF)

    @pytest.mark.parametrize("fn", GRADED + BINARY)
    def test_list_and_tuple_inputs(self, fn):
        d, label = [0.1, 0.4, 0.7], [1.0, 0.0, 1.0]
        out = fn(np.array(d), np.array(label), TAU_HALF)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert np.array_equal(fn(d, label, TAU_HALF), out)
        assert np.array_equal(fn(tuple(d), tuple(label), TAU_HALF), out)
        # a 0-d argument broadcasts against an array and the result stays an array
        assert np.array_equal(fn(0.4, label, TAU_HALF), fn([0.4] * 3, label, TAU_HALF))
