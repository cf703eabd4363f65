"""Contrastive loss with binary or graded pair labels, plus closed-form gradients.

The binary form penalizes positive pairs by half the squared descriptor
distance and negative pairs by a hinge on the margin ``tau``. The graded
form blends the two branches with a continuous similarity ``psi`` in
[0, 1], so a pair contributes to both attraction and repulsion in
proportion to how similar it really is. At psi in {0, 1} it equals the
binary form bit for bit, so ``pair_grad`` and training run only the
graded formulas; ``cl_loss``/``cl_grad_d`` are the binary reference.

All scalar operations accept numpy arrays and broadcast; scalars in give
Python floats out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters. ``tau`` is the margin beyond which negative
    pairs stop contributing; descriptors here are L2-normalized (distance
    range [0, 2]) so 1.0 is a sensible default."""

    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class PairLabel:
    """Supervision for one pair: binary y in {0, 1} or graded psi in [0, 1]."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("binary", "graded"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == "binary" and self.value not in (0.0, 1.0):
            raise ValueError(f"binary label must be 0 or 1, got {self.value}")
        if self.kind == "graded" and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"graded label must be in [0, 1], got {self.value}")

    @classmethod
    def binary(cls, y: int) -> "PairLabel":
        return cls("binary", float(y))

    @classmethod
    def graded(cls, psi: float) -> "PairLabel":
        return cls("graded", float(psi))


@dataclass(frozen=True)
class GradResult:
    """Loss value plus its gradients for one descriptor pair.

    ``grad_fj`` is exactly ``-grad_fi`` (the loss depends on the pair only
    through fi - fj).
    """

    loss: float
    d_loss_d_distance: float
    grad_fi: np.ndarray = field(repr=False)
    grad_fj: np.ndarray = field(repr=False)


def _as_array(x, name: str, lo: float | None = None, hi: float | None = None):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if lo is not None and np.any(arr < lo):
        raise ValueError(f"{name} must be >= {lo}")
    if hi is not None and np.any(arr > hi):
        raise ValueError(f"{name} must be <= {hi}")
    return arr


def _unwrap(out: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def descriptor_distance(fi: np.ndarray, fj: np.ndarray) -> float:
    """L2 distance between two descriptors of equal dimension."""
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    if fi.shape != fj.shape:
        raise ValueError(f"descriptor shapes differ: {fi.shape} vs {fj.shape}")
    return float(np.linalg.norm(fi - fj))


def cl_loss(d, label, cfg: LossConfig = LossConfig()):
    """Binary contrastive loss: y=1 -> d^2/2, y=0 -> max(tau - d, 0)^2/2."""
    d = _as_array(d, "d", lo=0.0)
    y = _as_array(label, "label")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary label must be 0 or 1")
    hinge = np.maximum(cfg.tau - d, 0.0)
    out = np.where(y == 1.0, 0.5 * d * d, 0.5 * hinge * hinge)
    return _unwrap(out, d, y)


def gcl_loss(d, psi, cfg: LossConfig = LossConfig()):
    """Graded contrastive loss: psi-weighted blend of the two binary branches."""
    d = _as_array(d, "d", lo=0.0)
    psi = _as_array(psi, "psi", lo=0.0, hi=1.0)
    hinge = np.maximum(cfg.tau - d, 0.0)
    out = psi * 0.5 * d * d + (1.0 - psi) * 0.5 * hinge * hinge
    return _unwrap(out, d, psi)


def cl_grad_d(d, label, cfg: LossConfig = LossConfig()):
    """d(cl_loss)/dd: y=1 -> d, y=0 -> min(d - tau, 0)."""
    d = _as_array(d, "d", lo=0.0)
    y = _as_array(label, "label")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("binary label must be 0 or 1")
    out = np.where(y == 1.0, d, np.minimum(d - cfg.tau, 0.0))
    return _unwrap(out, d, y)


def gcl_grad_d(d, psi, cfg: LossConfig = LossConfig()):
    """d(gcl_loss)/dd, piecewise in d with a continuous join at d = tau.

    d < tau: d + tau*(psi - 1); d >= tau: d*psi. Both branches equal
    tau*psi at the join; the d >= tau branch is used there.
    """
    d = _as_array(d, "d", lo=0.0)
    psi = _as_array(psi, "psi", lo=0.0, hi=1.0)
    out = np.where(d < cfg.tau, d + cfg.tau * (psi - 1.0), d * psi)
    return _unwrap(out, d, psi)


def pair_grad(fi, fj, label, cfg: LossConfig = LossConfig()) -> GradResult:
    """Loss and descriptor-space gradients for one labeled pair.

    ``label`` is a PairLabel; a bare float is accepted as a graded psi.
    The chain rule through d = ||fi - fj|| gives
    grad_fi = g * (fi - fj) / d with g the scalar distance gradient; at
    d = 0 the gradient is the zero subgradient.
    """
    if not isinstance(label, PairLabel):
        label = PairLabel.graded(float(label))
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    if fi.shape != fj.shape:
        raise ValueError(f"descriptor shapes differ: {fi.shape} vs {fj.shape}")
    diff = fi - fj
    d = float(np.linalg.norm(diff))
    # a binary y is the graded formula at psi = y, where it equals cl_* exactly
    loss = gcl_loss(d, label.value, cfg)
    g = gcl_grad_d(d, label.value, cfg)
    if d == 0.0:
        grad_fi = np.zeros_like(fi)
    else:
        grad_fi = (g / d) * diff
    return GradResult(loss=loss, d_loss_d_distance=g, grad_fi=grad_fi, grad_fj=-grad_fi)
