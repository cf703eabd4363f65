"""Contrastive loss with binary or graded pair labels, plus closed-form gradients.

The binary form penalizes positive pairs by half the squared descriptor
distance and negative pairs by a hinge on the margin ``tau``. The graded
form blends the two branches with a continuous similarity ``psi`` in
[0, 1], so a pair contributes to both attraction and repulsion in
proportion to how similar it really is. At psi in {0, 1} it equals the
binary form bit for bit, so ``pair_grad`` and training run only the
graded formulas; ``cl_loss``/``cl_grad_d`` are the binary reference.

The graded loss and its derivative are written once, in the unchecked
kernel ``_gcl_kernel``. ``gcl_loss``, ``gcl_grad_d`` and ``pair_grad``
check their inputs (finite, d >= 0, psi in [0, 1]) once and then call
it. The trainer calls the kernel directly: it checks psi once per
``train`` call and d for finiteness once per step; a distance is never
negative.

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
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if lo is not None and (arr < lo).any():
        raise ValueError(f"{name} must be >= {lo}")
    if hi is not None and (arr > hi).any():
        raise ValueError(f"{name} must be <= {hi}")
    return arr


def _unwrap(out: np.ndarray) -> float | np.ndarray:
    """A Python float for 0-d output (all inputs 0-d: broadcasting never lowers ndim)."""
    return float(out) if out.ndim == 0 else out


def _gcl_kernel(d: np.ndarray, psi: np.ndarray, tau: float) -> tuple:
    """Graded loss and d(loss)/dd of float64 arrays, without input checks.

    The caller guarantees d finite and >= 0 and psi in [0, 1]; ``gcl_loss``
    and ``gcl_grad_d`` document the formulas.
    """
    hinge = np.maximum(tau - d, 0.0)
    loss = psi * 0.5 * d * d + (1.0 - psi) * 0.5 * hinge * hinge
    grad = np.where(d < tau, d + tau * (psi - 1.0), d * psi)
    return loss, grad


def cl_loss(d, label, cfg: LossConfig = LossConfig()):
    """Binary contrastive loss: y=1 -> d^2/2, y=0 -> max(tau - d, 0)^2/2."""
    d = _as_array(d, "d", lo=0.0)
    y = _as_array(label, "label")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("binary label must be 0 or 1")
    hinge = np.maximum(cfg.tau - d, 0.0)
    out = np.where(y == 1.0, 0.5 * d * d, 0.5 * hinge * hinge)
    return _unwrap(out)


def gcl_loss(d, psi, cfg: LossConfig = LossConfig()):
    """Graded contrastive loss: psi-weighted blend of the two binary branches."""
    d = _as_array(d, "d", lo=0.0)
    psi = _as_array(psi, "psi", lo=0.0, hi=1.0)
    return _unwrap(_gcl_kernel(d, psi, cfg.tau)[0])


def cl_grad_d(d, label, cfg: LossConfig = LossConfig()):
    """d(cl_loss)/dd: y=1 -> d, y=0 -> min(d - tau, 0)."""
    d = _as_array(d, "d", lo=0.0)
    y = _as_array(label, "label")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("binary label must be 0 or 1")
    out = np.where(y == 1.0, d, np.minimum(d - cfg.tau, 0.0))
    return _unwrap(out)


def gcl_grad_d(d, psi, cfg: LossConfig = LossConfig()):
    """d(gcl_loss)/dd, piecewise in d with a continuous join at d = tau.

    d < tau: d + tau*(psi - 1); d >= tau: d*psi. Both branches equal
    tau*psi at the join; the d >= tau branch is used there.
    """
    d = _as_array(d, "d", lo=0.0)
    psi = _as_array(psi, "psi", lo=0.0, hi=1.0)
    return _unwrap(_gcl_kernel(d, psi, cfg.tau)[1])


def pair_grad(fi, fj, psi: float, cfg: LossConfig = LossConfig()) -> GradResult:
    """Loss and descriptor-space gradients for one pair of graded similarity psi.

    A binary label y is psi = y, where the graded formula equals cl_* exactly.
    The chain rule through d = ||fi - fj|| gives
    grad_fi = g * (fi - fj) / d with g the scalar distance gradient; at
    d = 0 the gradient is the zero subgradient.
    """
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    if fi.shape != fj.shape:
        raise ValueError(f"descriptor shapes differ: {fi.shape} vs {fj.shape}")
    diff = fi - fj
    d = float(np.linalg.norm(diff))
    d_arr, psi = _as_array(d, "d"), _as_array(psi, "psi", lo=0.0, hi=1.0)  # a norm is never negative
    loss, g = map(float, _gcl_kernel(d_arr, psi, cfg.tau))
    if d == 0.0:
        grad_fi = np.zeros_like(fi)
    else:
        grad_fi = (g / d) * diff
    return GradResult(loss=loss, d_loss_d_distance=g, grad_fi=grad_fi, grad_fj=-grad_fi)
