"""Desk-scale descriptor model: GeM pooling, linear embedding, SGD trainer.

A feature map of shape (channels, locations) stands in for the last layer
of a convolutional backbone. The model pools it with a generalized mean,
applies a single trainable linear layer and L2-normalizes, yielding a
unit-norm descriptor. Training runs plain SGD over contrastive pairs
streamed by the batch sampler; only the linear weights are trained, the
pooling exponent stays fixed.

Binary formats (all little-endian):
  features file: magic `GVPR`, version u32, count u32, channels u32,
    locations u32, then per record u16 id byte length, UTF-8 id, and
    channels*locations float32 values row-major.
  model file: magic `GVPM`, version u32, d_out u32, channels u32,
    gem_p float32, then d_out*channels float32 weights row-major.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .gcl import LossConfig, cl_grad_d, cl_loss, gcl_grad_d, gcl_loss
from .sampler import BatchSampler, BatchStrategy, index_labels

_NORM_EPS = 1e-12

FEATURES_MAGIC = b"GVPR"
MODEL_MAGIC = b"GVPM"
FORMAT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or weight."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class FeatureMap:
    """Named feature tensor of shape (channels, locations).

    The container holds values as given (the binary format also carries
    signed descriptor rows); pooling clamps negatives on ingest.
    """

    id: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("feature map id must be nonempty")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"feature map must be (channels, locations), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def locations(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EmbedModel:
    """Pooling exponent plus linear embedding weights, shape (d_out, channels)."""

    gem_p: float
    W: np.ndarray = field(repr=False)
    trained: bool = False

    def __post_init__(self):
        if not self.gem_p > 0.0:
            raise ValueError(f"gem_p must be positive, got {self.gem_p}")
        w = np.asarray(self.W, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"W must be (d_out, channels), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("W must be finite")
        object.__setattr__(self, "W", w)

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    @property
    def channels(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs. ``lr0`` defaults by loss kind (0.1 graded, 0.01 binary);
    the rate is cut by 10x each time ``lr_decay_after`` pairs have been
    consumed. One epoch is len(labels) // batch_size steps."""

    loss_kind: str = "gcl"
    tau: float = 1.0
    lr0: float | None = None
    lr_decay_after: int = 250_000
    epochs: int = 1
    batch_size: int = 64
    strategy: BatchStrategy = BatchStrategy.A
    seed: int = 42

    def __post_init__(self):
        if self.loss_kind not in ("cl", "gcl"):
            raise ValueError(f"loss_kind must be 'cl' or 'gcl', got {self.loss_kind!r}")
        if self.lr0 is None:
            object.__setattr__(self, "lr0", 0.1 if self.loss_kind == "gcl" else 0.01)
        if self.lr0 < 0.0:
            raise ValueError(f"lr0 must be nonnegative, got {self.lr0}")
        if self.lr_decay_after < 1:
            raise ValueError("lr_decay_after must be a positive pair count")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


def gem_pool(fm, p: float) -> np.ndarray:
    """Generalized-mean pooling over locations: ((1/L) sum v^p)^(1/p) per channel.

    Accepts a FeatureMap or a raw (channels, locations) array. Negative
    values are clamped to 0 on ingest so fractional exponents stay
    defined (backbone activations are nonnegative anyway). p=1 is the
    mean; large p approaches the per-channel max.
    """
    if not p > 0.0:
        raise ValueError(f"pooling exponent must be positive, got {p}")
    v = fm.values if isinstance(fm, FeatureMap) else np.asarray(fm, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected (channels, locations), got shape {v.shape}")
    return np.mean(np.maximum(v, 0.0) ** p, axis=1) ** (1.0 / p)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||; near-zero norm is an error rather than a NaN descriptor."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= _NORM_EPS:
        raise ValueError("cannot L2-normalize a (near-)zero vector")
    return v / n


def l2_normalize_jvp(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Directional derivative of l2_normalize at v along dv: (dv - u(u.dv))/||v||."""
    v = np.asarray(v, dtype=np.float64)
    dv = np.asarray(dv, dtype=np.float64)
    if v.shape != dv.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {dv.shape}")
    n = float(np.linalg.norm(v))
    if n <= _NORM_EPS:
        raise ValueError("cannot differentiate normalization at a (near-)zero vector")
    u = v / n
    return (dv - u * float(np.dot(u, dv))) / n


def forward(model: EmbedModel, fm: FeatureMap) -> np.ndarray:
    """Unit-norm descriptor: l2_normalize(W @ gem_pool(fm, gem_p))."""
    if fm.channels != model.channels:
        raise ValueError(
            f"feature map has {fm.channels} channels, model expects {model.channels}"
        )
    return l2_normalize(model.W @ gem_pool(fm, model.gem_p))


def init_model(d_out: int, channels: int, gem_p: float = 3.0, seed: int = 0) -> EmbedModel:
    """Random untrained model; weights scaled so initial descriptors are tame."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(channels), size=(d_out, channels))
    return EmbedModel(gem_p=gem_p, W=w, trained=False)


def compute_descriptors(model: EmbedModel, feature_maps) -> tuple:
    """Descriptors for a batch of feature maps: (ids, (n, d_out) matrix)."""
    maps = list(feature_maps)
    if not maps:
        raise ValueError("no feature maps given")
    ids = [fm.id for fm in maps]
    mat = np.stack([forward(model, fm) for fm in maps])
    return ids, mat


def _batch_arrays(rows, pooled, query_rows, map_rows, psi):
    """Gather one batch: pooled query and map feature rows and psi of label ``rows``."""
    return pooled[query_rows[rows]], pooled[map_rows[rows]], psi[rows]


def batch_loss_and_grad(w, xi, xj, psi, loss_kind: str, loss_cfg: LossConfig):
    """Mean pair loss over a batch and its gradient with respect to W.

    ``xi``/``xj`` are pooled feature rows, (n, channels); the forward pass
    is the model's (linear layer, then L2 normalization, then pair
    distance). Raises ValueError when an embedding collapses to zero norm.
    """
    zi, zj = xi @ w.T, xj @ w.T
    ni = np.linalg.norm(zi, axis=1)
    nj = np.linalg.norm(zj, axis=1)
    if np.any(ni <= _NORM_EPS) or np.any(nj <= _NORM_EPS):
        raise ValueError("zero-norm embedding before normalization")
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
    # normalization backprop: project out the radial component, divide by norm
    gz_i = (gu_i - ui * np.sum(ui * gu_i, axis=1)[:, None]) / ni[:, None]
    gz_j = (gu_j - uj * np.sum(uj * gu_j, axis=1)[:, None]) / nj[:, None]
    gw = (gz_i.T @ xi + gz_j.T @ xj) / len(d)
    return float(np.mean(losses)), gw


def train(model: EmbedModel, labels, features, cfg: TrainConfig) -> tuple:
    """SGD over contrastive pairs; returns (trained model, per-step loss trace).

    ``features`` is an iterable of FeatureMaps or a dict id -> FeatureMap
    covering every id in ``labels``. Descriptors are recomputed from the
    live weights each step; the gradient flows through normalization and
    the linear layer, while pooled features are fixed inputs. Binary-loss
    training derives y = 1 iff psi >= 0.5. Deterministic for a fixed
    config and data; a non-finite loss or weight aborts with the step
    index.

    A single-label list cannot satisfy any strategy's band quotas, so it
    is trained directly: each step is that one pair repeated batch_size
    times (one step per epoch).
    """
    labels = list(labels)
    if not labels:
        raise ValueError("no labels to train on")
    if not isinstance(features, dict):
        features = {fm.id: fm for fm in features}
    ids = sorted({lab.query_id for lab in labels} | {lab.map_id for lab in labels})
    missing = [ident for ident in ids if ident not in features]
    if missing:
        raise ValueError(f"labels reference ids without features: {', '.join(missing[:5])}")

    row_of = {ident: row for row, ident in enumerate(ids)}
    pooled = np.stack([gem_pool(features[ident], model.gem_p) for ident in ids])
    query_rows = np.array([row_of[lab.query_id] for lab in labels])
    map_rows = np.array([row_of[lab.map_id] for lab in labels])
    psi = np.array([lab.psi for lab in labels], dtype=np.float64)
    if len(labels) == 1:
        next_rows = lambda: np.zeros(cfg.batch_size, dtype=np.intp)
    else:
        sampler = BatchSampler(index_labels(labels), cfg.strategy, cfg.batch_size, seed=cfg.seed)
        next_rows = lambda: sampler.next_batch().rows
    loss_cfg = LossConfig(tau=cfg.tau)
    steps = cfg.epochs * max(1, len(labels) // cfg.batch_size)

    w = model.W.copy()
    trace = []
    pairs_seen = 0
    for step in range(steps):
        xi, xj, batch_psi = _batch_arrays(next_rows(), pooled, query_rows, map_rows, psi)
        try:
            mean_loss, gw = batch_loss_and_grad(w, xi, xj, batch_psi, cfg.loss_kind, loss_cfg)
        except ValueError as e:
            raise TrainingDiverged(step, str(e)) from None
        if not np.isfinite(mean_loss):
            raise TrainingDiverged(step, "non-finite loss")
        trace.append(mean_loss)

        lr = cfg.lr0 * 0.1 ** (pairs_seen // cfg.lr_decay_after)
        pairs_seen += len(batch_psi)
        w = w - lr * gw
        if not np.all(np.isfinite(w)):
            raise TrainingDiverged(step, "non-finite weights after update")

    return replace(model, W=w, trained=True), trace


def write_features(path, feature_maps) -> None:
    """Write feature maps to the binary features format; shapes must agree."""
    maps = list(feature_maps)
    if not maps:
        raise ValueError("no feature maps to write")
    channels, locations = maps[0].channels, maps[0].locations
    for fm in maps:
        if (fm.channels, fm.locations) != (channels, locations):
            raise ValueError(
                f"feature map {fm.id!r} has shape {(fm.channels, fm.locations)}, "
                f"expected {(channels, locations)}"
            )
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(struct.pack("<IIII", FORMAT_VERSION, len(maps), channels, locations))
        for fm in maps:
            ident = fm.id.encode("utf-8")
            if len(ident) > 0xFFFF:
                raise ValueError(f"id too long to serialize: {fm.id!r}")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(fm.values.astype("<f4").tobytes(order="C"))


def _read_exact(fh, n: int, path, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated file while reading {what}")
    return buf


def _read_header(fh, path, magic: bytes, kind: str, fmt: str) -> list:
    """Check a binary file's magic and version; returns the other header fields."""
    got = _read_exact(fh, 4, path, "magic")
    if got != magic:
        raise ValueError(f"{path}: not a {kind} file (bad magic {got!r})")
    version, *fields = struct.unpack(fmt, _read_exact(fh, 16, path, "header"))
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return fields


def _check_size(fh, path, need: int) -> None:
    """Reject a header that implies more bytes than the file holds, before reading them."""
    size = os.fstat(fh.fileno()).st_size
    if need > size:
        raise ValueError(f"{path}: truncated file: header implies {need} bytes or more, has {size}")


def read_features(path) -> list:
    """Read a binary features file back into FeatureMaps, in file order."""
    with open(path, "rb") as fh:
        count, channels, locations = _read_header(fh, path, FEATURES_MAGIC, "features", "<IIII")
        _check_size(fh, path, 20 + count * (2 + 4 * channels * locations))
        maps = []
        for _ in range(count):
            (id_len,) = struct.unpack("<H", _read_exact(fh, 2, path, "id length"))
            try:
                ident = _read_exact(fh, id_len, path, "id").decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: {e}") from None
            raw = _read_exact(fh, 4 * channels * locations, path, f"values of {ident!r}")
            values = np.frombuffer(raw, dtype="<f4").reshape(channels, locations)
            maps.append(FeatureMap(ident, values.astype(np.float64)))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {count} records")
    return maps


def save_model(path, model: EmbedModel) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIIf", FORMAT_VERSION, model.d_out, model.channels, model.gem_p))
        fh.write(model.W.astype("<f4").tobytes(order="C"))


def load_model(path) -> EmbedModel:
    """Read a model file; persisted models are treated as trained."""
    with open(path, "rb") as fh:
        d_out, channels, gem_p = _read_header(fh, path, MODEL_MAGIC, "model", "<IIIf")
        _check_size(fh, path, 20 + 4 * d_out * channels)
        raw = _read_exact(fh, 4 * d_out * channels, path, "weights")
        w = np.frombuffer(raw, dtype="<f4").reshape(d_out, channels).astype(np.float64)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after weights")
    return EmbedModel(gem_p=float(gem_p), W=w, trained=True)
