"""Desk-scale descriptor model: GeM pooling, linear embedding, SGD trainer.

A feature map of shape (channels, locations) stands in for the last layer
of a convolutional backbone. The model pools it with a generalized mean,
applies a single trainable linear layer and L2-normalizes, yielding a
unit-norm descriptor; ``forward``, ``compute_descriptors`` and the
trainer share one batched pool-project-normalize path, which stacks the
maps of each location count and pools each stack with one GeM call.
Training runs plain SGD over contrastive pairs streamed by the batch
sampler, on the graded loss (binary labels as psi in {0, 1}); only the
linear weights are trained, the pooling exponent stays fixed.

Binary formats (all little-endian):
  features file: magic `GVPR`, version u32, count u32, channels u32,
    locations u32, then per record u16 id byte length, UTF-8 id, and
    channels*locations float32 values row-major.
  model file: magic `GVPM`, version u32, d_out u32, channels u32,
    gem_p float32, then d_out*channels float32 weights row-major.
Header fields must be positive. A features file is read in one pass into
one (count, channels, locations) array; its ids (nonempty, unique) and
values (finite) are checked once per file, and the FeatureMaps returned
are views of that array. Model files hold gem_p and W as float32
(p = 2.7 reloads as 2.700000047); `eval` on a model file uses those values.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .gcl import LossConfig, _gcl_kernel
from .gcl import gcl_grad_d, gcl_loss  # noqa: F401 -- the traced benchmark wraps these names here
from .relabel import file_reader
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

    @classmethod
    def _trusted(cls, ident: str, values: np.ndarray) -> FeatureMap:
        """Wrap values the caller has already checked (a float64 view), skipping validation."""
        fm = object.__new__(cls)
        object.__setattr__(fm, "id", ident)
        object.__setattr__(fm, "values", values)
        return fm

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


def gem_pool(v, p: float) -> np.ndarray:
    """Generalized-mean pooling over locations: ((1/L) sum v^p)^(1/p) per channel.

    Accepts a (channels, locations) array or a stack of maps of one
    shape, (n, channels, locations), reducing over the last axis either
    way. Negative values are clamped to 0 on ingest so fractional
    exponents stay defined (backbone activations are nonnegative anyway).
    p=1 is the mean; large p approaches the per-channel max.
    """
    if not p > 0.0:
        raise ValueError(f"pooling exponent must be positive, got {p}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (2, 3):
        raise ValueError(f"expected (channels, locations) or (n, channels, locations), got shape {v.shape}")
    return np.mean(np.maximum(v, 0.0) ** p, axis=-1) ** (1.0 / p)


def _pooled_rows(model: EmbedModel, maps) -> np.ndarray:
    """GeM-pooled rows, (n, channels), in input order, of feature maps with the model's channel
    count; the maps of each location count are stacked and pooled by one ``gem_pool`` call."""
    rows_by_locations = {}
    for row, fm in enumerate(maps):
        if fm.channels != model.channels:
            raise ValueError(
                f"feature map {fm.id!r} has {fm.channels} channels, model expects {model.channels}"
            )
        rows_by_locations.setdefault(fm.locations, []).append(row)
    pooled = np.empty((len(maps), model.channels))
    for rows in rows_by_locations.values():
        pooled[rows] = gem_pool(np.stack([maps[r].values for r in rows]), model.gem_p)
    return pooled


def _row_norms(z: np.ndarray) -> np.ndarray:
    """L2 norm of each row: the ops of ``np.linalg.norm(z, axis=1)``, so the same bits, minus its overhead."""
    return np.sqrt(np.add.reduce(z * z, axis=1))


def _unit_rows(z: np.ndarray) -> tuple:
    """Unit rows of embeddings ``z = x @ W.T``, (n, d_out), and their norms before
    normalization; a (near-)zero norm is an error rather than a NaN descriptor."""
    norms = _row_norms(z)
    if (norms <= _NORM_EPS).any():
        raise ValueError("zero-norm embedding before normalization")
    return z / norms[:, None], norms


def forward(model: EmbedModel, fm: FeatureMap) -> np.ndarray:
    """Unit-norm descriptor of one feature map, by the path of ``compute_descriptors``."""
    return _unit_rows(_pooled_rows(model, [fm]) @ model.W.T)[0][0]


def init_model(d_out: int, channels: int, gem_p: float = 3.0, seed: int = 0) -> EmbedModel:
    """Random untrained model; weights scaled so initial descriptors are tame."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(channels), size=(d_out, channels))
    return EmbedModel(gem_p=gem_p, W=w)


def compute_descriptors(model: EmbedModel, feature_maps) -> tuple:
    """Descriptors for a batch of feature maps: (ids, (n, d_out) unit rows), one matmul."""
    maps = list(feature_maps)
    if not maps:
        raise ValueError("no feature maps given")
    return [fm.id for fm in maps], _unit_rows(_pooled_rows(model, maps) @ model.W.T)[0]


def _batch_arrays(rows, pooled, query_rows, map_rows, psi):
    """Gather one batch: pooled query and map feature rows and psi of label ``rows``."""
    return pooled[query_rows[rows]], pooled[map_rows[rows]], psi[rows]


def batch_loss_and_grad(w, xi, xj, psi, loss_kind: str, loss_cfg: LossConfig):
    """Mean pair loss over a batch and its gradient with respect to W.

    ``xi``/``xj`` are pooled feature rows, (n, channels); the forward pass
    is the model's (linear layer, then L2 normalization, then pair
    distance). ``psi`` must lie in [0, 1]; ``train`` checks it once per
    call, so only d is checked here. Raises ValueError when an embedding
    collapses to zero norm or a distance is not finite.
    """
    n = len(xi)
    # query and map rows are normalized and backpropagated as one (2n, d_out) stack, filled in
    # place to spare copies; still two products, as one (2n, channels) product rounds differently
    z = np.empty((2 * n, len(w)))
    np.matmul(xi, w.T, out=z[:n])
    np.matmul(xj, w.T, out=z[n:])
    u, norms = _unit_rows(z)
    diff = u[:n] - u[n:]
    d = _row_norms(diff)
    if not np.isfinite(d).all():
        raise ValueError("d must be finite")
    # binary labels are the graded formula at psi in {0, 1}, where it equals cl_* exactly
    target = psi if loss_kind == "gcl" else (psi >= 0.5).astype(np.float64)
    losses, g = _gcl_kernel(d, target, loss_cfg.tau)
    moved = d > 0.0
    scale = np.where(moved, g / np.where(moved, d, 1.0), 0.0)
    gu = np.empty_like(u)
    np.multiply(scale[:, None], diff, out=gu[:n])
    np.negative(gu[:n], out=gu[n:])
    # normalization backprop: project out the radial component, divide by norm
    gz = (gu - u * np.add.reduce(u * gu, axis=1)[:, None]) / norms[:, None]
    gw = (gz[:n].T @ xi + gz[n:].T @ xj) / n
    return float(np.add.reduce(losses) / n), gw


def train(model: EmbedModel, labels, features, cfg: TrainConfig) -> tuple:
    """SGD over contrastive pairs; returns (trained model, per-step loss trace).

    ``features`` is an iterable of FeatureMaps or a dict id -> FeatureMap
    covering every id in ``labels``. Descriptors are recomputed from the
    live weights each step; the gradient flows through normalization and
    the linear layer, while pooled features are fixed inputs. Binary-loss
    training derives y = 1 iff psi >= 0.5 and feeds y to the graded
    formula, which equals the binary one there. Deterministic for a fixed
    config and data. A label psi outside [0, 1] is a ValueError before the
    first step; a non-finite distance, loss or weight aborts with the step
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
    pooled = _pooled_rows(model, [features[ident] for ident in ids])
    query_rows = np.array([row_of[lab.query_id] for lab in labels])
    map_rows = np.array([row_of[lab.map_id] for lab in labels])
    psi = np.array([lab.psi for lab in labels], dtype=np.float64)
    if not ((psi >= 0.0) & (psi <= 1.0)).all():  # also rejects NaN
        raise ValueError("label psi must be in [0, 1]")
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
        if not math.isfinite(mean_loss):
            raise TrainingDiverged(step, "non-finite loss")
        trace.append(mean_loss)

        lr = cfg.lr0 * 0.1 ** (pairs_seen // cfg.lr_decay_after)
        pairs_seen += len(batch_psi)
        w = w - lr * gw
        if not np.isfinite(w).all():
            raise TrainingDiverged(step, "non-finite weights after update")

    return replace(model, W=w), trace


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


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated file while reading {what}")
    return buf


def _read_header(fh, magic: bytes, kind: str, fmt: str) -> list:
    """Check a binary file's magic and version; returns the other header fields."""
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise ValueError(f"not a {kind} file (bad magic {got!r})")
    version, *fields = struct.unpack(fmt, _read_exact(fh, 16, "header"))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    if not all(f > 0 for f in fields):  # also rejects a NaN gem_p
        raise ValueError(f"{kind} header fields must be positive, got {fields}")
    return fields


def _check_size(fh, need: int) -> None:
    """Reject a header that implies more bytes than the file holds, before reading them."""
    size = os.fstat(fh.fileno()).st_size
    if need > size:
        raise ValueError(f"truncated file: header implies {need} bytes or more, has {size}")


def _read_feature_array(path) -> tuple:
    """Ids and float64 values, (count, channels, locations), of a features file.

    A repeated id fails as it is read; empty ids and non-finite values are
    checked once for the whole file. Callers add the path.
    """
    with open(path, "rb") as fh:
        count, channels, locations = _read_header(fh, FEATURES_MAGIC, "features", "<IIII")
        record_bytes = 4 * channels * locations
        _check_size(fh, 20 + count * (2 + record_bytes))
        raw = np.empty(count * record_bytes, dtype=np.uint8)
        ids, seen = [], set()
        for lo in range(0, len(raw), record_bytes):
            (id_len,) = struct.unpack("<H", _read_exact(fh, 2, "id length"))
            ident = _read_exact(fh, id_len, "id").decode("utf-8")
            if ident in seen:
                raise ValueError(f"duplicate feature id {ident!r}")
            seen.add(ident)
            if fh.readinto(memoryview(raw[lo:lo + record_bytes])) != record_bytes:
                raise ValueError(f"truncated file while reading values of {ident!r}")
            ids.append(ident)
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} records")
    if "" in ids:
        raise ValueError("feature map id must be nonempty")
    with np.errstate(invalid="ignore"):  # a signalling NaN fails the finiteness check below, not as a warning
        values = raw.view("<f4").reshape(count, channels, locations).astype(np.float64)
    del raw  # drop the float32 bytes before the finiteness mask is allocated: a lower peak RSS
    if not np.all(np.isfinite(values)):
        raise ValueError("feature values must be finite")
    return ids, values


@file_reader
def read_features(path) -> list:
    """Read a binary features file back into FeatureMaps, in file order.

    The maps are views of one (count, channels, locations) array.
    """
    ids, values = _read_feature_array(path)
    return [FeatureMap._trusted(ident, v) for ident, v in zip(ids, values)]


def save_model(path, model: EmbedModel) -> None:
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIIf", FORMAT_VERSION, model.d_out, model.channels, model.gem_p))
        fh.write(model.W.astype("<f4").tobytes(order="C"))


@file_reader
def load_model(path) -> EmbedModel:
    """Read a model file; gem_p and W come back as the float32 values stored."""
    with open(path, "rb") as fh:
        d_out, channels, gem_p = _read_header(fh, MODEL_MAGIC, "model", "<IIIf")
        _check_size(fh, 20 + 4 * d_out * channels)
        raw = _read_exact(fh, 4 * d_out * channels, "weights")
        with np.errstate(invalid="ignore"):  # a signalling NaN fails EmbedModel's check, not as a warning
            w = np.frombuffer(raw, dtype="<f4").reshape(d_out, channels).astype(np.float64)
        if fh.read(1):
            raise ValueError("trailing bytes after weights")
    return EmbedModel(gem_p=float(gem_p), W=w)
