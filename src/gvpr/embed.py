"""Desk-scale descriptor model: GeM pooling, linear embedding, SGD trainer.

A feature map of shape (channels, locations) stands in for the last layer
of a convolutional backbone. The model pools it with a generalized mean,
applies a single trainable linear layer and L2-normalizes, yielding a
unit-norm descriptor. Feature maps travel as one (n, channels, locations)
array of one shape, or as the blocks of a features file, pooled a block
of records at a time into one (n, channels) array, which one matmul
projects: a one-row product would take BLAS's vector path and round
differently. ``forward``, ``compute_descriptors`` and ``file_descriptors``
share one pool-project-normalize core that rejects a zero-norm or
overflowing embedding as an ``EmbeddingRejected``; training runs its
checks on every labelled row at the initial weights before its first
step. Every pooling, theirs and training's, rejects a pool that
overflows at the model's ``gem_p`` as a ``PoolingOverflow``. Training
runs plain SGD over contrastive pairs streamed by the batch sampler, on
the graded loss (binary labels as psi in {0, 1}), in ``_train``, a core
on pooled rows that ``gvpr train`` runs on the labelled rows of
``file_pools``, the one pooling of a features file, and ``train`` on
FeatureMaps; only the linear weights are trained, the pooling exponent
stays fixed. Features files are read and written by ``gvpr.io``; the
FeatureMaps ``read_features`` returns are views of one float64 array.
Model file (little-endian): magic `GVPM`, version u32, d_out u32,
channels u32, gem_p float32, then d_out*channels float32 weights
row-major, with the header rules of ``io.read_header``. Model files hold
gem_p and W as float32 (p = 2.7 reloads as 2.700000047); `eval` on a
model file uses those values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .gcl import LossConfig, _gcl_kernel
from .gcl import gcl_grad_d, gcl_loss  # noqa: F401 -- the traced benchmark wraps these names here
from .io import (FORMAT_VERSION, check_size, feature_blocks, file_reader, read_exact, read_feature_records,
                 read_header, write_feature_array)
from .sampler import Batch, BatchSampler, BatchStrategy, LabelTable, index_labels

_NORM_EPS = 1e-12
_POOL_BLOCK = 256  # records pooled at a time: GeM's float64 temporaries stay 256 x channels x locations x 8 B

MODEL_MAGIC = b"GVPM"

DEFAULT_GEM_P = 3.0
DEFAULT_LR0 = {"gcl": 0.1, "cl": 0.01}  # initial learning rate by loss kind: graded, binary


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or weight."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class PoolingOverflow(ValueError):
    """Raised when GeM pooling at a model's ``gem_p`` overflows a feature row."""


class EmbeddingRejected(ValueError):
    """Raised when a pooled row embeds to a zero-norm row, which has no direction, or a non-finite one."""


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
        if not np.isfinite(v).all():
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

    def __post_init__(self):
        if not (self.gem_p > 0.0 and math.isfinite(self.gem_p)):
            raise ValueError(f"gem_p must be positive and finite, got {self.gem_p}")
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
    """Trainer knobs. ``lr0`` defaults by loss kind, from ``DEFAULT_LR0``;
    the rate is cut by 10x each time ``lr_decay_after`` pairs have been
    consumed. One epoch is len(labels) // batch_size steps."""

    loss_kind: str = "gcl"
    tau: float = LossConfig.tau
    lr0: float | None = None
    lr_decay_after: int = 250_000
    epochs: int = 1
    batch_size: int = 64
    strategy: BatchStrategy = BatchStrategy.A
    seed: int = 42

    def __post_init__(self):
        if self.loss_kind not in DEFAULT_LR0:
            raise ValueError(f"loss_kind must be 'cl' or 'gcl', got {self.loss_kind!r}")
        if self.lr0 is None:
            object.__setattr__(self, "lr0", DEFAULT_LR0[self.loss_kind])
        if not (math.isfinite(self.lr0) and self.lr0 >= 0.0):
            raise ValueError(f"lr0 must be finite and nonnegative, got {self.lr0}")
        if self.lr_decay_after < 1:
            raise ValueError("lr_decay_after must be a positive pair count")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        LossConfig(self.tau)  # the margin's rule is LossConfig's
        if not math.isfinite(self.batch_size * 0.5 * max(4.0, self.tau * self.tau)):  # a pair's loss <= that
            raise ValueError(f"tau {self.tau:g} overflows the loss of a batch of {self.batch_size} pairs")


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


def _pooled(values: np.ndarray, gem_p: float) -> np.ndarray:
    """``gem_pool`` of a (n, channels, locations) array, float32 or float64, into one (n, channels) float64
    array, by ``_pool``. A row that overflows is a PoolingOverflow."""
    pooled = np.empty((len(values), values.shape[1]))
    _pool(values, gem_p, pooled)
    return _checked_pools(pooled, gem_p)


def _pool(values: np.ndarray, gem_p: float, out: np.ndarray) -> None:
    """Write ``gem_pool`` of the records of ``values`` to the rows of ``out``, ``_POOL_BLOCK`` records at a time:
    GeM's steps are element-wise or per (record, channel), so the bits are those of one call, whatever the
    blocks. A row that overflows, or whose values are not finite, is left as it comes out, with no warning,
    for ``_checked_pools`` or the features file's own error."""
    with np.errstate(over="ignore", invalid="ignore"):  # invalid: a signalling NaN that a bad file holds
        for lo in range(0, len(out), _POOL_BLOCK):
            out[lo:lo + _POOL_BLOCK] = gem_pool(values[lo:lo + _POOL_BLOCK], gem_p)


def _checked_pools(pooled: np.ndarray, gem_p: float) -> np.ndarray:
    """``pooled``, unless a row overflowed at ``gem_p``: then a PoolingOverflow."""
    if not np.isfinite(pooled).all():
        raise PoolingOverflow(f"GeM pooling overflows at gem_p {gem_p:g}")
    return pooled


def _check_channels(model: EmbedModel, ident: str, channels: int) -> None:
    if channels != model.channels:
        raise ValueError(f"feature map {ident!r} has {channels} channels, model expects {model.channels}")


def _stack(maps, model=None) -> np.ndarray:
    """The (n, channels, locations) array of a nonempty list of feature maps of one shape;
    given a model, a map of another channel count fails as a channel mismatch first."""
    shape = maps[0].values.shape
    for fm in maps:
        if model is not None:
            _check_channels(model, fm.id, fm.channels)
        if fm.values.shape != shape:
            raise ValueError(f"feature map {fm.id!r} has shape {fm.values.shape}, expected {shape}")
    return np.stack([fm.values for fm in maps])


def _row_norms(z: np.ndarray) -> np.ndarray:
    """L2 norm of each row: the ops of ``np.linalg.norm(z, axis=1)``, so the same bits, minus its overhead."""
    return np.sqrt(np.add.reduce(z * z, axis=1))


def _unit_rows(z: np.ndarray) -> tuple:
    """Unit rows of embeddings ``z = x @ W.T``, (n, d_out), and their norms before
    normalization; a (near-)zero norm is an error rather than a NaN descriptor."""
    norms = _row_norms(z)
    if (norms <= _NORM_EPS).any():
        raise EmbeddingRejected("zero-norm embedding before normalization")
    return z / norms[:, None], norms


def _embedded(pooled: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit rows of ``pooled @ w.T``; a row of zero norm, then one that is not finite, is an EmbeddingRejected."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as the error below, not as warnings
        u, norms = _unit_rows(pooled @ w.T)
    if not np.isfinite(norms).all():
        raise EmbeddingRejected("descriptors must be finite")
    return u


def forward(model: EmbedModel, fm: FeatureMap) -> np.ndarray:
    """Unit-norm descriptor of one feature map, by the path of ``compute_descriptors``."""
    return compute_descriptors(model, [fm])[1][0]


def check_d_out(d_out: int) -> None:
    """Raise ValueError unless the descriptor dimension ``d_out`` is positive."""
    if d_out < 1:
        raise ValueError(f"d_out must be a positive integer, got {d_out}")


def init_model(d_out: int, channels: int, gem_p: float = DEFAULT_GEM_P, seed: int = 0) -> EmbedModel:
    """Random untrained model; weights scaled so initial descriptors are tame."""
    check_d_out(d_out)
    if seed < 0:  # NumPy's own error names no argument
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0 / np.sqrt(channels), size=(d_out, channels))
    return EmbedModel(gem_p=gem_p, W=w)


def compute_descriptors(model: EmbedModel, feature_maps) -> tuple:
    """Descriptors for feature maps of one shape: (ids, (n, d_out) unit rows), one matmul."""
    maps = list(feature_maps)
    if not maps:
        raise ValueError("no feature maps given")
    return [fm.id for fm in maps], _embedded(_pooled(_stack(maps, model), model.gem_p), model.W)


def _batch_arrays(rows, pooled, query_rows, map_rows):
    """Gather one batch: the pooled query and map feature rows of label ``rows``."""
    return pooled[query_rows[rows]], pooled[map_rows[rows]]


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

    ``labels`` is a LabelTable, or what ``LabelTable.of`` takes.
    ``features`` is an iterable of FeatureMaps with no id repeated, or a
    dict id -> FeatureMap, covering every id in ``labels``, of one shape.
    Descriptors are recomputed from the live weights each step; the
    gradient flows through normalization and the linear layer, while pooled
    features are fixed inputs. Binary-loss training derives y = 1 iff
    psi >= 0.5 and feeds y to the graded formula, which equals the binary
    one there.
    Deterministic for a fixed config and data. A label psi outside [0, 1]
    is a ValueError, a pool that overflows a PoolingOverflow, and a labelled
    row whose embedding at the initial weights has zero norm or is not
    finite an EmbeddingRejected, all before the first step, whatever the
    sampler draws; a non-finite distance, loss or weight aborts with the
    step index.

    A single-label list cannot satisfy any strategy's band quotas, so it
    is trained directly: each step is that one pair repeated batch_size
    times (one step per epoch), and no strategy applies, nor its batch
    size rule (``sampler.check_batch_size``, which ``gvpr train`` applies
    to every labels file).
    """
    table = LabelTable.of(labels)
    if not len(table):
        raise ValueError("no labels to train on")
    if not isinstance(features, dict):
        by_id = {}
        for fm in features:
            if fm.id in by_id:
                raise ValueError(f"duplicate feature id {fm.id!r}")
            by_id[fm.id] = fm
        features = by_id
    missing = [ident for ident in table.ids if ident not in features]
    if missing:
        raise ValueError(f"labels reference ids without features: {', '.join(map(repr, missing[:5]))}")
    return _train(model, table, _pooled(_stack([features[ident] for ident in table.ids], model), model.gem_p), cfg)


def _train(model: EmbedModel, table: LabelTable, pooled: np.ndarray, cfg: TrainConfig) -> tuple:
    """``train``'s SGD on ``pooled``, the (len(table.ids), channels) pooled rows of ``table.ids``."""
    # Overflow and NaN end as TrainingDiverged at the step they reach, not as NumPy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        psi = table.psi
        if not ((psi >= 0.0) & (psi <= 1.0)).all():  # also rejects NaN
            raise ValueError("label psi must be in [0, 1]")
        _embedded(pooled, model.W)  # descriptors' checks, on every labelled row at once
        if len(table) == 1:
            only = Batch(np.zeros(cfg.batch_size, dtype=np.intp), np.repeat(psi, cfg.batch_size))
            next_batch = lambda: only
        else:
            next_batch = BatchSampler(index_labels(table), cfg.strategy, cfg.batch_size, seed=cfg.seed).next_batch
        loss_cfg = LossConfig(tau=cfg.tau)
        steps = cfg.epochs * max(1, len(table) // cfg.batch_size)

        w = model.W.copy()
        trace = []
        pairs_seen = 0
        for step in range(steps):
            batch = next_batch()
            xi, xj = _batch_arrays(batch.rows, pooled, table.query, table.map)
            try:
                mean_loss, gw = batch_loss_and_grad(w, xi, xj, batch.psi, cfg.loss_kind, loss_cfg)
            except ValueError as e:
                raise TrainingDiverged(step, str(e)) from None
            if not math.isfinite(mean_loss):
                raise TrainingDiverged(step, "non-finite loss")
            trace.append(mean_loss)

            lr = cfg.lr0 * 0.1 ** (pairs_seen // cfg.lr_decay_after)
            pairs_seen += len(batch)
            w = w - lr * gw
            if not np.isfinite(w).all():
                raise TrainingDiverged(step, "non-finite weights after update")

    return replace(model, W=w), trace


def write_features(path, feature_maps) -> None:
    """Write feature maps to the binary features format; shapes must agree."""
    maps = list(feature_maps)
    if not maps:
        raise ValueError("no feature maps to write")
    write_feature_array(path, [fm.id for fm in maps], _stack(maps))


@file_reader
def file_pools(path, gem_p: float) -> tuple:
    """GeM pools of a features file's records, (ids, (n, channels) float64 rows), each block of ``io.feature_blocks``
    pooled as it is read: memory is one block of the file and the pooled rows, whatever the record count. A pool
    that overflows at ``gem_p`` is left for ``_checked_pools``."""
    with open(path, "rb") as fh:
        (count, channels, _), blocks = feature_blocks(fh)
        ids, pooled = [], np.empty((count, channels))
        for block_ids, values in blocks:
            _pool(values, gem_p, pooled[len(ids):len(ids) + len(block_ids)])
            ids += block_ids
    return ids, pooled


@file_reader
def file_descriptors(path, model: EmbedModel) -> tuple:
    """Descriptors of a features file, (ids, (n, d_out) unit rows), the rows of ``file_pools`` embedded by one
    product: bit-identical to ``compute_descriptors(model, read_features(path))``, and its errors in the same order."""
    ids, pooled = file_pools(path, model.gem_p)
    _check_channels(model, ids[0], pooled.shape[1])
    return ids, _embedded(_checked_pools(pooled, model.gem_p), model.W)


@file_reader
def read_features(path) -> list:
    """Read a binary features file back into FeatureMaps, in file order.

    The maps are checked, and their values are views of one (count, channels, locations) array.
    """
    ids, values = read_feature_records(path)
    return [FeatureMap(ident, v) for ident, v in zip(ids, values.astype(np.float64))]


def save_model(path, model: EmbedModel) -> None:
    """Write a model file; a gem_p or weight beyond float32 (inf to ``load_model``) is refused before it is opened."""
    with np.errstate(over="ignore"):
        gem_p, w = np.float32(model.gem_p), model.W.astype("<f4")
    if not (np.isfinite(gem_p) and np.isfinite(w).all()):
        raise ValueError(f"model overflows float32: gem_p {model.gem_p:.6g}, largest |w| {np.max(np.abs(model.W)):.6g}")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIIf", FORMAT_VERSION, model.d_out, model.channels, gem_p))
        fh.write(w.tobytes(order="C"))


@file_reader
def load_model(path) -> EmbedModel:
    """Read a model file; gem_p and W come back as the float32 values stored."""
    with open(path, "rb") as fh:
        d_out, channels, gem_p = read_header(fh, MODEL_MAGIC, "model", "<IIIf")
        check_size(fh, 20 + 4 * d_out * channels)
        raw = read_exact(fh, 4 * d_out * channels, "weights")
        with np.errstate(invalid="ignore"):  # a signalling NaN fails EmbedModel's check, not as a warning
            w = np.frombuffer(raw, dtype="<f4").reshape(d_out, channels).astype(np.float64)
        if fh.read(1):
            raise ValueError("trailing bytes after weights")
    return EmbedModel(gem_p=float(gem_p), W=w)
