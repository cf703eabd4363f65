"""Retrieval evaluation: exact nearest neighbors, recall, localization, whitening.

Search is brute force by L2 distance with ties broken by map id, so
rankings do not depend on row order. It runs on blocks of query rows,
partitioning each block's distances to find the k-th smallest and
sorting only the columns within it by (distance, id). Recall@k is the
percentage of queries with at least one true positive among their k
nearest references; queries without any positive are excluded and
counted. Localization accuracy checks the top-1 match's pose against
translation and rotation thresholds, the query inheriting the pose of
its best match. PCA whitening mean-centers, projects onto leading
eigenvectors of the sample covariance and rescales each component to
unit variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embed import FeatureMap, _read_feature_array, write_features
from .fov2d import CameraPose2D, wrapped_angle_diff
from .relabel import file_reader

# (meters, radians) thresholds a correctly localized query must meet
DEFAULT_LOC_THRESHOLDS = (
    (0.25, math.radians(2.0)),
    (0.5, math.radians(5.0)),
    (5.0, math.radians(10.0)),
)

_BLOCK_ROWS = 256  # queries per nn_search block: 4 MB of float64 distances at 2,000 map rows


@dataclass(frozen=True)
class DescriptorSet:
    """Descriptor rows aligned with image ids; ids unique, rows finite."""

    ids: tuple
    matrix: np.ndarray = field(repr=False)
    normalized: bool = False

    def __post_init__(self):
        ids = tuple(self.ids)
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {m.shape}")
        if len(ids) != m.shape[0]:
            raise ValueError(f"{len(ids)} ids for {m.shape[0]} descriptor rows")
        if len(set(ids)) != len(ids):
            raise ValueError("descriptor ids must be unique")
        if not np.all(np.isfinite(m)):
            raise ValueError("descriptors must be finite")
        if self.normalized:
            norms = np.linalg.norm(m, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normalized flag set but rows are not unit-norm")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", m)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Ranking:
    """One query's retrieved references, nearest first."""

    query_id: str
    hits: tuple  # of (map_id, distance)

    def __post_init__(self):
        hits = tuple((str(i), float(d)) for i, d in self.hits)
        if not hits:
            raise ValueError("ranking must contain at least one hit")
        dists = [d for _, d in hits]
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise ValueError("hit distances must be non-decreasing")
        object.__setattr__(self, "hits", hits)

    @classmethod
    def _sorted(cls, query_id, hits: tuple) -> Ranking:
        """Wrap hits already built as nearest-first (str, float) pairs, skipping validation."""
        r = object.__new__(cls)
        object.__setattr__(r, "query_id", query_id)
        object.__setattr__(r, "hits", hits)
        return r

    def top(self, k: int) -> tuple:
        return self.hits[:k]


@dataclass(frozen=True)
class RecallResult:
    """Recall percentages per k plus how many queries were evaluated/excluded."""

    percent: dict
    evaluated: int
    excluded: int

    def __getitem__(self, k: int) -> float:
        return self.percent[k]


@dataclass(frozen=True)
class WhitenTransform:
    """Affine whitening map: x -> projection @ (x - mean)."""

    mean: np.ndarray = field(repr=False)
    projection: np.ndarray = field(repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        proj = np.asarray(self.projection, dtype=np.float64)
        if mean.ndim != 1 or proj.ndim != 2 or proj.shape[1] != mean.shape[0]:
            raise ValueError(
                f"inconsistent shapes: mean {mean.shape}, projection {proj.shape}"
            )
        if proj.shape[0] > proj.shape[1]:
            raise ValueError("cannot whiten to more dimensions than the input has")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "projection", proj)

    @property
    def d_pca(self) -> int:
        return self.projection.shape[0]


def nn_search(queries: DescriptorSet, map_set: DescriptorSet, k: int) -> list:
    """Exact top-k nearest references per query by L2 distance.

    Ties are broken by ascending map id, so the result is invariant under
    permutation of the map rows. Distances use the expanded form
    sqrt(max(|q|^2 + |m|^2 - 2 q.m, 0)). The inner products come from one
    ``q @ m.T`` call, because BLAS rounds a block of rows differently
    from the whole matrix; the rest runs on blocks of ``_BLOCK_ROWS``
    queries, so beyond that nq x n_map product the temporaries stay
    within a few block x n_map x 8 B arrays.
    """
    if queries.dim != map_set.dim:
        raise ValueError(f"dimension mismatch: queries {queries.dim}, map {map_set.dim}")
    if not 1 <= k <= len(map_set):
        raise ValueError(f"k must be in [1, {len(map_set)}], got {k}")
    order = np.argsort(np.array(map_set.ids))  # canonical id order for tie-breaks
    m = map_set.matrix[order]
    ids = np.array([str(i) for i in map_set.ids], dtype=object)[order]
    q = queries.matrix
    qq, mm, qm = np.sum(q * q, axis=1), np.sum(m * m, axis=1), q @ m.T
    out = []
    for lo in range(0, len(q), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        d2 = qq[block, None] + mm[None, :]
        d2 -= 2.0 * qm[block]
        dist = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        cols, d = _block_top_k(dist, k)
        for query_id, hit_ids, hit_d in zip(queries.ids[block], ids[cols].tolist(), d.tolist()):
            out.append(Ranking._sorted(query_id, tuple(zip(hit_ids, hit_d))))
    return out


def _block_top_k(dist: np.ndarray, k: int) -> tuple:
    """Columns of each row's k smallest distances, ordered by (distance, column), and those
    distances. Every column within the k-th smallest value is a candidate, so ties across the
    k-th place are settled by column; only rows with such extra ties take a per-row sort."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    keep = ~(dist > kth)  # keeps NaN too, which sorts last as in a full-row lexsort
    exact = np.count_nonzero(keep, axis=1) == k
    cols = np.empty((len(dist), k), dtype=np.intp)
    cols[exact] = np.nonzero(keep[exact])[1].reshape(-1, k)
    for r in np.flatnonzero(~exact):
        c = np.flatnonzero(keep[r])
        cols[r] = c[np.lexsort((c, dist[r, c]))[:k]]
    d = np.take_along_axis(dist, cols, axis=1)
    rank = np.lexsort((cols, d), axis=1)
    return np.take_along_axis(cols, rank, axis=1), np.take_along_axis(d, rank, axis=1)


def recall_at_k(rankings, positives: dict, ks) -> RecallResult:
    """Percentage of queries whose top-k contains a positive, per k.

    ``positives`` maps every query id to its set of positive map ids; a
    query with an empty set is excluded from the denominator and counted
    in ``excluded``.
    """
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive ranks")
    rankings = list(rankings)
    missing = [r.query_id for r in rankings if r.query_id not in positives]
    if missing:
        raise KeyError(f"queries without a positives entry: {', '.join(missing[:5])}")
    scored = [(r, positives[r.query_id]) for r in rankings if positives[r.query_id]]
    excluded = len(rankings) - len(scored)
    if not scored:
        raise ValueError("every query has an empty positive set; recall undefined")
    percent = {}
    for k in sorted(set(ks)):
        hits = sum(1 for r, pos in scored if any(mid in pos for mid, _ in r.top(k)))
        percent[k] = 100.0 * hits / len(scored)
    return RecallResult(percent={k: percent[k] for k in ks}, evaluated=len(scored), excluded=excluded)


def localization_accuracy(
    rankings,
    query_poses: dict,
    map_poses: dict,
    thresholds=DEFAULT_LOC_THRESHOLDS,
) -> dict:
    """Percentage of queries localized within each (meters, radians) threshold.

    A query inherits the pose of its top-1 match and is correct at a
    threshold when both the translation and the wrapped heading
    difference to its own pose are within bounds.
    """
    rankings = list(rankings)
    if not rankings:
        raise ValueError("no rankings to evaluate")
    thresholds = tuple((float(m), float(rad)) for m, rad in thresholds)
    correct = {t: 0 for t in thresholds}
    for r in rankings:
        if r.query_id not in query_poses:
            raise KeyError(f"missing query pose for {r.query_id!r}")
        top_id = r.hits[0][0]
        if top_id not in map_poses:
            raise KeyError(f"missing map pose for {top_id!r}")
        qp, mp = query_poses[r.query_id], map_poses[top_id]
        t_err = math.hypot(qp.t0 - mp.t0, qp.t1 - mp.t1)
        r_err = wrapped_angle_diff(qp.alpha, mp.alpha)
        for t in thresholds:
            if t_err <= t[0] and r_err <= t[1]:
                correct[t] += 1
    return {t: 100.0 * c / len(rankings) for t, c in correct.items()}


def fit_pca_whitening(train: DescriptorSet, d_pca: int) -> WhitenTransform:
    """Whitening transform from the sample covariance of a training set.

    Eigenvalues are sorted descending; each eigenvector row is scaled by
    (eigenvalue + epsilon)^(-1/2) with epsilon = 1e-9, and its sign is
    fixed so the first nonzero component is positive. Requires strictly
    more samples than output dimensions.
    """
    n, d = train.matrix.shape
    if not 1 <= d_pca <= d:
        raise ValueError(f"d_pca must be in [1, {d}], got {d_pca}")
    if n <= d_pca:
        raise ValueError(f"need more than {d_pca} samples to whiten, got {n}")
    eps = 1e-9
    mean = np.mean(train.matrix, axis=0)
    centered = train.matrix - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d_pca]
    eigvals = eigvals[order]
    comps = eigvecs[:, order].T
    for row in comps:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if len(nz) and row[nz[0]] < 0.0:
            row *= -1.0
    proj = comps / np.sqrt(np.maximum(eigvals, 0.0) + eps)[:, None]
    return WhitenTransform(mean=mean, projection=proj)


def apply_whitening(t: WhitenTransform, s: DescriptorSet, renormalize: bool = True) -> DescriptorSet:
    """Project descriptors through a whitening transform.

    With ``renormalize`` (the default) rows are re-L2-normalized after
    projection, matching retrieval on unit vectors.
    """
    if s.dim != t.mean.shape[0]:
        raise ValueError(f"dimension mismatch: descriptors {s.dim}, transform {t.mean.shape[0]}")
    out = (s.matrix - t.mean) @ t.projection.T
    if renormalize:
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms <= 1e-12):
            raise ValueError("whitened descriptor collapsed to zero; cannot renormalize")
        out = out / norms[:, None]
    return DescriptorSet(ids=s.ids, matrix=out, normalized=renormalize)


def write_descriptors(path, s: DescriptorSet) -> None:
    """Persist descriptors as a features file with one location per channel row."""
    write_features(path, [FeatureMap(i, row[:, None]) for i, row in zip(s.ids, s.matrix)])


@file_reader
def read_descriptors(path) -> DescriptorSet:
    ids, values = _read_feature_array(path)
    if values.shape[2] != 1:
        raise ValueError("not a descriptor file (multiple locations per channel)")
    return DescriptorSet(ids=tuple(ids), matrix=values[:, :, 0])
