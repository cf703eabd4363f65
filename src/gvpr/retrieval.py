"""Retrieval evaluation: exact nearest neighbors, recall, localization, whitening.

Search is brute force by L2 distance with ties broken by map id, so
rankings do not depend on row order. Nor do a query's rankings and
distance bits depend on the other queries searched with it: inner
products come from one fixed-shape block of 32 query rows, zero-padded,
against the map padded with zero rows to a multiple of 64, so memory
is bounded by one block, not by queries x map. One partition of the
block's squared distances picks k candidate columns per row, and only
those are square-rooted and sorted by (distance, id). A row where
square-rooting could tie a column outside the candidates with the k-th
distance is ranked instead by its own sort over the exact distances. Recall@k is the percentage of queries
with at least one true positive among their k nearest references,
counted from each query's first positive rank; queries without any
positive are excluded and counted. Localization accuracy checks the
top-1 match's pose against translation and rotation thresholds, the
query inheriting the pose of its best match. PCA whitening
mean-centers, projects onto leading eigenvectors of the sample
covariance and rescales each component to unit variance.

Each rule is written once, in a core on row arrays: ``_top_k`` gives
each query's (k,) map rows and distances, ``_recall`` counts from the
ranked map rows and the positive (query row, map row) pairs, and
``_localization`` from pose rows (t0, t1, alpha). ``gvpr eval`` calls
the cores. ``nn_search``, ``recall_at_k`` and ``localization_accuracy``
are their adapters for ids, ``Ranking``s and CameraPose2Ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fov2d import planar_distance, wrapped_angle_diff
from .io import file_reader, id_order, read_feature_records, write_feature_array

# (meters, radians) thresholds a correctly localized query must meet
DEFAULT_LOC_THRESHOLDS = (
    (0.25, math.radians(2.0)),
    (0.5, math.radians(5.0)),
    (5.0, math.radians(10.0)),
)

_TILE_ROWS = 32  # query rows per inner-product call, the one shape BLAS sees: 0.5 MB of products at 2,000 map rows
# map rows are zero-padded to a multiple of this: otherwise the bits of the last n_map mod 8 columns move
# with the query's row in the tile
_MAP_PAD_ROWS = 64
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


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
    """Exact top-k nearest references per query by L2 distance, as Rankings.

    Ties are broken by ascending map id, so the result is invariant under
    permutation of the map rows, and a query's ranking does not depend on
    the other queries. The search is ``_top_k``'s.
    """
    rows, dist = _top_k(queries, map_set, k)
    ids = np.array([str(i) for i in map_set.ids], dtype=object)
    return [Ranking(query_id, tuple(zip(hit_ids, hit_d)))
            for query_id, hit_ids, hit_d in zip(queries.ids, ids[rows].tolist(), dist.tolist())]


def _top_k(queries: DescriptorSet, map_set: DescriptorSet, k: int) -> tuple:
    """Map rows of each query's k nearest references, (nq, k), and their distances.

    Each query's row is ordered by (distance, map id). Distances use the expanded form
    sqrt(max((|q|^2 + |m|^2) - 2 q.m, 0)). A query's result does not depend on the other
    queries of the call: the inner products come from one fixed ``(_TILE_ROWS, d)`` block
    of query rows, zero-padded, against the id-ordered map padded with zero rows to a
    multiple of ``_MAP_PAD_ROWS``, so BLAS rounds every query the same whatever the query
    count and the query's place in its block. Each block is multiplied, selected and
    written in turn: the block, its products and its squared distances reuse one buffer
    each, so beyond the map and the (nq, k) results memory stays within a few
    ``_TILE_ROWS`` x n_map x 8 B. A block picks its k candidates per row on the squared
    distances, and the max and sqrt run only on the picked (block, k) entries.
    """
    if queries.dim != map_set.dim:
        raise ValueError(f"dimension mismatch: queries {queries.dim}, map {map_set.dim}")
    if not 1 <= k <= len(map_set):
        raise ValueError(f"k must be in [1, {len(map_set)}], got {k}")
    order = id_order(map_set.ids)  # tie-breaks by map id
    n_map = len(order)
    m = np.zeros((-(-n_map // _MAP_PAD_ROWS) * _MAP_PAD_ROWS, map_set.dim))
    m[:n_map] = map_set.matrix[order]
    q = queries.matrix
    qq, mm = np.sum(q * q, axis=1), np.sum(m[:n_map] * m[:n_map], axis=1)
    tile = np.zeros((_TILE_ROWS, q.shape[1]))
    qm = np.empty((_TILE_ROWS, len(m)))
    d2 = np.empty((_TILE_ROWS, n_map))
    rows = np.empty((len(q), k), dtype=np.intp)
    dist = np.empty((len(q), k))
    for lo in range(0, len(q), _TILE_ROWS):
        n = min(_TILE_ROWS, len(q) - lo)
        tile[:n] = q[lo:lo + n]
        tile[n:] = 0.0
        np.matmul(tile, m.T, out=qm)
        qm *= 2.0  # exact, so the bits of 2.0 * qm
        np.add(qq[lo:lo + n, None], mm[None, :], out=d2[:n])
        d2[:n] -= qm[:n, :n_map]
        cols, dist[lo:lo + n] = _block_top_k(d2[:n], k)
        rows[lo:lo + n] = order[cols]
    return rows, dist


def _distance(d2: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(d2, 0.0))


def _block_top_k(d2: np.ndarray, k: int) -> tuple:
    """Columns of each row's k smallest distances ``sqrt(max(d2, 0))``, ordered by (distance,
    column), and those distances.

    One partition of the squared distances puts each row's k smallest first and its (k+1)-th
    next. The distance of the largest of the k, s_k, is the k-th smallest distance, and a column
    whose distance rounds to at most s_k has d2 below nextafter(s_k)^2: the bound here is that
    square with a relative and an absolute margin. When the (k+1)-th d2 lies beyond the bound, no
    other column ties the k-th place, so the k are the top k. Any other row, one with a NaN among
    its k included, is ranked by a sort of its own distances within s_k.
    """
    n = d2.shape[1]
    part = np.argpartition(d2, min(k, n - 1), axis=1)
    cols = part[:, :k].copy()
    s_k = _distance(np.take_along_axis(d2, cols, axis=1).max(axis=1))  # NaN if one of the k is
    if k == n:
        tied = np.zeros(len(d2), dtype=bool)
    else:
        with np.errstate(over="ignore"):
            bound = np.square(np.nextafter(s_k, np.inf)) * (1.0 + 4.0 * _EPS)
        np.maximum(bound, _TINY, out=bound)
        tied = ~(np.take_along_axis(d2, part[:, k:k + 1], axis=1)[:, 0] > bound)
    for r in np.flatnonzero(tied):
        dist = _distance(d2[r])
        c = np.flatnonzero(~(dist > s_k[r]))  # NaN distances stay, as they sort last
        cols[r] = c[np.lexsort((c, dist[c]))[:k]]
    d = _distance(np.take_along_axis(d2, cols, axis=1))
    rank = np.lexsort((cols, d), axis=1)
    return np.take_along_axis(cols, rank, axis=1), np.take_along_axis(d, rank, axis=1)


def recall_at_k(rankings, positives: dict, ks) -> RecallResult:
    """Percentage of queries whose top-k contains a positive, per k.

    ``positives`` maps every query id to its set of positive map ids; a
    query with an empty set is excluded from the denominator and counted
    in ``excluded``. The counting is ``_recall``'s.
    """
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive ranks")
    rankings = list(rankings)
    missing = [r.query_id for r in rankings if r.query_id not in positives]
    if missing:
        raise KeyError(f"queries without a positives entry: {', '.join(missing[:5])}")
    column: dict = {}  # map id -> its number in the arrays below
    hits = [[column.setdefault(mid, len(column)) for mid, _ in r.hits] for r in rankings]
    pairs = [(row, column.setdefault(mid, len(column)))
             for row, r in enumerate(rankings) for mid in positives[r.query_id]]
    top = np.full((len(hits), max(map(len, hits), default=0)), len(column))  # padded with no map's number
    for row, h in enumerate(hits):
        top[row, :len(h)] = h
    pos_q, pos_m = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return _recall(top, pos_q, pos_m, ks)


def _recall(top: np.ndarray, pos_q: np.ndarray, pos_m: np.ndarray, ks) -> RecallResult:
    """Recall@k of ranked map rows ``top`` (nq, width), nearest first, against the positive
    pairs (``pos_q[i]``, ``pos_m[i]``) of query rows and map rows.

    A query in no pair is excluded from the denominator and counted in
    ``excluded``. Each query's first positive rank is found once, and
    recall@k counts the ranks below k.
    """
    scored = np.zeros(len(top), dtype=bool)
    scored[pos_q] = True
    evaluated = int(np.count_nonzero(scored))
    if not evaluated:
        raise ValueError("every query has an empty positive set; recall undefined")
    width = 1 + int(max(top.max(initial=0), pos_m.max()))
    query_row = np.arange(len(top), dtype=np.int64)[:, None]
    hit = np.isin(query_row * width + top, pos_q.astype(np.int64) * width + pos_m)
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), math.inf)
    percent = {k: 100.0 * np.count_nonzero(first < k) / evaluated for k in ks}
    return RecallResult(percent=percent, evaluated=evaluated, excluded=len(top) - evaluated)


def localization_accuracy(
    rankings,
    query_poses: dict,
    map_poses: dict,
    thresholds=DEFAULT_LOC_THRESHOLDS,
) -> dict:
    """Percentage of queries localized within each (meters, radians) threshold.

    ``query_poses`` and ``map_poses`` map ids to CameraPose2Ds. The
    counting is ``_localization``'s.
    """
    pairs = []
    for r in rankings:
        if r.query_id not in query_poses:
            raise KeyError(f"missing query pose for {r.query_id!r}")
        top_id = r.hits[0][0]
        if top_id not in map_poses:
            raise KeyError(f"missing map pose for {top_id!r}")
        pairs.append((query_poses[r.query_id], map_poses[top_id]))
    rows = np.array([(p.t0, p.t1, p.alpha) for pair in pairs for p in pair], dtype=np.float64)
    rows = rows.reshape(-1, 2, 3)
    return _localization(rows[:, 0], rows[:, 1], thresholds)


def _localization(query_poses: np.ndarray, top_poses: np.ndarray, thresholds) -> dict:
    """Percentage of queries localized within each (meters, radians) threshold, from pose rows
    (t0, t1, alpha): each query's own, and that of its top-1 match, which the query inherits.

    A query is correct at a threshold when both the translation and the
    wrapped heading difference to its own pose are within bounds.
    """
    if not len(query_poses):
        raise ValueError("no rankings to evaluate")
    thresholds = tuple((float(m), float(rad)) for m, rad in thresholds)
    t_err = planar_distance(query_poses, top_poses)
    r_err = wrapped_angle_diff(query_poses[:, 2], top_poses[:, 2])
    return {t: 100.0 * np.count_nonzero((t_err <= t[0]) & (r_err <= t[1])) / len(t_err) for t in thresholds}


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
    write_feature_array(path, s.ids, s.matrix[:, :, None])


@file_reader
def read_descriptors(path) -> DescriptorSet:
    ids, values = read_feature_records(path)
    if values.shape[2] != 1:
        raise ValueError("not a descriptor file (multiple locations per channel)")
    return DescriptorSet(ids=tuple(ids), matrix=values[:, :, 0])
