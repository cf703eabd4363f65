"""Dataset re-annotation: pose tables to graded similarity labels.

Given a table of planar camera poses grouped by scene, every unordered
same-scene pair gets a similarity label psi from the field-of-view
overlap of the two cameras. Pairs whose centers are more than two radii
apart are provably disjoint and short-circuit to psi = 0; pairs beyond an
optional candidate radius are omitted entirely. Labels classify into
positive (psi >= 0.5), soft negative (0 < psi < 0.5) and hard negative
(psi = 0).

A PoseTable holds its poses as columns: ids, scenes and one (n, 3)
array of (t0, t1, alpha) rows, checked and wrapped as CameraPose2D is.
CameraPose2Ds are built from the rows only where ``fov_overlap`` needs
them, once per table. Labels are made and read as a ``sampler.LabelTable``
of columns, with no object per label, and written from its columns by
``io.write_table``.

File formats (UTF-8 CSV, `.` decimal point):
  poses:  header `id,scene,t0,t1,alpha_deg`
  labels: header `query_id,map_id,psi`, psi with 6 decimals
Both are read by ``io.read_csv`` (see ``gvpr.io``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fov2d import (DEFAULT_ARC_SEGMENTS, CameraPose2D, FovParams, check_arc_segments, fov_overlap, planar_distance,
                    wrap_heading, wrapped_angle_diff)
from .io import file_reader, floats, read_csv, write_csv, write_table
from .sampler import Band, LabelTable, _band_codes, band_of
from .sampler import SimilarityLabel  # noqa: F401 -- public here too, where labels are made


@dataclass(frozen=True)
class PoseTable:
    """Planar poses as columns: image ids (unique, nonempty), scene names (nonempty) and an (n, 3)
    float64 array of finite rows (t0, t1, alpha), alpha in radians wrapped by ``wrap_heading`` in a copy
    of the caller's array: ``CameraPose2D(*row)`` is the pose of the row, bit for bit."""

    ids: tuple
    scenes: tuple
    poses: np.ndarray = field(repr=False)

    def __post_init__(self):
        ids, scenes = tuple(self.ids), tuple(self.scenes)
        poses = np.array(self.poses, dtype=np.float64)
        if len(scenes) != len(ids) or poses.shape != (len(ids), 3):
            raise ValueError(f"{len(ids)} ids and {len(scenes)} scenes for pose rows of shape {poses.shape}")
        if not np.isfinite(poses).all():
            raise ValueError("pose coordinates must be finite")
        poses[:, 2] = wrap_heading(poses[:, 2])
        if "" in ids or "" in scenes or len(set(ids)) != len(ids):
            seen = set()
            for image_id, scene in zip(ids, scenes):  # report the first fault in row order
                if not image_id:
                    raise ValueError("image id must be nonempty")
                if image_id in seen:
                    raise ValueError(f"duplicate image id {image_id!r}")
                if not scene:
                    raise ValueError(f"image {image_id!r} has an empty scene name")
                seen.add(image_id)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scenes", scenes)
        object.__setattr__(self, "poses", poses)

    @classmethod
    def of(cls, entries) -> PoseTable:
        """A table of hand-built (image id, CameraPose2D, scene) entries."""
        entries = tuple(entries)
        poses = np.array([(p.t0, p.t1, p.alpha) for _, p, _ in entries], dtype=np.float64).reshape(-1, 3)
        return cls(tuple(e[0] for e in entries), tuple(e[2] for e in entries), poses)

    def __len__(self) -> int:
        return len(self.ids)


class SimilarityClass(Enum):
    POSITIVE = "positive"
    SOFT_NEGATIVE = "soft_negative"
    HARD_NEGATIVE = "hard_negative"


_CLASS_OF_BAND = {Band.HIGH: SimilarityClass.POSITIVE, Band.MID: SimilarityClass.POSITIVE,
                  Band.LOW: SimilarityClass.SOFT_NEGATIVE, Band.ZERO: SimilarityClass.HARD_NEGATIVE}


def classify(psi: float) -> SimilarityClass:
    """Similarity class of a label, from its sampler band: the positive boundary is closed at 0.5."""
    return _CLASS_OF_BAND[band_of(psi)]


POSES_HEADER = ["id", "scene", "t0", "t1", "alpha_deg"]
LABELS_HEADER = ["query_id", "map_id", "psi"]
_PAIR_BLOCK = 1 << 16  # candidate pairs measured at a time: a scene's whole triangle grows as its poses squared


def _pose_rows(rows) -> tuple:
    """Ids, scenes and (n, 3) pose rows of poses records, alpha in radians bit-identical to
    ``math.radians``; numbers are parsed by ``float``. PoseTable wraps the headings."""
    poses = floats(itertools.chain.from_iterable(row[2:] for row in rows), "non-numeric pose entry").reshape(-1, 3)
    if not np.isfinite(poses).all():
        raise ValueError("pose coordinates must be finite")
    poses[:, 2] = np.radians(poses[:, 2])
    return [row[0] for row in rows], [row[1] for row in rows], poses


@file_reader
def load_poses(path) -> PoseTable:
    """Parse a poses CSV; heading degrees are converted to radians and wrapped."""
    blocks = read_csv(path, POSES_HEADER, _pose_rows)
    return PoseTable(tuple(itertools.chain.from_iterable(b[0] for b in blocks)),
                     tuple(itertools.chain.from_iterable(b[1] for b in blocks)),
                     np.concatenate([np.empty((0, 3)), *(b[2] for b in blocks)]))


def save_poses(path, table: PoseTable) -> None:
    write_csv(path, POSES_HEADER, (
        [image_id, scene, repr(t0), repr(t1), repr(math.degrees(alpha))]
        for image_id, scene, (t0, t1, alpha) in zip(table.ids, table.scenes, table.poses.tolist())
    ))


@file_reader
def load_labels(path) -> LabelTable:
    """Parse a labels CSV into a LabelTable, in file order; each id string is held once."""
    code_of: dict = {}

    def parse(rows):
        psi = floats((row[2] for row in rows), "non-numeric psi")
        _band_codes(psi)  # raises before any id is coded
        codes = (code_of.setdefault(ident, len(code_of)) for row in rows for ident in row[:2])
        return np.fromiter(codes, np.intp, 2 * len(rows)), psi

    blocks = read_csv(path, LABELS_HEADER, parse)
    return LabelTable._coded(list(code_of), np.concatenate([np.empty(0, np.intp), *(b[0] for b in blocks)]),
                             np.concatenate([np.empty(0), *(b[1] for b in blocks)]))


def save_labels(path, ids, blocks) -> None:
    """Write labels as a labels CSV: each block is (i, j, psi) arrays, one label (ids[i], ids[j], psi)
    per index, such as a LabelTable's ``ids`` and ``[(query, map, psi)]`` or ``surf3d.iou_pairs``'s tiles."""
    write_table(path, LABELS_HEADER, ids, blocks)


def _pair_blocks(table: PoseTable, reach: float):
    """Arrays (i, j, center distance) of the unordered same-scene pairs within ``reach``, one row block
    of at most ``_PAIR_BLOCK`` candidates (or one row) at a time: i < j positions in upper-triangle
    order per scene, scenes in order of their first row. No geometry is evaluated."""
    rows_of: dict = {}
    for pos, scene in enumerate(table.scenes):
        rows_of.setdefault(scene, []).append(pos)
    for rows in map(np.array, rows_of.values()):
        p, step = table.poses[rows], max(1, _PAIR_BLOCK // max(len(rows) - 1, 1))
        for lo in range(0, len(rows) - 1, step):
            dist = planar_distance(p[lo:lo + step, None], p[lo + 1:])
            a, b = np.nonzero(np.triu(dist <= reach))  # column b is row lo + 1 + b, after row lo + a
            yield rows[lo + a], rows[lo + 1 + b], dist[a, b]


def _scored_blocks(table: PoseTable, fov: FovParams, arc_segments: int, reach: float):
    """The blocks of ``_pair_blocks`` with each pair's psi as a fourth array: psi is 0 without geometry
    beyond 2r, where the view circles cannot meet, and ``fov_overlap`` of the pair within 2r."""
    poses = [CameraPose2D(*row) for row in table.poses.tolist()]
    for i, j, dist in _pair_blocks(table, reach):
        psi = np.zeros(len(dist))
        within = np.flatnonzero(dist <= 2.0 * fov.r)
        pairs = zip(i[within].tolist(), j[within].tolist())
        psi[within] = [fov_overlap(poses[a], poses[b], fov, arc_segments) for a, b in pairs]
        yield i, j, dist, psi


def _same_scene_pairs(table: PoseTable, fov: FovParams, arc_segments: int, reach: float = math.inf) -> tuple:
    """Arrays (i, j, center distance, psi) of every unordered same-scene pair within ``reach``: the
    blocks of ``_scored_blocks`` end to end."""
    check_arc_segments(arc_segments)
    empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0), np.empty(0))
    return tuple(np.concatenate(column) for column in zip(empty, *_scored_blocks(table, fov, arc_segments, reach)))


def labels_of_pairs(ids, i, j, psi) -> LabelTable:
    """Labels of the pair arrays (ids[i[k]], ids[j[k]]) with similarity psi[k], in canonical id order
    within each pair and sorted by (query_id, map_id); the table names only the ids some pair names."""
    ends = np.stack((i, j), axis=1).ravel()
    named = np.zeros(len(ids), dtype=bool)
    named[ends] = True
    code = np.cumsum(named) - 1  # of each named id, its position among the named ids
    table = LabelTable._coded([ids[k] for k in np.flatnonzero(named).tolist()], code[ends], psi)
    lo, hi = np.minimum(table.query, table.map), np.maximum(table.query, table.map)
    order = np.lexsort((hi, lo))
    return LabelTable(table.ids, lo[order], hi[order], table.psi[order])


def pairwise_similarity(
    table: PoseTable,
    fov: FovParams,
    candidate_radius: float = math.inf,
    arc_segments: int = DEFAULT_ARC_SEGMENTS,
) -> LabelTable:
    """Graded labels for every unordered same-scene pair within reach.

    Pairs with center distance in (2r, candidate_radius] are emitted as
    psi = 0 without evaluating any geometry (their view circles cannot
    meet); pairs beyond candidate_radius are omitted. Output is
    deduplicated, canonically ordered within each pair and sorted, so it
    is deterministic regardless of record order.
    """
    check_candidate_radius(candidate_radius, fov)
    i, j, _, psi = _same_scene_pairs(table, fov, arc_segments, candidate_radius)
    return labels_of_pairs(table.ids, i, j, psi)


def check_candidate_radius(candidate_radius: float, fov: FovParams) -> None:
    """Raise ValueError unless ``candidate_radius`` reaches at least 2r, where view circles can meet."""
    if not candidate_radius >= 2.0 * fov.r:  # also rejects NaN
        raise ValueError(f"candidate_radius must be at least 2r = {2.0 * fov.r} m (or infinite)")


def check_bins(bins: int | None) -> None:
    """Raise ValueError unless ``bins`` is None (raw pairs) or a positive count."""
    if bins is not None and bins < 1:
        raise ValueError("bins must be a positive count")


def fov_distance_profile(
    table: PoseTable,
    fov: FovParams,
    bins: int | None = None,
    arc_segments: int = DEFAULT_ARC_SEGMENTS,
) -> np.ndarray:
    """How overlap decays with translation and rotation distance.

    Returns an (n, 3) array of (translation_distance_m, rotation_distance_rad,
    psi) rows, one per unordered same-scene pair, sorted by translation,
    then rotation, then psi. With ``bins`` set, rows are aggregated into
    that many equal-width translation-distance bins and the result holds
    (bin_center, mean_rotation, mean_psi) for each nonempty bin. The bins
    take two walks over the pair blocks, one for the largest distance and
    one for per-bin counts and sums, so no pair outlives its block. The
    rows keep only each block's three columns, joined and sorted once.
    """
    if len(table) < 2:
        raise ValueError("profile needs at least 2 poses")
    check_bins(bins)
    check_arc_segments(arc_segments)
    if len(set(table.scenes)) == len(table):  # no scene has two rows, so the walk yields no block
        raise ValueError("no same-scene pairs to profile")
    if bins is None:
        blocks = [(dist, wrapped_angle_diff(table.poses[i, 2], table.poses[j, 2]), psi)
                  for i, j, dist, psi in _scored_blocks(table, fov, arc_segments, math.inf)]
        dist, rot, psi = (np.concatenate(column) for column in zip(*blocks))
        del blocks
        order = np.lexsort((psi, rot, dist))
        out = np.empty((len(order), 3))
        for k, column in enumerate((dist, rot, psi)):  # one sorted column at a time
            out[:, k] = column[order]
        return out
    top = max(float(np.max(dist)) for _, _, dist in _pair_blocks(table, math.inf))
    edges = np.linspace(0.0, top, bins + 1)
    count, rot_sum, psi_sum = np.zeros(bins, dtype=np.int64), np.zeros(bins), np.zeros(bins)
    for i, j, dist, psi in _scored_blocks(table, fov, arc_segments, math.inf):
        which = np.clip(np.digitize(dist, edges[1:-1], right=True), 0, bins - 1)
        count += np.bincount(which, minlength=bins)
        rot_sum += np.bincount(which, wrapped_angle_diff(table.poses[i, 2], table.poses[j, 2]), bins)
        psi_sum += np.bincount(which, psi, bins)
    kept = count > 0
    center = 0.5 * (edges[:-1] + edges[1:])
    return np.column_stack((center[kept], rot_sum[kept] / count[kept], psi_sum[kept] / count[kept]))


def class_counts(labels) -> dict:
    """Histogram of similarity classes over labels (a LabelTable, or what ``LabelTable.of`` takes)."""
    counts = {cls: 0 for cls in SimilarityClass}
    bands = np.bincount(_band_codes(LabelTable.of(labels).psi), minlength=len(Band))
    for band, n in zip(Band, bands.tolist()):
        counts[_CLASS_OF_BAND[band]] += n
    return counts
