"""Dataset re-annotation: pose tables to graded similarity labels.

Given a table of planar camera poses grouped by scene, every unordered
same-scene pair gets a similarity label psi from the field-of-view
overlap of the two cameras. Pairs whose centers are more than two radii
apart are provably disjoint and short-circuit to psi = 0; pairs beyond an
optional candidate radius are omitted entirely. Labels classify into
positive (psi >= 0.5), soft negative (0 < psi < 0.5) and hard negative
(psi = 0).

File formats (UTF-8 CSV, `.` decimal point):
  poses:  header `id,scene,t0,t1,alpha_deg`
  labels: header `query_id,map_id,psi`, psi with 6 decimals
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fov2d import CameraPose2D, FovParams, check_arc_segments, fov_overlap, wrapped_angle_diff
from .sampler import Band, band_of


@dataclass(frozen=True)
class PoseRecord:
    image_id: str
    pose: CameraPose2D
    scene: str


@dataclass(frozen=True)
class PoseTable:
    """Pose records with unique image ids and nonempty scene names."""

    records: tuple = field(repr=False)

    def __post_init__(self):
        recs = tuple(self.records)
        seen = set()
        for rec in recs:
            if not rec.image_id:
                raise ValueError("image id must be nonempty")
            if rec.image_id in seen:
                raise ValueError(f"duplicate image id {rec.image_id!r}")
            if not rec.scene:
                raise ValueError(f"image {rec.image_id!r} has an empty scene name")
            seen.add(rec.image_id)
        object.__setattr__(self, "records", recs)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SimilarityLabel:
    """One labeled pair; ids are canonically ordered (query_id < map_id)."""

    query_id: str
    map_id: str
    psi: float

    def __post_init__(self):
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")


class SimilarityClass(Enum):
    POSITIVE = "positive"
    SOFT_NEGATIVE = "soft_negative"
    HARD_NEGATIVE = "hard_negative"


_CLASS_OF_BAND = {Band.HIGH: SimilarityClass.POSITIVE, Band.MID: SimilarityClass.POSITIVE,
                  Band.LOW: SimilarityClass.SOFT_NEGATIVE, Band.ZERO: SimilarityClass.HARD_NEGATIVE}


def classify(psi: float) -> SimilarityClass:
    """Similarity class of a label, from its sampler band: the positive boundary is closed at 0.5."""
    return _CLASS_OF_BAND[band_of(psi)]


class LineError(ValueError):
    """A malformed line of an input file: the message, without the path, and the line number."""

    def __init__(self, line: int, message):
        super().__init__(message)
        self.line = line


class InputError(ValueError):
    """`<path>: <message>`, or `<path>:<line>: <message>` for a LineError: the only code that
    writes a file's location into an error message."""

    def __init__(self, path, error):
        line = getattr(error, "line", None)
        super().__init__(f"{path}: {error}" if line is None else f"{path}:{line}: {error}")


def file_reader(read):
    """Decorate a reader whose first argument is a file path: each ValueError it raises (a LineError,
    bad UTF-8, a rejected record) or csv.Error leaves it as an InputError naming the path."""
    @functools.wraps(read)
    def reader(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except InputError:
            raise
        except (ValueError, csv.Error) as e:
            raise InputError(path, e) from None
    return reader


def text_lines(path):
    """Lines of a UTF-8 text file, endings kept; bad UTF-8 is a UnicodeDecodeError (a ValueError)."""
    with open(path, encoding="utf-8", newline="") as fh:
        yield from fh


def csv_rows(path, header: list):
    """Yield (line number, fields) of each nonblank row of a UTF-8 CSV with ``header``; a wrong
    header is a ValueError and a wrong field count a LineError, neither naming the path."""
    reader = csv.reader(text_lines(path))
    if next(reader, None) != header:
        raise ValueError(f"expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise LineError(lineno, f"expected {len(header)} fields, got {len(row)}")
        yield lineno, row


def write_csv(path, header: list, rows, lineterminator: str = "\r\n") -> None:
    """Write a UTF-8 CSV: the header, then ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


POSES_HEADER = ["id", "scene", "t0", "t1", "alpha_deg"]
LABELS_HEADER = ["query_id", "map_id", "psi"]


@file_reader
def load_poses(path) -> PoseTable:
    """Parse a poses CSV; heading degrees are converted to radians and wrapped."""
    records = []
    for lineno, row in csv_rows(path, POSES_HEADER):
        image_id, scene = row[0], row[1]
        try:
            t0, t1, alpha_deg = float(row[2]), float(row[3]), float(row[4])
        except ValueError:
            raise LineError(lineno, "non-numeric pose entry") from None
        try:
            pose = CameraPose2D(t0, t1, math.radians(alpha_deg))
        except ValueError as e:
            raise LineError(lineno, e) from None
        records.append(PoseRecord(image_id, pose, scene))
    return PoseTable(tuple(records))


def save_poses(path, table: PoseTable) -> None:
    write_csv(path, POSES_HEADER, (
        [rec.image_id, rec.scene, repr(rec.pose.t0), repr(rec.pose.t1), repr(math.degrees(rec.pose.alpha))]
        for rec in table.records
    ))


@file_reader
def load_labels(path) -> list:
    labels = []
    for lineno, row in csv_rows(path, LABELS_HEADER):
        try:
            psi = float(row[2])
        except ValueError:
            raise LineError(lineno, "non-numeric psi") from None
        try:
            labels.append(SimilarityLabel(row[0], row[1], psi))
        except ValueError as e:
            raise LineError(lineno, e) from None
    return labels


def save_labels(path, labels) -> None:
    write_csv(path, LABELS_HEADER, ([lab.query_id, lab.map_id, f"{lab.psi:.6f}"] for lab in labels))


def _same_scene_pairs(table: PoseTable, fov: FovParams, arc_segments: int, reach: float = math.inf) -> tuple:
    """Lists (i, j, center distance, psi) of every unordered same-scene pair within ``reach``, i < j
    positions in the table; psi is 0 without geometry beyond 2r, where the view circles cannot meet."""
    check_arc_segments(arc_segments)
    rows_of: dict = {}
    for pos, rec in enumerate(table.records):
        rows_of.setdefault(rec.scene, []).append(pos)
    ij = [np.take(rows, np.triu_indices(len(rows), k=1)) for rows in rows_of.values()]
    i, j = np.concatenate(ij, axis=1) if ij else np.empty((2, 0), dtype=np.intp)
    xy = np.array([[rec.pose.t0, rec.pose.t1] for rec in table.records]).reshape(-1, 2)
    d = xy[i] - xy[j]
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    near = dist <= reach
    i, j, dist = i[near].tolist(), j[near].tolist(), dist[near].tolist()
    poses = [rec.pose for rec in table.records]
    psi = [0.0 if dd > 2.0 * fov.r else fov_overlap(poses[a], poses[b], fov, arc_segments)
           for a, b, dd in zip(i, j, dist)]
    return i, j, dist, psi


def labels_of_pairs(ids, i, j, psi) -> list:
    """Labels of the pairs (ids[i[k]], ids[j[k]]) with similarity psi[k], 2D or 3D, in canonical id
    order within each pair and sorted by (query_id, map_id); a NaN psi (undefined) gets no label."""
    labels = [SimilarityLabel(*sorted((ids[a], ids[b])), p) for a, b, p in zip(i, j, psi) if not math.isnan(p)]
    labels.sort(key=lambda lab: (lab.query_id, lab.map_id))
    return labels


def pairwise_similarity(
    table: PoseTable,
    fov: FovParams,
    candidate_radius: float = math.inf,
    arc_segments: int = 256,
) -> list:
    """Graded labels for every unordered same-scene pair within reach.

    Pairs with center distance in (2r, candidate_radius] are emitted as
    psi = 0 without evaluating any geometry (their view circles cannot
    meet); pairs beyond candidate_radius are omitted. Output is
    deduplicated, canonically ordered within each pair and sorted, so it
    is deterministic regardless of record order.
    """
    if not candidate_radius >= 2.0 * fov.r:  # also rejects NaN
        raise ValueError(f"candidate_radius must be at least 2r = {2.0 * fov.r} m (or infinite)")
    i, j, _, psi = _same_scene_pairs(table, fov, arc_segments, candidate_radius)
    return labels_of_pairs([rec.image_id for rec in table.records], i, j, psi)


def fov_distance_profile(
    table: PoseTable,
    fov: FovParams,
    bins: int | None = None,
    arc_segments: int = 256,
) -> np.ndarray:
    """How overlap decays with translation and rotation distance.

    Returns an (n, 3) array of (translation_distance_m, rotation_distance_rad,
    psi) rows, one per unordered same-scene pair, sorted by the two
    distances. With ``bins`` set, rows are aggregated into that many
    equal-width translation-distance bins and the result holds
    (bin_center, mean_rotation, mean_psi) for each nonempty bin.
    """
    if len(table) < 2:
        raise ValueError("profile needs at least 2 poses")
    if bins is not None and bins < 1:
        raise ValueError("bins must be a positive count")
    i, j, dist, psi = _same_scene_pairs(table, fov, arc_segments)
    if not psi:
        raise ValueError("no same-scene pairs to profile")
    alpha = [rec.pose.alpha for rec in table.records]
    rot = [wrapped_angle_diff(alpha[a], alpha[b]) for a, b in zip(i, j)]
    out = np.array(sorted(zip(dist, rot, psi)), dtype=np.float64)
    if bins is None:
        return out
    edges = np.linspace(0.0, float(np.max(out[:, 0])), bins + 1)
    which = np.clip(np.digitize(out[:, 0], edges[1:-1], right=True), 0, bins - 1)
    agg = []
    for b in range(bins):
        sel = out[which == b]
        if len(sel) == 0:
            continue
        center = 0.5 * (edges[b] + edges[b + 1])
        agg.append((center, float(np.mean(sel[:, 1])), float(np.mean(sel[:, 2]))))
    return np.array(agg, dtype=np.float64)


def class_counts(labels) -> dict:
    """Histogram of similarity classes over a label list."""
    counts = {cls: 0 for cls in SimilarityClass}
    for lab in labels:
        counts[classify(lab.psi)] += 1
    return counts
