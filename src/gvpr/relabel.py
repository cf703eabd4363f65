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
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fov2d import CameraPose2D, FovParams, fov_overlap, wrapped_angle_diff


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

    def by_scene(self) -> dict:
        out: dict = {}
        for rec in self.records:
            out.setdefault(rec.scene, []).append(rec)
        return out


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


def classify(psi: float) -> SimilarityClass:
    """Similarity class of a label: the positive boundary is closed at 0.5."""
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"psi must be in [0, 1], got {psi}")
    if psi >= 0.5:
        return SimilarityClass.POSITIVE
    if psi > 0.0:
        return SimilarityClass.SOFT_NEGATIVE
    return SimilarityClass.HARD_NEGATIVE


def text_lines(path):
    """Lines of a UTF-8 text file, endings kept; bad UTF-8 is a ValueError naming the path."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None


def csv_rows(path, header: list):
    """Yield (line number, fields) of each nonblank row of a UTF-8 CSV with ``header``.

    A wrong header or field count is a ValueError naming the path and line.
    """
    reader = csv.reader(text_lines(path))
    if next(reader, None) != header:
        raise ValueError(f"{path}: expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        yield lineno, row


POSES_HEADER = ["id", "scene", "t0", "t1", "alpha_deg"]
LABELS_HEADER = ["query_id", "map_id", "psi"]


def load_poses(path) -> PoseTable:
    """Parse a poses CSV; heading degrees are converted to radians and wrapped."""
    records = []
    for lineno, row in csv_rows(path, POSES_HEADER):
        image_id, scene = row[0], row[1]
        try:
            t0, t1, alpha_deg = float(row[2]), float(row[3]), float(row[4])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric pose entry") from None
        try:
            pose = CameraPose2D(t0, t1, math.radians(alpha_deg))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        records.append(PoseRecord(image_id, pose, scene))
    try:
        return PoseTable(tuple(records))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def save_poses(path, table: PoseTable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POSES_HEADER)
        for rec in table.records:
            writer.writerow([
                rec.image_id, rec.scene,
                repr(rec.pose.t0), repr(rec.pose.t1), repr(math.degrees(rec.pose.alpha)),
            ])


def load_labels(path) -> list:
    labels = []
    for lineno, row in csv_rows(path, LABELS_HEADER):
        try:
            psi = float(row[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric psi") from None
        try:
            labels.append(SimilarityLabel(row[0], row[1], psi))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    return labels


def save_labels(path, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for lab in labels:
            writer.writerow([lab.query_id, lab.map_id, f"{lab.psi:.6f}"])


def _same_scene_pairs(table: PoseTable):
    """Every unordered same-scene pair as (a, b, center distance), a before b in the table."""
    for recs in table.by_scene().values():
        xy = np.array([[rec.pose.t0, rec.pose.t1] for rec in recs])
        for i in range(len(recs) - 1):
            d = xy[i] - xy[i + 1:]
            dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
            for j, dij in enumerate(dist.tolist(), start=i + 1):
                yield recs[i], recs[j], dij


def _psi(a: CameraPose2D, b: CameraPose2D, dist: float, fov: FovParams, arc_segments: int) -> float:
    """FoV overlap, short-circuited to 0 beyond 2r where the view circles cannot meet."""
    if dist > 2.0 * fov.r:
        return 0.0
    return fov_overlap(a, b, fov, arc_segments)


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
    if candidate_radius < 2.0 * fov.r:
        raise ValueError(
            f"candidate_radius must be at least 2r = {2.0 * fov.r} m (or infinite)"
        )
    labels = []
    for a, b, dist in _same_scene_pairs(table):
        if dist > candidate_radius:
            continue
        psi = _psi(a.pose, b.pose, dist, fov, arc_segments)
        qid, mid = sorted((a.image_id, b.image_id))
        labels.append(SimilarityLabel(qid, mid, psi))
    labels.sort(key=lambda lab: (lab.query_id, lab.map_id))
    return labels


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
    rows = []
    for a, b, dist in _same_scene_pairs(table):
        psi = _psi(a.pose, b.pose, dist, fov, arc_segments)
        rows.append((dist, wrapped_angle_diff(a.pose.alpha, b.pose.alpha), psi))
    if not rows:
        raise ValueError("no same-scene pairs to profile")
    out = np.array(sorted(rows), dtype=np.float64)
    if bins is None:
        return out
    if bins < 1:
        raise ValueError("bins must be a positive count")
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
