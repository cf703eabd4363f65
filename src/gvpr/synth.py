"""Synthetic benchmark world: clustered places with poses and correlated features.

The generator lays distinct places on a widely spaced grid (so different
places never share any field of view), then renders each place as a
cluster of camera poses jittered in position and heading. Every image
gets a feature map built from a per-place prototype plus smooth heading
and position sensitivity terms and Gaussian noise, clamped nonnegative:

    F = prototype
      + kh * ((sin a - sin a0) * H1 + (cos a - cos a0) * H2)
      + kp * ((t0 - c0) / s * Q1 + (t1 - c1) / s * Q2)
      + noise * N(0, 1)

with H*, Q* fixed world-wide sensitivity matrices, (c0, c1, a0) the place
center and mean heading, and s the position jitter scale. Feature
distance therefore grows smoothly with pose offset, so graded similarity
labels carry real signal.

Places are split into a training scene and a validation scene; validation
images alternate into map and query roles. Retrieval ground truth marks a
(query, map) pair positive when the poses are within 25 m and their
headings differ by less than 40 degrees. The world's pose tables are
columns, as ``relabel.load_poses`` returns them, and its features are one
float64 (n, channels, locations) array per role, the shape of the float32
array ``io.read_feature_records`` returns. A ground-truth file is read back
as positive (query row, map row) pairs of the evaluated id lists, the form
``gvpr eval`` counts recall from.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .embed import FeatureMap
from .fov2d import planar_distance, wrapped_angle_diff
from .io import file_reader, read_csv, write_feature_array, write_table
from .relabel import PoseTable, save_poses

PLACE_SPACING_M = 250.0
CENTER_JITTER_M = 10.0
POSITION_JITTER_M = 5.0
HEADING_JITTER_RAD = math.radians(20.0)
HEADING_GAIN = 0.35
POSITION_GAIN = 0.25
NOISE_LEVEL = 0.10

POSITIVE_DISTANCE_M = 25.0
_WINDOW_MARGIN_M = 1e-6  # far above the rounding of t0 differences at world coordinates (< 1e-9 m below 1e6 m)
POSITIVE_HEADING_RAD = math.radians(40.0)


@dataclass(frozen=True)
class SynthConfig:
    places: int = 48
    images_per_place: int = 20
    channels: int = 32
    locations: int = 8
    seed: int = 42

    def __post_init__(self):
        if self.places < 2:
            raise ValueError("need at least 2 places (one per scene)")
        if self.images_per_place < 2:
            raise ValueError("need at least 2 images per place")
        if self.channels < 1 or self.locations < 1:
            raise ValueError("feature shape must be at least 1x1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SynthWorld:
    """Poses, features and retrieval ground truth of one world, by role (train, map, query).

    Each role's features are one (n, channels, locations) array whose rows
    follow its ``PoseTable``'s ids; the arrays must be finite. The
    ``*_features`` properties give the rows as ``FeatureMap`` views, built
    on each access.
    """

    train_poses: PoseTable
    map_poses: PoseTable
    query_poses: PoseTable
    train_values: np.ndarray = field(repr=False)
    map_values: np.ndarray = field(repr=False)
    query_values: np.ndarray = field(repr=False)
    gt_positives: dict = field(repr=False)  # query_id -> sorted tuple of map ids

    def __post_init__(self):
        for poses, values in ((self.train_poses, self.train_values), (self.map_poses, self.map_values),
                              (self.query_poses, self.query_values)):
            if values.ndim != 3 or len(values) != len(poses):
                raise ValueError(f"need {len(poses)} feature rows of (channels, locations), got {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError("feature values must be finite")

    @property
    def train_features(self) -> tuple:
        return _feature_maps(self.train_poses, self.train_values)

    @property
    def map_features(self) -> tuple:
        return _feature_maps(self.map_poses, self.map_values)

    @property
    def query_features(self) -> tuple:
        return _feature_maps(self.query_poses, self.query_values)


def _feature_maps(poses: PoseTable, values: np.ndarray) -> tuple:
    return tuple(FeatureMap(ident, v) for ident, v in zip(poses.ids, values))


def generate_world(cfg: SynthConfig) -> SynthWorld:
    """Build a deterministic world from the config seed.

    Each place draws its center, mean heading and prototype, then all of its
    images' normals in one call, one row per image: position (2), heading (1)
    and feature noise (channels * locations), the draws and order of one
    call per quantity per image. Features are computed per place and written
    straight into the role arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.channels, cfg.locations)
    h1, h2, q1, q2 = rng.normal(size=(4,) + shape)

    grid = math.ceil(math.sqrt(cfg.places))
    n_train_places = cfg.places // 2
    per_place = cfg.images_per_place
    n_val_places = cfg.places - n_train_places
    counts = {"train": n_train_places * per_place, "map": n_val_places * ((per_place + 1) // 2),
              "query": n_val_places * (per_place // 2)}
    ids: dict = {role: [] for role in counts}
    poses = {role: np.empty((n, 3)) for role, n in counts.items()}
    values = {role: np.empty((n,) + shape) for role, n in counts.items()}
    scale = np.ones(3 + cfg.channels * cfg.locations)
    scale[:3] = (POSITION_JITTER_M, POSITION_JITTER_M, HEADING_JITTER_RAD)
    for p in range(cfg.places):
        center = np.array([(p % grid), (p // grid)]) * PLACE_SPACING_M
        center = center + rng.uniform(-CENTER_JITTER_M, CENTER_JITTER_M, size=2)
        mean_heading = rng.uniform(0.0, 2.0 * math.pi)
        proto = rng.uniform(0.5, 2.0, size=shape)
        draws = rng.normal(0.0, scale, size=(per_place, scale.size))
        pos = center + draws[:, :2]
        heading = mean_heading + draws[:, 2]
        turn = np.array([(math.sin(a) - math.sin(mean_heading), math.cos(a) - math.cos(mean_heading))
                         for a in heading.tolist()])
        shift = (pos - center) / POSITION_JITTER_M
        place_values = (
            proto
            + HEADING_GAIN * (turn[:, 0, None, None] * h1 + turn[:, 1, None, None] * h2)
            + POSITION_GAIN * (shift[:, 0, None, None] * q1 + shift[:, 1, None, None] * q2)
            + NOISE_LEVEL * draws[:, 3:].reshape((per_place,) + shape)
        )
        place_ids = [f"p{p:03d}_i{i:03d}" for i in range(per_place)]
        if p < n_train_places:
            split = {"train": slice(None)}
        else:  # validation images alternate map, query
            split = {"map": slice(0, None, 2), "query": slice(1, None, 2)}
        for role, rows in split.items():
            out = slice(len(ids[role]), len(ids[role]) + len(place_ids[rows]))
            ids[role] += place_ids[rows]
            poses[role][out, :2] = pos[rows]
            poses[role][out, 2] = heading[rows]
            np.maximum(place_values[rows], 0.0, out=values[role][out])

    tables = {role: PoseTable(tuple(ids[role]), (scene,) * counts[role], poses[role])
              for role, scene in (("train", "train"), ("map", "val"), ("query", "val"))}
    return SynthWorld(
        train_poses=tables["train"],
        map_poses=tables["map"],
        query_poses=tables["query"],
        train_values=values["train"],
        map_values=values["map"],
        query_values=values["query"],
        gt_positives=_ground_truth(tables["query"], tables["map"]),
    )


def _ground_truth(queries: PoseTable, maps: PoseTable) -> dict:
    """Positive map ids per query, in map-id order: the map rows within 25 m, then under 40 degrees
    heading. Only a query's window of map rows, those with t0 within 25 m (plus ``_WINDOW_MARGIN_M``)
    of its own by one sort of the map's t0, is measured."""
    order = sorted(range(len(maps)), key=maps.ids.__getitem__)
    ids = [maps.ids[i] for i in order]
    rows = maps.poses[order]
    by_t0 = np.argsort(rows[:, 0])
    t0 = rows[by_t0, 0]
    reach = POSITIVE_DISTANCE_M + _WINDOW_MARGIN_M
    starts = np.searchsorted(t0, queries.poses[:, 0] - reach, side="left")
    stops = np.searchsorted(t0, queries.poses[:, 0] + reach, side="right")
    gt = {}
    for qid, q, start, stop in zip(queries.ids, queries.poses, starts, stops):
        window = np.sort(by_t0[start:stop])
        near = window[planar_distance(q, rows[window]) <= POSITIVE_DISTANCE_M]
        hits = near[wrapped_angle_diff(q[2], rows[near, 2]) < POSITIVE_HEADING_RAD]
        gt[qid] = tuple(ids[i] for i in hits.tolist())
    return gt


GT_HEADER = ["query_id", "map_id"]


def save_ground_truth(path, gt: dict) -> None:
    """Write positive pairs as CSV rows, queries in id order; queries with no positives have none."""
    queries = sorted(gt)
    maps = list(dict.fromkeys(mid for qid in queries for mid in gt[qid]))  # each id quoted once
    code = {mid: k for k, mid in enumerate(maps, start=len(queries))}
    counts = np.fromiter((len(gt[qid]) for qid in queries), np.intp, len(queries))
    map_rows = np.fromiter((code[mid] for qid in queries for mid in gt[qid]), np.intp, int(counts.sum()))
    write_table(path, GT_HEADER, queries + maps, [(np.repeat(np.arange(len(queries)), counts), map_rows)])


@file_reader
def load_ground_truth(path, query_ids, map_ids) -> tuple:
    """Read positives as two int arrays: rows into ``query_ids`` and ``map_ids`` of each distinct
    positive pair, sorted by query row, then map row. A query in no pair has no positive.

    A row naming a query outside ``query_ids`` or a map image outside
    ``map_ids`` is a LineError: such a positive could never be retrieved.
    Only the two arrays outlive the call, not the rows of the file.
    """
    query_row = {qid: i for i, qid in enumerate(query_ids)}
    map_row = {mid: i for i, mid in enumerate(map_ids)}

    width = max(len(map_row), 1)

    def pair_codes(rows) -> np.ndarray:
        try:
            return np.array([query_row[qid] * width + map_row[mid] for qid, mid in rows], dtype=np.int64)
        except KeyError:  # the first unknown id, a query's before its map's
            qid, mid = next(row for row in rows if row[0] not in query_row or row[1] not in map_row)
            unknown = f"query id {qid!r}" if qid not in query_row else f"map id {mid!r}"
            raise ValueError(f"unknown {unknown}") from None

    codes = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *read_csv(path, GT_HEADER, pair_codes)]))
    distinct = np.ones(len(codes), dtype=bool)  # np.unique's result, without its hashing cost
    distinct[1:] = codes[1:] != codes[:-1]
    return np.divmod(codes[distinct], width)


def write_world(out_dir, world: SynthWorld) -> dict:
    """Write the seven world files into ``out_dir``; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train_poses": os.path.join(out_dir, "train_poses.csv"),
        "map_poses": os.path.join(out_dir, "map_poses.csv"),
        "query_poses": os.path.join(out_dir, "query_poses.csv"),
        "train_features": os.path.join(out_dir, "train_features.bin"),
        "map_features": os.path.join(out_dir, "map_features.bin"),
        "query_features": os.path.join(out_dir, "query_features.bin"),
        "ground_truth": os.path.join(out_dir, "gt.csv"),
    }
    save_poses(paths["train_poses"], world.train_poses)
    save_poses(paths["map_poses"], world.map_poses)
    save_poses(paths["query_poses"], world.query_poses)
    write_feature_array(paths["train_features"], world.train_poses.ids, world.train_values)
    write_feature_array(paths["map_features"], world.map_poses.ids, world.map_values)
    write_feature_array(paths["query_features"], world.query_poses.ids, world.query_values)
    save_ground_truth(paths["ground_truth"], world.gt_positives)
    return paths
