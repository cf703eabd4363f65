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
headings differ by less than 40 degrees.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .embed import FeatureMap, write_features
from .fov2d import TWO_PI, CameraPose2D
from .relabel import LineError, PoseRecord, PoseTable, csv_rows, file_reader, save_poses, write_csv

PLACE_SPACING_M = 250.0
CENTER_JITTER_M = 10.0
POSITION_JITTER_M = 5.0
HEADING_JITTER_RAD = math.radians(20.0)
HEADING_GAIN = 0.35
POSITION_GAIN = 0.25
NOISE_LEVEL = 0.10

POSITIVE_DISTANCE_M = 25.0
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


@dataclass(frozen=True)
class SynthWorld:
    train_poses: PoseTable
    map_poses: PoseTable
    query_poses: PoseTable
    train_features: tuple = field(repr=False)
    map_features: tuple = field(repr=False)
    query_features: tuple = field(repr=False)
    gt_positives: dict = field(repr=False)  # query_id -> sorted tuple of map ids


def generate_world(cfg: SynthConfig) -> SynthWorld:
    """Build a deterministic world from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.channels, cfg.locations)
    h1, h2, q1, q2 = rng.normal(size=(4,) + shape)

    grid = math.ceil(math.sqrt(cfg.places))
    n_train_places = cfg.places // 2

    records: dict = {"train": [], "map": [], "query": []}
    features: dict = {"train": [], "map": [], "query": []}
    for p in range(cfg.places):
        center = np.array([(p % grid), (p // grid)]) * PLACE_SPACING_M
        center = center + rng.uniform(-CENTER_JITTER_M, CENTER_JITTER_M, size=2)
        mean_heading = rng.uniform(0.0, 2.0 * math.pi)
        proto = rng.uniform(0.5, 2.0, size=shape)
        for i in range(cfg.images_per_place):
            pos = center + rng.normal(0.0, POSITION_JITTER_M, size=2)
            heading = mean_heading + rng.normal(0.0, HEADING_JITTER_RAD)
            values = (
                proto
                + HEADING_GAIN * ((math.sin(heading) - math.sin(mean_heading)) * h1
                                  + (math.cos(heading) - math.cos(mean_heading)) * h2)
                + POSITION_GAIN * ((pos[0] - center[0]) / POSITION_JITTER_M * q1
                                   + (pos[1] - center[1]) / POSITION_JITTER_M * q2)
                + NOISE_LEVEL * rng.normal(size=shape)
            )
            image_id = f"p{p:03d}_i{i:03d}"
            if p < n_train_places:
                role, scene = "train", "train"
            else:
                role, scene = ("map", "val") if i % 2 == 0 else ("query", "val")
            pose = CameraPose2D(float(pos[0]), float(pos[1]), heading)
            records[role].append(PoseRecord(image_id, pose, scene))
            features[role].append(FeatureMap(image_id, np.maximum(values, 0.0)))

    gt = _ground_truth(records["query"], records["map"])
    return SynthWorld(
        train_poses=PoseTable(tuple(records["train"])),
        map_poses=PoseTable(tuple(records["map"])),
        query_poses=PoseTable(tuple(records["query"])),
        train_features=tuple(features["train"]),
        map_features=tuple(features["map"]),
        query_features=tuple(features["query"]),
        gt_positives=gt,
    )


def _ground_truth(query_records, map_records) -> dict:
    """Positive map ids per query (within 25 m and under 40 degrees heading), one row at a time."""
    maps = sorted(map_records, key=lambda m: m.image_id)
    ids = [m.image_id for m in maps]
    t0, t1, alpha = (np.array([getattr(m.pose, k) for m in maps]) for k in ("t0", "t1", "alpha"))
    gt = {}
    for q in query_records:
        dist = np.hypot(q.pose.t0 - t0, q.pose.t1 - t1)
        turn = np.abs(q.pose.alpha - alpha) % TWO_PI
        rot = np.minimum(turn, TWO_PI - turn)
        hits = np.flatnonzero((dist <= POSITIVE_DISTANCE_M) & (rot < POSITIVE_HEADING_RAD))
        gt[q.image_id] = tuple(ids[i] for i in hits)
    return gt


GT_HEADER = ["query_id", "map_id"]


def save_ground_truth(path, gt: dict) -> None:
    """Write positive pairs as CSV rows; queries with no positives have none."""
    write_csv(path, GT_HEADER, ([qid, mid] for qid in sorted(gt) for mid in gt[qid]))


@file_reader
def load_ground_truth(path, query_ids, map_ids) -> dict:
    """Read positives, keyed over all of ``query_ids`` (empty set when absent).

    A row naming a query outside ``query_ids`` or a map image outside
    ``map_ids`` is a LineError: such a positive could never be retrieved.
    Positives hold the strings of ``map_ids`` rather than copies read from
    the file, so the table costs little memory while ``eval`` searches.
    """
    gt = {qid: set() for qid in query_ids}
    known_maps = {mid: mid for mid in map_ids}
    for lineno, (qid, mid) in csv_rows(path, GT_HEADER):
        if qid not in gt:
            raise LineError(lineno, f"unknown query id {qid!r}")
        if mid not in known_maps:
            raise LineError(lineno, f"unknown map id {mid!r}")
        gt[qid].add(known_maps[mid])
    return {qid: tuple(sorted(mids)) for qid, mids in gt.items()}


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
    write_features(paths["train_features"], world.train_features)
    write_features(paths["map_features"], world.map_features)
    write_features(paths["query_features"], world.query_features)
    save_ground_truth(paths["ground_truth"], world.gt_positives)
    return paths
