"""Graded similarity from 3D geometry: shared visible surface of two cameras.

Each camera pose projects a shared scene point cloud through a pinhole
model; the set of point indices that land inside the image bounds (in
front of the camera) is that image's visible surface. The similarity of
two images is the intersection-over-union of their visible index sets.

No occlusion reasoning is performed: a point counts as visible whenever
it projects into the image with positive depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .relabel import csv_rows, text_lines

Z_NEAR = 1e-6
_ORTHO_TOL = 1e-6


class UndefinedOverlapError(ValueError):
    """Raised when both visible sets are empty and the IoU is 0/0."""


@dataclass(frozen=True)
class Pose6DOF:
    """Rigid world-to-camera transform: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray = field(repr=False)
    translation: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {t.shape}")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1 (no reflections)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera: focal lengths and principal point in pixels, image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1 pixels")


@dataclass(frozen=True)
class PointCloud:
    """Scene points, shape (n, 3) meters, indexed 0..n-1."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ValueError("point cloud must be a nonempty (n, 3) array")
        if not np.all(np.isfinite(p)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class VisibleSet:
    """Strictly increasing indices of cloud points visible in one image."""

    image_id: str
    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("point indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("point indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def visible_mask(cloud: PointCloud, pose: Pose6DOF, k: Intrinsics) -> np.ndarray:
    """Boolean mask over cloud points: which project inside the image.

    A point is visible when its camera-frame depth exceeds ``Z_NEAR`` and
    its pixel (fx*x/z + cx, fy*y/z + cy) lies in [0, width) x [0, height)
    (half-open bounds). The result does not depend on point order beyond
    the index labels themselves.
    """
    cam = cloud.points @ pose.rotation.T + pose.translation
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * cam[:, 0] / z + k.cx
        v = k.fy * cam[:, 1] / z + k.cy
    return (z > Z_NEAR) & (u >= 0.0) & (u < k.width) & (v >= 0.0) & (v < k.height)


def project_points(cloud: PointCloud, pose: Pose6DOF, k: Intrinsics, image_id: str = "") -> VisibleSet:
    """Indices of cloud points that project inside the image (see ``visible_mask``)."""
    return VisibleSet(image_id, tuple(np.flatnonzero(visible_mask(cloud, pose, k)).tolist()))


def surface_overlap(a: VisibleSet, b: VisibleSet) -> float:
    """IoU of two visible index sets: |A & B| / |A | B|, in [0, 1].

    Both sets empty has no defined similarity and raises
    UndefinedOverlapError so callers can skip such pairs explicitly.
    """
    sa, sb = set(a.indices), set(b.indices)
    if not sa and not sb:
        raise UndefinedOverlapError(
            f"no points visible from either image ({a.image_id!r}, {b.image_id!r})"
        )
    return len(sa & sb) / len(sa | sb)


def iou_matrix(masks: np.ndarray) -> np.ndarray:
    """IoU of every pair of (cameras, points) visibility rows; NaN where both are empty.

    Counts are exact integers, so each entry equals ``surface_overlap``.
    """
    inter = np.stack([np.count_nonzero(masks & row, axis=1) for row in masks])
    sizes = np.diagonal(inter)
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, np.nan)


def load_point_cloud(path) -> PointCloud:
    """Parse a plain-text cloud: one `x y z` triple per line, blank lines skipped."""
    rows = []
    for lineno, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric coordinate") from None
    if not rows:
        raise ValueError(f"{path}: empty point cloud")
    return PointCloud(np.array(rows))


_POSE6_HEADER = ["id", "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22", "t0", "t1", "t2"]


def load_poses_6dof(path) -> list:
    """Parse a 6DOF pose CSV with header id,r00..r22,t0,t1,t2.

    Returns a list of (image_id, Pose6DOF) in file order; duplicate ids or
    malformed rows are errors reported with their line number.
    """
    out = []
    seen = set()
    for lineno, row in csv_rows(path, _POSE6_HEADER):
        image_id = row[0]
        if image_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate id {image_id!r}")
        seen.add(image_id)
        try:
            vals = [float(x) for x in row[1:]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric pose entry") from None
        try:
            pose = Pose6DOF(np.array(vals[:9]).reshape(3, 3), np.array(vals[9:]))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        out.append((image_id, pose))
    return out


_INTR_FIELDS = ("fx", "fy", "cx", "cy", "width", "height")


def load_intrinsics(path) -> Intrinsics:
    """Parse a flat key-value file with fields fx, fy, cx, cy, width, height.

    Accepts `key value`, `key = value` or `key: value` lines; `#` starts a
    comment. Unknown or missing keys are errors.
    """
    values = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(\w+)\s*[:=]?\s*(\S+)$", line)
        if not m:
            raise ValueError(f"{path}:{lineno}: expected `key value` line")
        key, raw = m.group(1), m.group(2)
        if key not in _INTR_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown intrinsics field {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate field {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value for {key!r}") from None
    missing = [k for k in _INTR_FIELDS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing intrinsics fields: {', '.join(missing)}")
    return Intrinsics(
        fx=values["fx"], fy=values["fy"], cx=values["cx"], cy=values["cy"],
        width=int(values["width"]), height=int(values["height"]),
    )
