"""Graded similarity from 3D geometry: shared visible surface of two cameras.

Each camera pose projects a shared scene point cloud through a pinhole
model; the set of point indices that land inside the image bounds (in
front of the camera) is that image's visible surface. The similarity of
two images is the intersection-over-union of their visible index sets.
Many cameras are compared through ``intersection_counts``, the exact counts
of the points each pair sees, which ``iou_pairs`` yields as IoU pairs on relabel's pair walk.
It walks the cloud in buckets of 512 points ranked along its longest axis, and
projects a bucket only into the cameras whose frustum its bounding box may meet
(a conservative test with a relative margin of 1e-9), so a camera costs work only
where it can see; memory is the C x C counts plus one product over a bucket's cameras.
The cameras come as the columns of a ``PoseTable6DOF``, read and checked a
block of records at a time, with no object per pose.

No occlusion reasoning is performed: a point counts as visible whenever
it projects into the image with positive depth.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .io import LineError, file_reader, floats, read_blocks, read_csv, text_lines
from .relabel import _pair_runs

Z_NEAR = 1e-6
_ORTHO_TOL = 1e-6
_BUCKET = 512  # cloud points culled and counted at a time by intersection_counts
_CULL_TOL = 1e-9  # relative margin of intersection_counts's bucket-frustum test
_PROJECT_CELLS = 1 << 14  # points x cameras projected by one product, or counts added at a time, in intersection_counts
_CLOUD_BLOCK_CHARS = 1 << 14


class UndefinedOverlapError(ValueError):
    """Raised when both visible sets are empty and the IoU is 0/0."""


def check_rigid(rotations: np.ndarray, translations: np.ndarray) -> None:
    """The rule of a rigid transform, on a stack of (n, 3, 3) rotations and (n, 3) translations: every
    entry finite, then each RᵀR within ``_ORTHO_TOL`` of the identity, then each det R within it of +1.
    A ValueError names the first rule that some row breaks."""
    if not (np.isfinite(rotations).all() and np.isfinite(translations).all()):
        raise ValueError("pose entries must be finite")
    if len(rotations) and np.max(np.abs(rotations.transpose(0, 2, 1) @ rotations - np.eye(3))) > _ORTHO_TOL:
        raise ValueError("rotation is not orthonormal")
    if len(rotations) and np.max(np.abs(np.linalg.det(rotations) - 1.0)) > _ORTHO_TOL:
        raise ValueError("rotation determinant must be +1 (no reflections)")


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
        check_rigid(r[None], t[None])
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class PoseTable6DOF:
    """6DOF poses as columns: image ids (unique), (n, 3, 3) rotations and (n, 3) translations, float64,
    checked by ``check_rigid`` as a whole. Iterating gives (image id, Pose6DOF) pairs, built on demand."""

    ids: tuple
    rotations: np.ndarray = field(repr=False)
    translations: np.ndarray = field(repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        r = np.asarray(self.rotations, dtype=np.float64)
        t = np.asarray(self.translations, dtype=np.float64)
        if r.shape != (len(ids), 3, 3) or t.shape != (len(ids), 3):
            raise ValueError(f"{len(ids)} ids for rotations of shape {r.shape} and translations of shape {t.shape}")
        seen = set()
        for ident in ids:
            if ident in seen:
                raise ValueError(f"duplicate id {ident!r}")
            seen.add(ident)
        check_rigid(r, t)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rotations", r)
        object.__setattr__(self, "translations", t)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return ((ident, Pose6DOF(r, t)) for ident, r, t in zip(self.ids, self.rotations, self.translations))


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
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("focal lengths and principal point must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not all(n >= 1 and n % 1 == 0 for n in (self.width, self.height)):  # also NaN, inf
            raise ValueError(f"image size must be whole pixels >= 1x1, got {self.width}x{self.height}")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))


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


def _in_image(cam: np.ndarray, t: np.ndarray, k: Intrinsics) -> np.ndarray:
    """The visibility rule on camera-frame points before translation: ``cam[..., :3]`` against
    translations ``t[..., :3]`` that broadcast with it (one camera, or one per column)."""
    # The translation is added per coordinate where each is used, not as a broadcast of whole
    # rows: every element still sees the same operations in the same order as `cam + t`, so the
    # mask is bit-identical, without one full-size temporary.
    z = cam[..., 2] + t[..., 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.fx * (cam[..., 0] + t[..., 0]) / z + k.cx
        v = k.fy * (cam[..., 1] + t[..., 1]) / z + k.cy
    return (z > Z_NEAR) & (u >= 0.0) & (u < k.width) & (v >= 0.0) & (v < k.height)


def _rotated(points: np.ndarray, lo: int, hi: int, rt: np.ndarray) -> np.ndarray:
    """``points[lo:hi] @ rt`` from a product of two or more rows, whose bits are each row's own; a
    one-row product takes BLAS's vector path, whose bits differ. So a lone row is multiplied with the
    row before it, or, in a one-point cloud, with itself."""
    first = max(0, min(lo, hi - 2))
    rows = points[first:hi] if hi - first > 1 else np.repeat(points[first:hi], 2, axis=0)
    return (rows @ rt)[lo - first:hi - first]


def visible_mask(cloud: PointCloud, pose: Pose6DOF, k: Intrinsics) -> np.ndarray:
    """Boolean mask over cloud points: which project inside the image.

    A point is visible when its camera-frame depth exceeds ``Z_NEAR`` and
    its pixel (fx*x/z + cx, fy*y/z + cy) lies in [0, width) x [0, height)
    (half-open bounds). The result does not depend on point order beyond
    the index labels themselves.
    """
    return _in_image(_rotated(cloud.points, 0, len(cloud.points), pose.rotation.T), pose.translation, k)


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


def _buckets(points: np.ndarray):
    """Yield index arrays of at most ``_BUCKET`` points, ranked along the cloud's longest bounding-box axis by
    a uint16 code (its 65,536 equal steps) and one stable argsort. Halved coordinates cannot overflow."""
    low, high = np.array([(c.min(), c.max()) for c in points.T]).T * 0.5  # column by column: a fast reduction
    axis = int(np.argmax(high - low))
    code = points[:, axis] * 0.5 - low[axis]
    if high[axis] > low[axis]:
        code /= high[axis] - low[axis]  # in [0, 1], as each rounding is monotone
        code *= 65535
    order = np.argsort(code.astype(np.uint16), kind="stable")
    for lo in range(0, len(points), _BUCKET):
        yield order[lo:lo + _BUCKET]


def _frustum_rows(rotations: np.ndarray, translations: np.ndarray, k: Intrinsics) -> np.ndarray:
    """The (5 * cameras, 10) cull rows of ``intersection_counts``. Camera c sees a point only if each of its
    five bounds ``n . x_cam`` clears a threshold: ``z > Z_NEAR``, ``fx*x + cx*z >= 0``, ``(width - cx)*z -
    fx*x > 0``, and the same two for y. In the world frame a bound is ``g . x + n . t``, ``g = n R``, whose
    largest value over a box [lo, hi] is ``min(g, 0) . lo + max(g, 0) . hi + n . t``. So a row dotted with
    (lo, hi, max(-lo, hi), 1) is that value, less the threshold, plus a margin ``_CULL_TOL * s``: ``s`` bounds
    every term the projection rounds (fx |x| + (|cx| + width) |z| for u), and the rounding of the mask and of
    this product are a few ulps of it. A camera whose five rows are all negative sees no point of the box."""
    fx, fy, cx, cy, w, h = k.fx, k.fy, k.cx, k.cy, k.width, k.height
    normals = np.array([[0, 0, 1], [fx, 0, cx], [-fx, 0, w - cx], [0, fy, cy], [0, -fy, h - cy]])
    sizes = np.array([[0, 0, 1], [fx, 0, abs(cx) + w], [fx, 0, abs(cx) + w], [0, fy, abs(cy) + h],
                      [0, fy, abs(cy) + h]])
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN row culls nothing
        g = normals @ rotations
        offset = translations @ normals.T - [Z_NEAR, 0, 0, 0, 0] + _CULL_TOL * (abs(translations) @ sizes.T)
        rows = np.concatenate([np.minimum(g, 0), np.maximum(g, 0), _CULL_TOL * (sizes @ abs(rotations)),
                               offset[..., None]], axis=2)
    return rows.reshape(-1, 10)


def intersection_counts(cloud: PointCloud, rotations: np.ndarray, translations: np.ndarray,
                        k: Intrinsics) -> np.ndarray:
    """Int64 counts of the points that both of two cameras see, the ``visible_mask`` sizes on the diagonal,
    with no (cameras, points) array. Camera c is the pose (``rotations[c]``, ``translations[c]``), rows of
    a checked PoseTable6DOF. No camera gives a (0, 0) array.

    The cloud is walked in buckets of at most ``_BUCKET`` = 512 points, ranked along its longest axis
    (``_buckets``); each bucket's rows are gathered by index. **Cull:** a camera is dropped for a
    bucket when the bucket's bounding box lies wholly beyond one of its five frustum bounds: depth
    at most ``Z_NEAR``, or outside one image edge, each bound's extreme over the box taken by the
    signs of its coefficients (``_frustum_rows``). The test keeps a relative margin of
    ``_CULL_TOL`` = 1e-9 of the size of the projection's terms, some 10**6 times its rounding, so a
    camera is dropped only when no point of the box can pass ``_in_image``; a NaN or infinite
    bound drops nothing. It runs one bucket at a time, in O(cameras) memory.

    **Masks:** the bucket is projected into the cameras kept, in sub-blocks of at most 2**14 //
    kept points (at least one), by one ``(S, 3) @ (3, 3 * kept)`` product with the stacked ``R.T``.
    Each element of it is the same 3-term dot product as in ``points @ R.T``, with the same bits
    whenever both products have two or more rows, which ``_rotated`` ensures for both; so a camera's
    mask depends neither on the cloud's size or order nor on the other cameras. Tier-1 checks the
    counts under one and two BLAS threads. **Counts:** the masks are the 0/1 columns of one reused
    float32 buffer, whose ``m.T @ m`` over the kept cameras is exact (each entry is an integer <=
    512 < 2**24). Its upper triangle is added into the kept cameras' rows and columns of the int64
    counts in tiles of about 2**14 counts (one row at least), with no int64 copy of the product,
    and the lower triangle is copied from the upper at the end. Every count is an exact integer, so
    neither the buckets nor the cull can change it.

    Memory is the counts, the buffer, one product over the kept cameras and a tile:
    8 C**2 + 4 * 512 * C + 4 K**2 bytes and O(C + points) besides, for C cameras of which at most K
    are kept for one bucket.
    """
    cameras = len(rotations)
    cull = _frustum_rows(rotations, translations, k)
    buf = np.empty(_BUCKET * cameras, dtype=np.float32)
    inter = np.zeros((cameras, cameras), dtype=np.int64)
    for rows in _buckets(cloud.points):
        points = cloud.points.take(rows, axis=0)
        xyz = points.T.copy()  # rows of x, y and z: a fast reduction
        lo, hi = xyz.min(axis=1), xyz.max(axis=1)
        box = np.concatenate([lo, hi, np.maximum(-lo, hi), [1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            kept = np.flatnonzero(~(cull @ box < 0).reshape(cameras, 5).any(axis=1))
        if not len(kept):
            continue
        rt = rotations[kept].transpose(2, 0, 1).reshape(3, -1)  # column block c is rotations[kept[c]].T
        t = translations[kept]
        m = buf[:len(points) * len(kept)].reshape(len(points), len(kept))
        step = max(1, _PROJECT_CELLS // len(kept))
        for s in range(0, len(points), step):
            e = min(s + step, len(points))
            m[s:e] = _in_image(_rotated(points, s, e, rt).reshape(-1, len(kept), 3), t, k)
        product = m.T @ m
        for a in range(0, len(kept), step):
            # the tile's rows from its first column on: every count above the diagonal, as kept ascends
            tile = kept[a:a + step, None], kept[a:]
            # the sum runs in float64, exact for every count below 2**53
            inter[tile] = inter[tile] + product[a:a + step, a:]
    for i in range(1, cameras):  # below the diagonal, the tiles left partial sums
        inter[i, :i] = inter[:i, i]
    return inter


def iou_pairs(inter: np.ndarray):
    """Yield arrays (i, j, IoU) of the pairs i < j of ``intersection_counts``, a run of ``relabel._pair_runs``
    at a time: ``inter / union``, ``surface_overlap``'s value, without the pairs of two empty sets (0/0)."""
    sizes = np.diagonal(inter)
    for _, _, i, j in _pair_runs(np.zeros(len(sizes), dtype=np.intp)):
        both = inter[i, j]
        union = sizes[i] + sizes[j] - both
        kept = union > 0
        yield i[kept], j[kept], both[kept] / union[kept]


@file_reader
def load_point_cloud(path) -> PointCloud:
    """Parse a plain-text cloud: one `x y z` triple per line, blank lines skipped.

    NumPy's C text reader (``np.loadtxt``) parses the file first. Its result stands only when it is
    an (n >= 1, 3) array, and then it holds the values of the line rule below. Any other outcome (a
    ValueError, bad UTF-8 among them, its warning of a file without data, another column count)
    hands the file to the line rule, whose points or error stand: ``io.read_blocks`` in blocks of
    whole lines (about 16k characters; lines end at LF, CRLF or a lone CR), each split once and
    converted by ``float`` into one float64 run. Spellings that only ``float`` reads (``1_0.25``,
    non-ASCII digits) take that path too. The error is the first bad line's, numbered from 1.
    """
    with open(path, encoding="utf-8", newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns, and returns, on a file without data
        try:
            points = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except (ValueError, UserWarning):
            points = None
    if points is None or points.shape[1:] != (3,) or not len(points):
        points = _read_cloud_lines(path)
    return PointCloud(points)


def _read_cloud_lines(path) -> np.ndarray:
    """The line rule of ``load_point_cloud``: its (n, 3) points, or its error."""
    with open(path, encoding="utf-8", newline="") as fh:
        blocks = ([line.split() for line in lines] for lines in iter(lambda: fh.readlines(_CLOUD_BLOCK_CHARS), []))
        (points,) = read_blocks(
            blocks, 3, lambda lines: (floats(chain.from_iterable(lines), "non-numeric coordinate"),), 1, "coordinates")
    if not len(points):
        raise ValueError("empty point cloud")
    return points.reshape(-1, 3)


_POSE6_HEADER = ["id", "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22", "t0", "t1", "t2"]


@file_reader
def load_poses_6dof(path) -> PoseTable6DOF:
    """Parse a 6DOF pose CSV with header id,r00..r22,t0,t1,t2 into a PoseTable6DOF in file order.

    Each block of ``io.read_csv`` records is parsed into one float64 run and checked as one table, once; a
    duplicate id or a malformed record is an error reported with the line number of the first.
    """
    seen = set()  # ids of the records parsed so far

    def parse(rows) -> tuple:
        ids = [row[0] for row in rows]
        if not seen.isdisjoint(ids):  # a repeat within the block is the table's error
            raise ValueError(f"duplicate id {next(i for i in ids if i in seen)!r}")
        values = floats(chain.from_iterable(row[1:] for row in rows), "non-numeric pose entry").reshape(-1, 12)
        table = PoseTable6DOF(ids, values[:, :9].reshape(-1, 3, 3), values[:, 9:])
        seen.update(ids)
        return ids, table.rotations, table.translations

    ids, rotations, translations = read_csv(path, _POSE6_HEADER, parse)
    joined = object.__new__(PoseTable6DOF)  # of checked blocks that share no id: not checked again
    for name, column in zip(("ids", "rotations", "translations"), (tuple(ids), rotations, translations)):
        object.__setattr__(joined, name, column)
    return joined


_INTR_FIELDS = ("fx", "fy", "cx", "cy", "width", "height")


@file_reader
def load_intrinsics(path) -> Intrinsics:
    """Parse a flat key-value file with fields fx, fy, cx, cy, width, height.

    Accepts `key value`, `key = value` or `key: value` lines; `#` starts a
    comment. Unknown or missing keys and values ``Intrinsics`` rejects are errors.
    """
    values = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(\w+)\s*[:=]?\s*(\S+)$", line)
        if not m:
            raise LineError(lineno, "expected `key value` line")
        key, raw = m.group(1), m.group(2)
        if key not in _INTR_FIELDS:
            raise LineError(lineno, f"unknown intrinsics field {key!r}")
        if key in values:
            raise LineError(lineno, f"duplicate field {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise LineError(lineno, f"non-numeric value for {key!r}") from None
    missing = [k for k in _INTR_FIELDS if k not in values]
    if missing:
        raise ValueError(f"missing intrinsics fields: {', '.join(missing)}")
    return Intrinsics(**values)
