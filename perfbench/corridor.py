"""Seeded 3D corridor scene for the ``overlap3d`` workload.

A straight corridor runs along +x. Its two side walls carry uniformly
scattered points, and cameras stand at eye height inside the corridor,
each turned to its own yaw about the vertical axis. Cameras that face
the same stretch of wall share part of their visible surface, so the
pairwise IoUs spread over (0, 1) rather than collapsing to 0 or 1.

The writers emit the three inputs of ``gvpr overlap3d`` in the formats
its loaders read: the cloud as ``x y z`` lines, 6DOF poses as
``id,r00..r22,t0,t1,t2`` rows, and intrinsics as ``key value`` lines.
Floats are written with ``repr`` so they read back bit-identical.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

CORRIDOR_LENGTH_M = 40.0
CORRIDOR_WIDTH_M = 4.0
CORRIDOR_HEIGHT_M = 3.0
EYE_HEIGHT_M = 1.5

POSE_HEADER = ["id", "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22", "t0", "t1", "t2"]


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics shared by every camera of the scene."""

    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480


@dataclass(frozen=True)
class Scene:
    points: np.ndarray  # (n, 3) world coordinates, meters
    ids: tuple  # camera ids, in pose-file order
    rotations: np.ndarray  # (m, 3, 3) world-to-camera
    translations: np.ndarray  # (m, 3)
    camera: Camera


def yaw_rotation(yaw: float) -> np.ndarray:
    """World-to-camera rotation for a level camera looking along compass yaw.

    Camera axes are x right, y down, z forward; world z points up. The
    rows are the camera axes in world coordinates, so det = +1.
    """
    forward = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    return np.stack([right, down, forward])


def generate_scene(points: int, cameras: int, seed: int) -> Scene:
    """Corridor with ``points`` wall points and ``cameras`` cameras of seeded yaw."""
    if points < 1 or cameras < 2:
        raise ValueError("need at least 1 point and 2 cameras")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, CORRIDOR_LENGTH_M, size=points)
    y = np.where(rng.random(points) < 0.5, -0.5, 0.5) * CORRIDOR_WIDTH_M
    z = rng.uniform(0.0, CORRIDOR_HEIGHT_M, size=points)
    cloud = np.column_stack((x, y, z))

    # Positions and yaws are stratified, and yaws are dealt to positions by a
    # fixed stride, so the total visible surface (and with it the work of a
    # job) barely depends on the seed; the seed moves everything within strata.
    margin = 0.1 * CORRIDOR_LENGTH_M
    strata = (np.arange(cameras) + rng.random(cameras)) / cameras
    centers = np.column_stack((
        margin + (CORRIDOR_LENGTH_M - 2.0 * margin) * strata,
        rng.uniform(-0.25, 0.25, size=cameras) * CORRIDOR_WIDTH_M,
        np.full(cameras, EYE_HEIGHT_M),
    ))
    yaws = 2.0 * math.pi * (np.arange(cameras) + rng.random(cameras)) / cameras
    stride = max(1, round(0.382 * cameras))
    while math.gcd(stride, cameras) != 1:
        stride += 1
    yaws = yaws[(np.arange(cameras) * stride) % cameras]
    rotations = np.stack([yaw_rotation(float(a)) for a in yaws])
    translations = -np.einsum("kij,kj->ki", rotations, centers)
    ids = tuple(f"cam{i:04d}" for i in range(cameras))
    return Scene(cloud, ids, rotations, translations, Camera())


def write_scene(out_dir, scene: Scene) -> dict:
    """Write cloud, poses and intrinsics files; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "cloud": os.path.join(out_dir, "cloud.xyz"),
        "poses": os.path.join(out_dir, "poses6.csv"),
        "intrinsics": os.path.join(out_dir, "camera.txt"),
    }
    with open(paths["cloud"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in scene.points.tolist())
    with open(paths["poses"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POSE_HEADER)
        for ident, rot, t in zip(scene.ids, scene.rotations, scene.translations):
            writer.writerow([ident] + [repr(v) for v in rot.ravel().tolist() + t.tolist()])
    cam = scene.camera
    with open(paths["intrinsics"], "w", encoding="utf-8") as fh:
        for key in ("fx", "fy", "cx", "cy", "width", "height"):
            fh.write(f"{key} {getattr(cam, key)!r}\n")
    return paths


def visibility_matrix(scene: Scene) -> np.ndarray:
    """Boolean (cameras, points) matrix: point projects inside the image.

    The same pinhole test ``gvpr.surf3d.project_points`` documents, written
    out independently so it can serve as an oracle for its IoUs.
    """
    cam = scene.camera
    pts = scene.points
    vis = np.zeros((len(scene.ids), len(pts)), dtype=bool)
    for k, (rot, t) in enumerate(zip(scene.rotations, scene.translations)):
        c = pts @ rot.T + t
        z = c[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cam.fx * c[:, 0] / z + cam.cx
            v = cam.fy * c[:, 1] / z + cam.cy
        vis[k] = (z > 1e-6) & (u >= 0.0) & (u < cam.width) & (v >= 0.0) & (v < cam.height)
    return vis


def iou_matrix(vis: np.ndarray) -> np.ndarray:
    """Pairwise IoU of visibility rows; NaN where both rows are empty."""
    v = vis.astype(np.int64)
    inter = v @ v.T
    sizes = v.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, np.nan)
