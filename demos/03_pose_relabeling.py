"""
Relabeling a pose table with graded similarities
================================================

Given camera poses grouped by scene, every same-scene pair receives a
similarity in [0, 1] from the field-of-view overlap of the two cameras.
The labels then split into positives, soft negatives and hard negatives,
and a distance profile shows how similarity decays across space.
"""

import math

from gvpr import (
    CameraPose2D,
    FovParams,
    PoseTable,
    class_counts,
    classify,
    fov_distance_profile,
    pairwise_similarity,
)

fov = FovParams(theta=math.radians(90.0), r=50.0)

# A little street of cameras: three clustered, one further along, one far away.
def cam(image_id, x, heading_deg):
    return image_id, CameraPose2D(x, 0.0, math.radians(heading_deg)), "street"

table = PoseTable.of((
    cam("a", 0.0, 0.0),
    cam("b", 4.0, 10.0),
    cam("c", 9.0, 355.0),
    cam("d", 40.0, 0.0),
    cam("e", 400.0, 0.0),
))

labels = pairwise_similarity(table, fov)
print("pair      psi     class")
for lab in labels:
    cls = classify(lab.psi)
    print(f"{lab.query_id}-{lab.map_id}   {lab.psi:.4f}  {cls.value}")

counts = class_counts(labels)
print("\nclass counts:", {cls.value: n for cls, n in counts.items()})

# Per-pair profile rows: translation distance, rotation distance, overlap.
records = fov_distance_profile(table, fov)
print("\ntranslation_m  rotation_deg  psi")
for t, r, psi in records:
    print(f"  {t:10.1f}  {math.degrees(r):11.1f}  {psi:.4f}")
