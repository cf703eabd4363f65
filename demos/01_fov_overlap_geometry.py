"""
Field-of-view overlap geometry
==============================

Two planar cameras see circular sectors of the world. The fraction of
sector area they share is the graded similarity of the image pair. This
script walks the overlap measure through rotations and translations,
cross-checks the discretized-sector overlap against Monte-Carlo
integration, and solves for the opening angle that makes a chosen layout
land exactly at overlap 0.5.
"""

import math

from gvpr import CameraPose2D, FovParams, calibrate_theta, fov_overlap, fov_overlap_mc

fov = FovParams(theta=math.radians(90.0), r=50.0)
origin = CameraPose2D(0.0, 0.0, 0.0)

# A camera compared with itself overlaps fully.
print("identical poses          ", fov_overlap(origin, origin, fov))

# Rotating in place by 40 degrees leaves a bit more than half the view shared.
rotated = CameraPose2D(0.0, 0.0, math.radians(40.0))
print("rotate 40 deg in place   ", round(fov_overlap(origin, rotated, fov), 4))

# Stepping 25 m sideways (perpendicular to the view axis) at equal heading.
shifted = CameraPose2D(25.0, 0.0, 0.0)
print("shift 25 m sideways      ", round(fov_overlap(origin, shifted, fov), 4))

# Facing away from each other shares nothing.
opposite = CameraPose2D(0.0, 0.0, math.pi)
print("opposite headings        ", fov_overlap(origin, opposite, fov))

# Overlap decays monotonically as the sideways offset grows.
print("\noffset sweep (m -> overlap):")
for dt in (0.0, 10.0, 25.0, 50.0, 75.0, 100.0):
    psi = fov_overlap(origin, CameraPose2D(dt, 0.0, 0.0), fov)
    print(f"  {dt:5.0f}  {psi:.4f}")

# The discretized-sector overlap agrees with brute-force Monte-Carlo integration.
est, stderr = fov_overlap_mc(origin, shifted, fov, samples=200_000, seed=0)
exact = fov_overlap(origin, shifted, fov)
print(f"\nMonte-Carlo check: exact={exact:.4f} estimate={est:.4f} stderr={stderr:.1e}")

# Which opening angle would make each layout an exact coin flip (overlap 0.5)?
theta_rot = calibrate_theta(0.5, 0.0, math.radians(40.0), r=50.0)
theta_shift = calibrate_theta(0.5, 25.0, 0.0, r=50.0)
print(f"\ntheta for overlap 0.5 at 40 deg rotation: {math.degrees(theta_rot):.2f} deg")
print(f"theta for overlap 0.5 at 25 m offset:     {math.degrees(theta_shift):.2f} deg")
