"""
ROI extrapolation
=================

Carry a detection forward through motion fields instead of re-running the
detector: average the covered motion vectors, filter them by confidence,
move each sub-ROI independently, and recompose.
"""

import numpy as np

from euphrates.extrapolate import (
    extrapolate_track,
    filtered_mv,
    init_track,
    roi_motion_stats,
)
from euphrates.metrics import iou
from euphrates.motion import estimate_motion_field
from euphrates.pixels import SynthConfig, generate_sequence
from euphrates.roi import Roi

# A 64x48 textured object gliding over a flat background at (2, 1) px/frame.
spec = SynthConfig((192, 144), (64, 48), 12, ((2, 1),), seed=5, background="flat")
frames, truth = generate_sequence(spec)

# Seed the track from the frame-0 ground truth, as an inference pass would.
state = init_track(0, truth[0], grid=(2, 2))
print(f"frame  0 (seed)  : {truth[0].x:.0f},{truth[0].y:.0f}")

for t in range(1, len(frames)):
    field = estimate_motion_field(frames[t - 1], frames[t])
    state, roi = extrapolate_track(state, field)
    score = iou(roi, truth[t])
    print(f"frame {t:2d} (extrap): {roi.x:.0f},{roi.y:.0f}  IoU vs truth = {score:.3f}")
# Rigid motion over well-textured content extrapolates exactly: IoU 1.000.

# The pieces, individually. The ROI-average vector weights each macroblock
# by its overlap area with the box:
field = estimate_motion_field(frames[0], frames[1])
mu_u, mu_v, alpha = roi_motion_stats(field, [truth[1]])[0]
print(f"\nroi average mv   : ({mu_u:.2f}, {mu_v:.2f}), confidence {alpha:.3f}")

# The temporal filter trusts the current estimate in proportion to its
# confidence; below the threshold it falls back to an even blend with the
# previous filtered vector:
for a in (0.95, 0.4):
    mv, beta = filtered_mv((4.0, 2.0), a, (2.0, 0.0), 0.7)
    print(f"alpha={a:.2f} -> beta={beta:.2f}, filtered mv=({mv[0]:.2f}, {mv[1]:.2f})")

# Sub-ROIs let object parts move apart; the composed box is their minimal
# bounding box. Here the top half of the scene drifts right, the bottom
# half left, and the box stretches to cover both:
from euphrates.motion import MotionField, MotionParams

u = np.array([[2, 2, 2, 2]] * 2 + [[-2, -2, -2, -2]] * 2, dtype=np.int16)
v = np.zeros_like(u)
shear = MotionField(64, 64, MotionParams(), np.stack([u, v], axis=-1), np.zeros((4, 4), dtype=np.int64))
state = init_track(1, Roi(16, 16, 32, 32), grid=(2, 2))
state, roi = extrapolate_track(state, shear)
print(f"\nshear field      : box (16,16,32x32) -> ({roi.x:.0f},{roi.y:.0f},{roi.w:.0f}x{roi.h:.0f})")
