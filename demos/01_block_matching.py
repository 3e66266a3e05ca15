"""
Block-matching motion estimation
================================

Estimate per-macroblock motion between two frames, compare the exhaustive
and three-step searches, and look at the compact metadata form the motion
vectors travel in.
"""

import numpy as np

from euphrates.metrics import ops_count
from euphrates.motion import (
    MotionParams,
    decode_metadata,
    encode_metadata,
    estimate_motion_field,
)
from euphrates.pixels import Frame, noise_image

# Two 64x64 frames: the second is the first shifted by (3, -2) pixels.
# Cropping a larger texture keeps every pixel real (no border invention).
rng = np.random.default_rng(7)
big = noise_image(80, 80, rng)
margin, dx, dy = 8, 3, -2
prev = Frame(big[margin : margin + 64, margin : margin + 64].copy())
cur = Frame(big[margin - dy : margin - dy + 64, margin - dx : margin - dx + 64].copy())

# Both search strategies estimate a whole field; read the macroblock at grid
# (1, 1), pixel (16, 16). The motion vector convention: (u, v) is how far the
# content moved from the previous frame to this one.
params = MotionParams(mb_size=16, search_range=7)
field = estimate_motion_field(prev, cur, params)
tss_field = estimate_motion_field(prev, cur, MotionParams(mb_size=16, search_range=7, algorithm="tss"))
for name, f in (("exhaustive search", field), ("three-step search", tss_field)):
    mv = f.vector_at(1, 1)
    print(f"{name} : mv=({mv.u},{mv.v})  sad={f.sads[1, 1]}")

# The searches differ enormously in arithmetic cost per macroblock:
es_ops = ops_count("es", 16, 7)
tss_ops = ops_count("tss", 16, 7)
print(f"ops per MB        : ES {es_ops}, TSS {tss_ops} ({1 - tss_ops / es_ops:.0%} fewer)")

# The whole ES field: one vector + SAD + confidence per macroblock.
print(f"\nfield grid        : {field.cols}x{field.rows} macroblocks")
print("u components      :")
print(field.vectors[..., 0])
print("confidences (min) :", field.confidences.min().round(4))
# Interior MBs match exactly; only blocks whose source left the frame differ.

# Motion metadata piggybacks on the frame buffer: about 5 bytes per MB
# (1 packed byte for the vector at d<=7, 4 for the SAD).
blob = encode_metadata(field)
print(f"\nencoded metadata  : {len(blob)} bytes for {field.rows * field.cols} MBs")
assert decode_metadata(blob) == field
print("round trip        : exact")

# At 1080p the vector payload alone is ~8 KB per frame, a negligible add-on
# to the multi-megabyte pixel data already in the frame buffer.
from euphrates.motion import uniform_field

f1080 = uniform_field(1920, 1080)
print(f"1080p grid        : {f1080.cols}x{f1080.rows} = {f1080.cols * f1080.rows} vectors")
