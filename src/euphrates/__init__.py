"""Motion-extrapolated continuous vision: estimation, extrapolation,
scheduling, accuracy metrics, and an analytical SoC energy model.

The package simulates a vision pipeline that runs full inference only on a
subset of frames (I-frames) and synthesizes results for the rest (E-frames)
by extrapolating ROIs along block-matching motion vectors. Each library name
lives in its module, e.g. `from euphrates.motion import estimate_motion_field`.
"""

__version__ = "0.1.0"
