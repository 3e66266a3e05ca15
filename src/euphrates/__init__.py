"""Motion-extrapolated continuous vision: estimation, extrapolation,
scheduling, accuracy metrics, and an analytical SoC energy model.

The package simulates a vision pipeline that runs full inference only on a
subset of frames (I-frames) and synthesizes results for the rest (E-frames)
by extrapolating ROIs along block-matching motion vectors.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyRoiError,
    EuphratesError,
    FrameFormatError,
    MetadataError,
    MissingDataError,
)
from .extrapolate import (
    ExtrapolationParams,
    SubTrack,
    TrackState,
    extrapolate_track,
    filtered_mv,
    init_track,
    roi_motion_stats,
    split_sub_rois,
)
from .metrics import EvalConfig, average_precision, iou, ops_count, success_curve
from .motion import (
    MotionField,
    MotionParams,
    MotionVector,
    decode_metadata,
    encode_metadata,
    estimate_motion_field,
    exhaustive_search,
    three_step_search,
    uniform_field,
)
from .pixels import Frame, SynthConfig, generate_sequence, load_frame, save_frame
from .roi import Roi
from .scheduler import (
    AdaptiveParams,
    EWState,
    PipelineConfig,
    ResultTrace,
    TraceProvider,
    run_pipeline,
)
from .socmodel import (
    EnergyReport,
    SocConfig,
    achieved_fps,
    frame_energy,
    inference_time,
    summarize,
)

__version__ = "0.1.0"
