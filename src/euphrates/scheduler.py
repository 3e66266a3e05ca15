"""Per-frame pipeline sequencing: inference frames vs extrapolation frames.

Frame 0 always runs inference (I-frame) and seeds one track per detection.
E-frames advance every live track through that frame's motion field, from
one reduction of all their sub-ROIs' motion statistics per field. At each
subsequent I-frame the tracks are re-seeded from fresh inference results; in
adaptive mode the extrapolated predictions are first carried through the
I-frame's own motion field and compared against the inference output, and
the extrapolation window (EW) shrinks or grows based on the disagreement.

Motion fields always pair a frame with its immediate predecessor, regardless
of frame kind, and a run reads them from one source. `StoredMotion` holds
precomputed fields (decoded `.mvm` metadata). `FrameMotion` searches each
field from frames when the run needs it, over only the macroblocks that the
live tracks' sub-ROIs overlap: those are the only ones extrapolation reads,
so the trace equals the one the full fields give. It keeps a store of the
MBs it has searched for each field index (13 B per MB per index) and
searches each one once; every field it returns still equals the search of
exactly that field's MBs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import ConfigNode, check, decoding
from .errors import ConfigError, MissingDataError
from .extrapolate import ExtrapolationParams, TrackState, cells_read, extrapolate_track, init_track, roi_motion_stats
from .metrics import greedy_match
from .motion import MotionField, MotionParams, encoded_size, estimate_motion_field, grid_shape
from .pixels import Frame
from .roi import Roi

I_FRAME = "I"
E_FRAME = "E"


# ---------------------------------------------------------------------------
# Inference provider


class TraceProvider:
    """Detections replayed from a frame-indexed trace.

    Stands in for the CNN engine: ground-truth traces give a perfect
    provider, and `noise_sigma` adds seeded Gaussian jitter to box corners
    to emulate an imperfect one. Each frame's jitter is derived from
    (seed, frame index), so results do not depend on query order.
    """

    def __init__(self, records: dict[int, list[Roi]], noise_sigma: float = 0.0, seed: int = 0):
        self._records = records
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)

    def detections(self, frame_index: int) -> list[Roi]:
        if frame_index not in self._records:
            raise MissingDataError(f"no detection record for frame {frame_index}")
        boxes = self._records[frame_index]
        if self.noise_sigma <= 0.0:
            return list(boxes)
        # (dx, dy, dw, dh) of each box in turn, as four draws per box give them.
        jitter = np.random.default_rng((self.seed, frame_index)).normal(0.0, self.noise_sigma, size=(len(boxes), 4))
        return [
            Roi(b.x + dx, b.y + dy, max(1.0, b.w + dw), max(1.0, b.h + dh), label=b.label, score=b.score)
            for b, (dx, dy, dw, dh) in zip(boxes, jitter.tolist())
        ]


def _read_trace(path: str | Path, parse: Callable[[dict, int, list[Roi]], object]) -> tuple[dict, list]:
    """(header, frames) of a JSONL trace: lines without "frame" merged into
    `header`, and `parse(line, index, boxes)` of the others, their "boxes" as
    Rois. A missing file raises MissingDataError; a broken rule (a repeated
    frame index, say) raises ConfigError naming path:line."""
    p = Path(path)
    if not os.path.isfile(p):
        raise MissingDataError(f"file not found: {p}")
    header, frames, seen = {}, [], set()
    with decoding(p) as at:
        text = p.read_text(encoding="utf-8")
        # JSON Lines ends lines at "\n" only (read_text folds "\r\n"); a JSON
        # string may hold a raw U+2028 or U+0085, where str.splitlines would cut.
        for at.line, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ConfigError(f"expected a JSON object, got {line.strip()!r}")
            if "frame" not in obj:
                header.update(obj)
                continue
            index = check(int, obj["frame"], "frame")
            if index in seen:
                raise ConfigError(f"frame {index} is repeated")
            seen.add(index)
            boxes = obj.get("boxes", [])
            if not isinstance(boxes, list):
                raise ConfigError(f"boxes: expected a list, got {boxes!r}")
            frames.append(parse(obj, index, [Roi.from_dict(b) for b in boxes]))
    return header, frames


def read_detection_trace(path: str | Path) -> dict[int, list[Roi]]:
    """Parse a JSONL detection trace: {"frame": i, "boxes": [{x,y,w,h,...}]}.

    Lines without a "frame" key (e.g. a config echo) are skipped, so result
    traces written by this package can be read back as detection traces.
    """
    return dict(_read_trace(path, lambda line, index, boxes: (index, boxes))[1])


# ---------------------------------------------------------------------------
# Extrapolation-window control


@dataclass(frozen=True)
class AdaptiveParams(ConfigNode):
    """Adaptive-EW settings: shrink EW when the prediction/inference diff
    exceeds tau_diff, grow it after k_up clean I-frames, within
    [ew_min, ew_max], starting from initial_ew."""

    tau_diff: float = 0.2
    k_up: int = 3
    ew_min: int = 1
    ew_max: int = 32
    initial_ew: int = 1

    def __post_init__(self):
        if self.k_up < 1:
            raise ConfigError(f"k_up must be >= 1, got {self.k_up}")
        if not 1 <= self.ew_min <= self.initial_ew <= self.ew_max:
            raise ConfigError(
                f"need 1 <= ew_min <= initial_ew <= ew_max, got {self.ew_min}, {self.initial_ew}, {self.ew_max}"
            )

    def next_ew(self, ew: int, streak: int, diff: float) -> tuple[int, int]:
        """(EW, streak of clean comparisons) after an I-frame whose
        prediction/inference diff is `diff`, from the EW and streak before it."""
        if diff > self.tau_diff:
            return max(self.ew_min, ew - 1), 0
        if streak + 1 >= self.k_up:
            return min(self.ew_max, ew + 1), 0
        return ew, streak + 1


def prediction_diff(predicted: list[Roi], inferred: list[Roi]) -> float:
    """Disagreement between extrapolated and inferred boxes, in [0, 1].

    1 - mean IoU over greedily associated pairs, counting every unmatched box
    on either side as IoU 0. Two empty lists agree perfectly (0.0).
    """
    pairs, un_p, un_i = greedy_match(predicted, inferred)
    total = len(pairs) + len(un_p) + len(un_i)
    if total == 0:
        return 0.0
    return 1.0 - sum(s for _, _, s in pairs) / total


# ---------------------------------------------------------------------------
# Result trace


@dataclass
class Detection:
    track_id: int
    roi: Roi

    def to_dict(self) -> dict:
        d = self.roi.to_dict()
        d["id"] = self.track_id
        return d


@dataclass(frozen=True)
class FrameRecord:
    index: int
    kind: str  # "I" or "E"
    detections: tuple[Detection, ...]
    ew: int | None = None  # EW in effect after this I-frame's decision
    diff: float | None = None  # adaptive comparison value (I-frames only)


@dataclass
class ResultTrace:
    """Per-frame pipeline output plus the effective configuration echo."""

    frames: list[FrameRecord]
    config: dict = field(default_factory=dict)
    version: str = ""

    @property
    def n_iframes(self) -> int:
        return sum(1 for f in self.frames if f.kind == I_FRAME)

    def kinds(self) -> list[str]:
        return [f.kind for f in self.frames]

    def to_jsonl(self) -> str:
        lines = [json.dumps({"config": self.config, "version": self.version}, sort_keys=True)]
        for f in self.frames:
            rec: dict = {
                "frame": f.index,
                "kind": f.kind,
                "boxes": [d.to_dict() for d in f.detections],
            }
            if f.ew is not None:
                rec["ew"] = f.ew
            if f.diff is not None:
                rec["diff"] = f.diff
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path) -> "ResultTrace":
        def parse(line: dict, index: int, boxes: list[Roi]) -> FrameRecord:
            kind = line.get("kind")
            if kind not in (I_FRAME, E_FRAME):
                raise ConfigError(f"kind: expected {I_FRAME!r} or {E_FRAME!r}, got {kind!r}")
            dets = []
            for i, (b, roi) in enumerate(zip(line.get("boxes", ()), boxes)):
                track_id = b.get("id", i)
                dets.append(Detection(track_id if type(track_id) is int else check(int, track_id, "id"), roi))
            ew, diff = line.get("ew"), line.get("diff")
            ew = None if ew is None else check(int, ew, "ew")
            diff = None if diff is None else check(float, diff, "diff")
            return FrameRecord(index, kind, tuple(dets), ew=ew, diff=diff)

        header, frames = _read_trace(path, parse)
        frames.sort(key=lambda f: f.index)
        config = header.get("config", {})
        version = header.get("version", "")
        if not isinstance(config, dict) or not isinstance(version, str):
            raise ConfigError(f"{path}: header needs an object 'config' and a string 'version'")
        return cls(frames, config, version)


# ---------------------------------------------------------------------------
# Pipeline


@dataclass(frozen=True)
class PipelineConfig(ConfigNode):
    mode: str = "ew:4"  # "ew:N" or "adaptive"
    motion: MotionParams = field(default_factory=MotionParams)
    extrapolation: ExtrapolationParams = field(default_factory=ExtrapolationParams)
    adaptive: AdaptiveParams = field(default_factory=AdaptiveParams)

    def __post_init__(self):
        self.initial_ew  # validates the mode

    @property
    def initial_ew(self) -> int:
        """EW from frame 0: N of "ew:N" (ASCII digits), or adaptive.initial_ew."""
        if self.mode == "adaptive":
            return self.adaptive.initial_ew
        digits = self.mode[len("ew:"):]
        if not (self.mode.startswith("ew:") and digits.isascii() and digits.isdigit()):
            raise ConfigError(f"invalid mode {self.mode!r}, expected 'ew:N' or 'adaptive'")
        n = int(digits)
        if n < 1:
            raise ConfigError(f"constant EW must be >= 1, got {n}")
        return n


class FrameMotion:
    """Motion searched from `frames` with `params`: field t pairs frames t-1
    and t, over the macroblocks that `rois` overlap.

    The source remembers every MB searched for each t, so an MB is searched
    once however often its field is asked for. Every field returned equals
    `estimate_motion_field(frames[t - 1], frames[t], params, cells=cells)`
    for the `cells_read` mask of its `rois`: a remembered MB holds what that
    search gives it. It costs 13 B per MB per field index asked for (a bool
    mask, two int16 vector components, an int64 SAD)."""

    def __init__(self, frames: Sequence[Frame], params: MotionParams):
        if not frames:
            raise ConfigError("sequence must contain at least one frame")
        encoded_size(frames[0].width, frames[0].height, params)  # search only frames a .mvm header can hold
        self.frames, self.params = frames, params
        self.store: dict = {}  # t -> (mask of the MBs searched for t, their vectors, their SADs)

    def __len__(self) -> int:
        return len(self.frames) - 1

    def field(self, t: int, rois: Sequence[Roi]) -> MotionField:
        L, frame = self.params.mb_size, self.frames[t]
        cells = cells_read(rois, grid_shape(frame.width, frame.height, L), L)
        if t not in self.store:
            grid = cells.shape
            self.store[t] = (np.zeros(grid, bool), np.zeros((*grid, 2), np.int16), np.zeros(grid, np.int64))
        searched, vectors, sads = self.store[t]
        new, old = cells & ~searched, cells & searched
        # One search per field asked for, even of no MB, and that search's own
        # field returned: bench/tracer.py counts fields by these calls and
        # finds each field's MBs by its id.
        f = estimate_motion_field(self.frames[t - 1], frame, self.params, cells=new)
        f.vectors[old], f.sads[old] = vectors[old], sads[old]
        vectors[new], sads[new] = f.vectors[new], f.sads[new]
        searched |= new
        return f


class StoredMotion(tuple):
    """Precomputed fields: field t, which pairs frames t-1 and t, is the
    (t-1)-th; every macroblock is already there, so `rois` is not read."""

    def field(self, t: int, rois: Sequence[Roi]) -> MotionField:
        return self[t - 1]


def run_pipeline(provider: TraceProvider, cfg: PipelineConfig, motion: FrameMotion | StoredMotion) -> ResultTrace:
    """Run the I/E-frame pipeline over the len(motion) + 1 frames whose motion
    fields `motion` gives, and return its result trace, which is deterministic
    for identical inputs and configuration."""

    def advance(t: int, tracks: list[TrackState]) -> list[tuple[TrackState, Roi]]:
        """Every track carried through field t: the survivors and their ROIs.
        A lost track drops out until the next I-frame re-seeds it."""
        rois = [sub.roi for tr in tracks for sub in tr.sub_tracks]
        f = motion.field(t, rois)
        stats = iter(roi_motion_stats(f, rois))
        threshold = cfg.extrapolation.filter_threshold
        moved = [
            extrapolate_track(tr, f, filter_threshold=threshold, stats=list(islice(stats, len(tr.sub_tracks))))
            for tr in tracks
        ]
        return [(state, roi) for state, roi in moved if roi is not None]

    ew, streak = cfg.initial_ew, 0  # streak: consecutive clean adaptive comparisons
    tracks: list[TrackState] = []
    next_id = 0
    next_iframe = 0
    records: list[FrameRecord] = []

    for t in range(len(motion) + 1):
        if t == next_iframe:
            inferred = provider.detections(t)
            diff = None
            if cfg.mode == "adaptive" and t > 0:
                diff = prediction_diff([roi for _, roi in advance(t, tracks)], inferred)
                ew, streak = cfg.adaptive.next_ew(ew, streak, diff)
            dets = []
            new_tracks = []
            for r in inferred:
                try:
                    new_tracks.append(init_track(next_id, r, cfg.extrapolation.grid))
                except ConfigError as e:
                    raise ConfigError(f"frame {t}: {e}") from None
                dets.append(Detection(next_id, r))
                next_id += 1
            tracks = new_tracks
            records.append(FrameRecord(t, I_FRAME, tuple(dets), ew=ew, diff=diff))
            next_iframe = t + ew
        else:
            moved = advance(t, tracks)
            tracks = [state for state, _ in moved]
            records.append(FrameRecord(t, E_FRAME, tuple(Detection(s.track_id, roi) for s, roi in moved)))

    return ResultTrace(records, config=cfg.to_dict())
