"""ROI motion extrapolation.

An ROI's displacement for the next frame is estimated in three steps:

1. average the macroblock motion vectors covered by the ROI, weighting each
   MB by its overlap area (pixels inherit their MB's vector, so this equals
   the per-pixel mean);
2. average the covered MBs' confidences the same way to get a single ROI
   confidence alpha;
3. blend the averaged vector with the previous frame's filtered vector:
   mv = beta * mu + (1 - beta) * prev, where beta = alpha when alpha exceeds
   the filter threshold and 0.5 otherwise. The filter is recursive: `prev`
   is the previous *filtered* output.

Non-rigid deformation is handled by splitting an ROI into a grid of sub-ROIs
that are each filtered and moved independently; the reported ROI is the
minimal bounding box of the moved sub-ROIs, clamped to the frame. The
sub-ROIs of every live track on a field are reduced together over the MB
grid (`roi_motion_stats`, in chunks of bounded size), each sum bit-identical
to a reduction of that sub-ROI alone; `extrapolate_track` then steps each
track from its share. A chunk lists each sub-ROI's MBs row by row from its
one run of MB columns, not from a mask over the whole grid.

Everything here is pure. `SubTrack` and `TrackState`, like `Roi`, are plain
dataclasses, cheap to build; no module assigns to them (tests/test_package.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import ConfigNode
from .errors import ConfigError
from .motion import MotionField
from .roi import Roi, framed_bounding_box


# Most sub-ROIs per grid axis. A track holds rows x cols sub-ROIs.
MAX_GRID_AXIS = 8

# `roi_motion_stats` reduces its ROIs in chunks that hold at most about
# _STATS_BATCH_BYTES. One chunk of the 2048 sub-ROIs of 32 tracks on an 8x8
# grid at 1080p would hold 2048 rows of 8160 float64, about 134 MB. Each chunk
# has a fixed cost: the 48 sub-ROIs of 12 tracks on 2x2 grids over the 1200
# MBs of a 640x480 field hold about 0.57 MB, and such a field took a median
# 440 us in the five chunks of a 128 KiB budget against 306 us in one (2-vCPU
# VM, 234 fields each). 1 MiB is the least power of two that holds that field
# in one chunk; at equal job counts it raised the benchmark crowd workload's
# peak RSS by about 0.2 MB.
_STATS_BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class ExtrapolationParams(ConfigNode):
    """Sub-ROI grid (rows, cols) and the filter's confidence threshold."""

    grid: tuple[int, int] = (2, 2)
    filter_threshold: float = 0.7

    def __post_init__(self):
        if min(self.grid) < 1:
            raise ValueError(f"sub-roi grid must be at least 1x1, got {list(self.grid)}")
        if max(self.grid) > MAX_GRID_AXIS:
            raise ValueError(f"sub-roi grid must be at most {MAX_GRID_AXIS} a side, got {list(self.grid)}")
        if not 0.0 <= self.filter_threshold <= 1.0:
            raise ValueError(f"filter_threshold must be within [0, 1], got {self.filter_threshold}")


@dataclass
class SubTrack:
    """One sub-ROI and its previous filtered motion vector (pixels/frame)."""

    roi: Roi
    prev_mv: tuple[float, float] = (0.0, 0.0)


@dataclass
class TrackState:
    """Extrapolation state of one tracked object across an EW."""

    track_id: int
    sub_tracks: tuple[SubTrack, ...]


def split_sub_rois(roi: Roi, grid: tuple[int, int] = ExtrapolationParams.grid) -> list[Roi]:
    """Tile `roi` into a rows x cols grid of disjoint, exactly covering boxes
    that carry its label and score.

    Edges are real-valued fractions of the ROI, so no area is lost to
    rounding; adjacent tiles start at bit-identical shared edge values.
    ConfigError when `roi` is too thin for the grid, so that a tile edge
    rounds onto the next one.
    """
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ValueError(f"sub-roi grid must be at least 1x1, got {grid}")
    xs = [roi.x + roi.w * i / cols for i in range(cols + 1)]
    ys = [roi.y + roi.h * j / rows for j in range(rows + 1)]
    try:
        return [
            Roi(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j], label=roi.label, score=roi.score)
            for j in range(rows)
            for i in range(cols)
        ]
    except ValueError:  # a tile edge rounded onto the next one
        raise ConfigError(
            f"box at {roi.x!r},{roi.y!r} of size {roi.w!r}x{roi.h!r} is too small to split "
            f"into a {rows}x{cols} sub-ROI grid"
        ) from None


@lru_cache(maxsize=64)
def _cell_edges(n: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (low, high) edges of a row of n cells of size L."""
    edges = np.arange(n + 1, dtype=float) * L
    edges.flags.writeable = False
    return edges[:-1], edges[1:]


def _axis_overlaps(grid: tuple[int, int], L: int, rois: Sequence[Roi]) -> tuple[np.ndarray, np.ndarray]:
    """(ov_y, ov_x): overlap length of each of `rois` with each cell row and
    each cell column of a (rows, cols) grid of L x L cells."""
    rows, cols = grid
    boxes = np.array([v for r in rois for v in (r.x, r.x + r.w, r.y, r.y + r.h)], dtype=float).reshape(-1, 4)
    x_lo, x_hi = _cell_edges(cols, L)
    y_lo, y_hi = _cell_edges(rows, L)
    ov_x = np.minimum(boxes[:, 1:2], x_hi)
    ov_x -= np.maximum(boxes[:, 0:1], x_lo)
    ov_y = np.minimum(boxes[:, 3:4], y_hi)
    ov_y -= np.maximum(boxes[:, 2:3], y_lo)
    np.maximum(ov_x, 0.0, out=ov_x)
    np.maximum(ov_y, 0.0, out=ov_y)
    return ov_y, ov_x


def roi_motion_stats(field: MotionField, rois: Sequence[Roi]) -> list[tuple[float, float, float] | None]:
    """(mu_u, mu_v, alpha) of each of `rois`: the area-weighted mean motion
    vector and confidence of the MBs it covers, or None where the ROI does
    not overlap the MB grid. The ROIs are reduced in chunks of bounded
    size, every result bit-identical to a reduction of that ROI alone.
    Besides a chunk, this holds each ROI's overlaps with every MB row and
    column."""
    (rows, cols), n = field.sads.shape, field.sads.size
    ov_y, ov_x = _axis_overlaps((rows, cols), field.params.mb_size, rois)
    row_at, first, width, height = _covered_runs(ov_y, ov_x)
    # Per ROI, a chunk holds a float64 and a bool per MB of the field and at
    # most sixteen 8-byte indices and values per MB it covers, for as many
    # MBs as the ROI that covers the most.
    most_covered = int((height * width).max(initial=0))
    chunk = max(1, _STATS_BATCH_BYTES // (n * 9 + most_covered * 128))
    planes = np.empty((3, n))  # u, v and confidence of each MB
    planes[:2] = field.vectors.reshape(n, 2).T
    planes[2] = field.confidences.reshape(n)
    stats: list[tuple[float, float, float] | None] = []
    for lo in range(0, len(rois), chunk):
        a, b = row_at.searchsorted((lo * rows, (lo + chunk) * rows))  # the chunk's positive rows
        runs = row_at[a:b] - lo * rows, first[lo:lo + chunk], width[lo:lo + chunk]
        stats += _chunk_motion_stats(planes, ov_y[lo:lo + chunk], ov_x[lo:lo + chunk], runs)
    return stats


def _covered_runs(ov_y: np.ndarray, ov_x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row_at, first, width, height) of the positive overlaps: np.flatnonzero
    of the positive rows (ROI * rows + row), then each ROI's first positive
    column, its number of positive columns and its number of positive rows."""
    on_y, on_x = ov_y > 0.0, ov_x > 0.0
    return np.flatnonzero(on_y), on_x.argmax(axis=1), on_x.sum(axis=1), on_y.sum(axis=1)


def _covered_cells(runs: tuple[np.ndarray, np.ndarray, np.ndarray], grid: tuple[int, int]) -> np.ndarray:
    """np.flatnonzero of the (ROIs, rows, cols) outer product of the positive
    overlaps, a cell whose area underflows to 0 included, built from the
    (row_at, first, width) of `_covered_runs`: each positive row of an ROI,
    in turn, lists its one run of positive columns."""
    row_at, first, width = runs
    s = row_at // grid[0]
    run = np.arange(width.max(initial=0))
    cells = (row_at * grid[1] + first[s])[:, None] + run
    return cells[run < width[s][:, None]]


def _chunk_motion_stats(
    planes: np.ndarray, ov_y: np.ndarray, ov_x: np.ndarray, runs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> list[tuple[float, float, float] | None]:
    """`roi_motion_stats` of the ROIs with axis overlaps `ov_y`, `ov_x`
    (`_axis_overlaps`) and covered `runs` (`_covered_cells`), given the
    (3, rows * cols) u, v and confidence planes of the field. Each ROI's
    means are anchored on its first MB of greatest weight, so a constant
    field averages to its value bit-exactly (rigid translations stay rigid)."""
    S, n = len(ov_y), planes.shape[1]
    # ROI s's weight on each MB it overlaps on both axes, the product that
    # the dense outer product of its overlaps holds there; elsewhere that
    # product is +-0.
    at = _covered_cells(runs, (ov_y.shape[1], ov_x.shape[1]))
    s, flat = np.divmod(at, n)
    rows, cols = np.divmod(flat, ov_x.shape[1])
    weights = ov_y[s, rows] * ov_x[s, cols]
    # spread[s] holds ROI s's weights, then in turn its u, v and confidence
    # terms, on every MB, +0 where it covers none. Each sum runs over one
    # contiguous row of n, as a reduction of the dense terms does, and the
    # terms that only the dense one adds are +-0: they leave every nonzero
    # sum unchanged and keep a zero sum zero.
    spread = np.zeros((S, n))
    cells = spread.reshape(-1)
    cells[at] = weights
    base = planes.take(spread.argmax(axis=1), axis=1)  # u, v and confidence of each ROI's anchor
    total = spread.sum(axis=1)
    terms = (planes.take(flat, axis=1) - base.take(s, axis=1)) * weights
    sums = np.empty((3, S))
    for j in range(3):
        cells[at] = terms[j]
        sums[j] = spread.sum(axis=1)
    kept = total > 0.0
    means = base + sums / np.where(kept, total, 1.0)
    # alpha into [0, 1] as min(1.0, max(0.0, alpha)) does: no alpha is -0.0,
    # since no confidence is. Two in-place ufuncs cost less than np.clip.
    alpha = means[2]
    np.minimum(np.maximum(alpha, 0.0, out=alpha), 1.0, out=alpha)
    return [stat if ok else None for ok, stat in zip(kept.tolist(), zip(*means.tolist()))]


def cells_read(rois: Sequence[Roi], grid: tuple[int, int], L: int) -> np.ndarray:
    """Boolean (rows, cols) mask of the MBs whose motion `roi_motion_stats`
    reads for `rois`: those some ROI overlaps on both axes. Every other MB
    has weight exactly 0 there, so its vector and SAD cannot change a
    result. An ROI of positive float extent marks its integer ranges of L-cells
    floor(y / L) .. ceil((y + h) / L) by floor(x / L) .. ceil((x + w) / L),
    clamped: with `//` by a power of two exact, the positive-overlap rule."""
    mask = np.zeros(grid, dtype=bool)
    for r in rois:
        x2, y2 = r.x + r.w, r.y + r.h
        if x2 > r.x and y2 > r.y:  # a far edge that rounds onto the near one overlaps nothing
            mask[max(int(r.y // L), 0):max(-int(-y2 // L), 0), max(int(r.x // L), 0):max(-int(-x2 // L), 0)] = True
    return mask


def filtered_mv(
    mu: tuple[float, float],
    alpha: float,
    prev_mv: tuple[float, float],
    filter_threshold: float = ExtrapolationParams.filter_threshold,
) -> tuple[tuple[float, float], float]:
    """Confidence-weighted recursive filter blending mu with the previous MV.

    Returns ((u, v), beta). beta = alpha when alpha > threshold, else 0.5,
    so a noisy current estimate falls back to an even blend with history.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be within [0, 1], got {alpha}")
    beta = alpha if alpha > filter_threshold else 0.5
    u = beta * mu[0] + (1.0 - beta) * prev_mv[0]
    v = beta * mu[1] + (1.0 - beta) * prev_mv[1]
    return (u, v), beta


def init_track(track_id: int, roi: Roi, grid: tuple[int, int] = ExtrapolationParams.grid) -> TrackState:
    """Seed a track from an inference result; all filter state starts at zero."""
    return TrackState(track_id, tuple(SubTrack(r) for r in split_sub_rois(roi, grid)))


def extrapolate_track(
    state: TrackState,
    field: MotionField,
    filter_threshold: float = ExtrapolationParams.filter_threshold,
    stats: Sequence[tuple[float, float, float] | None] | None = None,
) -> tuple[TrackState, Roi | None]:
    """Advance a track by one frame using `field`.

    Each sub-ROI is moved by its own filtered vector; the composed ROI is the
    minimal bounding box of the moved sub-ROIs intersected with the frame
    (`field.width` x `field.height`, not the padded MB grid), with the label
    and score the sub-ROIs carry from the seed box.
    When a sub-ROI drifts off the MB grid, or the composed box leaves the
    frame entirely or rounds to zero extent where it moved, the track is lost
    and the ROI is None; the caller decides what to do (typically: drop the
    track until the next inference re-seeds it).
    `stats` is `roi_motion_stats` of the sub-ROIs on `field` when the caller
    has reduced them already, as part of a larger batch.
    """
    if stats is None:
        stats = roi_motion_stats(field, [sub.roi for sub in state.sub_tracks])
    if None in stats:
        return state, None
    new_subs: list[SubTrack] = []
    for sub, (mu_u, mu_v, alpha) in zip(state.sub_tracks, stats):
        (u, v), _beta = filtered_mv((mu_u, mu_v), alpha, sub.prev_mv, filter_threshold)
        r = sub.roi
        new_subs.append(SubTrack(Roi(r.x + u, r.y + v, r.w, r.h, label=r.label, score=r.score), (u, v)))
    new_state = TrackState(state.track_id, tuple(new_subs))
    return new_state, framed_bounding_box([sub.roi for sub in new_subs], field.width, field.height)
