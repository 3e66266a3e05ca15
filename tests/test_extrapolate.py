"""ROI extrapolation: averaging, filtering, sub-ROI handling, composition."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from euphrates import extrapolate
from euphrates.errors import ConfigError
from euphrates.extrapolate import (
    _STATS_BATCH_BYTES,
    MAX_GRID_AXIS,
    ExtrapolationParams,
    cells_read,
    extrapolate_track,
    filtered_mv,
    init_track,
    roi_motion_stats,
    split_sub_rois,
)
from euphrates.motion import MotionField, MotionParams, uniform_field
from euphrates.roi import Roi, framed_bounding_box

from oracles import pixel_average_confidence, pixel_average_mv
from test_config import PROPERTY


def field_from_grid(u, v, sads=None, L=16):
    """Small helper: build a field from explicit per-MB arrays."""
    u = np.asarray(u)
    rows, cols = u.shape
    vectors = np.stack([u, np.asarray(v)], axis=-1).astype(np.int16)
    s = np.zeros((rows, cols), dtype=np.int64) if sads is None else np.asarray(sads, dtype=np.int64)
    return MotionField(cols * L, rows * L, MotionParams(mb_size=L), vectors, s)


# ---------------------------------------------------------------------------
# ROI averages


def test_average_two_equal_mbs():
    field = field_from_grid([[2, 4]], [[0, 2]])
    # roi covers both 16x16 MBs fully
    assert roi_motion_stats(field, [Roi(0, 0, 32, 16)])[0][:2] == (3.0, 1.0)


def test_average_uniform_field_any_roi():
    field = uniform_field(128, 96, mv=(5, -3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0, 100)
        y = rng.uniform(0, 70)
        roi = Roi(x, y, rng.uniform(1, 27), rng.uniform(1, 25))
        mu = roi_motion_stats(field, [roi])[0][:2]
        assert mu == (5.0, -3.0)


def test_average_partial_coverage_vs_pixel_oracle():
    # 75% of an MV (4,0) MB and 25% of an MV (0,4) MB -> (3, 1)
    field = field_from_grid([[4, 0]], [[0, 4]])
    roi = Roi(4, 0, 16, 16)  # 12 columns of MB0, 4 columns of MB1
    mu = roi_motion_stats(field, [roi])[0][:2]
    assert mu == (3.0, 1.0)
    assert pixel_average_mv(field, roi) == mu


def test_average_random_integer_rois_vs_pixel_oracle():
    rng = np.random.default_rng(42)
    u = rng.integers(-7, 8, size=(4, 5))
    v = rng.integers(-7, 8, size=(4, 5))
    field = field_from_grid(u, v)
    for _ in range(25):
        x = int(rng.integers(0, 60))
        y = int(rng.integers(0, 44))
        w = int(rng.integers(1, 80 - x + 1))
        h = int(rng.integers(1, 64 - y + 1))
        roi = Roi(x, y, w, h)
        got = roi_motion_stats(field, [roi])[0][:2]
        want = pixel_average_mv(field, roi)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_average_empty_intersection():
    field = uniform_field(64, 64)
    assert roi_motion_stats(field, [Roi(100, 100, 10, 10)]) == [None]


@pytest.mark.parametrize("L", [16, 4])  # 8160 and 129600 MBs: a row of the latter exceeds the chunk budget
def test_no_rois_give_no_stats(L):
    rows, cols = 1080 // L, 1920 // L
    field = MotionField(1920, 1080, MotionParams(mb_size=L), np.zeros((rows, cols, 2), np.int16),
                        np.zeros((rows, cols), np.int64))
    assert roi_motion_stats(field, []) == []


def test_confidence_all_ones():
    field = uniform_field(64, 64)
    assert roi_motion_stats(field, [Roi(3, 5, 30, 20)])[0][2] == 1.0


def test_confidence_two_equal_mbs():
    max_sad = 255 * 256
    sads = [[int(0.6 * max_sad), int(round(0.2 * max_sad))]]
    field = field_from_grid([[0, 0]], [[0, 0]], sads=sads)
    got = roi_motion_stats(field, [Roi(0, 0, 32, 16)])[0][2]
    assert got == pytest.approx(0.6, abs=1e-9)


def test_confidence_weighted_vs_pixel_oracle():
    # full MB at confidence 1.0 plus half an MB at 0.4: weights 2/3 and 1/3
    sads = [[0, int(0.6 * 255 * 256)]]
    field = field_from_grid([[0, 0]], [[0, 0]], sads=sads)
    roi = Roi(0, 0, 24, 16)
    got = roi_motion_stats(field, [roi])[0][2]
    assert got == pytest.approx(0.8, abs=1e-12)
    assert got == pytest.approx(pixel_average_confidence(field, roi), abs=1e-12)


# ---------------------------------------------------------------------------
# Temporal filter


def test_filtered_mv_high_confidence_branch():
    mv, beta = filtered_mv((4, 2), 0.9, (2, 0), 0.7)
    assert beta == 0.9
    assert mv == (pytest.approx(3.8), pytest.approx(1.8))


def test_filtered_mv_low_confidence_branch():
    mv, beta = filtered_mv((4, 2), 0.3, (2, 0), 0.7)
    assert beta == 0.5
    assert mv == (3.0, 1.0)


def test_filtered_mv_alpha_one_passthrough():
    mv, beta = filtered_mv((1.5, -2.5), 1.0, (9, 9), 0.7)
    assert beta == 1.0 and mv == (1.5, -2.5)


def test_filtered_mv_threshold_is_strict():
    _, beta = filtered_mv((0, 0), 0.7, (0, 0), 0.7)
    assert beta == 0.5  # alpha must exceed the threshold


def test_filtered_mv_alpha_validation():
    with pytest.raises(ValueError):
        filtered_mv((0, 0), 1.2, (0, 0), 0.7)


def test_filtered_mv_convex_envelope():
    rng = np.random.default_rng(1)
    for _ in range(200):
        mu = tuple(rng.uniform(-7, 7, size=2))
        prev = tuple(rng.uniform(-7, 7, size=2))
        alpha = float(rng.uniform(0, 1))
        (u, v), beta = filtered_mv(mu, alpha, prev, 0.7)
        assert beta == 0.5 or (0.7 < beta <= 1.0)
        assert min(mu[0], prev[0]) - 1e-12 <= u <= max(mu[0], prev[0]) + 1e-12
        assert min(mu[1], prev[1]) - 1e-12 <= v <= max(mu[1], prev[1]) + 1e-12


# ---------------------------------------------------------------------------
# Sub-ROIs


def test_split_2x2():
    tiles = split_sub_rois(Roi(0, 0, 100, 50), (2, 2))
    assert [(t.x, t.y, t.w, t.h) for t in tiles] == [
        (0, 0, 50, 25),
        (50, 0, 50, 25),
        (0, 25, 50, 25),
        (50, 25, 50, 25),
    ]


def test_split_1x1_identity():
    roi = Roi(3.5, 4.25, 10, 20)
    tiles = split_sub_rois(roi, (1, 1))
    assert len(tiles) == 1
    assert (tiles[0].x, tiles[0].y, tiles[0].w, tiles[0].h) == (3.5, 4.25, 10, 20)


def test_split_box_too_thin_for_grid_rejected():
    with pytest.raises(ConfigError, match=r"box at 10\.0,0\.0 of size 1e-15x8\.0 .* 2x2 sub-ROI grid"):
        split_sub_rois(Roi(10.0, 0.0, 1e-15, 8.0), (2, 2))
    assert len(split_sub_rois(Roi(10, 0, 1e-15, 8), (2, 1))) == 2  # no split across the width


def test_split_needs_a_grid_of_at_least_one_tile_a_side():
    with pytest.raises(ValueError, match=r"sub-roi grid must be at least 1x1, got \(0, 2\)"):
        split_sub_rois(Roi(0, 0, 100, 50), (0, 2))


def test_grid_bounded_on_each_axis():
    assert ExtrapolationParams(grid=(MAX_GRID_AXIS, MAX_GRID_AXIS)).grid == (MAX_GRID_AXIS, MAX_GRID_AXIS)
    for grid in [(MAX_GRID_AXIS + 1, 1), (1, MAX_GRID_AXIS + 1), (100000, 100000)]:
        with pytest.raises(ValueError, match=f"at most {MAX_GRID_AXIS} a side"):
            ExtrapolationParams(grid=grid)


def test_split_conserves_area_and_cover():
    rng = np.random.default_rng(2)
    for _ in range(30):
        roi = Roi(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 40), rng.uniform(0.5, 40))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tiles = split_sub_rois(roi, (rows, cols))
        assert len(tiles) == rows * cols
        assert sum(t.w * t.h for t in tiles) == pytest.approx(roi.w * roi.h, rel=1e-9)
        # starting edges are the exact shared edge values; far edges are
        # reconstructed as x + w and may carry 1-ulp dust
        assert min(t.x for t in tiles) == roi.x
        assert min(t.y for t in tiles) == roi.y
        assert max(t.x2 for t in tiles) == pytest.approx(roi.x2, rel=1e-12)
        assert max(t.y2 for t in tiles) == pytest.approx(roi.y2, rel=1e-12)


# ---------------------------------------------------------------------------
# Track extrapolation


def test_init_track_structure():
    state = init_track(5, Roi(10, 10, 40, 20, label=2, score=0.9))
    assert state.track_id == 5 and len(state.sub_tracks) == 4
    assert all(s.prev_mv == (0.0, 0.0) for s in state.sub_tracks)
    assert all(s.roi.label == 2 and s.roi.score == 0.9 for s in state.sub_tracks)


def test_extrapolate_zero_field_identity():
    field = uniform_field(128, 128)
    state = init_track(0, Roi(10, 12, 30, 26))
    _, roi = extrapolate_track(state, field)
    assert (roi.x, roi.y, roi.w, roi.h) == (10, 12, 30, 26)


def test_extrapolate_rigid_translation_any_grid():
    field = uniform_field(256, 256, mv=(4, -3))
    for grid in [(1, 1), (2, 2), (3, 1), (4, 5)]:
        state = init_track(0, Roi(100, 100, 48, 36, label=1, score=0.5), grid)
        for step in range(1, 4):
            state, roi = extrapolate_track(state, field)
            assert roi.x == 100 + 4 * step and roi.y == 100 - 3 * step
            assert roi.w == 48 and roi.h == 36
            assert roi.label == 1 and roi.score == 0.5


def test_extrapolate_deformation_bounding_box():
    # top half of the grid moves (2,0), bottom half (-2,0): the composed box
    # widens by 4, x shifts by -2, height is unchanged
    u = [[2] * 4, [2] * 4, [-2] * 4, [-2] * 4]
    v = [[0] * 4] * 4
    field = field_from_grid(u, v)  # 64x64 frame
    state = init_track(0, Roi(16, 16, 32, 32), (2, 2))
    _, roi = extrapolate_track(state, field)
    assert (roi.x, roi.y, roi.w, roi.h) == (14, 16, 36, 32)


def generator_framed_bounding_box(rois, width, height):
    """`framed_bounding_box` restated with one generator pass per bound."""
    x1 = min(r.x for r in rois)
    y1 = min(r.y for r in rois)
    w = max(r.x + r.w for r in rois) - x1
    h = max(r.y + r.h for r in rois) - y1
    if not (w > 0 and h > 0):
        return None
    fx1, fy1 = max(x1, 0.0), max(y1, 0.0)
    fx2, fy2 = min(x1 + w, float(width)), min(y1 + h, float(height))
    if fx2 <= fx1 or fy2 <= fy1:
        return None
    return Roi(fx1, fy1, fx2 - fx1, fy2 - fy1, label=rois[0].label, score=rois[0].score)


# A few shared values, so that corners coincide, both zeros occur and extents
# vanish against their corner, mixed with arbitrary ones, some off the frame.
coordinate = st.sampled_from([0.0, -0.0, 1.5, -1.5, 0.1, 40.0, 1e17]) | st.floats(-200, 300)
extent = st.sampled_from([1e-300, 0.2, 1.5, 38.5, 40.0]) | st.floats(1e-3, 300)


@PROPERTY
@given(
    rois=st.lists(st.builds(Roi, coordinate, coordinate, extent, extent, label=st.sampled_from([None, "car"]),
                            score=st.sampled_from([None, 0.5])), min_size=1, max_size=6),
    width=st.sampled_from([40, 64.0]) | st.floats(0.5, 200),
    height=st.sampled_from([40, 48.0]) | st.floats(0.5, 200),
)
@example(rois=[Roi(-0.0, 0.0, 2.0, 2.0), Roi(0.0, -0.0, 2.0, 2.0)], width=4, height=4)
@example(rois=[Roi(0.1, 0.0, 1e-300, 1.0)], width=4, height=4)
def test_framed_bounding_box_equals_the_generator_restatement(rois, width, height):
    want = generator_framed_bounding_box(rois, width, height)
    assert repr(framed_bounding_box(rois, width, height)) == repr(want)


def test_extrapolate_composed_contains_subrois():
    rng = np.random.default_rng(3)
    u = rng.integers(-7, 8, size=(6, 6))
    v = rng.integers(-7, 8, size=(6, 6))
    field = field_from_grid(u, v)
    # placed so that no clamping occurs (moves are bounded by 7)
    state = init_track(0, Roi(20, 20, 50, 40), (2, 2))
    new_state, roi = extrapolate_track(state, field)
    for sub in new_state.sub_tracks:
        assert roi.x <= sub.roi.x + 1e-9 and sub.roi.x2 <= roi.x2 + 1e-9
        assert roi.y <= sub.roi.y + 1e-9 and sub.roi.y2 <= roi.y2 + 1e-9
    assert roi.w * roi.h >= max(s.roi.w * s.roi.h for s in new_state.sub_tracks) - 1e-9


def test_extrapolate_prev_mv_stays_bounded():
    rng = np.random.default_rng(4)
    state = init_track(0, Roi(30, 30, 40, 30))
    d = 7
    for _ in range(40):
        u = rng.integers(-d, d + 1, size=(8, 8))
        v = rng.integers(-d, d + 1, size=(8, 8))
        sads = rng.integers(0, 255 * 256, size=(8, 8))
        field = field_from_grid(u, v, sads=sads)
        state, roi = extrapolate_track(state, field)
        if roi is None:
            break
        for sub in state.sub_tracks:
            assert abs(sub.prev_mv[0]) <= d + 1e-9
            assert abs(sub.prev_mv[1]) <= d + 1e-9


def test_extrapolate_clamps_to_frame():
    field = uniform_field(64, 64, mv=(7, 0))
    state = init_track(0, Roi(50, 10, 12, 12))
    state, roi = extrapolate_track(state, field)
    assert roi.x2 <= 64 and roi.w == 7  # 57..64 survives the clamp


def test_extrapolate_clamps_to_the_frame_not_the_padded_grid():
    # A 100x70 frame of 16-pixel MBs: the 7x5 grid covers 112x80.
    field = uniform_field(100, 70, mv=(7, 0))
    assert (field.cols * 16, field.rows * 16) == (112, 80)
    _, roi = extrapolate_track(init_track(0, Roi(90, 10, 8, 8)), field)
    assert roi.x2 == 100.0 and roi.x == 97.0


def test_extrapolate_lost_track():
    field = uniform_field(64, 64, mv=(7, 0))
    state = init_track(0, Roi(56, 10, 8, 8))
    for _ in range(10):
        state, roi = extrapolate_track(state, field)
        if roi is None:
            break
    assert roi is None


def test_extrapolate_box_that_rounds_to_zero_height_when_moved_is_lost():
    # 3e-106 is far below the spacing of floats at y = 1, where the box moves.
    track = init_track(0, Roi(0.0, 0.0, 1.0, 3e-106))
    assert extrapolate_track(track, uniform_field(64, 64, mv=(1, 1)))[1] is None


def test_extrapolate_deterministic():
    rng = np.random.default_rng(5)
    u = rng.integers(-7, 8, size=(4, 4))
    v = rng.integers(-7, 8, size=(4, 4))
    sads = rng.integers(0, 255 * 256, size=(4, 4))
    field = field_from_grid(u, v, sads=sads)
    a = init_track(0, Roi(5, 5, 30, 30))
    b = init_track(0, Roi(5, 5, 30, 30))
    ra = extrapolate_track(a, field)
    rb = extrapolate_track(b, field)
    assert ra == rb


def test_field_changed_in_place_reads_like_a_fresh_field():
    rng = np.random.default_rng(9)
    field = field_from_grid(rng.integers(-7, 8, (4, 4)), rng.integers(-7, 8, (4, 4)), rng.integers(0, 9000, (4, 4)))
    track = init_track(0, Roi(5, 7, 30, 27))
    before = extrapolate_track(track, field)
    field.vectors[...] = rng.integers(-7, 8, (4, 4, 2))
    field.sads[...] = rng.integers(0, 9000, (4, 4))
    fresh = MotionField(64, 64, field.params, field.vectors.copy(), field.sads.copy())
    after = extrapolate_track(track, field)
    assert after == extrapolate_track(track, fresh)
    assert after != before


def test_touched_macroblocks_cost_bound():
    # the MBs an ROI average reads are those with a nonzero overlap weight
    field = uniform_field(256, 128)

    def touched(roi):
        return int(np.count_nonzero(cells_read([roi], (field.rows, field.cols), 16)))

    assert touched(Roi(0, 0, 100, 50)) == 7 * 4
    assert touched(Roi(0, 0, 16, 16)) == 1
    # cost grows with covered MBs, not with pixel count
    assert touched(Roi(0, 0, 200, 100)) == 13 * 7


# ---------------------------------------------------------------------------
# Batched sub-ROI statistics


def one_roi_weights(roi, rows, cols, L):
    """Overlap area of `roi` with each cell of a (rows, cols) grid of L x L
    cells, restated literally as one float product per cell."""
    edges_x = np.arange(cols + 1) * L
    edges_y = np.arange(rows + 1) * L
    ov_x = np.clip(np.minimum(roi.x2, edges_x[1:]) - np.maximum(roi.x, edges_x[:-1]), 0.0, None)
    ov_y = np.clip(np.minimum(roi.y2, edges_y[1:]) - np.maximum(roi.y, edges_y[:-1]), 0.0, None)
    return ov_y[:, None] * ov_x[None, :]


def one_roi_motion_stats(field, roi):
    """The per-ROI reduction `roi_motion_stats` batches, restated literally:
    (mu_u, mu_v, alpha), or None when `roi` misses the MB grid."""
    weights = one_roi_weights(roi, field.rows, field.cols, field.params.mb_size)
    total = weights.sum()
    if total <= 0.0:
        return None
    r0, c0 = np.unravel_index(int(np.argmax(weights)), weights.shape)
    u0 = float(field.vectors[r0, c0, 0])
    v0 = float(field.vectors[r0, c0, 1])
    confidences = field.confidences
    a0 = float(confidences[r0, c0])
    mu_u = u0 + float((weights * (field.vectors[..., 0] - u0)).sum() / total)
    mu_v = v0 + float((weights * (field.vectors[..., 1] - v0)).sum() / total)
    alpha = a0 + float((weights * (confidences - a0)).sum() / total)
    return mu_u, mu_v, min(1.0, max(0.0, alpha))


@PROPERTY
@given(
    rows=st.integers(1, 80),
    cols=st.integers(1, 80),
    L=st.sampled_from([4, 8, 16]),
    n_rois=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_motion_stats_equal_per_roi_stats_bit_for_bit(rows, cols, L, n_rois, seed):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-(2**15), 2**15, size=(rows, cols, 2)).astype(np.int16)
    max_sad = 255 * L * L
    # Some SADs beyond max_sad give negative confidences, which alpha clamps.
    sads = rng.integers(0, 2 * max_sad, size=(rows, cols))
    field = MotionField(cols * L, rows * L, MotionParams(mb_size=L), vectors, sads)
    # Corners reach a grid width past either edge, so some ROIs lie partly
    # or wholly off the grid.
    x = rng.uniform(-cols * L, 2 * cols * L, n_rois)
    y = rng.uniform(-rows * L, 2 * rows * L, n_rois)
    w = rng.uniform(0.01, 1.5 * cols * L, n_rois)
    h = rng.uniform(0.01, 1.5 * rows * L, n_rois)
    rois = [Roi(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(x, y, w, h)]

    want = [one_roi_motion_stats(field, r) for r in rois]
    # A batch, mixed or not, and each ROI alone: None exactly where the ROI
    # misses the grid, and the same bytes as the literal reduction elsewhere.
    for got, one in zip(roi_motion_stats(field, rois), want, strict=True):
        assert (got is None) == (one is None)
        if one is not None:
            assert np.array(got).tobytes() == np.array(one).tobytes()
    for roi, one in zip(rois, want):
        if one is None:
            assert roi_motion_stats(field, [roi]) == [None]
        else:
            assert np.array(roi_motion_stats(field, [roi])[0]).tobytes() == np.array(one).tobytes()


# ---------------------------------------------------------------------------
# The macroblocks extrapolation reads


@PROPERTY
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    L=st.sampled_from([4, 8, 16]),
    n_rois=st.integers(0, 30),
    tiny=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cells_read_covers_every_cell_of_nonzero_weight(rows, cols, L, n_rois, tiny, seed):
    """The mask holds every cell some sub-ROI gives a nonzero overlap area,
    and only those while no extent is below 1e-100. A tinier box can add a
    cell whose area underflows to 0; that cell weighs nothing in the mean."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-cols * L, 2 * cols * L, n_rois)
    y = rng.uniform(-rows * L, 2 * rows * L, n_rois)
    if tiny:  # corners on a cell edge, extents down to 1e-300
        x, y = np.round(x / L) * L, np.round(y / L) * L
    low = -300 if tiny else -100
    w = cols * L * 10.0 ** rng.uniform(low, 0.2, n_rois)
    h = rows * L * 10.0 ** rng.uniform(low, 0.2, n_rois)
    rois = [Roi(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(x, y, w, h)]
    mask = cells_read(rois, (rows, cols), L)
    want = np.zeros((rows, cols), dtype=bool)
    for roi in rois:
        want |= one_roi_weights(roi, rows, cols, L) > 0.0
    assert mask.dtype == bool and mask.shape == (rows, cols)
    assert not (want & ~mask).any()
    if min([*w, *h], default=1.0) >= 1e-100:
        assert np.array_equal(mask, want)


@PROPERTY
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    L=st.sampled_from([4, 8, 16]),
    n_rois=st.integers(0, 30),
    tiny=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, cols=4, L=4, n_rois=0, tiny=False, seed=0)
@example(rows=3, cols=4, L=4, n_rois=12, tiny=True, seed=1)
def test_covered_cells_are_the_positive_overlaps_in_flatnonzero_order(rows, cols, L, n_rois, tiny, seed):
    """The cells built from each ROI's run of positive column overlaps, once
    per positive row, are element for element those np.flatnonzero finds in
    the outer product of the positive overlaps: none for an ROI wholly off
    the grid or an empty list, and a cell whose area underflows included."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2 * cols * L, 2 * cols * L, n_rois)
    y = rng.uniform(-2 * rows * L, 2 * rows * L, n_rois)
    if tiny:  # corners on a cell edge, extents down to 1e-300
        x, y = np.round(x / L) * L, np.round(y / L) * L
    low = -300 if tiny else -2
    w = cols * L * 10.0 ** rng.uniform(low, 0.2, n_rois)
    h = rows * L * 10.0 ** rng.uniform(low, 0.2, n_rois)
    rois = [Roi(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(x, y, w, h)]
    ov_y, ov_x = extrapolate._axis_overlaps((rows, cols), L, rois)
    want = np.flatnonzero((ov_y > 0)[:, :, None] & (ov_x > 0)[:, None, :])
    row_at, first, width, height = extrapolate._covered_runs(ov_y, ov_x)
    got = extrapolate._covered_cells((row_at, first, width), (rows, cols))
    assert got.dtype.kind == "i" and got.tolist() == want.tolist()
    assert height.tolist() == (ov_y > 0).sum(axis=1).tolist()


def test_cells_read_keeps_a_cell_whose_overlap_area_underflows():
    roi = Roi(0.0, 0.0, 1e-200, 1e-200)
    assert one_roi_weights(roi, 2, 2, 16).max() == 0.0
    assert cells_read([roi], (2, 2), 16).tolist() == [[True, False], [False, False]]


# A 3 x 4 grid of 16-pixel cells spans x in [0, 64) and y in [0, 48).
@pytest.mark.parametrize(
    "roi, marked",
    [
        (Roi(-20.0, -40.0, 60.0, 8.0), []),
        (Roi(-40.0, 4.0, 8.0, 20.0), []),
        (Roi(64.0, 4.0, 8.0, 20.0), []),
        (Roi(4.0, 48.0, 8.0, 8.0), []),
        (Roi(4.0, 4.0, 12.0, 28.0), [(0, 0), (1, 0)]),
        (Roi(16.0, 32.0, 16.0, 16.0), [(2, 1)]),
        (Roi(-40.0, 4.0, 44.0, 8.0), [(0, 0)]),
        (Roi(-40.0, -40.0, 44.0, 44.0), [(0, 0)]),
        (Roi(20.5, 4.0, 1e-20, 8.0), []),
    ],
    ids=[
        "wholly above", "wholly left", "wholly right", "wholly below", "far edges on cell edges",
        "on one cell's edges", "ends in cell 0 from negative x", "ends in cell 0 from negative x and y",
        "far edge rounds onto the near one",
    ],
)
def test_cells_read_marks_the_cells_of_positive_overlap(roi, marked):
    mask = cells_read([roi], (3, 4), 16)
    assert list(zip(*np.nonzero(mask))) == marked
    assert np.array_equal(mask, one_roi_weights(roi, 3, 4, 16) > 0.0)


def test_cells_read_memory_is_bounded_at_1080p():
    """12 tracks of 2x2 sub-ROIs over the 270 x 480 grid of 4-pixel MBs: a
    float overlap tensor would hold 48 x 129600 float64, about 50 MB."""
    rng = np.random.default_rng(3)
    tracks = [init_track(i, Roi(*rng.uniform(0, 1000, 2), *rng.uniform(20, 300, 2))) for i in range(12)]
    rois = [sub.roi for tr in tracks for sub in tr.sub_tracks]
    tracemalloc.start()
    try:
        mask = cells_read(rois, (270, 480), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.any() and peak < 2 * 2**20


def test_motion_stats_memory_is_bounded_at_1080p():
    """32 tracks of 8x8 sub-ROIs on the 68 x 120 grid of 16-pixel MBs: zeroed
    rows for all 2048 sub-ROIs at once would hold 2048 x 8160 float64, about
    134 MB, and reducing one track at a time peaks at about 16 MB."""
    rng = np.random.default_rng(4)
    field = MotionField(1920, 1080, MotionParams(mb_size=16), rng.integers(-7, 8, (68, 120, 2)).astype(np.int16),
                        rng.integers(0, 65280, (68, 120)))
    rois = [sub.roi for i in range(32)
            for sub in init_track(i, Roi(*rng.uniform(-50, 1800, 2), *rng.uniform(20, 300, 2)), (8, 8)).sub_tracks]
    tracemalloc.start()
    try:
        stats = roi_motion_stats(field, rois)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A chunk and the per-axis overlaps of every sub-ROI, or those overlaps
    # and one temporary of their size while they are formed.
    assert peak < _STATS_BATCH_BYTES + 2 * len(rois) * (68 + 120) * 8
    assert any(s is None for s in stats) and any(s is not None for s in stats)
    for k in rng.choice(len(rois), 20, replace=False):
        want = one_roi_motion_stats(field, rois[k])
        assert stats[k] is None if want is None else np.array(stats[k]).tobytes() == np.array(want).tobytes()


def test_crowd_sized_field_reduces_in_one_chunk(monkeypatch):
    """12 tracks of 2x2 sub-ROIs on the 40 x 30 grid of a 640x480 field of
    16-pixel MBs go in one chunk: each further chunk adds a fixed cost."""
    rng = np.random.default_rng(12)
    field = MotionField(640, 480, MotionParams(mb_size=16), rng.integers(-7, 8, (30, 40, 2)).astype(np.int16),
                        rng.integers(0, 65280, (30, 40)))
    # One box per 40-pixel lane, its sub-ROIs straddling MB edges on both axes.
    boxes = [Roi(float(rng.integers(0, 560)) + 13.5, 40.0 * lane + 9.0, float(rng.choice([56, 64, 72])), 24.0)
             for lane in range(12)]
    rois = [sub.roi for i, box in enumerate(boxes) for sub in init_track(i, box, (2, 2)).sub_tracks]
    sizes = []
    real = extrapolate._chunk_motion_stats

    def record(planes, ov_y, ov_x, runs):
        sizes.append(len(ov_y))
        return real(planes, ov_y, ov_x, runs)

    monkeypatch.setattr(extrapolate, "_chunk_motion_stats", record)
    stats = roi_motion_stats(field, rois)
    assert sizes == [48]
    for got, roi in zip(stats, rois, strict=True):
        assert np.array(got).tobytes() == np.array(one_roi_motion_stats(field, roi)).tobytes()


@pytest.mark.parametrize("budget", [1, 30_000, 60_000])
def test_motion_stats_in_chunks_equal_the_literal_reduction(monkeypatch, budget):
    """Chunks of one ROI and of several, some of them off the grid, give the
    literal per-ROI reduction bit for bit."""
    rng = np.random.default_rng(budget)
    rows, cols, L = 12, 15, 8
    field = MotionField(cols * L, rows * L, MotionParams(mb_size=L),
                        rng.integers(-9, 10, (rows, cols, 2)).astype(np.int16),
                        rng.integers(0, 2 * 255 * L * L, (rows, cols)))
    rois = [Roi(*rng.uniform(-40, 130, 2), *rng.uniform(0.5, 60, 2)) for _ in range(13)]
    sizes = []
    real = extrapolate._chunk_motion_stats

    def record(planes, ov_y, ov_x, runs):
        sizes.append(len(ov_y))
        return real(planes, ov_y, ov_x, runs)

    monkeypatch.setattr(extrapolate, "_STATS_BATCH_BYTES", budget)
    monkeypatch.setattr(extrapolate, "_chunk_motion_stats", record)
    stats = roi_motion_stats(field, rois)
    assert sum(sizes) == len(rois) and (max(sizes) == 1) == (budget == 1) and len(sizes) > 1
    want = [one_roi_motion_stats(field, r) for r in rois]
    assert any(s is None for s in want) and any(s is not None for s in want)
    for got, one in zip(stats, want, strict=True):
        assert got is None if one is None else np.array(got).tobytes() == np.array(one).tobytes()
