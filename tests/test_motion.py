"""Block matching: SAD, ES/TSS searches, field estimation, metadata codec."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euphrates import motion
from euphrates.errors import DimensionMismatchError, FrameFormatError, MetadataError
from euphrates.motion import (
    MotionField,
    MotionParams,
    MotionVector,
    decode_metadata,
    encode_metadata,
    encoded_size,
    estimate_motion_field,
    exhaustive_search,
    grid_shape,
    uniform_field,
)
from euphrates.pixels import Frame

from oracles import naive_block_search, naive_field, naive_three_step_search, shifted_pair
from test_config import PROPERTY


def random_frame(seed, h=64, w=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


# ---------------------------------------------------------------------------
# SAD, as exhaustive search reports it, and confidence


def block_sad(a, b):
    """SAD that exhaustive search reports for a frame pair of one macroblock
    each, where the zero offset is the only in-frame candidate."""
    mv, s = exhaustive_search(a, b, (0, 0), MotionParams(mb_size=a.shape[0]))
    assert (mv.u, mv.v) == (0, 0)
    return s


def tss_at(prev, cur, origin, params=MotionParams()):
    """(vector, SAD) of the three-step search of the MB of `cur` at `origin`,
    from a TSS field searched at that MB alone."""
    L = params.mb_size
    r, c = origin[1] // L, origin[0] // L
    cells = np.zeros(grid_shape(cur.shape[1], cur.shape[0], L), dtype=bool)
    cells[r, c] = True
    field = estimate_motion_field(prev, cur, MotionParams(L, params.search_range, "tss"), cells=cells)
    return field.vector_at(r, c), int(field.sads[r, c])


def test_sad_identity():
    b = random_frame(0, 16, 16)
    assert block_sad(b, b) == 0


def test_sad_maximum():
    a = np.zeros((16, 16), dtype=np.uint8)
    b = np.full((16, 16), 255, dtype=np.uint8)
    assert block_sad(a, b) == 65280  # 255 * 16^2


def test_sad_direct_arithmetic():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[:2, :2] = [[1, 2], [3, 4]]
    b[:2, :2] = [[2, 2], [3, 2]]
    assert block_sad(a, b) == 3


def test_sad_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        estimate_motion_field(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 8), dtype=np.uint8))


def test_sad_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (rng.integers(0, 256, size=(8, 8), dtype=np.uint8) for _ in range(3))
        assert block_sad(a, b) == block_sad(b, a)
        assert block_sad(a, c) <= block_sad(a, b) + block_sad(b, c)


def test_confidence_endpoints():
    for s, c in ((0, 1.0), (65280, 0.0), (32640, 0.5)):
        assert uniform_field(16, 16, sad=s).confidences[0, 0] == c


def test_confidence_monotone_and_range():
    sads = np.arange(0, 65281, 4080, dtype=np.int64)[None, :]
    field = MotionField(16 * sads.size, 16, MotionParams(), np.zeros((1, sads.size, 2), np.int16), sads)
    conf = field.confidences[0]
    assert np.all((0.0 <= conf) & (conf <= 1.0))
    assert np.all(np.diff(conf) < 0)
    # A SAD outside [0, 255 * L^2] cannot be stored, so no confidence leaves [0, 1].
    for bad in (65281, -1):
        with pytest.raises(MetadataError, match="sad outside"):
            encode_metadata(uniform_field(16, 16, sad=bad))


# ---------------------------------------------------------------------------
# Searches


def test_exhaustive_recovers_shift():
    prev, cur = shifted_pair(7, 64, 64, (3, -2))
    mv, s = exhaustive_search(prev, cur, (16, 16), MotionParams())
    assert (mv.u, mv.v) == (3, -2) and s == 0
    # independent brute force agrees
    (u, v), s2 = naive_block_search(prev, cur, (16, 16), 16, 7)
    assert (u, v) == (3, -2) and s2 == 0


def test_exhaustive_identity_tie_break():
    f = random_frame(1)
    mv, s = exhaustive_search(f, f, (16, 32), MotionParams())
    assert (mv.u, mv.v) == (0, 0) and s == 0


def test_exhaustive_origin_validation():
    f = random_frame(2)
    with pytest.raises(ValueError):
        exhaustive_search(f, f, (7, 16), MotionParams())


@pytest.mark.parametrize("search", [exhaustive_search, tss_at], ids=["exhaustive_search", "three_step_search"])
@pytest.mark.parametrize("prev_side, cur_side, origin", [(32, 64, (48, 48)), (32, 64, (16, 16)), (64, 32, (16, 16))])
def test_per_mb_searches_reject_frames_of_different_shapes(search, prev_side, cur_side, origin):
    prev, cur = random_frame(0, prev_side, prev_side), random_frame(1, cur_side, cur_side)
    with pytest.raises(DimensionMismatchError, match="frame dimensions differ"):
        search(prev, cur, origin, MotionParams())


@pytest.mark.parametrize("band", [1, 2, 3])
def test_exhaustive_search_in_bands_equals_the_literal_search(band, monkeypatch):
    """A window summed a few candidate rows at a time ranks as one sum does."""
    rng = np.random.default_rng(band)
    for L, d, levels in [(4, 5, 2), (8, 9, 256), (8, 12, 2), (16, 7, 256)]:
        monkeypatch.setattr(motion, "_ES_BAND_BYTES", band * (2 * d + 1) * L * L * 2)
        prev, cur = (rng.integers(0, levels, size=(5 * L, 4 * L), dtype=np.uint8) for _ in range(2))
        for origin in [(0, 0), (L, 2 * L), (3 * L, 4 * L)]:
            mv, s = exhaustive_search(prev, cur, origin, MotionParams(L, d))
            assert ((mv.u, mv.v), s) == naive_block_search(prev, cur, origin, L, d)


def test_exhaustive_search_memory_is_bounded_for_a_large_window():
    """A 64-pixel MB over a 127 x 127 candidate window (132 MB of int16
    differences at once) stays within twice the search's byte budget."""
    rng = np.random.default_rng(0)
    prev, cur = (rng.integers(0, 256, size=(192, 192), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        exhaustive_search(prev, cur, (64, 64), MotionParams(64, 63))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * motion._ES_BAND_BYTES


@pytest.mark.parametrize("chunk, band", [(1, None), (2, None), (3, None), (1, 2), (1, 3)])
def test_es_fields_in_chunks_and_bands_equal_the_literal_search(chunk, band, monkeypatch):
    """Full and masked ES fields searched a few MBs, or a few candidate rows
    of one MB, at a time equal the literal per-MB search, edge MBs included."""
    rng = np.random.default_rng(10 * chunk + (band or 0))
    for L, d, levels in [(4, 5, 2), (8, 9, 256), (16, 7, 2), (16, 7, 256)]:
        n = 2 * d + 1
        rows = band or n
        monkeypatch.setattr(motion, "_ES_BAND_BYTES", chunk * 2 * n * L * (rows * (L + 1) + 2 * L))
        assert motion._es_plan(L, d) == (chunk, rows, n)
        height, width = 3 * L + L // 2, 4 * L + 1
        prev, cur = (rng.integers(0, levels, size=(height, width), dtype=np.uint8) for _ in range(2))
        pad = ((0, -height % L), (0, -width % L))
        ref_vectors, ref_sads = naive_field(np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge"), L, d)
        cells = rng.random(ref_sads.shape) < 0.5
        full = estimate_motion_field(prev, cur, MotionParams(L, d))
        masked = estimate_motion_field(prev, cur, MotionParams(L, d), cells=cells)
        assert np.array_equal(full.vectors, ref_vectors) and np.array_equal(full.sads, ref_sads)
        assert np.array_equal(masked.vectors[cells], ref_vectors[cells])
        assert np.array_equal(masked.sads[cells], ref_sads[cells])


@pytest.mark.parametrize("width", [1, 2, 4])
def test_es_fields_in_column_bands_equal_the_literal_search(width, monkeypatch):
    """A candidate row summed a few candidate columns at a time, the last
    band narrower where the row does not divide, equals the literal search."""
    rng = np.random.default_rng(width)
    for L, d, levels in [(4, 5, 2), (8, 9, 256)]:
        monkeypatch.setattr(motion, "_ES_BAND_BYTES", width * 2 * L * (3 * L + 1))
        assert motion._es_plan(L, d) == (1, 1, width)
        height, width_px = 3 * L + L // 2, 4 * L + 1
        prev, cur = (rng.integers(0, levels, size=(height, width_px), dtype=np.uint8) for _ in range(2))
        pad = ((0, -height % L), (0, -width_px % L))
        ref_vectors, ref_sads = naive_field(np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge"), L, d)
        field = estimate_motion_field(prev, cur, MotionParams(L, d))
        assert np.array_equal(field.vectors, ref_vectors) and np.array_equal(field.sads, ref_sads)


def test_es_search_memory_is_bounded_for_a_large_macroblock():
    """One 512-pixel MB: a single candidate row of its window would hold
    15 x 512 x 512 int16 differences (7.5 MB), so the row goes in bands of
    candidate columns. A crowd-sized MB still searches whole rows."""
    assert motion._es_plan(16, 7)[2] == 15
    rng = np.random.default_rng(0)
    prev, cur = (rng.integers(0, 256, size=(64, 96), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        field = estimate_motion_field(prev, cur, MotionParams(512, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert motion._es_plan(512, 7)[2] < 15 and peak < 2 * motion._ES_BAND_BYTES
    # The one MB is the whole padded frame, so only (0, 0) keeps its block in prev.
    prev_pad, cur_pad = (np.pad(f, ((0, 448), (0, 416)), mode="edge").astype(np.int64) for f in (prev, cur))
    assert field.vectors.tolist() == [[[0, 0]]] and field.sads.tolist() == [[np.abs(cur_pad - prev_pad).sum()]]


def test_es_field_memory_is_bounded():
    """A full 640 x 480 ES field holds at most twice the kernel's byte budget
    beyond the previous frame padded by d as int16."""
    rng = np.random.default_rng(0)
    prev, cur = (rng.integers(0, 256, size=(480, 640), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        estimate_motion_field(prev, cur, MotionParams(16, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * motion._ES_BAND_BYTES + (480 + 14) * (640 + 14) * 2


@pytest.mark.parametrize("L, d", [(4, 5), (16, 7), (32, 5), (64, 2)])
def test_block_searches_sum_each_accumulator_width_exactly(L, d):
    """SADs summed in uint16 (L <= 16) and uint32 (L >= 32) equal the literal
    int64 searches on 0/255 frames, whose SADs reach 255 * L^2."""
    rng = np.random.default_rng(L)
    noise = [rng.integers(0, 2, size=(3 * L, 3 * L), dtype=np.uint8) * 255 for _ in range(2)]
    flat = [np.zeros((3 * L, 3 * L), dtype=np.uint8), np.full((3 * L, 3 * L), 255, dtype=np.uint8)]
    for prev, cur in [noise, flat]:
        for origin in [(0, 0), (L, L), (2 * L, L)]:
            params = MotionParams(L, d)
            (u, v), s = naive_block_search(prev, cur, origin, L, d)
            assert exhaustive_search(prev, cur, origin, params) == (MotionVector(u, v), s)
            (u, v), s = naive_three_step_search(prev, cur, origin, L, d)
            assert tss_at(prev, cur, origin, params) == (MotionVector(u, v), s)
    assert exhaustive_search(*flat, (L, L), MotionParams(L, d))[1] == 255 * L * L


def test_tss_recovers_shift():
    prev, cur = shifted_pair(8, 64, 64, (3, -2))
    mv, s = tss_at(prev, cur, (16, 16))
    assert (mv.u, mv.v) == (3, -2) and s == 0


def test_tss_identity():
    f = random_frame(4)
    mv, s = tss_at(f, f, (32, 16))
    assert (mv.u, mv.v) == (0, 0) and s == 0


def test_tss_never_beats_es():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        for origin in [(0, 0), (16, 16), (48, 32)]:
            _, s_es = exhaustive_search(prev, cur, origin, MotionParams())
            _, s_tss = tss_at(prev, cur, origin)
            assert s_tss >= s_es


def test_field_identical_frames():
    f = Frame(random_frame(5))
    field = estimate_motion_field(f, f)
    assert np.all(field.vectors == 0)
    assert np.all(field.sads == 0)
    assert np.all(field.confidences == 1.0)


def test_field_matches_per_mb_search_random():
    """The vectorized field equals the naive per-MB reference, MV and SAD."""
    params = MotionParams()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cur = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        field = estimate_motion_field(Frame(prev), Frame(cur), params)
        ref_vectors, ref_sads = naive_field(prev, cur, 16, 7)
        assert np.array_equal(field.vectors, ref_vectors)
        assert np.array_equal(field.sads, ref_sads)


def test_field_global_translation_interior_exact():
    for seed, shift in [(0, (7, 7)), (1, (-5, 3)), (2, (1, -7)), (3, (-7, -7))]:
        prev, cur = shifted_pair(seed + 100, 96, 96, shift)
        field = estimate_motion_field(Frame(prev), Frame(cur))
        u, v = shift
        L = 16
        for r in range(field.rows):
            for c in range(field.cols):
                sx, sy = c * L - u, r * L - v
                if 0 <= sx <= 96 - L and 0 <= sy <= 96 - L:
                    assert field.vector_at(r, c) == MotionVector(u, v)
                    assert field.sads[r, c] == 0


def test_field_pads_partial_edge_mbs():
    """Non-multiple dims: field equals per-MB search on edge-padded frames."""
    rng = np.random.default_rng(12)
    prev = rng.integers(0, 256, size=(40, 52), dtype=np.uint8)
    cur = rng.integers(0, 256, size=(40, 52), dtype=np.uint8)
    field = estimate_motion_field(Frame(prev), Frame(cur))
    assert (field.rows, field.cols) == (3, 4)
    pp = np.pad(prev, ((0, 8), (0, 12)), mode="edge")
    cp = np.pad(cur, ((0, 8), (0, 12)), mode="edge")
    ref_vectors, ref_sads = naive_field(pp, cp, 16, 7)
    assert np.array_equal(field.vectors, ref_vectors)
    assert np.array_equal(field.sads, ref_sads)


def test_field_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        estimate_motion_field(Frame(random_frame(0, 32, 32)), Frame(random_frame(0, 32, 48)))


@pytest.mark.parametrize(
    "pixels",
    [np.full((32, 32), 70000, np.int64), np.full((32, 32), 0.5), np.zeros((32, 32, 3), np.uint8)],
    ids=["int64", "float64", "3-D"],
)
@pytest.mark.parametrize(
    "search",
    [
        lambda prev, cur: estimate_motion_field(prev, cur, MotionParams(16, 3, "es")),
        lambda prev, cur: estimate_motion_field(prev, cur, MotionParams(16, 3, "tss")),
        lambda prev, cur: exhaustive_search(prev, cur, (0, 0), MotionParams(16, 3)),
    ],
    ids=["es field", "tss field", "one MB"],
)
def test_searches_reject_pixels_that_are_not_a_frame(pixels, search):
    # Searched as given, int64 70000 against 0 would give a wrapped SAD of
    # 28672 per MB, and a float pair 0.5 apart SAD 0.
    with pytest.raises(FrameFormatError):
        search(np.zeros((32, 32), np.uint8), pixels)


def test_field_tss_matches_per_mb_tss():
    params = MotionParams(algorithm="tss")
    prev, cur = shifted_pair(33, 64, 64, (4, 2))
    field = estimate_motion_field(Frame(prev), Frame(cur), params)
    for r in range(field.rows):
        for c in range(field.cols):
            (u, v), s = naive_three_step_search(prev, cur, (c * 16, r * 16), 16, 7)
            assert field.vector_at(r, c) == MotionVector(u, v) and field.sads[r, c] == s


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_tss_fields_in_chunks_equal_the_literal_ring_walk(chunk, monkeypatch):
    """Full and masked TSS fields searched a few MBs at a time equal the
    literal per-MB ring walk, edge MBs included; an empty mask searches none."""
    rng = np.random.default_rng(chunk)
    for L, d, levels in [(4, 5, 2), (8, 9, 256), (16, 7, 2), (16, 7, 256)]:
        monkeypatch.setattr(motion, "_ES_BAND_BYTES", chunk * (9 * (3 * L * L + 80) + 3 * L * L))
        assert motion._tss_plan(L) == (chunk, 9)
        height, width = 3 * L + L // 2, 4 * L + 1
        prev, cur = (rng.integers(0, levels, size=(height, width), dtype=np.uint8) for _ in range(2))
        pad = ((0, -height % L), (0, -width % L))
        prev_pad, cur_pad = np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge")
        params = MotionParams(L, d, "tss")
        full = estimate_motion_field(prev, cur, params)
        cells = rng.random(full.sads.shape) < 0.5
        masked = estimate_motion_field(prev, cur, params, cells=cells)
        for r in range(full.rows):
            for c in range(full.cols):
                (u, v), s = naive_three_step_search(prev_pad, cur_pad, (c * L, r * L), L, d)
                assert (full.vector_at(r, c), full.sads[r, c]) == (MotionVector(u, v), s)
                if cells[r, c]:
                    assert (masked.vector_at(r, c), masked.sads[r, c]) == (MotionVector(u, v), s)
    f = np.zeros((1080, 1920), np.uint8)
    empty = estimate_motion_field(f, f, MotionParams(4, 7, "tss"), cells=np.zeros((270, 480), dtype=bool))
    assert not empty.vectors.any() and np.all(empty.sads == 255 * 4 * 4)


@pytest.mark.parametrize("band", [1, 2, 4])
def test_tss_fields_in_ring_bands_equal_the_literal_ring_walk(band, monkeypatch):
    """A ring scored a few candidates at a time, the last band narrower
    where 9 does not divide, equals the literal per-MB ring walk."""
    rng = np.random.default_rng(band)
    for L, d, levels in [(4, 5, 2), (8, 9, 256), (16, 7, 256)]:
        monkeypatch.setattr(motion, "_ES_BAND_BYTES", band * (3 * L * L + 80) + 3 * L * L)
        assert motion._tss_plan(L) == (1, band)
        height, width = 3 * L + L // 2, 4 * L + 1
        prev, cur = (rng.integers(0, levels, size=(height, width), dtype=np.uint8) for _ in range(2))
        pad = ((0, -height % L), (0, -width % L))
        prev_pad, cur_pad = np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge")
        field = estimate_motion_field(prev, cur, MotionParams(L, d, "tss"))
        for r in range(field.rows):
            for c in range(field.cols):
                (u, v), s = naive_three_step_search(prev_pad, cur_pad, (c * L, r * L), L, d)
                assert (field.vector_at(r, c), field.sads[r, c]) == (MotionVector(u, v), s)


def test_tss_search_memory_is_bounded_for_a_large_macroblock():
    """One 512-pixel MB: its whole ring would hold 9 gathered blocks and
    their int16 differences (6.75 MB), so the ring goes in bands. A
    crowd-sized MB still scores its whole ring at once."""
    assert motion._tss_plan(16)[1] == motion._tss_plan(256)[1] == 9
    rng = np.random.default_rng(0)
    prev, cur = (rng.integers(0, 256, size=(64, 96), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        field = estimate_motion_field(prev, cur, MotionParams(512, 7, "tss"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert motion._tss_plan(512)[1] < 9 and peak < 2 * motion._ES_BAND_BYTES
    # The one MB is the whole padded frame, so only (0, 0) keeps its block in prev.
    prev_pad, cur_pad = (np.pad(f, ((0, 448), (0, 416)), mode="edge").astype(np.int64) for f in (prev, cur))
    assert field.vectors.tolist() == [[[0, 0]]] and field.sads.tolist() == [[np.abs(cur_pad - prev_pad).sum()]]


def test_cells_mask_must_have_the_shape_of_the_mb_grid():
    f = np.zeros((32, 48), np.uint8)
    with pytest.raises(ValueError, match=r"cells has shape \(3, 2\), expected the \(2, 3\) MB grid"):
        estimate_motion_field(f, f, MotionParams(16, 7), cells=np.ones((3, 2), dtype=bool))


def test_tss_field_memory_is_bounded():
    """A full 1920 x 1080 TSS field holds at most twice the kernel's byte
    budget beyond the two frames padded to the 16-grid."""
    rng = np.random.default_rng(0)
    prev, cur = (rng.integers(0, 256, size=(1080, 1920), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        estimate_motion_field(prev, cur, MotionParams(16, 7, "tss"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * motion._ES_BAND_BYTES + 2 * 1088 * 1920


@st.composite
def masked_pairs(draw):
    """(prev, cur, L, d, cells): a random frame pair of any size, few or many
    grey levels (few make SAD ties common), and a random MB mask."""
    L = draw(st.sampled_from([4, 8, 16]))
    d = draw(st.integers(1, 12))
    width, height = draw(st.integers(1, 5 * L)), draw(st.integers(1, 5 * L))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 256]))
    prev, cur = (rng.integers(0, levels, size=(height, width), dtype=np.uint8) for _ in range(2))
    rows, cols = -(-height // L), -(-width // L)
    cells = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)), dtype=bool)
    return prev, cur, L, d, cells.reshape(rows, cols)


@settings(max_examples=40, deadline=None)
@given(masked_pairs())
def test_masked_field_equals_full_field_on_masked_mbs(case):
    prev, cur, L, d, cells = case
    height, width = cur.shape
    pad = ((0, -height % L), (0, -width % L))
    ref_vectors, ref_sads = naive_field(np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge"), L, d)
    for algorithm in ("es", "tss"):
        params = MotionParams(L, d, algorithm)
        full = estimate_motion_field(prev, cur, params)
        masked = estimate_motion_field(prev, cur, params, cells=cells)
        assert (masked.width, masked.height, masked.vectors.shape) == (full.width, full.height, full.vectors.shape)
        assert np.array_equal(masked.vectors[cells], full.vectors[cells])
        assert np.array_equal(masked.sads[cells], full.sads[cells])
        # Unsearched MBs read as zero motion at zero confidence.
        assert not masked.vectors[~cells].any()
        assert np.all(masked.confidences[~cells] == 0.0)
        if algorithm == "es":
            assert np.array_equal(masked.vectors[cells], ref_vectors[cells])
            assert np.array_equal(masked.sads[cells], ref_sads[cells])
    with pytest.raises(DimensionMismatchError):
        estimate_motion_field(prev, np.zeros((height, width + 1), np.uint8), params, cells=np.zeros_like(cells))


@PROPERTY
@given(masked_pairs())
def test_three_step_search_equals_the_literal_ring_walk(case):
    prev, cur, L, d, cells = case
    height, width = cur.shape
    pad = ((0, -height % L), (0, -width % L))
    prev_pad, cur_pad = np.pad(prev, pad, mode="edge"), np.pad(cur, pad, mode="edge")
    params = MotionParams(L, d, "tss")
    full = estimate_motion_field(prev, cur, params)
    masked = estimate_motion_field(prev, cur, params, cells=cells)
    for r in range(full.rows):
        for c in range(full.cols):
            (u, v), s = naive_three_step_search(prev_pad, cur_pad, (c * L, r * L), L, d)
            assert (full.vector_at(r, c), full.sads[r, c]) == (MotionVector(u, v), s)
            if cells[r, c]:
                assert (masked.vector_at(r, c), masked.sads[r, c]) == (MotionVector(u, v), s)


@pytest.mark.parametrize(
    "d, digest",
    [
        (7, "197bb442d16d702687ca08b4cf64de54b506d6d09dc5f927981aeb44741f7595"),
        (9, "6e3f57ee043e311d0a1db021b0cca2b7ae97321108eb6a38568ec46869fd35ca"),
    ],
)
def test_tss_field_golden(d, digest):
    """TSS vectors and SADs on a noisy, shifted pair with partial edge MBs."""
    prev, cur = shifted_pair(41, 72, 100, (5, -3))
    noise = np.random.default_rng(42).integers(-6, 7, size=cur.shape)
    cur = np.clip(cur.astype(np.int16) + noise, 0, 255).astype(np.uint8)
    field = estimate_motion_field(Frame(prev), Frame(cur), MotionParams(16, d, "tss"))
    h = hashlib.sha256(field.vectors.astype("<i2").tobytes() + field.sads.astype("<i8").tobytes())
    assert h.hexdigest() == digest


def test_1080p_grid_dims():
    field = uniform_field(1920, 1080)
    assert (field.cols, field.rows) == (120, 68)
    assert field.cols * field.rows == 8160  # not the rounded 8,100


def test_params_validation():
    with pytest.raises(ValueError):
        MotionParams(mb_size=12)
    with pytest.raises(ValueError):
        MotionParams(mb_size=2)
    with pytest.raises(ValueError):
        MotionParams(search_range=0)
    with pytest.raises(ValueError):
        MotionParams(algorithm="full")


# ---------------------------------------------------------------------------
# Metadata codec


def random_field(rng, d=7, algorithm="es"):
    L = int(rng.choice([4, 8, 16, 32]))
    width = int(rng.integers(1, 12)) * L + int(rng.integers(0, L))
    height = int(rng.integers(1, 12)) * L + int(rng.integers(0, L))
    params = MotionParams(L, d, algorithm)
    rows = -(-height // L)
    cols = -(-width // L)
    vectors = rng.integers(-d, d + 1, size=(rows, cols, 2)).astype(np.int16)
    sads = rng.integers(0, 255 * L * L + 1, size=(rows, cols)).astype(np.int64)
    return MotionField(width, height, params, vectors, sads)


def test_codec_nibble_byte_definition():
    field = uniform_field(16, 16, mv=(3, -2), sad=5)
    data = encode_metadata(field)
    assert data[:4] == b"EUMV"
    assert data[14] == 0x3E  # u=3 high nibble, v=-2 -> 0xE low nibble
    assert data[15:19] == (5).to_bytes(4, "little")


def test_codec_wide_form_byte_definition():
    field = uniform_field(32, 32, mv=(-9, 12), sad=70000, params=MotionParams(32, 12))
    data = encode_metadata(field)
    assert len(data) == 14 + 6
    assert data[12:14] == (12).to_bytes(2, "little")  # header d selects the wide form
    assert data[14] == 0xF7  # u=-9 as a two's-complement byte
    assert data[15] == 0x0C  # v=12
    assert data[16:20] == (70000).to_bytes(4, "little")


def test_codec_round_trip_random_fields():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        field = random_field(rng)
        assert decode_metadata(encode_metadata(field)) == field


def test_codec_wide_form_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        field = random_field(rng, d=15)
        data = encode_metadata(field)
        assert len(data) == 14 + 6 * field.rows * field.cols
        assert decode_metadata(data) == field


def test_codec_estimated_field_round_trip():
    prev, cur = shifted_pair(3, 64, 48, (2, 2))
    field = estimate_motion_field(Frame(prev), Frame(cur))
    assert decode_metadata(encode_metadata(field)) == field


def test_codec_size_formula():
    field = uniform_field(1920, 1080)
    data = encode_metadata(field)
    n_mbs = field.rows * field.cols
    assert n_mbs == 8160
    assert len(data) == encoded_size(1920, 1080, field.params) == 14 + 5 * n_mbs
    # MV payload alone: one byte per MB, about 8 KB per 1080p frame
    assert n_mbs == 8160 and abs(n_mbs - 8 * 1024) < 200


def test_codec_bad_magic():
    data = encode_metadata(uniform_field(32, 32))
    with pytest.raises(MetadataError, match="magic"):
        decode_metadata(b"XUMV" + data[4:])


def test_codec_bad_version():
    data = bytearray(encode_metadata(uniform_field(32, 32)))
    data[4] = 9
    with pytest.raises(MetadataError, match="version"):
        decode_metadata(bytes(data))


@pytest.mark.parametrize("offset", [6, 8])  # header width, height
def test_codec_rejects_empty_frame(offset):
    data = bytearray(encode_metadata(uniform_field(32, 32)))
    data[offset : offset + 2] = b"\x00\x00"
    with pytest.raises(MetadataError, match="empty frame"):
        decode_metadata(bytes(data))


def with_header(field: MotionField, L: int, d: int) -> bytes:
    """The encoding of `field` with header L and d set to `L` and `d`."""
    data = bytearray(encode_metadata(field))
    data[10:12], data[12:14] = L.to_bytes(2, "little"), d.to_bytes(2, "little")
    return bytes(data)


def test_codec_rejects_a_search_range_the_wide_form_cannot_hold():
    with pytest.raises(ValueError, match="^search_range must be at most 127, got 200$"):
        MotionParams(search_range=200)
    widest = uniform_field(32, 32, mv=(127, -127), params=MotionParams(search_range=127))
    assert decode_metadata(encode_metadata(widest)) == widest
    field = uniform_field(32, 32, params=MotionParams(search_range=8))
    for d in (128, 200):  # the header's d; d = 8 and d > 127 share the wide record
        with pytest.raises(MetadataError, match=f"^invalid header parameters: search_range must be at most 127, got {d}"):
            decode_metadata(with_header(field, 16, d))


def test_codec_rejects_an_unknown_algorithm_code():
    data = bytearray(encode_metadata(uniform_field(32, 32)))
    data[5] = 2  # header algorithm: 0 is es, 1 is tss
    with pytest.raises(MetadataError, match="^invalid header parameters: algorithm must be 'es' or 'tss', got 2$"):
        decode_metadata(bytes(data))


def test_codec_rejects_a_macroblock_size_the_header_cannot_hold():
    with pytest.raises(ValueError, match="^mb_size must be at most 4096, got 65536$"):
        MotionParams(65536)
    field = uniform_field(10, 10, params=MotionParams(4096))  # one MB for any L above 10
    with pytest.raises(MetadataError, match="^invalid header parameters: mb_size must be at most 4096, got 32768$"):
        decode_metadata(with_header(field, 32768, 7))


def test_codec_rejects_a_macroblock_size_whose_sad_the_record_cannot_hold():
    largest = uniform_field(10, 10, sad=255 * 4096 * 4096, params=MotionParams(4096))
    assert decode_metadata(encode_metadata(largest)).sads.tolist() == [[255 * 4096 * 4096]]
    with pytest.raises(ValueError, match="^mb_size must be at most 4096, got 8192$"):
        MotionParams(8192)
    with pytest.raises(MetadataError, match="^invalid header parameters: mb_size must be at most 4096, got 8192$"):
        decode_metadata(with_header(largest, 8192, 7))


def test_codec_truncated_and_oversized():
    data = encode_metadata(uniform_field(32, 32))
    with pytest.raises(MetadataError, match="truncated"):
        decode_metadata(data[:-1])
    with pytest.raises(MetadataError, match="oversized"):
        decode_metadata(data + b"\x00")
    with pytest.raises(MetadataError, match="header"):
        decode_metadata(data[:6])


def test_codec_rejects_overflowing_vectors():
    field = uniform_field(32, 32, mv=(3, -2))
    field.vectors[0, 0] = (9, 0)  # outside +-7
    with pytest.raises(MetadataError, match="overflow"):
        encode_metadata(field)
