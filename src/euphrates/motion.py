"""Block-matching motion estimation and the motion-metadata codec.

A frame is divided into L x L macroblocks (MBs). For each MB of the current
frame the estimator finds the offset (u, v) within a (2d+1)^2 search window
that minimizes the sum of absolute differences (SAD) against the previous
frame. The motion vector follows the extrapolation convention: (u, v) is the
content displacement from the previous frame to the current one, i.e. the MB
at (x, y) matches the previous-frame block at (x - u, y - v).

Two search strategies are provided: exhaustive search (ES) over the whole
window and the classic three-step search (TSS), which walks a logarithmically
shrinking candidate ring. Per-MB confidence is 1 - SAD / (255 * L^2). Both
per-MB searches read one candidate window (`_window`) and rank equal SADs by
one order, the one `_canonical_offsets` sorts the offsets into.

SADs are exact integers. A per-MB search sums its |a - b| values (0..255,
held as int16 and read as uint16) in the narrowest unsigned type that holds
255 * L^2 (`_block_sads`): uint16 for L <= 16, uint32 up to L = 4096 and
uint64 beyond. No partial sum exceeds the total, so none wraps. The SADs are
then widened to int64 before any other arithmetic, since the tie-break key
SAD * (2d+1)^2 + rank would wrap in the narrow type.

A full exhaustive-search field is computed one offset at a time across the
whole frame, visiting the offsets in that order. A field restricted to the
MBs a caller reads (`cells`) runs the per-MB search on those MBs alone;
tie-breaking is position-free, so every searched MB gets the vector and SAD
the full field gives it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ConfigNode
from .errors import DimensionMismatchError, MetadataError
from .pixels import Frame

ES = "es"
TSS = "tss"

METADATA_MAGIC = b"EUMV"
METADATA_VERSION = 1
_HEADER = struct.Struct("<4sBBHHHH")  # magic, version, algorithm, width, height, L, d
MAX_FRAME_SIDE = 65535  # the header's u16 width, height and L
_ALGO_CODES = {ES: 0, TSS: 1}
_ALGO_NAMES = {v: k for k, v in _ALGO_CODES.items()}


@dataclass(frozen=True)
class MotionParams(ConfigNode):
    """Macroblock edge L (power of two, >= 4), search range d >= 1, algorithm."""

    mb_size: int = 16
    search_range: int = 7
    algorithm: str = ES

    def __post_init__(self):
        L = self.mb_size
        if L < 4 or (L & (L - 1)) != 0:
            raise ValueError(f"mb_size must be a power of two >= 4, got {L}")
        if self.search_range < 1:
            raise ValueError(f"search_range must be >= 1, got {self.search_range}")
        if self.algorithm not in (ES, TSS):
            raise ValueError(f"algorithm must be 'es' or 'tss', got {self.algorithm!r}")

    @property
    def max_sad(self) -> int:
        return 255 * self.mb_size * self.mb_size


@dataclass(frozen=True)
class MotionVector:
    u: int
    v: int


@dataclass(eq=False)
class MotionField:
    """Per-macroblock motion vectors and SADs for one frame pair.

    `vectors` has shape (rows, cols, 2) holding (u, v); `sads` has shape
    (rows, cols). The grid covers the frame after padding to the L-grid:
    rows = ceil(height / L), cols = ceil(width / L).
    """

    width: int
    height: int
    params: MotionParams
    vectors: np.ndarray
    sads: np.ndarray

    @property
    def rows(self) -> int:
        return self.sads.shape[0]

    @property
    def cols(self) -> int:
        return self.sads.shape[1]

    @property
    def confidences(self) -> np.ndarray:
        """Per-MB confidence: 1 - SAD / (255 * L^2), in [0, 1]."""
        return 1.0 - self.sads / float(self.params.max_sad)

    def vector_at(self, row: int, col: int) -> MotionVector:
        u, v = self.vectors[row, col]
        return MotionVector(int(u), int(v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MotionField):
            return NotImplemented
        return (
            (self.width, self.height, self.params) == (other.width, other.height, other.params)
            and bool(np.array_equal(self.vectors, other.vectors))
            and bool(np.array_equal(self.sads, other.sads))
        )


def grid_shape(width: int, height: int, L: int) -> tuple[int, int]:
    """(rows, cols) of the L-grid covering a width x height frame."""
    return -(-height // L), -(-width // L)


def uniform_field(
    width: int, height: int, mv: tuple[int, int] = (0, 0), sad: int = 0, params: MotionParams | None = None
) -> MotionField:
    """Constant motion field; handy for tests and schedule-only simulations."""
    params = params or MotionParams()
    rows, cols = grid_shape(width, height, params.mb_size)
    vectors = np.empty((rows, cols, 2), dtype=np.int16)
    vectors[..., 0] = mv[0]
    vectors[..., 1] = mv[1]
    sads = np.full((rows, cols), sad, dtype=np.int64)
    return MotionField(width, height, params, vectors, sads)


# ---------------------------------------------------------------------------
# Searches


@lru_cache(maxsize=32)
def _canonical_offsets(d: int) -> tuple[tuple[int, int], ...]:
    """Every offset in [-d, d]^2, best first among equal SADs: the shortest
    |u|+|v| (stabilizes static scenes), then the smallest v, then u."""
    offsets = [(u, v) for v in range(-d, d + 1) for u in range(-d, d + 1)]
    offsets.sort(key=lambda o: (abs(o[0]) + abs(o[1]), o[1], o[0]))
    return tuple(offsets)


def _pixels(frame: Frame | np.ndarray) -> np.ndarray:
    return frame.pixels if isinstance(frame, Frame) else np.asarray(frame)


@lru_cache(maxsize=32)
def _source_ranks(d: int) -> np.ndarray:
    """Rank of each candidate in `_canonical_offsets(d)`, indexed by where its
    source block sits in the search window: [d - v, d - u]."""
    ranks = np.empty((2 * d + 1, 2 * d + 1), dtype=np.int64)
    for rank, (u, v) in enumerate(_canonical_offsets(d)):
        ranks[d - v, d - u] = rank
    ranks.flags.writeable = False
    return ranks


def _window(
    prev: Frame | np.ndarray, cur: Frame | np.ndarray, mb_origin: tuple[int, int], params: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """(blocks, ranks, block, ox, oy) of the MB of `cur` at `mb_origin`: for
    every candidate (u, v) = (ox - j, oy - i) in [-d, d]^2 whose source block
    lies inside `prev` (the zero offset always does), `blocks[i, j]` is that
    block and `ranks[i, j]` its `_source_ranks` rank; `block` is the MB as int16."""
    prev_px, cur_px = _pixels(prev), _pixels(cur)
    L, d = params.mb_size, params.search_range
    x, y = mb_origin
    h, w = cur_px.shape
    if x % L or y % L or not (0 <= x <= w - L and 0 <= y <= h - L):
        raise ValueError(f"mb_origin {mb_origin} is not on the {L}-grid of a {w}x{h} frame")
    h, w = prev_px.shape
    y0, y1 = max(0, y - d), min(h - L, y + d)
    x0, x1 = max(0, x - d), min(w - L, x + d)
    src = prev_px[y0 : y1 + L, x0 : x1 + L]
    sy, sx = src.strides
    blocks = as_strided(src, (y1 - y0 + 1, x1 - x0 + 1, L, L), (sy, sx, sy, sx), writeable=False)
    ranks = _source_ranks(d)[y0 - y + d : y1 - y + d + 1, x0 - x + d : x1 - x + d + 1]
    return blocks, ranks, cur_px[y : y + L, x : x + L].astype(np.int16), x - x0, y - y0


def _block_sads(diffs: np.ndarray, max_sad: int) -> np.ndarray:
    """int64 SAD of each trailing L x L block of the C-contiguous int16
    |a - b| array `diffs`, summed by the rule in the module docstring."""
    flat = diffs.view(np.uint16).reshape(*diffs.shape[:-2], -1)
    return flat.sum(axis=-1, dtype=np.min_scalar_type(max_sad)).astype(np.int64)


# Most bytes of int16 differences `exhaustive_search` holds at once: a larger
# candidate window is summed a band of rows at a time (at least one row).
_ES_BAND_BYTES = 16 << 20


def exhaustive_search(
    prev: Frame | np.ndarray, cur: Frame | np.ndarray, mb_origin: tuple[int, int], params: MotionParams
) -> tuple[MotionVector, int]:
    """Best (u, v) in [-d, d]^2 by SAD for the MB of `cur` at `mb_origin`.

    Candidate blocks that fall outside `prev` are skipped. Ties break toward
    the smallest |u|+|v|, then smallest v, then smallest u.
    """
    blocks, ranks, block, ox, oy = _window(prev, cur, mb_origin, params)
    rows, cols = ranks.shape
    band = min(rows, max(1, _ES_BAND_BYTES // (cols * block.nbytes)))
    buf = np.empty((band, cols, *block.shape), dtype=np.int16)  # contiguous: reshape is a view
    sads = np.empty((rows, cols), dtype=np.int64)
    for r in range(0, rows, band):
        diff = buf[: rows - r]
        np.subtract(blocks[r : r + band], block, out=diff)
        np.abs(diff, out=diff)
        sads[r : r + band] = _block_sads(diff, params.max_sad)
    i, j = divmod(int(np.argmin(sads * (2 * params.search_range + 1) ** 2 + ranks)), cols)
    return MotionVector(ox - j, oy - i), int(sads[i, j])


# Window-index steps (di, dj) of the 3x3 ring, its centre included.
_RING_I = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])
_RING_J = np.array([-1, 0, 1] * 3)


def three_step_search(
    prev: Frame | np.ndarray, cur: Frame | np.ndarray, mb_origin: tuple[int, int], params: MotionParams
) -> tuple[MotionVector, int]:
    """Three-step search: 9 candidates per round around the running center,
    recenter on the minimum, halve the step until it reaches 1.

    The step schedule is {4, 2, 1} for d = 7 and starts at
    2^(ceil(log2(d+1)) - 1) in general. Candidates outside [-d, d]^2 or
    outside `prev` are skipped; ties break as in exhaustive search.
    """
    blocks, ranks, block, ox, oy = _window(prev, cur, mb_origin, params)
    d = params.search_range
    rows, cols = ranks.shape
    i, j = oy, ox
    step = 1 << (int(d).bit_length() - 1)  # 2^(ceil(log2(d+1)) - 1)
    while step >= 1:
        ii, jj = i + step * _RING_I, j + step * _RING_J
        inside = (ii >= 0) & (ii < rows) & (jj >= 0) & (jj < cols)
        ii, jj = ii[inside], jj[inside]
        sads = _block_sads(np.abs(blocks[ii, jj] - block), params.max_sad)
        k = int(np.argmin(sads * (2 * d + 1) ** 2 + ranks[ii, jj]))
        i, j, sad = int(ii[k]), int(jj[k]), int(sads[k])
        step //= 2
    return MotionVector(ox - j, oy - i), sad


def _pad_to_grid(px: np.ndarray, L: int) -> np.ndarray:
    h, w = px.shape
    ph = (-h) % L
    pw = (-w) % L
    if ph == 0 and pw == 0:
        return px
    return np.pad(px, ((0, ph), (0, pw)), mode="edge")


def _es_field(prev: np.ndarray, cur: np.ndarray, L: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exhaustive search over the whole padded frame pair.

    Offsets are visited in tie-break order, so a strict `<` update yields the
    same winners as per-MB comparisons with the full tie-break key.
    """
    hp, wp = cur.shape
    rows, cols = hp // L, wp // L
    curi = cur.astype(np.int16)
    previ = prev.astype(np.int16)

    best_sad = np.full((rows, cols), np.iinfo(np.int64).max, dtype=np.int64)
    best_u = np.zeros((rows, cols), dtype=np.int16)
    best_v = np.zeros((rows, cols), dtype=np.int16)

    for u, v in _canonical_offsets(d):
        # MB (r, c) is valid iff its source block [cL-u, rL-v] lies in-frame.
        r0 = max(0, -((-v) // L))
        r1 = min(rows - 1, (hp - L + v) // L)
        c0 = max(0, -((-u) // L))
        c1 = min(cols - 1, (wp - L + u) // L)
        if r0 > r1 or c0 > c1:
            continue
        ys, ye = r0 * L, (r1 + 1) * L
        xs, xe = c0 * L, (c1 + 1) * L
        diff = np.abs(curi[ys:ye, xs:xe] - previ[ys - v : ye - v, xs - u : xe - u])
        sads = diff.reshape(r1 - r0 + 1, L, c1 - c0 + 1, L).sum(axis=(1, 3), dtype=np.int64)

        view = best_sad[r0 : r1 + 1, c0 : c1 + 1]
        better = sads < view
        view[better] = sads[better]
        best_u[r0 : r1 + 1, c0 : c1 + 1][better] = u
        best_v[r0 : r1 + 1, c0 : c1 + 1][better] = v

    vectors = np.stack([best_u, best_v], axis=-1)
    return vectors, best_sad


def estimate_motion_field(
    prev: Frame | np.ndarray,
    cur: Frame | np.ndarray,
    params: MotionParams | None = None,
    cells: np.ndarray | None = None,
) -> MotionField:
    """One (motion vector, SAD) per macroblock of `cur` matched against `prev`.

    Frames must share dimensions. Partial edge MBs are padded by edge
    replication to the L-grid before matching; the result is identical to
    running the configured per-MB search on the padded frames.

    `cells`, a boolean (rows, cols) array, restricts the search to the MBs it
    marks. The field still covers the whole grid: every MB outside `cells`
    gets vector (0, 0) and SAD 255 * L^2 (confidence 0), and every MB inside
    gets what the unrestricted search gives it.
    """
    params = params or MotionParams()
    prev_px = _pixels(prev)
    cur_px = _pixels(cur)
    if prev_px.shape != cur_px.shape:
        raise DimensionMismatchError(
            f"frame dimensions differ: prev {prev_px.shape[::-1]} vs cur {cur_px.shape[::-1]}"
        )
    height, width = cur_px.shape
    L = params.mb_size
    rows, cols = grid_shape(width, height, L)
    if cells is not None and np.shape(cells) != (rows, cols):
        raise ValueError(f"cells has shape {np.shape(cells)}, expected the ({rows}, {cols}) MB grid")
    prev_pad = _pad_to_grid(prev_px, L)
    cur_pad = _pad_to_grid(cur_px, L)

    if params.algorithm == ES and cells is None:
        vectors, sads = _es_field(prev_pad, cur_pad, L, params.search_range)
        return MotionField(width, height, params, vectors, sads)

    search = exhaustive_search if params.algorithm == ES else three_step_search
    if cells is None:
        cells = np.ones((rows, cols), dtype=bool)
    vectors = np.zeros((rows, cols, 2), dtype=np.int16)
    sads = np.full((rows, cols), params.max_sad, dtype=np.int64)
    for r, c in np.argwhere(cells).tolist():
        mv, s = search(prev_pad, cur_pad, (c * L, r * L), params)
        vectors[r, c] = (mv.u, mv.v)
        sads[r, c] = s
    return MotionField(width, height, params, vectors, sads)


# ---------------------------------------------------------------------------
# Metadata codec
#
# Little-endian layout:
#   header: magic "EUMV", version u8, algorithm u8, width u16, height u16,
#           L u16, d u16
#   then one packed record per MB in row-major grid order (_record):
#     d <= 7: 1 byte, u in the high nibble and v in the low nibble, both
#             two's-complement 4-bit; then SAD as u32
#     d >  7: u and v as two's-complement 8-bit bytes; then SAD as u32


def _record(d: int) -> np.dtype:
    """Packed per-MB record: the nibble form (field "uv") for d <= 7, else the
    wide form (fields "u", "v")."""
    if d <= 7:
        return np.dtype([("uv", "u1"), ("sad", "<u4")])
    return np.dtype([("u", "i1"), ("v", "i1"), ("sad", "<u4")])


def encoded_size(width: int, height: int, params: MotionParams) -> int:
    """Bytes of one encoded field; MetadataError when the layout cannot hold
    the macroblock size, the search range or the frame size."""
    d = params.search_range
    if params.mb_size > MAX_FRAME_SIDE:
        raise MetadataError(f"macroblock size {params.mb_size} exceeds the header's 16-bit range")
    if params.max_sad > 0xFFFFFFFF:
        raise MetadataError(
            f"macroblock size {params.mb_size} allows a SAD of {params.max_sad}, beyond the record's 32-bit range"
        )
    if d > 127:
        raise MetadataError(f"search range {d} exceeds the wide form's 8-bit range")
    if not (0 < width <= MAX_FRAME_SIDE and 0 < height <= MAX_FRAME_SIDE):
        raise MetadataError(f"empty frame or frame over {MAX_FRAME_SIDE} pixels a side: {width}x{height}")
    rows, cols = grid_shape(width, height, params.mb_size)
    return _HEADER.size + _record(d).itemsize * rows * cols


def encode_metadata(field: MotionField) -> bytes:
    """Serialize a motion field to the compact frame-buffer metadata form."""
    params = field.params
    d = params.search_range
    encoded_size(field.width, field.height, params)
    u = field.vectors[..., 0].astype(np.int64).ravel()
    v = field.vectors[..., 1].astype(np.int64).ravel()
    if np.abs(u).max(initial=0) > d or np.abs(v).max(initial=0) > d:
        raise MetadataError(f"motion vector outside +-{d}; nibble/byte packing would overflow")
    sads = field.sads.astype(np.int64).ravel()
    if sads.min(initial=0) < 0 or sads.max(initial=0) > params.max_sad:
        raise MetadataError(f"sad outside [0, {params.max_sad}]")

    header = _HEADER.pack(
        METADATA_MAGIC,
        METADATA_VERSION,
        _ALGO_CODES[params.algorithm],
        field.width,
        field.height,
        params.mb_size,
        d,
    )
    records = np.empty(u.size, dtype=_record(d))
    if "uv" in records.dtype.names:
        records["uv"] = (u & 0xF) << 4 | (v & 0xF)
    else:
        records["u"], records["v"] = u, v
    records["sad"] = sads
    return header + records.tobytes()


def decode_metadata(data: bytes) -> MotionField:
    """Inverse of `encode_metadata`; validates magic, version, and ranges."""
    if len(data) < _HEADER.size:
        raise MetadataError(f"stream too short for header: {len(data)} bytes")
    magic, version, algo_code, width, height, L, d = _HEADER.unpack_from(data)
    if magic != METADATA_MAGIC:
        raise MetadataError(f"bad magic {magic!r}, expected {METADATA_MAGIC!r}")
    if version != METADATA_VERSION:
        raise MetadataError(f"unsupported version {version}")
    if algo_code not in _ALGO_NAMES:
        raise MetadataError(f"unknown algorithm code {algo_code}")
    try:
        params = MotionParams(mb_size=L, search_range=d, algorithm=_ALGO_NAMES[algo_code])
    except ValueError as e:
        raise MetadataError(f"invalid header parameters: {e}") from None

    expected = encoded_size(width, height, params)
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise MetadataError(f"{kind} stream: expected {expected} bytes, got {len(data)}")

    records = np.frombuffer(data, dtype=_record(d), offset=_HEADER.size)
    if "uv" in records.dtype.names:
        uv = records["uv"].astype(np.int16)
        # (n ^ 8) - 8 sign-extends a 4-bit two's-complement nibble n.
        u, v = ((uv >> 4) ^ 8) - 8, ((uv & 0xF) ^ 8) - 8
    else:
        u, v = records["u"].astype(np.int16), records["v"].astype(np.int16)
    sads = records["sad"].astype(np.int64)
    if np.abs(u).max(initial=0) > d or np.abs(v).max(initial=0) > d:
        raise MetadataError(f"decoded motion vector outside +-{d}")
    if sads.max(initial=0) > params.max_sad:
        raise MetadataError(f"decoded sad exceeds {params.max_sad}")

    rows, cols = grid_shape(width, height, L)
    vectors = np.stack([u.reshape(rows, cols), v.reshape(rows, cols)], axis=-1)
    return MotionField(width, height, params, vectors, sads.reshape(rows, cols))
