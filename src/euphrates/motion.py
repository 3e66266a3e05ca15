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
rank equal SADs by one order (`_source_ranks`).

SADs are exact integers. Both searches sum their |a - b| values (0..255,
held as int16 and read as uint16) in the narrowest unsigned type that holds
255 * L^2: uint16 for L <= 16, else uint32. No partial sum exceeds the
total, so none wraps. The SADs are then widened to
int64 before any other arithmetic, since the tie-break key
SAD * (2d+1)^2 + rank would wrap in the narrow type.

Each search has one kernel for any set of MBs: a full field, a field
restricted to the MBs a caller reads (`cells`), or the one MB of
`exhaustive_search`. Both take the MBs in chunks that fit `_ES_BAND_BYTES`,
and tie-breaking is position-free, so every searched MB gets the vector and
SAD the full field gives it. ES (`_es_cells`) copies each MB's window of the
previous frame into a strip that holds every candidate column's L pixels
side by side, so each difference runs over (2d+1) * L contiguous pixels
rather than L. It takes a large window in bands of candidate rows, and a
row too large for the budget in bands of candidate columns. TSS
(`_tss_cells`) runs the rounds of every MB in the chunk in lockstep,
gathering each round's 9 candidates from one view of the previous frame,
a band of them at a time when a ring is too large for the budget.
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
MAX_FRAME_SIDE = 65535  # the header's u16 width and height
_ALGO_CODES = {ES: 0, TSS: 1}
_ALGO_NAMES = {v: k for k, v in _ALGO_CODES.items()}


@dataclass(frozen=True)
class MotionParams(ConfigNode):
    """Macroblock edge L, search range d and algorithm, as the `.mvm` layout can encode them."""

    mb_size: int = 16
    search_range: int = 7
    algorithm: str = ES

    def __post_init__(self):
        L = self.mb_size
        if L < 4 or (L & (L - 1)) != 0:
            raise ValueError(f"mb_size must be a power of two >= 4, got {L}")
        if L > 4096:  # the largest SAD, 255 * L^2, must fit the record's 32 bits
            raise ValueError(f"mb_size must be at most 4096, got {L}")
        if self.search_range < 1:
            raise ValueError(f"search_range must be >= 1, got {self.search_range}")
        if self.search_range > 127:  # the wide record's signed bytes
            raise ValueError(f"search_range must be at most 127, got {self.search_range}")
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


def _pixels(frame: Frame | np.ndarray) -> np.ndarray:
    return (frame if isinstance(frame, Frame) else Frame(np.asarray(frame))).pixels


@lru_cache(maxsize=32)
def _source_ranks(d: int) -> np.ndarray:
    """Rank of each offset (u, v) in [-d, d]^2 among equal SADs, best first:
    the shortest |u|+|v| (stabilizes static scenes), then the smallest v,
    then u. Indexed by where the candidate's source block sits in the search
    window: [d - v, d - u]."""
    v, u = np.mgrid[d : -d - 1 : -1, d : -d - 1 : -1]
    order = np.lexsort((u.ravel(), v.ravel(), (np.abs(u) + np.abs(v)).ravel()))
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    ranks = ranks.reshape(u.shape)
    ranks.flags.writeable = False
    return ranks


def _frame_pair(prev: Frame | np.ndarray, cur: Frame | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pixels of `prev` and `cur`; DimensionMismatchError unless their
    shapes agree, which also keeps every read of `prev` made from `cur`'s MB
    grid inside `prev`."""
    prev_px, cur_px = _pixels(prev), _pixels(cur)
    if prev_px.shape != cur_px.shape:
        raise DimensionMismatchError(
            f"frame dimensions differ: prev {prev_px.shape[::-1]} vs cur {cur_px.shape[::-1]}"
        )
    return prev_px, cur_px


def _block_sads(diffs: np.ndarray, max_sad: int) -> np.ndarray:
    """int64 SAD of each trailing L x L block of the C-contiguous int16
    |a - b| array `diffs`, summed by the rule in the module docstring."""
    flat = diffs.view(np.uint16).reshape(*diffs.shape[:-2], -1)
    return flat.sum(axis=-1, dtype=np.min_scalar_type(max_sad)).astype(np.int64)


# Most bytes either search kernel holds at once, beyond the frames: MBs are
# searched in chunks that fit, an ES window too large for it in bands of
# candidate rows, a candidate row too large for it in bands of candidate
# columns, and a TSS ring too large for it in bands of ring candidates (at
# least one MB and one candidate). Small, so that a full field costs little
# more memory than its frames.
_ES_BAND_BYTES = 2 << 20
_NEVER = np.iinfo(np.int64).max  # the key of a candidate the search may not pick


def _es_plan(L: int, d: int) -> tuple[int, int, int]:
    """(MBs per chunk, candidate rows per band, candidate columns per band) of
    `_es_cells`. For a band of k candidate rows and q columns one MB holds
    its differences (k * L strip rows), its strip (k + L - 1 rows) and its
    tiled block (L rows): under k * (L + 1) + 2L strip rows of q * L int16
    pixels. Columns are split only when one whole candidate row does not fit."""
    n = 2 * d + 1
    cols = min(n, max(1, _ES_BAND_BYTES // (2 * L * (3 * L + 1))))
    if cols < n:
        return 1, 1, cols
    budget_rows = _ES_BAND_BYTES // (2 * n * L)
    band = min(n, (budget_rows - 2 * L) // (L + 1))
    return max(1, budget_rows // (band * (L + 1) + 2 * L)), band, n


def _es_cells(
    prev: np.ndarray, cur: np.ndarray, rows: np.ndarray, cols: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (u, v, sad) of the exhaustive search of each MB (rows[k], cols[k])
    of `cur`; each MB lies wholly inside `cur`, and `prev` has its shape.

    The window of the MB at (x, y) is prev[y - d : y + L + d, x - d : x + L + d].
    Its strip holds every candidate column's L pixels side by side in each
    window row, strip[i, j * L + l] = window[i, j + l], and the MB is tiled
    the same way, so one |strip - tile| runs over (2d + 1) * L contiguous
    pixels. The SAD of candidate (i, j), the offset (u, v) = (d - j, d - i),
    sums strip rows i to i + L - 1, then the L pixels of column j.
    """
    L, d = params.mb_size, params.search_range
    n = 2 * d + 1
    h, w = cur.shape
    u, v, sad = (np.empty(len(rows), np.int64) for _ in range(3))
    if not len(rows):
        return u, v, sad
    # prev under every window, zero beyond the frame: a candidate reading
    # the zeros gets the key _NEVER.
    r0, c0 = rows.min(), cols.min()
    y0, x0 = r0 * L - d, c0 * L - d
    grid = rows.max() + 1 - r0, cols.max() + 1 - c0
    padded = np.zeros((grid[0] * L + 2 * d, grid[1] * L + 2 * d), np.int16)
    ys, ye = max(y0, 0), min(y0 + padded.shape[0], h)
    xs, xe = max(x0, 0), min(x0 + padded.shape[1], w)
    padded[ys - y0 : ye - y0, xs - x0 : xe - x0] = prev[ys:ye, xs:xe]
    sy, sx = padded.strides
    strips = as_strided(padded, (*grid, L + 2 * d, n, L), (L * sy, L * sx, sy, sx, sx), writeable=False)
    sy, sx = cur.strides
    blocks = as_strided(cur, (h // L, w // L, L, L), (L * sy, L * sx, sy, sx), writeable=False)

    chunk, band, width = _es_plan(L, d)
    acc = np.min_scalar_type(params.max_sad)
    offsets = np.arange(-d, d + 1)
    diffs = np.empty((min(chunk, len(rows)), band, L, width * L), np.int16)
    for s in range(0, len(rows), chunk):
        r, c = rows[s : s + chunk], cols[s : s + chunk]
        m = len(r)
        tile = np.tile(blocks[r, c].astype(np.int16), (1, 1, width))
        sads = np.empty((m, n, n), np.int64)
        for i in range(0, n, band):
            k = min(band, n - i)
            for j in range(0, n, width):
                q = min(width, n - j)
                strip = strips[r - r0, c - c0, i : i + k + L - 1, j : j + q].reshape(m, k + L - 1, q * L)
                # under[., b, a] is strip row b + a: MB row a of candidate row i + b.
                st = strip.strides
                under = as_strided(strip, (m, k, L, q * L), (st[0], st[1], st[1], st[2]), writeable=False)
                diff = diffs[:m, :k, :, : q * L]
                np.subtract(under, tile[:, None, :, : q * L], out=diff)
                np.abs(diff, out=diff)
                col_sads = np.einsum("...aw->...w", diff.view(np.uint16), dtype=acc)
                sads[:, i : i + k, j : j + q] = np.einsum("...jl->...j", col_sads.reshape(m, k, q, L))
                del strip, under  # freed before the next band's strip is gathered
        top = r[:, None] * L + offsets  # each candidate row's source block top
        left = c[:, None] * L + offsets
        inside = ((top >= 0) & (top <= h - L))[:, :, None] & ((left >= 0) & (left <= w - L))[:, None, :]
        keys = np.where(inside, sads * n * n + _source_ranks(d), _NEVER)
        i, j = np.divmod(keys.reshape(m, -1).argmin(axis=1), n)
        u[s : s + m], v[s : s + m], sad[s : s + m] = d - j, d - i, sads[np.arange(m), i, j]
    return u, v, sad


def exhaustive_search(
    prev: Frame | np.ndarray, cur: Frame | np.ndarray, mb_origin: tuple[int, int], params: MotionParams
) -> tuple[MotionVector, int]:
    """Best (u, v) in [-d, d]^2 by SAD for the MB of `cur` at `mb_origin`.

    Candidate blocks that fall outside `prev` are skipped. Ties break toward
    the smallest |u|+|v|, then smallest v, then smallest u.
    """
    prev_px, cur_px = _frame_pair(prev, cur)
    x, y = mb_origin
    L = params.mb_size
    h, w = cur_px.shape
    if x % L or y % L or not (0 <= x <= w - L and 0 <= y <= h - L):
        raise ValueError(f"mb_origin {mb_origin} is not on the {L}-grid of a {w}x{h} frame")
    u, v, sad = _es_cells(prev_px, cur_px, np.array([y // L]), np.array([x // L]), params)
    return MotionVector(int(u[0]), int(v[0])), int(sad[0])


# Offsets (du, dv) of the 3x3 ring from its centre, the centre included.
_RING_U = np.array([-1, 0, 1] * 3)
_RING_V = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])


def _tss_plan(L: int) -> tuple[int, int]:
    """(MBs per chunk, ring candidates per band) of `_tss_cells`. One MB holds
    its block, gathered as uint8 and widened to int16, and for each candidate
    of a band the gathered uint8 block, its int16 differences and ten int64
    scalars: band * (3L^2 + 80) + 3L^2 bytes. A ring is split into bands
    only when its 9 candidates do not fit (L > 256 for the default budget)."""
    band = min(9, max(1, (_ES_BAND_BYTES - 3 * L * L) // (3 * L * L + 80)))
    return max(1, _ES_BAND_BYTES // (band * (3 * L * L + 80) + 3 * L * L)), band


def _tss_cells(
    prev: np.ndarray, cur: np.ndarray, rows: np.ndarray, cols: np.ndarray, params: MotionParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (u, v, sad) of the three-step search of each MB (rows[k], cols[k])
    of `cur`; each MB lies wholly inside `cur`, and `prev` has its shape.

    The MBs walk their rings in lockstep. From (0, 0), each round scores the
    running centre and its 8 neighbours at the step, recentres on the best
    and halves the step, from the largest power of two not above d down to 1.
    A candidate outside [-d, d]^2 or whose source block leaves `prev` gets
    the key _NEVER, and the nearest offset that is neither is read in its place.
    """
    L, d = params.mb_size, params.search_range
    n = 2 * d + 1
    h, w = cur.shape
    # Every L x L block of each frame, by its top-left pixel.
    sources, blocks = (as_strided(f, (h - L + 1, w - L + 1, L, L), f.strides * 2, writeable=False) for f in (prev, cur))
    u, v, sad = (np.empty(len(rows), np.int64) for _ in range(3))
    chunk, band = _tss_plan(L)
    diffs = np.empty((min(chunk, len(rows)), band, L, L), np.int16)
    for s in range(0, len(rows), chunk):
        y, x = rows[s : s + chunk, None] * L, cols[s : s + chunk, None] * L
        m = len(y)
        sads = np.empty((m, 9), np.int64)
        block = blocks[y, x].astype(np.int16)
        # The offsets in [-d, d] whose source block lies inside prev.
        lo_u, hi_u = np.maximum(-d, x + L - w), np.minimum(d, x)
        lo_v, hi_v = np.maximum(-d, y + L - h), np.minimum(d, y)
        cu, cv = np.zeros((m, 1), np.int64), np.zeros((m, 1), np.int64)
        step = 1 << (int(d).bit_length() - 1)
        while step:
            ru, rv = cu + step * _RING_U, cv + step * _RING_V
            iu, iv = np.clip(ru, lo_u, hi_u), np.clip(rv, lo_v, hi_v)
            for b in range(0, 9, band):
                part = slice(b, min(b + band, 9))
                diff = diffs[:m, : part.stop - b]
                np.subtract(sources[y - iv[:, part], x - iu[:, part]], block, out=diff)
                np.abs(diff, out=diff)
                sads[:, part] = _block_sads(diff, params.max_sad)
            keys = np.where((iu == ru) & (iv == rv), sads * n * n + _source_ranks(d)[d - iv, d - iu], _NEVER)
            k = keys.argmin(axis=1)[:, None]
            cu, cv, best = (np.take_along_axis(a, k, axis=1) for a in (ru, rv, sads))
            step //= 2
        u[s : s + m], v[s : s + m], sad[s : s + m] = cu[:, 0], cv[:, 0], best[:, 0]
    return u, v, sad


def _pad_to_grid(px: np.ndarray, L: int) -> np.ndarray:
    h, w = px.shape
    ph = (-h) % L
    pw = (-w) % L
    if ph == 0 and pw == 0:
        return px
    return np.pad(px, ((0, ph), (0, pw)), mode="edge")


def estimate_motion_field(
    prev: Frame | np.ndarray,
    cur: Frame | np.ndarray,
    params: MotionParams | None = None,
    cells: np.ndarray | None = None,
) -> MotionField:
    """One (motion vector, SAD) per macroblock of `cur` matched against `prev`.

    Frames must share dimensions. Partial edge MBs are padded by edge
    replication to the L-grid before matching, so every MB is searched as
    in the padded frames.

    `cells`, a boolean (rows, cols) array, restricts the search to the MBs it
    marks. The field still covers the whole grid: every MB outside `cells`
    gets vector (0, 0) and SAD 255 * L^2 (confidence 0), and every MB inside
    gets what the unrestricted search gives it.
    """
    params = params or MotionParams()
    prev_px, cur_px = _frame_pair(prev, cur)
    height, width = cur_px.shape
    L = params.mb_size
    rows, cols = grid_shape(width, height, L)
    if cells is not None and np.shape(cells) != (rows, cols):
        raise ValueError(f"cells has shape {np.shape(cells)}, expected the ({rows}, {cols}) MB grid")
    prev_pad = _pad_to_grid(prev_px, L)
    cur_pad = _pad_to_grid(cur_px, L)

    r, c = np.nonzero(np.ones((rows, cols), dtype=bool) if cells is None else cells)
    vectors = np.zeros((rows, cols, 2), dtype=np.int16)
    sads = np.full((rows, cols), params.max_sad, dtype=np.int64)
    search = _es_cells if params.algorithm == ES else _tss_cells
    vectors[r, c, 0], vectors[r, c, 1], sads[r, c] = search(prev_pad, cur_pad, r, c, params)
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
    """Bytes of one encoded field; MetadataError when the header cannot hold
    the frame size."""
    if not (0 < width <= MAX_FRAME_SIDE and 0 < height <= MAX_FRAME_SIDE):
        raise MetadataError(f"empty frame or frame over {MAX_FRAME_SIDE} pixels a side: {width}x{height}")
    rows, cols = grid_shape(width, height, params.mb_size)
    return _HEADER.size + _record(params.search_range).itemsize * rows * cols


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
    try:  # an unknown algorithm code reads as that number
        params = MotionParams(mb_size=L, search_range=d, algorithm=_ALGO_NAMES.get(algo_code, algo_code))
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
