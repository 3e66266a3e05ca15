"""Independent reference implementations used to verify the library.

Everything here is deliberately written in the most literal way possible
(explicit loops, per-pixel sums, exhaustive enumeration) and shares no code
with the package internals beyond numpy.
"""

from __future__ import annotations

import itertools

import numpy as np

from euphrates.pixels import noise_image


def naive_block_search(prev: np.ndarray, cur: np.ndarray, origin: tuple[int, int], L: int, d: int):
    """Literal full search: every offset, min by (sad, |u|+|v|, v, u)."""
    x, y = origin
    h, w = prev.shape
    block = cur[y : y + L, x : x + L].astype(np.int64)
    candidates = []
    for v in range(-d, d + 1):
        for u in range(-d, d + 1):
            sx, sy = x - u, y - v
            if sx < 0 or sy < 0 or sx + L > w or sy + L > h:
                continue
            cand = prev[sy : sy + L, sx : sx + L].astype(np.int64)
            s = int(np.abs(block - cand).sum())
            candidates.append((s, abs(u) + abs(v), v, u))
    s, _, v, u = min(candidates)
    return (u, v), s


def naive_three_step_search(prev: np.ndarray, cur: np.ndarray, origin: tuple[int, int], L: int, d: int):
    """Literal three-step search: from (0, 0), score the centre and its eight
    neighbours at the step, move to the least (sad, |u|+|v|, v, u), and
    halve the step until it reaches 1. The first step is the largest power of
    two not above d. Candidates outside [-d, d]^2 or outside prev are skipped."""
    x, y = origin
    h, w = prev.shape
    block = cur[y : y + L, x : x + L].astype(np.int64)

    def score(u, v):
        sx, sy = x - u, y - v
        if abs(u) > d or abs(v) > d or sx < 0 or sy < 0 or sx + L > w or sy + L > h:
            return None
        cand = prev[sy : sy + L, sx : sx + L].astype(np.int64)
        return (int(np.abs(block - cand).sum()), abs(u) + abs(v), v, u)

    best = score(0, 0)
    step = 1
    while step * 2 <= d:
        step *= 2
    while step >= 1:
        _, _, cv, cu = best
        for dv in (-step, 0, step):
            for du in (-step, 0, step):
                cand = score(cu + du, cv + dv)
                if cand is not None and cand < best:
                    best = cand
        step //= 2
    s, _, v, u = best
    return (u, v), s


def naive_field(prev: np.ndarray, cur: np.ndarray, L: int, d: int):
    """Per-MB naive search over a frame pair whose dims are multiples of L."""
    h, w = cur.shape
    assert h % L == 0 and w % L == 0
    rows, cols = h // L, w // L
    vectors = np.zeros((rows, cols, 2), dtype=np.int64)
    sads = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            (u, v), s = naive_block_search(prev, cur, (c * L, r * L), L, d)
            vectors[r, c] = (u, v)
            sads[r, c] = s
    return vectors, sads


def pixel_average_mv(field, roi) -> tuple[float, float]:
    """Per-pixel mean motion vector: every integer pixel inherits its MB's MV.

    Only valid for integer-aligned ROIs (where per-pixel counting equals
    area weighting).
    """
    L = field.params.mb_size
    x0, y0, x1, y1 = int(roi.x), int(roi.y), int(roi.x2), int(roi.y2)
    total_u = 0
    total_v = 0
    n = 0
    for py in range(y0, y1):
        for px in range(x0, x1):
            r, c = py // L, px // L
            if 0 <= r < field.rows and 0 <= c < field.cols:
                total_u += int(field.vectors[r, c, 0])
                total_v += int(field.vectors[r, c, 1])
                n += 1
    return total_u / n, total_v / n


def pixel_average_confidence(field, roi) -> float:
    L = field.params.mb_size
    max_sad = 255 * L * L
    x0, y0, x1, y1 = int(roi.x), int(roi.y), int(roi.x2), int(roi.y2)
    total = 0.0
    n = 0
    for py in range(y0, y1):
        for px in range(x0, x1):
            r, c = py // L, px // L
            if 0 <= r < field.rows and 0 <= c < field.cols:
                total += 1.0 - int(field.sads[r, c]) / max_sad
                n += 1
    return total / n


def optimal_tp_count(det_ious: list[list[float]], threshold: float) -> int:
    """Max true positives over all one-to-one matchings (brute force).

    det_ious[i][j] is the IoU between detection i and ground truth j.
    """
    n_det = len(det_ious)
    n_gt = len(det_ious[0]) if n_det else 0
    best = 0
    for k in range(0, min(n_det, n_gt) + 1):
        for dets in itertools.permutations(range(n_det), k):
            for gts in itertools.permutations(range(n_gt), k):
                tp = sum(1 for i, j in zip(dets, gts) if det_ious[i][j] > threshold)
                best = max(best, tp)
    return best


def shifted_pair(seed: int, height: int, width: int, shift: tuple[int, int], margin: int = 8):
    """Two crops of one smooth noise texture offset by `shift` (prev -> cur).

    Content of the current frame at (x, y) equals the previous frame at
    (x - dx, y - dy), i.e. a global translation by `shift`.
    """
    dx, dy = shift
    assert abs(dx) <= margin and abs(dy) <= margin
    rng = np.random.default_rng(seed)
    big = noise_image(height + 2 * margin, width + 2 * margin, rng)
    prev = big[margin : margin + height, margin : margin + width].copy()
    cur = big[margin - dy : margin - dy + height, margin - dx : margin - dx + width].copy()
    return prev, cur
