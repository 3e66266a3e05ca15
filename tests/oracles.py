"""Independent reference implementations used to verify the library.

Everything here is deliberately written in the most literal way possible
(explicit loops, per-pixel sums, exhaustive enumeration) and shares no code
with the package internals beyond numpy.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np

from euphrates.pixels import noise_image


def config_echo(node) -> dict:
    """The JSON echo of a config node by its first rule: `asdict`, then a
    JSON round trip that turns every tuple into a list."""
    return json.loads(json.dumps(dataclasses.asdict(node)))


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


# Values closer than this to the threshold of a branch (relative to the
# frame size for coordinates) may take the other way in floating point.
NEAR = Fraction(1, 10**9)


def naive_pipeline(records, fields, cfg):
    """Literal restatement of the I/E-frame pipeline over precomputed fields,
    in exact rational arithmetic (every float converts to a Fraction exactly).

    `records` maps frame index to its inferred boxes, `fields[t - 1]` pairs
    frames t - 1 and t (at least one field), and `cfg` is a PipelineConfig.
    Returns (frames, near). `frames` holds one (index, kind, boxes, ew,
    diff) per frame, where boxes is [(track id, (x1, y1, x2, y2))] with
    Fraction corners. `near` is True when some branch compared a value within
    NEAR of its threshold: a diff and tau_diff, an alpha and the filter
    threshold, two IoUs of the greedy match, or a box edge and the edge of
    the MB grid, the frame or a box it is matched against.
    """
    width, height = fields[0].width, fields[0].height
    L = fields[0].params.mb_size
    rows, cols = fields[0].sads.shape
    max_sad = 255 * L * L
    sub_rows, sub_cols = cfg.extrapolation.grid
    threshold = Fraction(cfg.extrapolation.filter_threshold)
    edge_tol = NEAR * max(width, height)
    near = False

    def close(a, b, tol=edge_tol):
        return abs(a - b) <= tol

    def seed(roi):
        """A track: a list of sub-ROIs [x1, y1, x2, y2, prev_u, prev_v]."""
        x, y, w, h = Fraction(roi.x), Fraction(roi.y), Fraction(roi.w), Fraction(roi.h)
        subs = []
        for j in range(sub_rows):
            for i in range(sub_cols):
                subs.append([
                    x + w * i / sub_cols, y + h * j / sub_rows,
                    x + w * (i + 1) / sub_cols, y + h * (j + 1) / sub_rows,
                    Fraction(0), Fraction(0),
                ])
        return subs

    def move(subs, field):
        """The track moved through `field`, and its framed bounding box; the
        box is None when the track is lost."""
        nonlocal near
        moved = []
        lost = False
        for x1, y1, x2, y2, prev_u, prev_v in subs:
            near = near or close(x2, 0) or close(y2, 0) or close(x1, cols * L) or close(y1, rows * L)
            total = sum_u = sum_v = sum_conf = Fraction(0)
            for r in range(rows):
                for c in range(cols):
                    ov_x = min(x2, Fraction((c + 1) * L)) - max(x1, Fraction(c * L))
                    ov_y = min(y2, Fraction((r + 1) * L)) - max(y1, Fraction(r * L))
                    if ov_x <= 0 or ov_y <= 0:
                        continue
                    area = ov_x * ov_y
                    total += area
                    sum_u += area * int(field.vectors[r, c, 0])
                    sum_v += area * int(field.vectors[r, c, 1])
                    sum_conf += area * (1 - Fraction(int(field.sads[r, c]), max_sad))
            if total == 0:
                lost = True
                continue
            mu_u, mu_v, alpha = sum_u / total, sum_v / total, sum_conf / total
            near = near or close(alpha, threshold, NEAR)
            beta = alpha if alpha > threshold else Fraction(1, 2)
            u = beta * mu_u + (1 - beta) * prev_u
            v = beta * mu_v + (1 - beta) * prev_v
            moved.append([x1 + u, y1 + v, x2 + u, y2 + v, u, v])
        if lost:
            return subs, None
        x1 = min(s[0] for s in moved)
        y1 = min(s[1] for s in moved)
        x2 = max(s[2] for s in moved)
        y2 = max(s[3] for s in moved)
        near = near or close(x2, 0) or close(y2, 0) or close(x1, width) or close(y1, height)
        fx1, fy1 = max(x1, Fraction(0)), max(y1, Fraction(0))
        fx2, fy2 = min(x2, Fraction(width)), min(y2, Fraction(height))
        if fx2 <= fx1 or fy2 <= fy1:
            return moved, None
        return moved, (fx1, fy1, fx2, fy2)

    def iou(a, b):
        ix = min(a[2], b[2]) - max(a[0], b[0])
        iy = min(a[3], b[3]) - max(a[1], b[1])
        if ix <= 0 or iy <= 0:
            return Fraction(0)
        inter = ix * iy
        area_a = (a[2] - a[0]) * (a[3] - a[1])
        area_b = (b[2] - b[0]) * (b[3] - b[1])
        return inter / (area_a + area_b - inter)

    def diff_of(predicted, inferred):
        """1 - mean IoU of the greedy one-to-one match by descending IoU
        (ties to the lowest indices), unmatched boxes counting 0."""
        nonlocal near
        candidates = []
        for i, a in enumerate(predicted):
            for j, b in enumerate(inferred):
                for k in (0, 2):  # the IoU > 0 branch turns on edges meeting
                    near = near or close(a[k], b[2 - k]) or close(a[k + 1], b[3 - k])
                s = iou(a, b)
                if s > 0:
                    candidates.append((-s, i, j))
        for (s1, i1, j1), (s2, i2, j2) in itertools.combinations(candidates, 2):
            near = near or 0 < abs(s1 - s2) <= NEAR
        candidates.sort()
        used_i, used_j, matched = set(), set(), []
        for neg_s, i, j in candidates:
            if i not in used_i and j not in used_j:
                used_i.add(i)
                used_j.add(j)
                matched.append(-neg_s)
        total = len(predicted) + len(inferred) - len(matched)
        return Fraction(0) if total == 0 else 1 - sum(matched) / total

    adaptive = cfg.adaptive if cfg.mode == "adaptive" else None
    ew = adaptive.initial_ew if adaptive else int(cfg.mode[len("ew:"):])
    streak = 0
    tracks = []  # [(track id, subs)]
    next_id = 0
    next_iframe = 0
    frames = []
    for t in range(len(fields) + 1):
        if t == next_iframe:
            inferred = records[t]
            diff = None
            if adaptive and t > 0:
                predicted = [box for _, box in (move(subs, fields[t - 1]) for _, subs in tracks) if box is not None]
                boxes = [(Fraction(r.x), Fraction(r.y), Fraction(r.x) + Fraction(r.w), Fraction(r.y) + Fraction(r.h))
                         for r in inferred]
                diff = diff_of(predicted, boxes)
                near = near or close(diff, Fraction(adaptive.tau_diff), NEAR)
                if diff > Fraction(adaptive.tau_diff):
                    ew = max(adaptive.ew_min, ew - 1)
                    streak = 0
                else:
                    streak += 1
                    if streak >= adaptive.k_up:
                        ew = min(adaptive.ew_max, ew + 1)
                        streak = 0
            tracks = []
            out = []
            for r in inferred:
                tracks.append((next_id, seed(r)))
                x, y = Fraction(r.x), Fraction(r.y)
                out.append((next_id, (x, y, x + Fraction(r.w), y + Fraction(r.h))))
                next_id += 1
            frames.append((t, "I", out, ew, diff))
            next_iframe = t + ew
        else:
            survivors = []
            out = []
            for track_id, subs in tracks:
                subs, box = move(subs, fields[t - 1])
                if box is not None:
                    survivors.append((track_id, subs))
                    out.append((track_id, box))
            tracks = survivors
            frames.append((t, "E", out, None, None))
    return frames, near
