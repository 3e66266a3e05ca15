"""Accuracy metrics: IoU, average precision, success curves, op counts.

Average precision here is the plain ratio TP / (TP + FP) over all detections
at a fixed IoU threshold, with one-to-one greedy matching by descending IoU.
This is deliberately not the ranked PR-curve AP used by COCO-style tooling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .roi import Roi

DEFAULT_THRESHOLDS = tuple(i / 20 for i in range(21))  # 0.00, 0.05, ..., 1.00


def _corners(box: Roi) -> tuple[float, float, float, float, float]:
    """(x, y, x2, y2, area) of `box`, the area taken from the corners."""
    x, y = box.x, box.y
    x2, y2 = x + box.w, y + box.h
    return x, y, x2, y2, (x2 - x) * (y2 - y)


def _corner_iou(a: tuple, b: tuple) -> float:
    """`iou` of two boxes given as `_corners`."""
    ax, ay, ax2, ay2, area_a = a
    bx, by, bx2, by2, area_b = b
    # max() and min() written out: each keeps its first argument on a tie.
    x1 = bx if bx > ax else ax
    y1 = by if by > ay else ay
    x2 = bx2 if bx2 < ax2 else ax2
    y2 = by2 if by2 < ay2 else ay2
    if x2 <= x1 or y2 <= y1:
        return 0.0
    inter = (x2 - x1) * (y2 - y1)
    return inter / (area_a + area_b - inter)


def iou(a: Roi, b: Roi) -> float:
    """Intersection over union of two boxes; 0 when disjoint.

    Areas are derived from the same corner coordinates as the intersection,
    which keeps iou(x, x) == 1.0 and the [0, 1] bounds exact under floating
    point.
    """
    return _corner_iou(_corners(a), _corners(b))


def greedy_match(
    a_boxes: list[Roi], b_boxes: list[Roi]
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """One-to-one matching by descending IoU; only pairs with IoU > 0 pair up.

    Returns (pairs, unmatched_a, unmatched_b) where pairs are
    (index_a, index_b, iou). Equal-IoU ties resolve by lowest indices, which
    keeps the result deterministic and independent of input ordering quirks.
    Each a box scores only the b boxes, sorted by top, whose y-range can
    overlap its own: no other pair has IoU > 0.
    """
    b_corners = [_corners(b) for b in b_boxes]
    # The b boxes whose bottom lies beyond their top (no other has IoU > 0
    # with any box), by top; reach[k] is the largest bottom of the first k + 1.
    order = sorted((j for j, b in enumerate(b_corners) if b[3] > b[1]), key=lambda j: b_corners[j][1])
    tops = [b_corners[j][1] for j in order]
    reach = list(accumulate((b_corners[j][3] for j in order), max))
    candidates = []
    for i, a in enumerate(a_boxes):
        a_corners = _corners(a)
        for j in order[bisect_right(reach, a_corners[1]) : bisect_left(tops, a_corners[3])]:
            s = _corner_iou(a_corners, b_corners[j])
            if s > 0.0:
                candidates.append((-s, i, j))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for neg_s, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j, -neg_s))
    unmatched_a = [i for i in range(len(a_boxes)) if i not in used_a]
    unmatched_b = [j for j in range(len(b_boxes)) if j not in used_b]
    return pairs, unmatched_a, unmatched_b


def precision_at(
    detections: list[list[Roi]], ground_truth: list[list[Roi]], thresholds: tuple[float, ...]
) -> list[float]:
    """TP / (TP + FP) over all frames at each IoU threshold.

    A detection is a true positive when its one-to-one matched ground-truth
    IoU is strictly above the threshold; everything else (including
    unmatched detections) is a false positive. Each frame is matched once,
    and that matching serves every threshold. Every value is 0.0 when
    nothing was detected.
    """
    if len(detections) != len(ground_truth):
        raise ValueError(
            f"frame count mismatch: {len(detections)} detection frames vs "
            f"{len(ground_truth)} ground-truth frames"
        )
    matched: list[float] = []
    total = 0
    for dets, gts in zip(detections, ground_truth):
        total += len(dets)
        pairs, _, _ = greedy_match(dets, gts)
        matched.extend(s for _, _, s in pairs)
    matched.sort()  # the IoUs above t are those past bisect_right(matched, t)
    return [(len(matched) - bisect_right(matched, t)) / total if total else 0.0 for t in thresholds]


def average_precision(
    detections: list[list[Roi]], ground_truth: list[list[Roi]], threshold: float
) -> float:
    """`precision_at` one IoU threshold."""
    return precision_at(detections, ground_truth, (threshold,))[0]


def success_curve(
    predictions: list[Roi | None],
    ground_truth: list[Roi],
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
) -> list[tuple[float, float]]:
    """Single-object tracking protocol: fraction of frames with IoU > t.

    `predictions` may contain None for frames where the tracker lost the
    object; those count as IoU 0.
    """
    if len(predictions) != len(ground_truth):
        raise ValueError(
            f"frame count mismatch: {len(predictions)} predictions vs "
            f"{len(ground_truth)} ground-truth frames"
        )
    scores = [iou(p, g) if p is not None else 0.0 for p, g in zip(predictions, ground_truth)]
    n = len(scores)
    curve = []
    for t in thresholds:
        rate = sum(1 for s in scores if s > t) / n if n else 0.0
        curve.append((t, rate))
    return curve


def ops_count(algorithm: str, mb_size: int, search_range: int) -> int:
    """Arithmetic operations per macroblock of the given block-matching search.

    Exhaustive search evaluates the full window: L^2 * (2d+1)^2. Three-step
    search evaluates the center once plus 8 candidates per halving round:
    L^2 * (1 + 8 * ceil(log2(d+1))), which is L^2 * (1 + 8 * log2(d+1)) for
    the usual d = 2^k - 1.
    """
    if mb_size < 1:
        raise ValueError(f"mb_size must be positive, got {mb_size}")
    if search_range < 0:
        raise ValueError(f"search_range must be non-negative, got {search_range}")
    L2 = mb_size * mb_size
    if algorithm == "es":
        return L2 * (2 * search_range + 1) ** 2
    if algorithm == "tss":
        rounds = math.ceil(math.log2(search_range + 1)) if search_range > 0 else 0
        return L2 * (1 + 8 * rounds)
    raise ValueError(f"unknown algorithm {algorithm!r}")
