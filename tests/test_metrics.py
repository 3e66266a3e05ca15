"""IoU, average precision, success curves, op-count formulas."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from euphrates import cli, metrics
from euphrates.errors import ConfigError
from euphrates.metrics import (
    DEFAULT_THRESHOLDS,
    average_precision,
    greedy_match,
    iou,
    ops_count,
    precision_at,
    success_curve,
)
from euphrates.roi import Roi
from euphrates.scheduler import Detection, FrameRecord, ResultTrace

from oracles import optimal_tp_count
from test_config import PROPERTY


def random_roi(rng, span=100.0):
    return Roi(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(0.1, span)),
        float(rng.uniform(0.1, span)),
    )


# ---------------------------------------------------------------------------
# IoU


def test_iou_examples():
    a = Roi(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Roi(20, 20, 5, 5)) == 0.0
    assert iou(a, Roi(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_of_a_box_with_the_largest_accepted_area_is_one():
    bound = sys.float_info.max / 2
    a = Roi.from_dict({"x": 0.0, "y": 0.0, "w": bound, "h": 1.0})
    assert a.w * a.h == bound
    assert iou(a, a) == 1.0
    assert precision_at([[a]], [[a]], (0.5,)) == [1.0]
    with pytest.raises(ConfigError, match="exceeds half the largest float"):
        Roi.from_dict({"x": 0.0, "y": 0.0, "w": math.nextafter(bound, math.inf), "h": 1.0})


def test_iou_properties_bulk():
    """Symmetry, bounds, identity, scale invariance on 10^4 random pairs."""
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        a = random_roi(rng)
        b = random_roi(rng)
        ab = iou(a, b)
        assert 0.0 <= ab <= 1.0
        assert ab == iou(b, a)
        assert iou(a, a) == 1.0
        k = float(rng.uniform(0.2, 5.0))
        a2 = Roi(a.x * k, a.y * k, a.w * k, a.h * k)
        b2 = Roi(b.x * k, b.y * k, b.w * k, b.h * k)
        assert iou(a2, b2) == pytest.approx(ab, abs=1e-9)


# ---------------------------------------------------------------------------
# Matching


def test_greedy_match_identical_lists():
    boxes = [Roi(0, 0, 10, 10), Roi(50, 50, 8, 8)]
    pairs, un_a, un_b = greedy_match(boxes, list(boxes))
    assert sorted((i, j) for i, j, _ in pairs) == [(0, 0), (1, 1)]
    assert all(s == 1.0 for _, _, s in pairs)
    assert un_a == [] and un_b == []


def test_greedy_match_disjoint():
    pairs, un_a, un_b = greedy_match([Roi(0, 0, 5, 5)], [Roi(100, 100, 5, 5)])
    assert pairs == [] and un_a == [0] and un_b == [0]


def test_greedy_match_prefers_higher_iou():
    a_hi = Roi(0, 0, 10, 10)
    b_lo = Roi(8, 0, 10, 10)
    target = Roi(1, 0, 10, 10)  # overlaps a_hi strongly, b_lo weakly
    pairs, un_a, un_b = greedy_match([a_hi, b_lo], [target])
    assert len(pairs) == 1 and pairs[0][0] == 0
    assert un_a == [1] and un_b == []


def loop_iou(a, b):
    """`iou` restated as one function of the two boxes' properties."""
    ax2, ay2, bx2, by2 = a.x2, a.y2, b.x2, b.y2
    x1 = max(a.x, b.x)
    y1 = max(a.y, b.y)
    x2 = min(ax2, bx2)
    y2 = min(ay2, by2)
    if x2 <= x1 or y2 <= y1:
        return 0.0
    inter = (x2 - x1) * (y2 - y1)
    area_a = (ax2 - a.x) * (ay2 - a.y)
    area_b = (bx2 - b.x) * (by2 - b.y)
    union = area_a + area_b - inter
    return inter / union


def loop_greedy_match(a_boxes, b_boxes):
    """`greedy_match` restated as a loop over pairs that calls `loop_iou`."""
    candidates = []
    for i, a in enumerate(a_boxes):
        for j, b in enumerate(b_boxes):
            s = loop_iou(a, b)
            if s > 0.0:
                candidates.append((-s, i, j))
    candidates.sort()
    used_a, used_b, pairs = set(), set(), []
    for neg_s, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j, -neg_s))
    return (pairs, [i for i in range(len(a_boxes)) if i not in used_a],
            [j for j in range(len(b_boxes)) if j not in used_b])


# Boxes on a half-pixel grid around the origin, so that equal IoUs, IoUs of
# exactly 0.5 and touching edges occur, mixed with arbitrary real boxes.
signed_grid_box = st.builds(
    lambda x, y, w, h: Roi(x / 2, y / 2, w / 2, h / 2),
    st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 16), st.integers(1, 16),
)
real_box = st.builds(Roi, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
box_lists = st.lists(signed_grid_box | real_box, max_size=12)


@PROPERTY
@given(a_boxes=box_lists, b_boxes=box_lists)
@example(a_boxes=[], b_boxes=[])
@example(a_boxes=[Roi(0, 0, 1, 1)], b_boxes=[])
@example(a_boxes=[], b_boxes=[Roi(0, 0, 1, 1)])
@example(a_boxes=[Roi(0, 0, 1, 1)], b_boxes=[Roi(1, 0, 1, 1), Roi(0, -1, 1, 1)])  # touching edges
@example(a_boxes=[Roi(0, 0, 2, 1), Roi(-1, 0, 2, 1)], b_boxes=[Roi(0, 0, 1, 1)])  # a tie at IoU 0.5
def test_greedy_match_equals_the_pair_loop(a_boxes, b_boxes):
    got = greedy_match(a_boxes, b_boxes)
    assert repr(got) == repr(loop_greedy_match(a_boxes, b_boxes))
    assert repr([iou(a, b) for a in a_boxes for b in b_boxes]) == repr(
        [loop_iou(a, b) for a in a_boxes for b in b_boxes]
    )


# ---------------------------------------------------------------------------
# Average precision


def test_ap_perfect_detections():
    gt = [[Roi(0, 0, 10, 10), Roi(30, 30, 5, 5)], [Roi(2, 2, 8, 8)]]
    for tau in (0.0, 0.25, 0.5, 0.75, 0.95):
        assert average_precision(gt, gt, tau) == 1.0
    assert average_precision(gt, gt, 1.0) == 0.0  # IoU must be strictly above


def test_ap_all_disjoint():
    det = [[Roi(0, 0, 5, 5)]]
    gt = [[Roi(50, 50, 5, 5)]]
    assert average_precision(det, gt, 0.5) == 0.0


def test_ap_mixed_example():
    # one detection at IoU 0.6, one at 0.3; at tau = 0.5 only the first is TP
    gt = [[Roi(0, 0, 10, 10), Roi(100, 0, 10, 10)]]
    d1 = Roi(0, 2.5, 10, 10)  # IoU 7.5/12.5 = 0.6
    d2 = Roi(100, 0, 10, 33.0 + 1 / 3)  # IoU 10/33.33 = 0.3
    assert iou(d1, gt[0][0]) == pytest.approx(0.6, abs=1e-9)
    assert iou(d2, gt[0][1]) == pytest.approx(0.3, abs=1e-9)
    assert average_precision([[d1, d2]], gt, 0.5) == 0.5


def test_ap_no_detections():
    assert average_precision([[]], [[Roi(0, 0, 5, 5)]], 0.5) == 0.0


def test_ap_unmatched_detection_is_fp():
    gt = [[Roi(0, 0, 10, 10)]]
    det = [[Roi(0, 0, 10, 10), Roi(0, 0, 10, 10)]]  # second cannot match
    assert average_precision(det, gt, 0.5) == 0.5


def test_ap_frame_count_mismatch():
    with pytest.raises(ValueError):
        average_precision([[]], [[], []], 0.5)


def test_ap_curve_monotone_non_increasing():
    rng = np.random.default_rng(5)
    det, gt = [], []
    for _ in range(30):
        boxes = [random_roi(rng, span=40) for _ in range(3)]
        gt.append(boxes)
        det.append([Roi(b.x + rng.uniform(-3, 3), b.y + rng.uniform(-3, 3), b.w, b.h) for b in boxes])
    values = [average_precision(det, gt, t) for t in DEFAULT_THRESHOLDS]
    assert all(a >= b for a, b in zip(values, values[1:]))


def loop_precision(detections, ground_truth, threshold):
    """Precision at one threshold, each frame matched anew: the per-threshold
    loop `precision_at` replaces."""
    tp = 0
    total = 0
    for dets, gts in zip(detections, ground_truth):
        total += len(dets)
        pairs, _, _ = greedy_match(dets, gts)
        tp += sum(1 for _, _, s in pairs if s > threshold)
    return tp / total if total else 0.0


# Boxes on a coarse grid, so that equal IoUs and IoUs of exactly 0.5 and 1.0 occur.
grid_box = st.builds(
    lambda x, y, w, h: Roi(x / 2, y / 2, w / 2, h / 2),
    st.integers(0, 40), st.integers(0, 40), st.integers(1, 20), st.integers(1, 20),
)
frames_of_boxes = st.lists(st.tuples(st.lists(grid_box, max_size=5), st.lists(grid_box, max_size=5)), max_size=6)


@PROPERTY
@given(frames=frames_of_boxes, extra=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_precision_at_equals_the_per_threshold_loop(frames, extra):
    dets = [d for d, _ in frames]
    gts = [g for _, g in frames]
    matched = {s for d, g in frames for _, _, s in greedy_match(d, g)[0]}
    thresholds = sorted({0.0, 0.5, 1.0, *extra, *matched})
    assert precision_at(dets, gts, thresholds) == [loop_precision(dets, gts, t) for t in thresholds]
    assert precision_at([[] for _ in gts], gts, thresholds) == [0.0] * len(thresholds)
    assert [average_precision(dets, gts, t) for t in thresholds] == precision_at(dets, gts, thresholds)


@pytest.mark.parametrize("thresholds", [(0.5,), (0.0, 1.0), DEFAULT_THRESHOLDS])
def test_evaluate_matches_each_frame_once(monkeypatch, thresholds):
    calls = []

    def counting_match(a, b):
        calls.append(1)
        return greedy_match(a, b)

    monkeypatch.setattr(metrics, "greedy_match", counting_match)
    truth = {i: [Roi(i, 0, 10, 10), Roi(50, i, 8, 8)] for i in range(7)}
    frames = [FrameRecord(i, "E", tuple(Detection(k, Roi(i + k, 1, 10, 10)) for k in range(i % 3)))
              for i in range(7)]
    result = cli.evaluate_trace(ResultTrace(frames), truth, thresholds)
    assert len(calls) == len(frames)
    assert len(result["ap"]) == len(thresholds)


def test_greedy_equals_optimal_where_provable():
    """With a single detection (or single gt), greedy's best-first choice is
    optimal; verified against the brute-force matching oracle."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        gt = [random_roi(rng, span=20) for _ in range(int(rng.integers(1, 4)))]
        det = [Roi(gt[0].x + rng.uniform(-5, 5), gt[0].y + rng.uniform(-5, 5), gt[0].w, gt[0].h)]
        tau = float(rng.uniform(0.1, 0.9))
        ious = [[iou(d, g) for g in gt] for d in det]
        greedy_pairs, _, _ = greedy_match(det, gt)
        greedy_tp = sum(1 for _, _, s in greedy_pairs if s > tau)
        assert greedy_tp == optimal_tp_count(ious, tau)


def test_greedy_vs_optimal_documented_divergence():
    """Greedy matching can lose to the optimal assignment on crowded frames.

    Taking the globally best pair (d1,g1) starves d2, whose only strong match
    is g1; the optimal assignment crosses the pairs and scores 2 TPs. Greedy
    is the accepted protocol; the oracle documents the gap.
    """
    g1 = Roi(0, 0, 10, 10)
    g2 = Roi(3, 0, 10, 10)
    d1 = Roi(1, 0, 10, 10)  # IoU 9/11 with g1, 8/12 with g2
    d2 = Roi(-2, 0, 10, 10)  # IoU 8/12 with g1, 5/15 with g2
    ious = [[iou(d1, g1), iou(d1, g2)], [iou(d2, g1), iou(d2, g2)]]
    assert ious[0][0] == pytest.approx(9 / 11) and ious[1][0] == pytest.approx(8 / 12)
    tau = 0.5
    pairs, _, _ = greedy_match([d1, d2], [g1, g2])
    greedy_tp = sum(1 for _, _, s in pairs if s > tau)
    assert greedy_tp == 1
    assert optimal_tp_count(ious, tau) == 2  # the documented divergence
    assert average_precision([[d1, d2]], [[g1, g2]], tau) == 0.5


# ---------------------------------------------------------------------------
# Success curves


def test_success_perfect_tracker():
    gt = [Roi(0, 0, 10, 10) for _ in range(5)]
    curve = success_curve(list(gt), gt, (0.0, 0.5, 0.99))
    assert [r for _, r in curve] == [1.0, 1.0, 1.0]


def test_success_half_and_half():
    gt = [Roi(0, 0, 10, 10)] * 4
    hi = Roi(0, 10 / 9, 10, 10)  # IoU 8/9 / (10/9) = 0.8
    lo = Roi(0, 20 / 3, 10, 10)  # IoU (10/3)/(50/3) = 0.2
    assert iou(hi, gt[0]) == pytest.approx(0.8, abs=1e-9)
    assert iou(lo, gt[0]) == pytest.approx(0.2, abs=1e-9)
    curve = dict(success_curve([hi, hi, lo, lo], gt, (0.5,)))
    assert curve[0.5] == 0.5


def test_success_monotone_and_missing_predictions():
    rng = np.random.default_rng(9)
    gt = [random_roi(rng, span=30) for _ in range(40)]
    preds = [None if i % 7 == 0 else Roi(g.x + rng.uniform(-4, 4), g.y, g.w, g.h) for i, g in enumerate(gt)]
    curve = success_curve(preds, gt)
    rates = [r for _, r in curve]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] <= 1.0 - 1 / 40  # missing predictions can never succeed


def test_success_length_mismatch():
    with pytest.raises(ValueError):
        success_curve([None], [Roi(0, 0, 1, 1), Roi(0, 0, 1, 1)])


# ---------------------------------------------------------------------------
# Op counts


def test_ops_count_closed_forms():
    assert ops_count("es", 16, 7) == 57600  # L^2 (2d+1)^2
    assert ops_count("tss", 16, 7) == 6400  # L^2 (1 + 8 log2(d+1)), 8/9 fewer
    assert ops_count("tss", 16, 7) * 9 == ops_count("es", 16, 7)


def test_ops_count_degenerate():
    assert ops_count("es", 1, 0) == 1
    assert ops_count("tss", 1, 0) == 1


def test_ops_count_validation():
    with pytest.raises(ValueError):
        ops_count("diamond", 16, 7)
    with pytest.raises(ValueError):
        ops_count("es", 0, 7)


def test_ops_count_rejects_a_negative_search_range():
    with pytest.raises(ValueError, match="search_range must be non-negative, got -1"):
        ops_count("es", 16, -1)
