"""Pipeline sequencing: schedules, association, adaptive EW, traces."""

import copy
import hashlib
import json
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from euphrates import cli, extrapolate, scheduler
from euphrates.errors import ConfigError, MetadataError, MissingDataError
from euphrates.extrapolate import ExtrapolationParams, cells_read, extrapolate_track
from euphrates.metrics import iou
from euphrates.motion import MotionField, MotionParams, estimate_motion_field, grid_shape, uniform_field
from euphrates.pixels import Frame, SynthConfig, generate_sequence, noise_image, save_sequence
from euphrates.roi import Roi
from euphrates.metrics import greedy_match, precision_at
from euphrates.scheduler import (
    AdaptiveParams,
    Detection,
    FrameMotion,
    PipelineConfig,
    ResultTrace,
    StoredMotion,
    TraceProvider,
    prediction_diff,
    read_detection_trace,
    run_pipeline,
)

from oracles import naive_pipeline
from test_config import PROPERTY


def static_setup(n_frames, width=64, height=64, boxes=None):
    """Zero-motion fields plus a static perfect provider."""
    boxes = boxes or [Roi(10.0, 12.0, 30.0, 25.0, label=0, score=1.0)]
    fields = [uniform_field(width, height)] * (n_frames - 1)
    provider = TraceProvider({i: list(boxes) for i in range(n_frames)})
    return fields, provider


# ---------------------------------------------------------------------------
# Constant schedules


@pytest.mark.parametrize("n,ew", [(10, 2), (10, 3), (7, 1), (100, 8), (5, 32)])
def test_constant_inference_count(n, ew):
    fields, provider = static_setup(n)
    trace = run_pipeline(provider, PipelineConfig(mode=f"ew:{ew}"), StoredMotion(fields))
    kinds = trace.kinds()
    assert kinds[0] == "I"
    assert trace.n_iframes == math.ceil(n / ew)
    assert [i for i, k in enumerate(kinds) if k == "I"] == list(range(0, n, ew))


def test_constant_ew2_ten_frames():
    fields, provider = static_setup(10)
    trace = run_pipeline(provider, PipelineConfig(mode="ew:2"), StoredMotion(fields))
    assert [f.index for f in trace.frames if f.kind == "I"] == [0, 2, 4, 6, 8]
    assert trace.n_iframes == 5


def test_ew1_equals_provider_verbatim():
    rng = np.random.default_rng(0)
    records = {
        i: [Roi(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), 10.0, 8.0, label=1, score=0.7)]
        for i in range(6)
    }
    provider = TraceProvider(records)
    fields, _ = static_setup(6)
    trace = run_pipeline(provider, PipelineConfig(mode="ew:1"), StoredMotion(fields))
    assert all(f.kind == "I" for f in trace.frames)
    for i, f in enumerate(trace.frames):
        assert [d.roi for d in f.detections] == records[i]


def test_pipeline_rigid_synthetic_matches_truth():
    spec = SynthConfig((160, 120), (48, 32), 16, ((2, 1),), seed=2, background="flat")
    frames, rois = generate_sequence(spec)
    provider = TraceProvider({i: [r] for i, r in enumerate(rois)})
    trace = run_pipeline(provider, PipelineConfig(mode="ew:4"), FrameMotion(frames, MotionParams()))
    for rec, gt in zip(trace.frames, rois):
        assert len(rec.detections) == 1
        assert iou(rec.detections[0].roi, gt) == pytest.approx(1.0, abs=1e-12)


def test_a_frames_path_field_takes_one_overlap_pass(monkeypatch):
    """The MB mask of a field's sub-ROIs comes from their integer cell
    ranges, so only `roi_motion_stats` computes their float overlaps."""
    frames, rois = generate_sequence(SynthConfig((160, 120), (48, 32), 16, ((2, 1),), seed=2, background="flat"))
    calls = Counter()
    real_overlaps, real_field = extrapolate._axis_overlaps, FrameMotion.field

    def overlaps(*args):
        calls["overlaps"] += 1
        return real_overlaps(*args)

    def field(self, t, rois):
        calls["fields"] += 1
        return real_field(self, t, rois)

    monkeypatch.setattr(extrapolate, "_axis_overlaps", overlaps)
    monkeypatch.setattr(FrameMotion, "field", field)
    provider = TraceProvider({i: [r] for i, r in enumerate(rois)})
    run_pipeline(provider, PipelineConfig(mode="adaptive"), FrameMotion(frames, MotionParams()))
    assert calls["fields"] == 15 and calls["overlaps"] == calls["fields"]


def test_pipeline_errors():
    fields, provider = static_setup(5)
    sparse = TraceProvider({0: [Roi(0, 0, 5, 5)]})
    with pytest.raises(MissingDataError, match="frame 2"):
        run_pipeline(sparse, PipelineConfig(mode="ew:2"), StoredMotion(fields))


def test_frame_motion_checks_its_frames_before_any_search():
    with pytest.raises(ConfigError, match="^sequence must contain at least one frame$"):
        FrameMotion([], MotionParams())
    wide = Frame(np.zeros((1, 65536), np.uint8))
    with mock.patch.object(scheduler, "estimate_motion_field", side_effect=AssertionError("searched")):
        with pytest.raises(MetadataError, match="^empty frame or frame over 65535 pixels a side: 65536x1$"):
            FrameMotion([wide, wide], MotionParams())


class RecordingMotion(StoredMotion):
    """Stored fields that log each t a run asks for."""

    def field(self, t, rois):
        self.asked.append(t)
        return super().field(t, rois)


@pytest.mark.parametrize(
    "mode, asked", [("ew:1", []), ("ew:3", [1, 2, 4, 5, 7, 8, 10, 11]), ("adaptive", list(range(1, 12)))]
)
def test_a_run_asks_its_source_once_for_each_field_it_needs_in_order(mode, asked):
    """A run asks for field t at each E-frame and each adaptive I-frame
    after frame 0, once, in increasing t, and never beyond len(motion)."""
    fields, provider = static_setup(12)
    motion = RecordingMotion(fields)
    motion.asked = []
    trace = run_pipeline(provider, PipelineConfig(mode=mode), motion)
    assert motion.asked == [f.index for f in trace.frames if f.kind == "E" or f.diff is not None] == asked
    assert all(1 <= t <= len(motion) for t in motion.asked)


def test_bad_mode_strings():
    with pytest.raises(ConfigError):
        PipelineConfig(mode="ew:0").initial_ew
    with pytest.raises(ConfigError):
        PipelineConfig(mode="every-other").initial_ew
    with pytest.raises(ConfigError):
        PipelineConfig(mode="ew:two").initial_ew


@pytest.mark.parametrize("mode", ["ew:4_0", "ew:\u0664", "ew: 4", "ew:+4", "ew:4 ", "ew:-1", "ew:", "EW:4", "ew:4\n"])
def test_constant_ew_takes_ascii_digits_only(mode):
    # int() accepts underscores, other scripts' digits, signs and spaces.
    with pytest.raises(ConfigError, match=re.escape(f"invalid mode {mode!r}, expected 'ew:N' or 'adaptive'")):
        PipelineConfig(mode=mode)


def moving_objects_scene(width=90, height=70, n_frames=12, seed=11, tags=((0, 1.0),) * 4):
    """Noise-textured objects over a noise background, and their true boxes.

    The third object leaves the frame to the right, so tracks seeded on it
    are lost; the fourth is detected entirely off-frame. `tags` holds each
    object's (label, score), in that order.
    """
    rng = np.random.default_rng(seed)
    bg = noise_image(height, width, rng)
    objects = [((24, 16), (10, 8), (2, 1)), ((20, 20), (50, 40), (-3, 0)), ((16, 12), (66, 30), (6, 0))]
    textures = [noise_image(h, w, rng) for (w, h), _, _ in objects]
    frames, records = [], {}
    for t in range(n_frames):
        canvas = bg.copy()
        boxes = []
        for tex, ((w, h), (x0, y0), (vx, vy)), (label, score) in zip(textures, objects, tags):
            x, y = x0 + vx * t, y0 + vy * t
            boxes.append(Roi(float(x), float(y), float(w), float(h), label=label, score=score))
            vis = canvas[max(0, y) : y + h, max(0, x) : x + w]
            vis[...] = tex[max(0, -y) : max(0, -y) + vis.shape[0], max(0, -x) : max(0, -x) + vis.shape[1]]
        label, score = tags[3]
        boxes.append(Roi(width + 10.0, 5.0, 12.0, 12.0, label=label, score=score))
        frames.append(Frame(canvas))
        records[t] = boxes
    return frames, records


@pytest.mark.parametrize(
    "mode, algorithm, grid, L, d",
    [
        ("ew:1", "es", (1, 1), 16, 7),
        ("ew:3", "es", (2, 2), 4, 9),
        ("ew:3", "tss", (3, 2), 16, 7),
        ("ew:3", "tss", (1, 1), 4, 9),
        ("adaptive", "es", (3, 2), 16, 9),
        ("adaptive", "tss", (2, 2), 4, 7),
    ],
)
def test_frames_path_equals_fields_path(mode, algorithm, grid, L, d):
    """Estimating motion while the pipeline runs gives the trace that the
    full fields of the same frames give."""
    frames, records = moving_objects_scene()
    assert frames[0].width % L and frames[0].height % L
    provider = TraceProvider(records, noise_sigma=1.5, seed=5)
    cfg = PipelineConfig(
        mode=mode,
        motion=MotionParams(L, d, algorithm),
        extrapolation=ExtrapolationParams(grid=grid),
        adaptive=AdaptiveParams(initial_ew=2, k_up=1),
    )
    fields = [estimate_motion_field(a, b, cfg.motion) for a, b in zip(frames, frames[1:])]
    from_frames = run_pipeline(provider, cfg, FrameMotion(frames, cfg.motion))
    assert from_frames.to_jsonl() == run_pipeline(provider, cfg, StoredMotion(fields)).to_jsonl()
    if mode != "ew:1":
        # Some E-frame reports fewer objects than the frame before it: a track was lost.
        counts = [len(f.detections) for f in from_frames.frames]
        assert any(f.kind == "E" and n < m for f, n, m in zip(from_frames.frames[1:], counts[1:], counts))


# Golden frame records: the sha256 of whole traces, with labels and scores
# of every kind on the boxes. On this scene filter thresholds 0.95 and 1.0
# give other frame records than the default 0.7, so a pipeline that dropped
# the configured threshold would change those digests.
GOLDEN_TAGS = (("car", 0.9), (3, None), (None, 0.5), ("sign", 0.75))


@pytest.mark.parametrize(
    "mode, grid, threshold, source, digest",
    [
        ("ew:1", (1, 1), 0.7, "fields",
         "f2d62b485f7f56ee9fa93999e14f1c95b68d22ae7773b601740f0eed4a190539"),
        ("ew:1", (3, 2), 0.95, "frames",
         "b91ded8d9443007d2dcc75aeb7b57bd3817b89cd953a4cd60d22cf20d1879172"),
        ("ew:3", (2, 2), 0.7, "frames",
         "4e752fbbbf3e0574b56b33db3d9994084157410535a1c8ec323fc98150d9a75e"),
        ("ew:3", (3, 2), 0.95, "fields",
         "57791c944d086852f38ef99298ae8e6aa276b487c3eb6f32a1091f654c2f93ca"),
        ("ew:3", (1, 1), 1.0, "frames",
         "f229c69dc98b4363a8cea085def90b8c53065912a14ae7c8443a6da7ff911300"),
        ("adaptive", (3, 2), 0.7, "frames",
         "2dbd9741077766417cfaf59d791167a638a80b3536e3028b9f03e0f2fb8d94ab"),
        ("adaptive", (2, 2), 0.95, "frames",
         "ab1df854b6b415de02b442365e2b6998673bf6b5f81af090c6dad45679976fa7"),
        ("adaptive", (1, 1), 1.0, "fields",
         "621f777d438f3fc84b63617910c73603bce9989130a922fcb10e05c5c47d6b29"),
    ],
)
def test_golden_frame_records(mode, grid, threshold, source, digest):
    frames, records = moving_objects_scene(tags=GOLDEN_TAGS)
    provider = TraceProvider(records, noise_sigma=1.5, seed=5)

    def trace(filter_threshold):
        cfg = PipelineConfig(
            mode=mode,
            extrapolation=ExtrapolationParams(grid=grid, filter_threshold=filter_threshold),
            adaptive=AdaptiveParams(initial_ew=2, k_up=1),
        )
        if source == "frames":
            return run_pipeline(provider, cfg, FrameMotion(frames, cfg.motion)).to_jsonl()
        fields = [estimate_motion_field(a, b, cfg.motion) for a, b in zip(frames, frames[1:])]
        return run_pipeline(provider, cfg, StoredMotion(fields)).to_jsonl()

    text = trace(threshold)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if threshold != 0.7 and mode != "ew:1":
        assert text.splitlines()[1:] != trace(0.7).splitlines()[1:]


# ---------------------------------------------------------------------------
# Each macroblock searched once per field index


@st.composite
def store_requests(draw):
    """Frames whose sides need not be multiples of L, search params, and
    requests (t, sub-ROIs) in random order."""
    L = draw(st.sampled_from([4, 8, 16]))
    params = MotionParams(L, draw(st.integers(1, 7)), draw(st.sampled_from(["es", "tss"])))
    width = L * draw(st.integers(1, 4)) + draw(st.integers(0, L - 1))
    height = L * draw(st.integers(1, 4)) + draw(st.integers(1, L - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = [noise_image(height, width, rng) for _ in range(draw(st.integers(2, 5)))]

    def roi():
        x, y = draw(st.floats(-0.5, 1.2)) * width, draw(st.floats(-0.5, 1.2)) * height
        return Roi(x, y, draw(st.floats(1.0, 2.0 * L)), draw(st.floats(1.0, 2.0 * L)))

    t = st.integers(1, len(pixels) - 1)
    requests = [(draw(t), [roi() for _ in range(draw(st.integers(0, 4)))]) for _ in range(draw(st.integers(1, 8)))]
    return pixels, params, requests


@PROPERTY
@given(store_requests())
def test_a_source_gives_each_request_the_field_of_its_own_macroblocks(inputs):
    """Every field one source returns equals a search of exactly its
    request's cells, and still does after later requests have filled the
    source's store."""
    pixels, params, requests = inputs
    frames = [Frame(px) for px in pixels]
    motion = FrameMotion(frames, params)
    returned = []
    for t, rois in requests:
        cells = cells_read(rois, grid_shape(frames[t].width, frames[t].height, params.mb_size), params.mb_size)
        expected = estimate_motion_field(frames[t - 1], frames[t], params, cells=cells)
        returned.append((motion.field(t, rois), expected))
        assert returned[-1][0] == expected
    assert all(got == expected for got, expected in returned)


def searched_cells(run) -> Counter:
    """How often each (t, row, col) is searched while `run()` runs."""
    count: Counter = Counter()
    asked = []
    real_field, real_estimate = FrameMotion.field, scheduler.estimate_motion_field

    def field(self, t, rois):
        asked.append(t)
        return real_field(self, t, rois)

    def estimate(prev, cur, params, cells):
        count.update((asked[-1], int(r), int(c)) for r, c in zip(*np.nonzero(cells)))
        return real_estimate(prev, cur, params, cells=cells)

    with mock.patch.object(FrameMotion, "field", field):
        with mock.patch.object(scheduler, "estimate_motion_field", estimate):
            run()
    return count


@pytest.mark.parametrize("values", ["1,2,4,8", "8,4,2,1"])
def test_an_ew_sweep_searches_each_needed_macroblock_once(tmp_path, values):
    frames, rois = generate_sequence(SynthConfig((96, 72), (24, 16), 14, ((2, 1),), seed=6, background="noise"))
    save_sequence(frames, tmp_path / "frames")
    dets = tmp_path / "dets.jsonl"
    dets.write_text("".join(json.dumps({"frame": i, "boxes": [r.to_dict()]}) + "\n" for i, r in enumerate(rois)))
    base = cli.RunConfig(frames_dir=str(tmp_path / "frames"), detections=str(dets))
    variants = cli._sweep_variants(base, "ew", values)
    alone = [searched_cells(lambda: cli.run_simulation(cfg)) for cfg in variants.values()]
    needed = set().union(*alone)
    swept = searched_cells(lambda: cli.run_sweep(variants, "ew"))
    assert sum(map(len, alone)) > len(needed)  # the variants need some (t, MB) in common
    assert set(swept) == needed and set(swept.values()) == {1}


# ---------------------------------------------------------------------------
# Association and the adaptive comparison


def test_associate_identical():
    boxes = [Roi(0, 0, 10, 10), Roi(30, 0, 10, 10)]
    pairs, unmatched_predicted, unmatched_inferred = greedy_match(boxes, list(boxes))
    assert sorted((i, j) for i, j, _ in pairs) == [(0, 0), (1, 1)]
    assert all(s == 1.0 for _, _, s in pairs)
    assert unmatched_predicted == [] and unmatched_inferred == []


def test_associate_disjoint():
    pairs, unmatched_predicted, unmatched_inferred = greedy_match([Roi(0, 0, 5, 5)], [Roi(50, 50, 5, 5)])
    assert pairs == []
    assert unmatched_predicted == [0] and unmatched_inferred == [0]


def test_associate_greedy_example():
    a = Roi(0, 0, 10, 10)
    b = Roi(40, 0, 10, 10)
    a_prime = Roi(1, 0, 10, 10)
    pairs, unmatched_predicted, _ = greedy_match([a, b], [a_prime])
    assert len(pairs) == 1 and pairs[0][:2] == (0, 0)
    assert unmatched_predicted == [1]


def test_prediction_diff_values():
    box = Roi(0, 0, 10, 10)
    assert prediction_diff([box], [box]) == 0.0
    assert prediction_diff([], []) == 0.0
    assert prediction_diff([box], []) == 1.0
    assert prediction_diff([], [box]) == 1.0
    # one perfect pair plus one unmatched: 1 - (1 + 0)/2
    far = Roi(100, 100, 10, 10)
    assert prediction_diff([box, far], [box]) == 0.5


def adaptive_update(params, ew, streak, predicted, inferred):
    return params.next_ew(ew, streak, prediction_diff(predicted, inferred))


def test_adaptive_update_grows_after_streak():
    params = AdaptiveParams(k_up=3)
    ew, streak = 4, 0
    box = Roi(0, 0, 10, 10)
    for _ in range(2):
        ew, streak = adaptive_update(params, ew, streak, [box], [box])
        assert ew == 4
    ew, streak = adaptive_update(params, ew, streak, [box], [box])
    assert ew == 5 and streak == 0


def test_adaptive_update_shrinks_on_disagreement():
    ew, streak = adaptive_update(AdaptiveParams(), 4, 2, [Roi(0, 0, 10, 10)], [Roi(50, 50, 10, 10)])
    assert ew == 3 and streak == 0


def test_adaptive_update_saturates():
    params = AdaptiveParams()
    box = Roi(0, 0, 10, 10)
    ew, streak = 32, 0
    for _ in range(9):
        ew, streak = adaptive_update(params, ew, streak, [box], [box])
        assert ew == 32
    ew, streak = adaptive_update(params, 1, 0, [box], [Roi(50, 50, 10, 10)])
    assert ew == 1


def test_next_ew_counts_a_diff_equal_to_tau_diff_as_clean():
    # EW shrinks only when the diff exceeds tau_diff.
    params = AdaptiveParams(tau_diff=0.25, k_up=3)
    assert params.next_ew(4, 0, 0.25) == (4, 1)
    assert params.next_ew(4, 2, 0.25) == (5, 0)
    assert AdaptiveParams(tau_diff=0.0, k_up=1).next_ew(2, 0, 0.0) == (3, 0)


def test_initial_ew_validation():
    # The EW a run starts from comes from a validated PipelineConfig: its mode and bounds.
    assert PipelineConfig(mode="ew:3").initial_ew == 3
    adaptive = AdaptiveParams(initial_ew=2)
    assert PipelineConfig(mode="adaptive", adaptive=adaptive).initial_ew == 2
    with pytest.raises(ConfigError):
        PipelineConfig(mode="sometimes")
    with pytest.raises(ConfigError):
        PipelineConfig(mode="ew:0")
    with pytest.raises(ConfigError):
        AdaptiveParams(initial_ew=40, ew_max=32)


# ---------------------------------------------------------------------------
# Adaptive pipeline behavior


def test_adaptive_grows_to_max_on_perfect_run():
    n = 1900
    fields, provider = static_setup(n)
    cfg = PipelineConfig(mode="adaptive")
    trace = run_pipeline(provider, cfg, StoredMotion(fields))
    ews = [f.ew for f in trace.frames if f.kind == "I"]
    assert ews[0] == 1
    assert max(ews) == 32
    assert ews[-1] == 32
    # monotone growth, one step at a time, stays at the cap once reached
    for a, b in zip(ews, ews[1:]):
        assert b - a in (0, 1)
    first_at_max = ews.index(32)
    assert all(e == 32 for e in ews[first_at_max:])


def test_adaptive_stays_in_bounds_with_noisy_provider():
    n = 400
    boxes = [Roi(20.0, 20.0, 24.0, 18.0, label=0, score=1.0)]
    fields = [uniform_field(64, 64)] * (n - 1)
    provider = TraceProvider({i: list(boxes) for i in range(n)}, noise_sigma=6.0, seed=3)
    trace = run_pipeline(provider, PipelineConfig(mode="adaptive", adaptive=AdaptiveParams(initial_ew=4)),
                         StoredMotion(fields))
    ews = [f.ew for f in trace.frames if f.kind == "I"]
    assert all(1 <= e <= 32 for e in ews)
    assert all(abs(b - a) <= 1 for a, b in zip(ews, ews[1:]))
    diffs = [f.diff for f in trace.frames if f.kind == "I" and f.diff is not None]
    assert diffs and all(0.0 <= d <= 1.0 for d in diffs)


def test_adaptive_interval_matches_decided_ew():
    n = 200
    fields, provider = static_setup(n)
    trace = run_pipeline(provider, PipelineConfig(mode="adaptive"), StoredMotion(fields))
    i_frames = [f for f in trace.frames if f.kind == "I"]
    for cur, nxt in zip(i_frames, i_frames[1:]):
        assert nxt.index - cur.index == cur.ew


# ---------------------------------------------------------------------------
# The whole pipeline against its exact oracle


@st.composite
def pipeline_inputs(draw):
    """(records, fields, cfg): random fields on MB grids up to 3x3 whose
    frames need not fill the last MB, boxes on, across or off the frame,
    sub-ROI grids up to 3x3, and `ew:N` or adaptive modes."""
    L = draw(st.sampled_from([4, 8, 16]))
    width, height = draw(st.integers(1, 3 * L)), draw(st.integers(1, 3 * L))
    params = MotionParams(mb_size=L)
    d = params.search_range
    rows, cols = -(-height // L), -(-width // L)
    vmax = draw(st.sampled_from([0, 1, 2, d]))  # slow fields keep tracks alive for whole windows

    def field():
        vectors = draw(st.lists(st.integers(-vmax, vmax), min_size=rows * cols * 2, max_size=rows * cols * 2))
        sads = draw(st.lists(st.integers(0, params.max_sad), min_size=rows * cols, max_size=rows * cols))
        return MotionField(width, height, params, np.array(vectors, dtype=np.int16).reshape(rows, cols, 2),
                           np.array(sads, dtype=np.int64).reshape(rows, cols))

    n = draw(st.integers(2, 12))
    fields = [field() for _ in range(n - 1)]

    def box():
        where = st.floats(0.0, 0.75) | st.floats(-0.5, 1.5)
        x, y = draw(where) * width, draw(where) * height
        return Roi(x, y, draw(st.floats(1.0, max(1.0, width))), draw(st.floats(1.0, max(1.0, height))))

    base = [box() for _ in range(draw(st.integers(0, 3)))]
    shift = st.just(0.0) | st.floats(-3.0, 3.0)
    records = {t: [Roi(b.x + draw(shift), b.y + draw(shift), b.w, b.h) for b in base] for t in range(n)}
    ew_min, initial_ew, ew_max = sorted(draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)))
    cfg = PipelineConfig(
        mode=draw(st.sampled_from(["adaptive"]) | st.integers(1, 5).map(lambda k: f"ew:{k}")),
        extrapolation=ExtrapolationParams(
            grid=(draw(st.integers(1, 3)), draw(st.integers(1, 3))), filter_threshold=draw(st.floats(0.0, 1.0))
        ),
        adaptive=AdaptiveParams(
            tau_diff=draw(st.floats(0.0, 1.0)), k_up=draw(st.integers(1, 3)),
            ew_min=ew_min, initial_ew=initial_ew, ew_max=ew_max,
        ),
    )
    return records, fields, cfg


@PROPERTY
@given(pipeline_inputs())
def test_pipeline_equals_its_exact_oracle(inputs):
    records, fields, cfg = inputs
    expected, near = naive_pipeline(records, fields, cfg)
    assume(not near)
    trace = run_pipeline(TraceProvider(records), cfg, StoredMotion(fields))
    tol = 1e-9 * max(fields[0].width, fields[0].height)
    assert len(trace.frames) == len(expected)
    for rec, (index, kind, boxes, ew, diff) in zip(trace.frames, expected):
        assert (rec.index, rec.kind, rec.ew) == (index, kind, ew)
        assert (rec.diff is None) == (diff is None)
        if diff is not None:
            assert abs(rec.diff - diff) <= 1e-9
        assert [d.track_id for d in rec.detections] == [track_id for track_id, _ in boxes]
        for det, (_, corners) in zip(rec.detections, boxes):
            r = det.roi
            assert all(abs(a - b) <= tol for a, b in zip((r.x, r.y, r.x + r.w, r.y + r.h), corners))


@pytest.mark.parametrize(
    "records, adaptive, ews",
    [
        # tau_diff 0.0 and empty frames: every I-frame's diff is exactly 0.0,
        # equal to tau_diff, which the oracle's `near` would discard.
        ({t: [] for t in range(16)}, AdaptiveParams(tau_diff=0.0, k_up=1, initial_ew=2, ew_max=4), [2, 3, 4, 4, 4]),
        # A static box and k_up 2: every diff is 0.0, and a grow resets the
        # clean streak, so EW grows at every second I-frame, never twice in a row.
        ({t: [Roi(10.0, 12.0, 30.0, 25.0)] for t in range(24)}, AdaptiveParams(k_up=2, ew_max=4),
         [1, 1, 2, 2, 3, 3, 4, 4, 4]),
    ],
    ids=["diff equals tau_diff", "two grows"],
)
def test_pipeline_equals_its_exact_oracle_at_the_ew_rule_edges(records, adaptive, ews):
    fields = [uniform_field(64, 64)] * (len(records) - 1)
    cfg = PipelineConfig(mode="adaptive", adaptive=adaptive)
    expected, _ = naive_pipeline(records, fields, cfg)  # every diff here is exact
    trace = run_pipeline(TraceProvider(records), cfg, StoredMotion(fields))
    for rec, (index, kind, boxes, ew, diff) in zip(trace.frames, expected, strict=True):
        assert (rec.index, rec.kind, rec.ew, rec.diff) == (index, kind, ew, diff)
        assert [d.track_id for d in rec.detections] == [track_id for track_id, _ in boxes]
        for d, (_, corners) in zip(rec.detections, boxes):
            assert (d.roi.x, d.roi.y, d.roi.x + d.roi.w, d.roi.y + d.roi.h) == pytest.approx(corners, abs=1e-9)
    assert [f.ew for f in trace.frames if f.kind == "I"] == ews


# ---------------------------------------------------------------------------
# One batched motion reduction per field


def recorded_steps(provider, cfg, fields):
    """run_pipeline's trace and each call it makes to extrapolate_track:
    ((state, field), kwargs, result)."""
    calls = []
    real = scheduler.extrapolate_track

    def record(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    with mock.patch.object(scheduler, "extrapolate_track", record):
        trace = run_pipeline(provider, cfg, StoredMotion(fields))
    return trace, calls


def assert_steps_equal_lone_tracks(calls, filter_threshold):
    """Each track stepped with the field's batched statistics gives the
    (state, roi) of extrapolate_track on that track alone, bit for bit."""
    for (state, fld), kwargs, result in calls:
        assert kwargs["stats"] is not None and kwargs["filter_threshold"] == filter_threshold
        assert repr(result) == repr(extrapolate_track(state, fld, filter_threshold))


@pytest.mark.parametrize("L", [16, 4])  # 80 and 1280 MBs: one chunk of sub-ROIs per field, and several
def test_batched_step_equals_extrapolating_each_track_alone(L):
    rng = np.random.default_rng(11)
    rows, cols = 128 // L, 160 // L
    fields = []
    for _ in range(5):
        vectors = rng.integers(-2, 3, (rows, cols, 2)).astype(np.int16)
        sads = rng.integers(0, 255 * L * L, (rows, cols))
        vectors[0, 0], sads[0, 0] = (1, 1), 0  # moves the sliver below by exactly one pixel
        fields.append(MotionField(160, 128, MotionParams(mb_size=L), vectors, sads))
    boxes = [
        Roi(20.5, 30.25, 40.0, 28.0),
        Roi(90.0, 60.0, 50.0, 44.0),
        Roi(175.0, 20.0, 12.0, 12.0),  # off the grid: lost at once
        Roi(0.0, 0.0, 1.0, 3e-106),  # rounds to zero height where it moves
        Roi(60.0, 90.0, 30.0, 30.0),
    ]
    # Frames 1, 2: E-frames; frame 3 seeds nothing, so frames 4, 5 have no live track.
    provider = TraceProvider({0: boxes, 3: []})
    trace, calls = recorded_steps(provider, PipelineConfig(mode="ew:3"), fields)
    assert_steps_equal_lone_tracks(calls, ExtrapolationParams.filter_threshold)
    assert [len(f.detections) for f in trace.frames] == [5, 3, 3, 0, 0, 0]
    lost = [state.track_id for (state, fld), _, (_, roi) in calls if roi is None and fld is fields[0]]
    assert lost == [2, 3]
    assert [fld for (_, fld), _, _ in calls] == [fields[0]] * 5 + [fields[1]] * 3


def test_eframes_without_a_live_track_on_a_large_grid():
    """An I-frame that seeds nothing leaves its E-frames no track to step,
    also on a grid of 129600 MBs, where one sub-ROI fills a chunk."""
    field = MotionField(1920, 1080, MotionParams(mb_size=4), np.zeros((270, 480, 2), np.int16),
                        np.zeros((270, 480), np.int64))
    trace = run_pipeline(TraceProvider({0: []}), PipelineConfig(mode="ew:4"), StoredMotion([field] * 3))
    assert [(f.kind, len(f.detections)) for f in trace.frames] == [("I", 0), ("E", 0), ("E", 0), ("E", 0)]


@PROPERTY
@given(pipeline_inputs())
def test_batched_step_equals_extrapolating_each_track_alone_on_random_inputs(inputs):
    records, fields, cfg = inputs
    _, calls = recorded_steps(TraceProvider(records), cfg, fields)
    assert_steps_equal_lone_tracks(calls, cfg.extrapolation.filter_threshold)


# ---------------------------------------------------------------------------
# Traces


def test_trace_determinism():
    spec = SynthConfig((96, 72), (24, 16), 12, ((1, 2),), seed=7, background="noise")
    frames, rois = generate_sequence(spec)
    provider = TraceProvider({i: [r] for i, r in enumerate(rois)})
    cfg = PipelineConfig(mode="ew:3")
    a = run_pipeline(provider, cfg, FrameMotion(frames, cfg.motion)).to_jsonl()
    b = run_pipeline(provider, cfg, FrameMotion(frames, cfg.motion)).to_jsonl()
    assert a == b


def test_trace_save_load_round_trip(tmp_path):
    fields, provider = static_setup(9)
    trace = run_pipeline(provider, PipelineConfig(mode="ew:3"), StoredMotion(fields))
    p = tmp_path / "trace.jsonl"
    trace.save(p)
    loaded = ResultTrace.load(p)
    assert loaded.kinds() == trace.kinds()
    assert loaded.config == trace.config
    for a, b in zip(loaded.frames, trace.frames):
        assert a == b


@pytest.mark.parametrize("source", ["frames", "fields"])
@pytest.mark.parametrize("mode", ["ew:3", "adaptive"])
def test_a_run_leaves_its_inputs_as_they_were(tmp_path, mode, source):
    """Without noise the provider hands out its own boxes, and the seeds and
    I-frame detections share them, so a step that changed a shared record
    would change the inputs and the next run."""
    frames, records = moving_objects_scene(tags=GOLDEN_TAGS)
    snapshot = copy.deepcopy(records)
    provider = TraceProvider(records, noise_sigma=0.0)
    cfg = PipelineConfig(mode=mode, adaptive=AdaptiveParams(initial_ew=2, k_up=1))
    if source == "frames":
        motion = FrameMotion(frames, cfg.motion)
    else:
        motion = StoredMotion(estimate_motion_field(a, b, cfg.motion) for a, b in zip(frames, frames[1:]))
    trace = run_pipeline(provider, cfg, motion)
    assert trace.frames[0].detections[0].roi is records[0][0]
    dets = [[d.roi for d in f.detections] for f in trace.frames]
    precision_at(dets, [records[f.index] for f in trace.frames], (0.5, 0.75))
    p = tmp_path / "trace.jsonl"
    trace.save(p)
    assert ResultTrace.load(p).frames == trace.frames
    assert records == snapshot
    assert run_pipeline(provider, cfg, motion).to_jsonl() == trace.to_jsonl()


def test_detection_trace_file_round_trip(tmp_path):
    records = {
        0: [Roi(1.0, 2.0, 3.0, 4.0, label=2, score=0.5)],
        1: [],
        2: [Roi(0.0, 0.0, 5.0, 5.0), Roi(9.0, 9.0, 2.0, 2.0)],
    }
    p = tmp_path / "dets.jsonl"
    lines = [json.dumps({"frame": i, "boxes": [b.to_dict() for b in records[i]]}) for i in records]
    p.write_text("\n".join(lines) + "\n")
    again = read_detection_trace(p)
    assert again == records
    spaced = tmp_path / "spaced.jsonl"  # blank and whitespace-only lines are skipped
    spaced.write_text("\n" + "\n\n \t\n".join(lines) + "\n\n")
    assert read_detection_trace(spaced) == records


@pytest.mark.parametrize("mark", ["\u2028", "\u0085"])
def test_trace_readers_end_lines_at_newlines_only(tmp_path, mark):
    """A JSON string may hold a raw U+2028 or U+0085 (a writer with
    ensure_ascii=False leaves them raw); neither ends a JSON Lines line, so
    such a line parses and a bad line after it is named by its own number."""
    box = Roi(1.0, 2.0, 3.0, 4.0, label=f"a{mark}b", score=0.5)
    line = json.dumps({"frame": 0, "kind": "I", "boxes": [box.to_dict()]}, ensure_ascii=False)
    assert mark in line
    p = tmp_path / "trace.jsonl"
    p.write_text(line + "\n", encoding="utf-8")
    assert read_detection_trace(p) == {0: [box]}
    assert ResultTrace.load(p).frames[0].detections == (Detection(0, box),)
    p.write_text(line + "\n" + json.dumps({"frame": 1, "kind": "E", "boxes": 3}) + "\n", encoding="utf-8")
    for read in (read_detection_trace, ResultTrace.load):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}:2: boxes: expected a list"):
            read(p)


def test_result_trace_readable_as_detection_trace(tmp_path):
    fields, provider = static_setup(6)
    trace = run_pipeline(provider, PipelineConfig(mode="ew:2"), StoredMotion(fields))
    p = tmp_path / "trace.jsonl"
    trace.save(p)
    records = read_detection_trace(p)  # config echo line must be skipped
    assert set(records) == set(range(6))
    assert all(len(v) == 1 for v in records.values())


def test_provider_noise_determinism_and_missing():
    box = Roi(10, 10, 20, 20)
    provider = TraceProvider({0: [box]}, noise_sigma=2.0, seed=9)
    a = provider.detections(0)
    b = provider.detections(0)
    assert a == b
    assert a != [box]
    # Plain floats, so a message that names a jittered box shows its numbers.
    assert all(type(v) is float for r in a for v in (r.x, r.y, r.w, r.h))
    with pytest.raises(MissingDataError):
        provider.detections(1)
