"""Acceptance suite: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Every tolerance is pinned here, not configurable.

Criterion 9 note: absolute accuracy numbers from the original hardware
study (AP-loss fractions on large tracking/detection video corpora) need
those datasets plus trained-network outputs and are NOT reproducible at
desk scale. They are substituted by criteria 5-8 plus the qualitative
ordering checks in criterion 9, which run the sweep command on synthetic
sequences engineered to exercise the same failure modes.
"""

import json
import math
import time

import numpy as np
import pytest

from euphrates.cli import main as cli_main
from euphrates.metrics import (
    average_precision,
    iou,
    ops_count,
    success_curve,
)
from euphrates.motion import (
    MotionField,
    MotionParams,
    decode_metadata,
    encode_metadata,
    estimate_motion_field,
    uniform_field,
)
from euphrates.pixels import Frame, SynthConfig, generate_sequence, save_sequence
from euphrates.roi import Roi
from euphrates.scheduler import (
    FrameMotion,
    PipelineConfig,
    StoredMotion,
    TraceProvider,
    run_pipeline,
)
from euphrates.socmodel import (
    PRESETS,
    achieved_fps,
    constant_schedule_kinds,
    summarize,
)

from oracles import naive_field, shifted_pair


def report(n: int, passed: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_op_count_formulas():
    es = ops_count("es", 16, 7)
    tss = ops_count("tss", 16, 7)
    ok = es == 57600 and tss == 6400 and tss * 9 == es
    report(1, ok, f"ops/MB: ES={es} (want 57600), TSS={tss} (want 6400, 8/9 fewer)")


def test_criterion_2_detection_energy_and_fps():
    cfg = PRESETS["yolov2"]
    t0 = time.monotonic()
    fields = [uniform_field(64, 64)] * 999
    provider = TraceProvider({i: [Roi(10, 10, 30, 20)] for i in range(1000)})
    traces = {
        ew: run_pipeline(provider, PipelineConfig(mode=f"ew:{ew}"), StoredMotion(fields))
        for ew in (1, 2, 4)
    }
    reports = {ew: summarize(tr, cfg) for ew, tr in traces.items()}
    elapsed = time.monotonic() - t0

    s2 = reports[2].saving_vs_baseline
    s4 = reports[4].saving_vs_baseline
    f1 = achieved_fps(cfg, 1)
    f2 = achieved_fps(cfg, 2)
    f4 = achieved_fps(cfg, 4)
    ok = (
        abs(s2 - 0.45) <= 0.05
        and abs(s4 - 0.66) <= 0.05
        and abs(f1 - 17.0) <= 1.0
        and abs(f2 - 35.0) <= 2.0
        and f4 == 60.0
        and reports[1].saving_vs_baseline == 0.0
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"detection (YOLOv2): EW2 saving {s2:.1%} (45%+-5pp), EW4 {s4:.1%} (66%+-5pp); "
        f"FPS {f1:.1f}/{f2:.1f}/{f4:.0f} (17+-1, 35+-2, 60 capped); {elapsed:.2f}s",
    )


def test_criterion_3_tracking_energy():
    cfg = PRESETS["mdnet"]
    s2 = summarize(constant_schedule_kinds(1000, 2), cfg).saving_vs_baseline
    s4 = summarize(constant_schedule_kinds(1000, 4), cfg).saving_vs_baseline
    s32 = summarize(constant_schedule_kinds(3200, 32), cfg).saving_vs_baseline
    ok = abs(s2 - 0.21) <= 0.05 and abs(s4 - 0.31) <= 0.05 and abs(s32 - 0.42) <= 0.05
    report(
        3,
        ok,
        f"tracking (MDNet): savings EW2 {s2:.1%} (21%+-5pp), EW4 {s4:.1%} (31%+-5pp), "
        f"EW32 {s32:.1%} (42%+-5pp)",
    )


def test_criterion_4_metadata_size_and_round_trip():
    field = uniform_field(1920, 1080)
    data = encode_metadata(field)
    n_mbs = field.rows * field.cols
    payload_mv_bytes = n_mbs  # one packed byte per MB at d <= 7
    size_ok = n_mbs == 8160 and payload_mv_bytes == 8160 and len(data) == 14 + 5 * 8160

    rng = np.random.default_rng(4242)
    trips = 0
    for _ in range(1000):
        d = int(rng.choice([3, 7, 15]))
        L = int(rng.choice([4, 8, 16, 32]))
        width = int(rng.integers(1, 9)) * L + int(rng.integers(0, L))
        height = int(rng.integers(1, 9)) * L + int(rng.integers(0, L))
        rows, cols = -(-height // L), -(-width // L)
        f = MotionField(
            width,
            height,
            MotionParams(L, d, "es" if rng.integers(2) else "tss"),
            rng.integers(-d, d + 1, size=(rows, cols, 2)).astype(np.int16),
            rng.integers(0, 255 * L * L + 1, size=(rows, cols)).astype(np.int64),
        )
        if decode_metadata(encode_metadata(f)) == f:
            trips += 1
    ok = size_ok and trips == 1000
    report(
        4,
        ok,
        f"metadata: 1080p/L16/d7 MV payload {payload_mv_bytes} B (~8 KB), "
        f"round-trip identity {trips}/1000 random fields",
    )


def test_criterion_5_motion_oracle_equivalence():
    t0 = time.monotonic()
    params_es = MotionParams()
    params_tss = MotionParams(algorithm="tss")

    es_matches = 0
    tss_dominated = True
    rng = np.random.default_rng(500)
    for seed in range(50):
        r = np.random.default_rng(seed)
        prev = r.integers(0, 256, size=(64, 64), dtype=np.uint8)
        cur = r.integers(0, 256, size=(64, 64), dtype=np.uint8)
        field = estimate_motion_field(Frame(prev), Frame(cur), params_es)
        ref_vectors, ref_sads = naive_field(prev, cur, 16, 7)
        if np.array_equal(field.vectors, ref_vectors) and np.array_equal(field.sads, ref_sads):
            es_matches += 1
        tss_field = estimate_motion_field(Frame(prev), Frame(cur), params_tss)
        if not np.all(tss_field.sads >= field.sads):
            tss_dominated = False

    shift_exact = 0
    shift_total = 0
    for seed in range(50):
        u = int(rng.integers(-7, 8))
        v = int(rng.integers(-7, 8))
        prev, cur = shifted_pair(seed, 64, 64, (u, v))
        for params in (params_es, params_tss):
            field = estimate_motion_field(Frame(prev), Frame(cur), params)
            for row in range(field.rows):
                for col in range(field.cols):
                    sx, sy = col * 16 - u, row * 16 - v
                    if 0 <= sx <= 48 and 0 <= sy <= 48:
                        shift_total += 1
                        mv = field.vector_at(row, col)
                        if (mv.u, mv.v) == (u, v) and field.sads[row, col] == 0:
                            shift_exact += 1
    elapsed = time.monotonic() - t0
    ok = es_matches == 50 and tss_dominated and shift_exact == shift_total and elapsed < 30.0
    report(
        5,
        ok,
        f"oracle equivalence: ES==naive on {es_matches}/50 pairs; TSS SAD>=ES SAD everywhere: "
        f"{tss_dominated}; pure-shift exact on {shift_exact}/{shift_total} interior MBs; "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_6_rigid_tracking_exactness():
    spec = SynthConfig((192, 144), (64, 48), 32, ((2, 1),), seed=5, background="flat")
    frames, rois = generate_sequence(spec)
    provider = TraceProvider({i: [r] for i, r in enumerate(rois)})
    trace = run_pipeline(provider, PipelineConfig(mode="ew:4"), FrameMotion(frames, MotionParams()))
    ious = [
        iou(rec.detections[0].roi, gt)
        for rec, gt in zip(trace.frames, rois)
        if rec.kind == "E"
    ]
    mean_rigid = float(np.mean(ious))

    traj = tuple((3, 1) if t % 2 == 0 else (-2, 2) for t in range(31))
    spec2 = SynthConfig((192, 144), (64, 48), 32, traj, seed=6, background="flat", start=(30, 10))
    frames2, rois2 = generate_sequence(spec2)
    provider2 = TraceProvider({i: [r] for i, r in enumerate(rois2)})
    trace2 = run_pipeline(provider2, PipelineConfig(mode="ew:4"), FrameMotion(frames2, MotionParams()))
    ious2 = [iou(rec.detections[0].roi, gt) for rec, gt in zip(trace2.frames, rois2)]
    mean_alt = float(np.mean(ious2))

    ok = mean_rigid >= 0.99 and mean_alt >= 0.9
    report(
        6,
        ok,
        f"rigid tracking: constant-velocity E-frame mean IoU {mean_rigid:.4f} (>=0.99); "
        f"alternating-velocity mean IoU {mean_alt:.4f} (>=0.9)",
    )


def test_criterion_7_scheduler_algebra():
    checks = []

    for n, ew in [(100, 4), (97, 5), (10, 2), (50, 1)]:
        fields = [uniform_field(48, 48)] * (n - 1)
        provider = TraceProvider({i: [Roi(5, 5, 20, 15)] for i in range(n)})
        trace = run_pipeline(provider, PipelineConfig(mode=f"ew:{ew}"), StoredMotion(fields))
        checks.append(trace.n_iframes == math.ceil(n / ew))

    records = {i: [Roi(float(i), 2.0, 8.0, 6.0, label=3, score=0.4)] for i in range(8)}
    fields = [uniform_field(48, 48)] * 7
    trace = run_pipeline(TraceProvider(records), PipelineConfig(mode="ew:1"), StoredMotion(fields))
    checks.append(all(f.kind == "I" for f in trace.frames))
    checks.append(all([d.roi for d in f.detections] == records[f.index] for f in trace.frames))

    n = 1900
    fields = [uniform_field(48, 48)] * (n - 1)
    provider = TraceProvider({i: [Roi(8, 8, 20, 16)] for i in range(n)})
    trace = run_pipeline(provider, PipelineConfig(mode="adaptive"), StoredMotion(fields))
    ews = [f.ew for f in trace.frames if f.kind == "I"]
    checks.append(all(1 <= e <= 32 for e in ews))
    checks.append(all(abs(b - a) <= 1 for a, b in zip(ews, ews[1:])))
    checks.append(max(ews) == 32 and ews[-1] == 32)

    report(
        7,
        all(checks),
        "scheduler algebra: ceil(T/EW) inferences, EW1 == provider verbatim, adaptive EW in "
        f"[1,32] stepping by <=1 and reaching 32 (final EW {ews[-1]})",
    )


def test_criterion_8_metric_properties():
    rng = np.random.default_rng(88)
    props_ok = True
    for _ in range(10_000):
        a = Roi(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.1, 60), rng.uniform(0.1, 60))
        b = Roi(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.1, 60), rng.uniform(0.1, 60))
        ab = iou(a, b)
        if not (0.0 <= ab <= 1.0 and ab == iou(b, a) and iou(a, a) == 1.0):
            props_ok = False
            break

    exact_third = iou(Roi(0, 0, 10, 10), Roi(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    det, gt = [], []
    for _ in range(40):
        boxes = [
            Roi(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(4, 20), rng.uniform(4, 20))
            for _ in range(3)
        ]
        gt.append(boxes)
        det.append(
            [Roi(b.x + rng.uniform(-4, 4), b.y + rng.uniform(-4, 4), b.w, b.h) for b in boxes]
        )
    taus = tuple(i / 20 for i in range(21))
    ap_values = [average_precision(det, gt, t) for t in taus]
    ap_monotone = all(x >= y for x, y in zip(ap_values, ap_values[1:]))

    preds = [d[0] for d in det]
    singles = [g[0] for g in gt]
    rates = [r for _, r in success_curve(preds, singles, taus)]
    success_monotone = all(x >= y for x, y in zip(rates, rates[1:]))

    ok = props_ok and exact_third and ap_monotone and success_monotone
    report(
        8,
        ok,
        f"metric properties: IoU symmetry/bounds/identity on 10^4 pairs ({props_ok}), "
        f"(0,0,10,10)/(5,0,10,10) == 1/3 ({exact_third}), AP monotone ({ap_monotone}), "
        f"success monotone ({success_monotone})",
    )


def _sweep_table(tmp_path, name, frames_dir, axis, values, mode="ew:16"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(
        json.dumps(
            {
                "frames_dir": str(frames_dir),
                "detections": str(frames_dir / "truth.jsonl"),
                **({} if axis == "ew" else {"mode": mode}),  # an ew sweep sets each run's mode
            }
        )
    )
    out = tmp_path / f"{name}_out"
    rc = cli_main(
        ["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values, "--out", str(out)]
    )
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    table = {}
    for row in rows:
        cells = row.split(",")
        key = int(cells[0]) if axis != "algorithm" else cells[0]
        table[key] = float(cells[1])
    return table


def test_criterion_9_qualitative_orderings_via_sweep(tmp_path):
    print(
        "[criterion 9] note: absolute accuracy losses from the original hardware study "
        "(large video corpora + trained detector/tracker outputs) are not reproducible at "
        "desk scale; substituted by criteria 5-8 plus these sweep-command ordering checks "
        "on synthetic sequences."
    )

    # fast-motion sequence: periodic displacement spikes beyond the search
    # range make extrapolation errors accumulate with the window size
    traj = []
    for t in range(84):
        if t % 14 == 6:
            traj.append((11, 0))
        elif t % 14 == 13:
            traj.append((-11, 0))
        else:
            traj.append((3, 1) if t % 2 == 0 else (-3, -1))
    spec = SynthConfig((160, 120), (48, 32), 85, tuple(traj), seed=17, background="noise", start=(30, 30))
    frames, rois = generate_sequence(spec)
    fast_dir = tmp_path / "fast"
    save_sequence(frames, fast_dir)
    lines = [json.dumps({"frame": i, "boxes": [r.to_dict()]}) for i, r in enumerate(rois)]
    (fast_dir / "truth.jsonl").write_text("\n".join(lines) + "\n")

    acc = _sweep_table(tmp_path, "ew", fast_dir, "ew", "1,2,4,8,16")
    ew_order = [acc[k] for k in (1, 2, 4, 8, 16)]
    ew_ok = all(a >= b for a, b in zip(ew_order, ew_order[1:])) and acc[1] == 1.0

    # bounded-loop sequence over a textured background for the granularity
    # and search-quality studies
    traj2 = tuple((2, 1) if (t // 10) % 2 == 0 else (-2, -1) for t in range(99))
    spec2 = SynthConfig((192, 128), (64, 48), 100, traj2, seed=21, background="noise", start=(30, 20))
    frames2, rois2 = generate_sequence(spec2)
    loop_dir = tmp_path / "loop"
    save_sequence(frames2, loop_dir)
    lines2 = [json.dumps({"frame": i, "boxes": [r.to_dict()]}) for i, r in enumerate(rois2)]
    (loop_dir / "truth.jsonl").write_text("\n".join(lines2) + "\n")

    mb = _sweep_table(tmp_path, "mb", loop_dir, "mb_size", "4,16,128")
    mb_ok = mb[16] >= mb[4] - 1e-9 and mb[16] > mb[128] + 0.05

    algo = _sweep_table(tmp_path, "algo", loop_dir, "algorithm", "es,tss")
    algo_ok = abs(algo["es"] - algo["tss"]) <= 0.1

    ok = ew_ok and mb_ok and algo_ok
    report(
        9,
        ok,
        "sweep orderings: accuracy@0.5 non-increasing in EW "
        f"{[round(v, 3) for v in ew_order]}; MB 16 ({mb[16]:.3f}) weakly dominates "
        f"4 ({mb[4]:.3f}) and beats 128 ({mb[128]:.3f}); TSS ~= ES "
        f"({algo['tss']:.3f} vs {algo['es']:.3f})",
    )
