"""The traced benchmark wraps functions at the names their callers look them
up through; this keeps those names in place without running the benchmark."""

import importlib
import json
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from euphrates import cli, metrics, pixels, scheduler
from euphrates.motion import decode_metadata
from euphrates.pixels import SynthConfig, generate_sequence, save_sequence
from euphrates.roi import Roi
from euphrates.scheduler import AdaptiveParams, PipelineConfig, ResultTrace, TraceProvider

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
OWNERS = (cli, metrics, pixels, scheduler, ResultTrace, TraceProvider)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_the_hooked_names_and_uninstall_restores_them():
    tracer_mod = load_tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        for owner, attr in [(cli, "decode_metadata"), (pixels, "load_frame"), (scheduler, "extrapolate_track"),
                            (cli, "estimate_motion_field"), (scheduler, "estimate_motion_field"),
                            # scheduler.trace_io
                            (cli, "read_detection_trace"), (scheduler, "read_detection_trace"),
                            (ResultTrace, "load"), (ResultTrace, "save")]:
            assert (owner, attr) in patched
            assert vars(owner)[attr] is not before[OWNERS.index(owner)][attr]
    finally:
        tracer.uninstall()
    for owner, names in zip(OWNERS, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in names.items()), owner


def test_pipeline_estimates_each_needed_field_through_the_hooked_name():
    # The traced run counts fields by the spans of scheduler.estimate_motion_field;
    # a search that bypassed that name would drop out of motion.unique_field_ratio.
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    frames, rois = generate_sequence(SynthConfig((96, 64), (32, 24), 9, ((2, 1),), seed=4))
    provider = TraceProvider({i: [r] for i, r in enumerate(rois)})
    cfg = PipelineConfig(mode="adaptive", adaptive=AdaptiveParams(initial_ew=2, k_up=1))
    try:
        tracer_mod.instrument(tracer)
        trace = scheduler.run_pipeline(provider, cfg, scheduler.FrameMotion(frames, cfg.motion))
    finally:
        tracer.uninstall()
    # E-frames, and I-frames that compare a carried prediction, each need one field.
    needed = [f for f in trace.frames if f.kind == "E" or f.diff is not None]
    spans = [s for s in tracer.spans if s.name == "motion.estimate"]
    assert len(needed) >= 4 and any(f.kind == "I" for f in needed)
    assert len(spans) == len(needed)
    assert all(s.attrs["site"] == "scheduler" for s in spans)


def test_a_sweep_estimates_each_field_a_variant_needs_through_the_hooked_name(tmp_path):
    # Variants share the MBs searched for each field, yet each field a variant
    # needs is still one scheduler.estimate_motion_field call whose own result
    # reaches extrapolation: the traced run counts fields by those spans and
    # finds each field's MBs by the id of its result.
    frames, rois = generate_sequence(SynthConfig((96, 64), (32, 24), 9, ((2, 1),), seed=4))
    save_sequence(frames, tmp_path / "frames")
    dets = tmp_path / "dets.jsonl"
    dets.write_text("".join(json.dumps({"frame": i, "boxes": [r.to_dict()]}) + "\n" for i, r in enumerate(rois)))
    variants = cli._sweep_variants(cli.RunConfig(frames_dir=str(tmp_path / "frames"), detections=str(dets)),
                                   "ew", "2,3,4")
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        rows = cli.run_sweep(variants, "ew")
    finally:
        tracer.uninstall()
    needed = [f for row in rows for f in row[4].frames if f.kind == "E" or f.diff is not None]
    spans = [s for s in tracer.spans if s.name == "motion.estimate"]
    assert len(rows) == 3 and len(spans) == len(needed) > 0
    assert all(s.attrs["site"] == "scheduler" for s in spans)
    extrapolations = [s for s in tracer.spans if s.name == "extrapolate.extrapolate_track"]
    assert extrapolations and all("new_cells" in s.attrs for s in extrapolations)
    assert 0 < tracer_mod.layer_metrics(tracer.spans, 1)["motion.unique_field_ratio"] < 1


def test_simulate_decodes_each_mvm_file_through_the_hooked_name(tmp_path):
    # The traced run counts .mvm decodes by the spans of cli.decode_metadata;
    # a field loader moved out of cli would drop out of motion.decode.*.
    frames, rois = generate_sequence(SynthConfig((96, 64), (32, 24), 6, ((2, 1),), seed=4))
    save_sequence(frames, tmp_path / "frames")
    assert cli.main(["estimate", "--frames", str(tmp_path / "frames"), "--out", str(tmp_path / "mv")]) == 0
    dets = tmp_path / "dets.jsonl"
    dets.write_text("".join(json.dumps({"frame": i, "boxes": [r.to_dict()]}) + "\n" for i, r in enumerate(rois)))
    files = sorted((tmp_path / "mv").glob("*.mvm"))
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        trace, _ = cli.run_simulation(cli.RunConfig(metadata_dir=str(tmp_path / "mv"), detections=str(dets)))
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.name == "motion.decode"]
    assert len(files) == 5 and len(trace.frames) == 6
    assert sorted(s.attrs["bytes"] for s in spans) == sorted(f.stat().st_size for f in files)


def test_extrapolation_spans_read_the_track_field_and_loss():
    # The tracer reads the track's sub-ROIs and the field from the first two
    # positional arguments of scheduler.extrapolate_track, and a loss from a
    # None ROI in its result; the second box here is off-frame and is lost.
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    frames, rois = generate_sequence(SynthConfig((96, 64), (32, 24), 7, ((2, 1),), seed=4))
    provider = TraceProvider({i: [r, Roi(106.0, 5.0, 12.0, 12.0)] for i, r in enumerate(rois)})
    cfg = PipelineConfig(mode="ew:3")
    try:
        tracer_mod.instrument(tracer)
        trace = scheduler.run_pipeline(provider, cfg, scheduler.FrameMotion(frames, cfg.motion))
    finally:
        tracer.uninstall()
    again = scheduler.run_pipeline(provider, cfg, scheduler.FrameMotion(frames, cfg.motion))
    assert trace.to_jsonl() == again.to_jsonl()
    spans = [s for s in tracer.spans if s.name == "extrapolate.extrapolate_track"]
    assert {s.attrs["lost"] for s in spans} == {True, False}
    assert all("new_cells" in s.attrs for s in spans)


@pytest.fixture()
def bench_modules():
    """bench/checks.py and bench/workloads.py, imported as bench/run.py does,
    with bench/ on sys.path; the path and the module table are restored after."""
    path = list(sys.path)
    saved = {name: sys.modules.pop(name, None) for name in ("checks", "workloads")}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("checks"), importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_bench_references_pass_on_an_estimated_pair(bench_modules, tmp_path):
    # The bench checks each job against exhaustive_search and the codec; a
    # rename or a search change that breaks them should fail here first.
    checks, workloads = bench_modules
    frames, _ = generate_sequence(SynthConfig((100, 70), (32, 24), 2, ((3, -2),), seed=5))
    save_sequence(frames, tmp_path / "frames")
    assert cli.main(["estimate", "--frames", str(tmp_path / "frames"), "--out", str(tmp_path / "mv"),
                     "--mb-size", str(workloads.MB_SIZE), "--search-range", str(workloads.SEARCH_RANGE)]) == 0
    path = tmp_path / "mv" / "000001.mvm"
    _, ok, detail = checks.check_codec(path)
    assert ok, detail
    field = decode_metadata(path.read_bytes())
    _, ok, detail = checks.check_motion_sample(field, frames[0], frames[1], np.random.default_rng(0), path.name)
    assert ok, detail
