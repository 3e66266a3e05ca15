"""The traced benchmark wraps functions at the names their callers look them
up through; this keeps those names in place without running the benchmark."""

import importlib.util
import sys
from pathlib import Path

from euphrates import cli, metrics, pixels, scheduler
from euphrates.pixels import SynthConfig, generate_sequence
from euphrates.roi import Roi
from euphrates.scheduler import AdaptiveParams, PipelineConfig, ResultTrace, TraceProvider

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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
                            (cli, "estimate_motion_field"), (scheduler, "estimate_motion_field")]:
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
        trace = scheduler.run_pipeline(provider, cfg, frames=frames)
    finally:
        tracer.uninstall()
    # E-frames, and I-frames that compare a carried prediction, each need one field.
    needed = [f for f in trace.frames if f.kind == "E" or f.diff is not None]
    spans = [s for s in tracer.spans if s.name == "motion.estimate"]
    assert len(needed) >= 4 and any(f.kind == "I" for f in needed)
    assert len(spans) == len(needed)
    assert all(s.attrs["site"] == "scheduler" for s in spans)


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
        trace = scheduler.run_pipeline(provider, cfg, frames=frames)
    finally:
        tracer.uninstall()
    assert trace.to_jsonl() == scheduler.run_pipeline(provider, cfg, frames=frames).to_jsonl()
    spans = [s for s in tracer.spans if s.name == "extrapolate.extrapolate_track"]
    assert {s.attrs["lost"] for s in spans} == {True, False}
    assert all("new_cells" in s.attrs for s in spans)
