"""The traced benchmark wraps functions at the names their callers look them
up through; this keeps those names in place without running the benchmark."""

import importlib.util
import sys
from pathlib import Path

from euphrates import cli, metrics, pixels, scheduler
from euphrates.scheduler import ResultTrace, TraceProvider

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
