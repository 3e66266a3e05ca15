"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

`instrument` wraps the public functions of each euphrates layer at the names
their callers resolve them through (module globals, or class attributes for
methods), so the program's source is untouched. A span records its name,
start, end, parent span and job id, plus a few counts taken at the same
boundary. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Records spans; a span's parent is the innermost open span of its thread,
    or, on a pool thread with none open, the innermost open span of the
    thread that created the tracer (the one running the jobs)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()  # guards hook state shared across threads
        self._patches: list[tuple[object, str, object]] = []
        # Per job, keyed by id() and holding the object so the id stays unique:
        # the file each loaded frame came from, the MBs read of each field.
        self.frame_paths: dict[int, tuple[object, str]] = {}
        self.field_cells: dict[int, tuple[object, set]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        record = Span(sid, name, 0.0, 0.0, parent, self.job, attrs if attrs is not None else {})
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span per call.

        `before(args, kwargs)` and `after(args, kwargs, result)` return span
        attributes; they run outside the span's interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            with self.span(name, attrs) as record:
                result = fn(*args, **kwargs)
            if after:
                with self._lock:
                    record.attrs.update(after(args, kwargs, result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_job(self) -> None:
        self.frame_paths.clear()
        self.field_cells.clear()


# ---------------------------------------------------------------------------
# What is wrapped, and the counts taken at each boundary


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public entry points used by the benchmark's jobs."""
    from euphrates import cli, metrics, pixels, scheduler
    from euphrates.scheduler import ResultTrace, TraceProvider

    def load_after(args, kwargs, result):
        tracer.frame_paths[id(result)] = (result, str(args[0]))
        return {"path": str(args[0])}

    tracer.wrap(pixels, "load_frame", "pixels.load_frame", after=load_after)

    def estimate_before(args, kwargs):
        # The files both frames came from identify the pair however often it
        # is reloaded (synthetic sequences can repeat whole frames).
        paths = [tracer.frame_paths.get(id(f), (None, f"unloaded:{id(f)}"))[1] for f in args[:2]]
        return {"pair": "|".join(paths)}

    def estimate_after(site):
        def after(args, kwargs, result):
            p = result.params
            mbs = result.rows * result.cols
            if site == "scheduler":
                # Holding the field keeps its id unique while the job runs.
                tracer.field_cells[id(result)] = (result, set())
            return {"site": site, "algo": p.algorithm, "params": f"{p.mb_size}/{p.search_range}/{p.algorithm}",
                    "mbs": mbs, "ops": metrics.ops_count(p.algorithm, p.mb_size, p.search_range) * mbs}
        return after

    for module, site in ((cli, "cli"), (scheduler, "scheduler")):
        tracer.wrap(module, "estimate_motion_field", "motion.estimate",
                    before=estimate_before, after=estimate_after(site))
    tracer.wrap(cli, "decode_metadata", "motion.decode", before=lambda a, k: {"bytes": len(a[0])})

    def extrapolate_before(args, kwargs):
        state, fld = args[0], args[1]
        entry = tracer.field_cells.get(id(fld))
        if entry is None:
            return {}
        # Macroblocks whose vectors this track reads: those its sub-ROIs overlap.
        cells, L = entry[1], fld.params.mb_size
        with tracer._lock:
            before = len(cells)
            for sub in state.sub_tracks:
                r = sub.roi
                c0, c1 = max(0, math.floor(r.x / L)), min(fld.cols, math.ceil(r.x2 / L))
                r0, r1 = max(0, math.floor(r.y / L)), min(fld.rows, math.ceil(r.y2 / L))
                cells.update((row, col) for row in range(r0, r1) for col in range(c0, c1))
            return {"new_cells": len(cells) - before}

    tracer.wrap(scheduler, "extrapolate_track", "extrapolate.extrapolate_track",
                before=extrapolate_before, after=lambda a, k, r: {"lost": r[1] is None})
    tracer.wrap(cli, "run_pipeline", "scheduler.run_pipeline",
                after=lambda a, k, r: {"iframes": r.n_iframes, "eframes": len(r.frames) - r.n_iframes})
    tracer.wrap(TraceProvider, "detections", "scheduler.provider")
    tracer.wrap(scheduler, "prediction_diff", "scheduler.prediction_diff")
    for module in (cli, scheduler):
        tracer.wrap(module, "read_detection_trace", "scheduler.trace_io",
                    after=lambda a, k, r: _file_bytes(a[0]))
    tracer.wrap(ResultTrace, "save", "scheduler.trace_io", after=lambda a, k, r: _file_bytes(a[1]))
    tracer.wrap(ResultTrace, "load", "scheduler.trace_io", after=lambda a, k, r: _file_bytes(a[1]))
    for module in (scheduler, metrics):
        tracer.wrap(module, "greedy_match", "metrics.greedy_match",
                    before=lambda a, k: {"pairs": len(a[0]) * len(a[1])})
    tracer.wrap(cli, "average_precision", "metrics.average_precision")
    tracer.wrap(cli, "success_curve", "metrics.success_curve")
    tracer.wrap(cli, "summarize", "socmodel.summarize")
    tracer.wrap(cli, "run_simulation", "cli.run_simulation")
    tracer.wrap(cli, "run_sweep", "cli.run_sweep")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _duration(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval its children cover."""
    covered, run_start, run_end = 0.0, None, None
    for a, b in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return span.end - span.start - covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_jobs: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase; counts and times are per job."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def per_job(x: float) -> float:
        return x / n_jobs

    def attr_sum(group, key) -> float:
        return sum(s.attrs.get(key, 0) for s in group)

    def self_s(name) -> float:
        return per_job(sum(_self_time(s, children[s.id]) for s in by_name[name]))

    out: dict[str, float] = {}
    loads = by_name["pixels.load_frame"]
    unique_loads = defaultdict(set)
    for s in loads:
        unique_loads[s.job].add(s.attrs["path"])
    out["pixels.load_frame.calls"] = per_job(len(loads))
    out["pixels.load_frame.s"] = per_job(_duration(loads))
    out["pixels.loads_per_unique_frame"] = _ratio(len(loads), sum(map(len, unique_loads.values())))

    estimates = by_name["motion.estimate"]
    es = [s for s in estimates if s.attrs["algo"] == "es"]
    busy = _duration(es)
    out["motion.es.calls"] = per_job(len(es))
    out["motion.es.s"] = per_job(busy)
    out["motion.es.mb"] = per_job(attr_sum(es, "mbs"))
    out["motion.es.gops_per_s"] = _ratio(attr_sum(es, "ops") / 1e9, busy)
    in_pipeline = [s for s in estimates if s.attrs["site"] == "scheduler"]
    extrapolations = by_name["extrapolate.extrapolate_track"]
    out["motion.mb_used_ratio"] = _ratio(attr_sum(extrapolations, "new_cells"), attr_sum(in_pipeline, "mbs"))
    distinct = {(s.job, s.attrs["pair"], s.attrs["params"]) for s in estimates}
    out["motion.unique_field_ratio"] = _ratio(len(distinct), len(estimates))
    out["motion.decode.s"] = per_job(_duration(by_name["motion.decode"]))
    out["motion.decode.calls"] = per_job(len(by_name["motion.decode"]))
    out["motion.metadata_bytes"] = per_job(attr_sum(by_name["motion.decode"], "bytes"))

    busy = _duration(extrapolations)
    out["extrapolate.calls"] = per_job(len(extrapolations))
    out["extrapolate.s"] = per_job(busy)
    out["extrapolate.us_per_call"] = _ratio(busy * 1e6, len(extrapolations))
    out["extrapolate.lost_ratio"] = _ratio(sum(1 for s in extrapolations if s.attrs["lost"]), len(extrapolations))

    pipelines = by_name["scheduler.run_pipeline"]
    out["scheduler.run_pipeline.self_s"] = self_s("scheduler.run_pipeline")
    out["scheduler.iframes"] = per_job(attr_sum(pipelines, "iframes"))
    out["scheduler.eframes"] = per_job(attr_sum(pipelines, "eframes"))
    out["scheduler.provider.s"] = per_job(_duration(by_name["scheduler.provider"]))
    out["scheduler.prediction_diff.calls"] = per_job(len(by_name["scheduler.prediction_diff"]))
    out["scheduler.prediction_diff.s"] = per_job(_duration(by_name["scheduler.prediction_diff"]))
    out["scheduler.trace_io.s"] = per_job(_duration(by_name["scheduler.trace_io"]))
    out["scheduler.trace_bytes"] = per_job(attr_sum(by_name["scheduler.trace_io"], "bytes"))

    matches = by_name["metrics.greedy_match"]
    out["metrics.greedy_match.calls"] = per_job(len(matches))
    out["metrics.greedy_match.s"] = per_job(_duration(matches))
    out["metrics.iou_pairs"] = per_job(attr_sum(matches, "pairs"))
    out["metrics.average_precision.s"] = per_job(_duration(by_name["metrics.average_precision"]))
    out["metrics.success_curve.s"] = per_job(_duration(by_name["metrics.success_curve"]))
    out["socmodel.summarize.s"] = per_job(_duration(by_name["socmodel.summarize"]))

    out["cli.run_simulation.self_s"] = self_s("cli.run_simulation")
    variants = [s for s in by_name["cli.run_simulation"]
                if s.parent is not None and by_id[s.parent].name == "cli.run_sweep"]
    out["cli.sweep.variants"] = per_job(len(variants))
    out["cli.sweep.queue_wait_s"] = per_job(sum(s.start - by_id[s.parent].start for s in variants))
    out["cli.sweep.parallelism"] = _ratio(_duration(variants), _duration(by_name["cli.run_sweep"]))
    return out
