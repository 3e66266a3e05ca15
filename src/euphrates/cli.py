"""Command-line entry point.

Subcommands map onto the library's stages so a whole experiment is a few
shell lines:

  euphrates synth     --out frames/ --canvas 192x144 --object 64x48 \
                      --frames 60 --velocity 2,1
  euphrates estimate  --frames frames/ --out mv/
  euphrates simulate  --config run.json --mode ew:4 --out sim/
  euphrates evaluate  --trace sim/trace.jsonl --truth frames/truth.jsonl --out eval/
  euphrates sweep     --config run.json --axis ew --values 1,2,4,8 --out sweep/

Configuration lives in JSON files; flags override config fields. Every
output embeds the effective configuration and the tool version, so a run
can be reproduced byte-exactly from any of its outputs. Output paths are
not part of the echoed config.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, TypeVar

from . import __version__
from .config import ConfigNode, decoding, merge_overrides
from .errors import ConfigError, EuphratesError, MetadataError, MissingDataError
from .metrics import DEFAULT_THRESHOLDS, average_precision, precision_at, success_curve
from .motion import MAX_FRAME_SIDE, MotionField, MotionParams, decode_metadata, encode_metadata
from .motion import encoded_size, estimate_motion_field
from .pixels import SynthConfig, generate_sequence, load_sequence, read_sequence, save_sequence
from .roi import Roi
from .scheduler import FrameMotion, PipelineConfig, ResultTrace, StoredMotion, TraceProvider
from .scheduler import read_detection_trace, run_pipeline
from .socmodel import EnergyReport, SocConfig, summarize

T = TypeVar("T")


def _int(text: str) -> int:
    """`text` as an int: an optional '-' then ASCII digits; ValueError on the
    '+', '_', spaces and non-ASCII digits that int() accepts."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its usage error: "invalid int value"


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = map(_int, text.split("x" if "x" in text else ","))
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r}, expected two integers") from None
    return a, b


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class ProviderParams(ConfigNode):
    """Gaussian jitter of replayed detection boxes, seeded by the run's `seed`.
    A sigma beyond the largest frame side moves boxes off any frame."""

    noise_sigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.noise_sigma <= MAX_FRAME_SIDE:
            raise ConfigError(f"noise_sigma must be within [0, {MAX_FRAME_SIDE}], got {self.noise_sigma}")


@dataclass(frozen=True)
class RunConfig(PipelineConfig):
    """Everything one simulate run reads; its `to_dict` is the echo in every
    output, and a run from that echo reproduces the outputs byte-exactly."""

    frames_dir: str | None = None
    metadata_dir: str | None = None
    detections: str | None = None
    truth: str | None = None
    provider: ProviderParams = field(default_factory=ProviderParams)
    soc: SocConfig = field(default_factory=SocConfig)
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _load_config(cls: type[ConfigNode], config_path: str | None, args: argparse.Namespace | None):
    """Effective configuration: `cls` defaults <- config file <- flags. A
    flag's dest is the dotted path of the field it sets, so every dest of
    `args` that starts with a field of `cls` is a flag (None: not given).
    The merged configuration is checked once, so a file may rely on flags."""
    given = vars(args) if args else {}
    flags = {dest: value for dest, value in given.items() if dest.split(".")[0] in cls.__dataclass_fields__}
    p = config_path and Path(config_path)
    if p and not os.path.isfile(p):  # False where Path.is_file raises, as for a name too long
        raise ConfigError(f"config file not found: {p}")
    with decoding(p):
        data = json.loads(p.read_text(encoding="utf-8")) if p else {}
        return cls.from_dict(merge_overrides(data, flags))


def build_run_config(config_path: str | None, args: argparse.Namespace | None = None) -> RunConfig:
    """Effective run configuration: defaults <- config file <- flags."""
    return _load_config(RunConfig, config_path, args)


def _out_dir(path: str | Path) -> Path:
    """`path` as a directory, made with its parents if missing; ConfigError
    when it or one of its parents is a file, or a name in it is too long."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        if e.errno not in (errno.EEXIST, errno.ENOTDIR, errno.ENAMETOOLONG):
            raise
        raise ConfigError(f"output directory {out}: {e.strerror}") from None
    return out


def _echo_header(cfg: dict) -> str:
    return json.dumps({"config": cfg, "version": __version__}, sort_keys=True)


def _write_csv(path: Path, cfg: dict, header: list[str], rows: list[tuple]) -> None:
    buf = io.StringIO()
    buf.write("# " + _echo_header(cfg) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(SynthConfig, args.config, args)
    frames, rois = generate_sequence(cfg)
    out = _out_dir(args.out)
    save_sequence(frames, out)

    lines = [_echo_header({"synthetic": replace(cfg, trajectory=cfg.steps).to_dict()})]
    for t, roi in enumerate(rois):
        lines.append(json.dumps({"frame": t, "boxes": [roi.to_dict()]}, sort_keys=True))
    (out / "truth.jsonl").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(frames)} frames ({frames[0].width}x{frames[0].height}) and truth.jsonl to {out}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    frames = load_sequence(args.frames)
    if len(frames) < 2:
        raise ConfigError(f"{args.frames}: need at least 2 frames, found {len(frames)}")
    params = _load_config(MotionParams, None, args)
    encoded_size(frames[0].width, frames[0].height, params)  # the .mvm header holds the frame size
    out = _out_dir(args.out)
    total = 0
    for t in range(1, len(frames)):
        field = estimate_motion_field(frames[t - 1], frames[t], params)
        data = encode_metadata(field)
        (out / f"{t:06d}.mvm").write_bytes(data)
        total += len(data)
        if t == 1:
            print(f"grid {field.cols}x{field.rows} = {field.cols * field.rows} MBs, {len(data)} bytes per field")
    print(f"wrote {len(frames) - 1} metadata files ({total} bytes) to {out}")
    return 0


def _load_fields_dir(directory: str | Path, params: MotionParams) -> list[MotionField]:
    """Fields of 000001.mvm .. N.mvm, which must all share frame size and
    carry the run's motion `params`."""
    def decode(path: Path) -> MotionField:
        try:
            fld = decode_metadata(path.read_bytes())
        except MetadataError as e:
            raise MetadataError(f"{path}: {e}") from None
        if fld.params != params:
            raise ConfigError(f"{path}: {fld.params} differs from the config's motion {params}")
        return fld
    return read_sequence(directory, ".mvm", 1, decode)


def _check_sources(cfg: RunConfig) -> Path:
    """The detections trace path of a run that names exactly one of
    `frames_dir` and `metadata_dir` and an existing detections file."""
    if cfg.frames_dir and cfg.metadata_dir:
        raise ConfigError("config must name one input source, not both frames_dir and metadata_dir")
    if not (cfg.frames_dir or cfg.metadata_dir):
        raise ConfigError("config needs either 'frames_dir' or 'metadata_dir'")
    if cfg.detections is None:
        raise ConfigError("config needs a 'detections' trace path")
    det_path = Path(cfg.detections)
    if not os.path.isfile(det_path):
        raise ConfigError(f"detections trace not found: {det_path}")
    return det_path


def _read_once(inputs: dict, key: tuple, read: Callable[[], T]) -> T:
    """`inputs[key]`, which `read()` gives the first time it is asked for."""
    if key not in inputs:
        inputs[key] = read()
    return inputs[key]


def run_simulation(cfg: RunConfig | dict, inputs: dict | None = None) -> tuple[ResultTrace, EnergyReport]:
    """Execute one simulate run from an effective config or its JSON echo;
    pure in-memory. `inputs` holds what earlier runs of one sweep read: the
    parsed trace of each path, the frames of each `frames_dir`, and the
    motion source of each input directory and motion pair. The run reads
    what is missing there and adds it; a run without `inputs` reads all of
    its own."""
    if isinstance(cfg, dict):
        cfg = RunConfig.from_dict(cfg)
    inputs = {} if inputs is None else inputs
    det_path = _check_sources(cfg)
    records = _read_once(inputs, ("trace", det_path), lambda: read_detection_trace(det_path))
    provider = TraceProvider(records, cfg.provider.noise_sigma, cfg.seed)
    def source() -> FrameMotion | StoredMotion:
        if cfg.metadata_dir:
            return StoredMotion(_load_fields_dir(cfg.metadata_dir, cfg.motion))
        frames = _read_once(inputs, ("frames", cfg.frames_dir), lambda: load_sequence(cfg.frames_dir))
        return FrameMotion(frames, cfg.motion)
    motion = _read_once(inputs, ("motion", cfg.frames_dir or cfg.metadata_dir, cfg.motion), source)
    try:
        trace = run_pipeline(provider, cfg, motion)
    except (ConfigError, MissingDataError) as e:  # a detection no track can be seeded from, or no record
        raise e.__class__(f"{det_path}: {e}") from None
    trace.version = __version__
    report = summarize(trace, cfg.soc)
    return trace, report


def _write_run(out: Path, trace: ResultTrace, report: EnergyReport) -> None:
    """trace.jsonl and energy.json of one simulate run, in directory `out`."""
    out = _out_dir(out)
    trace.save(out / "trace.jsonl")
    energy = {"config": trace.config, "version": __version__, "report": report.to_dict()}
    (out / "energy.json").write_text(json.dumps(energy, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_run_config(args.config, args)
    out = _out_dir(args.out)
    trace, report = run_simulation(cfg)
    _write_run(out, trace, report)
    _write_csv(out / "energy.csv", trace.config, ["component", "mj", "percent"], report.csv_rows())
    print(report.to_text())
    print(f"wrote trace.jsonl, energy.json, energy.csv to {out}")
    return 0


def _aligned_boxes(
    trace: ResultTrace, truth: dict[int, list[Roi]]
) -> tuple[list[list[Roi]], list[list[Roi]]]:
    dets, gts = [], []
    for f in trace.frames:
        if f.index not in truth:
            raise MissingDataError(f"frame-index mismatch: no ground truth for frame {f.index}")
        dets.append([d.roi for d in f.detections])
        gts.append(truth[f.index])
    return dets, gts


def evaluate_trace(
    trace: ResultTrace, truth: dict[int, list[Roi]], thresholds: tuple[float, ...]
) -> dict:
    dets, gts = _aligned_boxes(trace, truth)
    result: dict = {
        "frames": len(dets),
        "detections": sum(len(d) for d in dets),
        "ap": list(zip(thresholds, precision_at(dets, gts, thresholds))),
    }
    if dets and all(len(g) == 1 for g in gts):
        preds = [d[0] if d else None for d in dets]
        result["success"] = success_curve(preds, [g[0] for g in gts], thresholds)
    else:
        result["success"] = None
    if result["detections"] == 0:
        print("warning: trace contains no detections; AP is 0 by definition", file=sys.stderr)
    return result


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """`--thresholds` as IoU thresholds: ASCII numbers within [0, 1], ascending."""
    try:
        entries = [t.strip() for t in text.split(",")]
        if not all(t.isascii() and "_" not in t for t in entries):
            raise ValueError("thresholds must be ASCII numbers without '_'")
        thresholds = tuple(map(float, entries))
        if any(not 0.0 <= t <= 1.0 for t in thresholds):
            raise ValueError("thresholds must lie within [0, 1]")
        if list(thresholds) != sorted(thresholds):
            raise ValueError("thresholds must be sorted ascending")
    except ValueError as e:
        raise ConfigError(f"--thresholds {text!r}: {e}") from None
    return thresholds


def cmd_evaluate(args: argparse.Namespace) -> int:
    trace = ResultTrace.load(args.trace)
    truth = read_detection_trace(args.truth)
    cfg = {"trace": str(args.trace), "truth": str(args.truth), "thresholds": list(args.thresholds)}
    result = evaluate_trace(trace, truth, args.thresholds)

    out = _out_dir(args.out)
    _write_csv(out / "ap.csv", cfg, ["threshold", "ap"], result["ap"])
    if result["success"] is not None:
        _write_csv(out / "success.csv", cfg, ["threshold", "success_rate"], result["success"])
    (out / "summary.json").write_text(
        json.dumps({"config": cfg, "version": __version__, "result": result}, sort_keys=True, indent=2)
        + "\n"
    )
    ap_mid = dict(result["ap"]).get(0.5)
    if ap_mid is not None:
        print(f"AP@0.5 = {ap_mid:.4f}")
    print(f"wrote ap.csv{', success.csv' if result['success'] is not None else ''}, summary.json to {out}")
    return 0


def _sweep_variant(cfg: RunConfig, axis: str, value: int | str) -> RunConfig:
    """`cfg` with `mode` "ew:<value>" on the ew axis, else with `value` in the
    `motion` field `axis`, a bad one worded as loading that config words it."""
    if axis == "ew":
        return replace(cfg, mode=f"ew:{value}")
    try:
        return replace(cfg, motion=replace(cfg.motion, **{axis: value}))
    except ValueError as e:  # from MotionParams
        raise ConfigError(f"motion: {e}") from None


def _sweep_variants(cfg: RunConfig, axis: str, values: str) -> dict[int | str, RunConfig]:
    """The run config of each comma-separated `values` entry of a sweep over
    `axis`, in order: algorithm names as text, ew and mb_size values by the
    `_int` rule. The base `cfg` leaves the swept field at its default, and
    every config and the run inputs are checked before any run starts."""
    node, where = (cfg, "mode") if axis == "ew" else (cfg.motion, f"motion.{axis}")
    base, default = (getattr(n, where.split(".")[-1]) for n in (node, type(node)))
    if base != default:  # every run sets its own
        raise ConfigError(f"--axis {axis} sweeps {where}: the base config must leave it at {default!r}, not {base!r}")
    _check_sources(cfg)
    if cfg.truth and not os.path.isfile(cfg.truth):  # run_sweep scores against `truth`, or else `detections`
        raise ConfigError(f"truth trace not found: {cfg.truth}")
    if axis in ("mb_size", "algorithm") and not cfg.frames_dir:
        raise ConfigError(
            f"a {axis} sweep re-estimates motion and needs 'frames_dir'; "
            "precomputed metadata_dir fields are fixed"
        )
    variants: dict[int | str, RunConfig] = {}
    for entry in filter(None, map(str.strip, values.split(","))):
        try:
            value = entry if axis == "algorithm" else _int(entry)
        except ValueError:
            raise ConfigError(f"--values for axis {axis} must be integers") from None
        if value in variants:
            raise ConfigError(f"--values lists {axis}={value} more than once")
        try:
            variants[value] = _sweep_variant(cfg, axis, value)
        except ConfigError as e:
            raise ConfigError(f"sweep run {axis}={value}: {e.__class__.__name__}: {e}") from None
    if not variants:
        raise ConfigError("--values is empty")
    return variants


def run_sweep(variants: dict[int | str, RunConfig], axis: str) -> list[tuple]:
    """One simulate run per variant, scored by AP at IoU 0.5; rows (value,
    accuracy, saving, fps, trace, report) in the order of `variants`.
    The runs share what they read, each read when the first run that needs
    it runs: every trace file is parsed once, for the `truth` the variants
    are scored against and the `detections` they replay, and the frames or
    `.mvm` fields once. Variants with the same motion parameters run on one
    motion source, so each (frame pair, MB) is searched once for all of
    them. Nothing outlives the call: a second sweep reads every file again,
    as it is then."""
    inputs: dict = {}
    first = next(iter(variants.values()))
    truth_path = Path(first.truth or first.detections)
    truth = _read_once(inputs, ("trace", truth_path), lambda: read_detection_trace(truth_path))
    rows = []
    for value, cfg in variants.items():
        try:
            trace, report = run_simulation(cfg, inputs)
            accuracy = average_precision(*_aligned_boxes(trace, truth), 0.5)
        except EuphratesError as e:
            raise ConfigError(f"sweep run {axis}={value}: {e.__class__.__name__}: {e}") from None
        rows.append((value, accuracy, report.saving_vs_baseline, report.achieved_fps, trace, report))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_run_config(args.config, args)
    variants = _sweep_variants(cfg, args.axis, args.values)
    out = _out_dir(args.out)
    rows = run_sweep(variants, args.axis)
    for value, acc, saving, fps, trace, report in rows:
        _write_run(out / f"{args.axis}_{value}", trace, report)
        print(f"{args.axis}={value}: accuracy@0.5 {acc:.4f}, saving {saving:.3f}, fps {fps:.1f}")
    echo = cfg.to_dict()  # less the swept field, which no run used: each energy.json echoes its own
    if args.axis == "ew":
        del echo["mode"]
    else:
        del echo["motion"][args.axis]
    _write_csv(
        out / "sweep.csv",
        {**echo, "sweep": {"axis": args.axis, "values": list(variants)}},
        [args.axis, "accuracy_at_0.5", "energy_saving", "achieved_fps"],
        [row[:4] for row in rows],
    )
    print(f"wrote sweep.csv and per-run outputs to {out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euphrates",
        description="Motion-extrapolated continuous vision simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sequence with ground truth")
    p.add_argument("--config", help="synthetic sequence JSON; flags override its fields")
    p.add_argument("--canvas", type=lambda text: _parse_pair(text, "--canvas"),
                   help="canvas WxH (default %dx%d)" % SynthConfig.canvas)
    p.add_argument("--object", type=lambda text: _parse_pair(text, "--object"),
                   help="object WxH (default %dx%d)" % SynthConfig.object)
    p.add_argument("--frames", type=_int, help=f"default {SynthConfig.frames}")
    p.add_argument("--velocity", dest="trajectory", metavar="VELOCITY",
                   type=lambda text: [_parse_pair(text, "--velocity")],
                   help="per-frame displacement dx,dy (default %d,%d); "
                   "write a negative value as --velocity=-1,2" % SynthConfig.trajectory[0])
    p.add_argument("--start", type=lambda text: _parse_pair(text, "--start"),
                   help="initial top-left x,y, inside the canvas (default: centred)")
    p.add_argument("--background", choices=["flat", "noise"], help=f"default {SynthConfig.background}")
    p.add_argument("--seed", type=_int, help=f"default {SynthConfig.seed}")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", help="estimate motion metadata for a frame directory")
    p.add_argument("--frames", required=True, help="directory of PGM frames")
    p.add_argument("--mb-size", type=_int, help=f"default {MotionParams.mb_size}")
    p.add_argument("--search-range", type=_int, help=f"default {MotionParams.search_range}")
    p.add_argument("--algo", dest="algorithm", choices=["es", "tss"], help=f"default {MotionParams.algorithm}")
    p.add_argument("--out", required=True, help="output directory for .mvm files")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="run the I/E-frame pipeline and the energy model")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--frames", dest="frames_dir", metavar="FRAMES",
                   help="frame directory (overrides config frames_dir)")
    p.add_argument("--detections", help="detection trace path (overrides config)")
    p.add_argument("--mode", help="ew:N or adaptive")
    p.add_argument("--mb-size", dest="motion.mb_size", metavar="MB_SIZE", type=_int)
    p.add_argument("--search-range", dest="motion.search_range", metavar="SEARCH_RANGE", type=_int)
    p.add_argument("--algo", dest="motion.algorithm", choices=["es", "tss"])
    p.add_argument("--seed", type=_int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score a result trace against ground truth")
    p.add_argument("--trace", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default=DEFAULT_THRESHOLDS,
                   help="comma-separated IoU thresholds (default 0:1:0.05)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="simulate+evaluate across one axis")
    p.add_argument("--config", help="base run configuration JSON")
    p.add_argument("--axis", choices=["ew", "mb_size", "algorithm"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--mode", help="base mode for non-ew axes")
    p.add_argument("--seed", type=_int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


# `main`'s parser, built on first use; parsing a command line leaves it as it was.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)  # a flag's type may raise ConfigError
        return args.func(args)
    except (EuphratesError, ValueError, OSError, MemoryError) as e:
        # numpy raises a private subclass of MemoryError; name the public class.
        name = "MemoryError" if isinstance(e, MemoryError) else e.__class__.__name__
        print(f"error {name}: {e}", file=sys.stderr)
        return 2 if isinstance(e, EuphratesError) else 3  # bad input, or I/O and resources


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
