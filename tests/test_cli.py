"""End-to-end command-line workflows."""

import argparse
import hashlib
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euphrates import cli, pixels, scheduler
from euphrates.cli import RunConfig, SynthConfig, main
from euphrates.config import merge_overrides
from euphrates.motion import MotionParams, decode_metadata, encode_metadata, uniform_field
from euphrates.pixels import Frame, save_frame
from euphrates.scheduler import ResultTrace, read_detection_trace

from oracles import config_echo
from test_config import PROPERTY


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "frames"
    rc = run(
        ["synth", "--out", out, "--canvas", "128x96", "--object", "32x24",
         "--frames", "12", "--velocity", "2,1", "--seed", "3"]
    )
    assert rc == 0
    return out


def test_synth_outputs(synth_dir):
    pgms = sorted(synth_dir.glob("*.pgm"))
    assert len(pgms) == 12
    truth = read_detection_trace(synth_dir / "truth.jsonl")
    assert set(truth) == set(range(12))
    first = json.loads((synth_dir / "truth.jsonl").read_text().splitlines()[0])
    assert "config" in first and "version" in first


def test_synth_deterministic(tmp_path):
    args = ["synth", "--canvas", "64x48", "--object", "16x12", "--frames", "5",
            "--velocity", "1,1", "--seed", "9", "--background", "noise"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    for name in ["000000.pgm", "000004.pgm", "truth.jsonl"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_rejects_bad_trajectory(tmp_path, capsys):
    rc = run(["synth", "--out", tmp_path / "x", "--canvas", "64x64", "--object", "32x32",
              "--frames", "20", "--velocity", "8,0", "--start", "0,0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error ConfigError:") and "out of canvas" in err


def test_synth_rejects_start_outside_canvas(tmp_path, capsys):
    assert run(["synth", "--out", tmp_path / "x", "--start", "200,0"]) == 2
    assert error_line(capsys) == "error ConfigError: start 200,0 puts the 32x16 object outside the 128x96 canvas\n"


def test_synth_negative_velocity_in_equals_form(tmp_path):
    # argparse reads "--velocity -1,2" as a missing value; the "=" form passes it.
    assert run(["synth", "--velocity=-1,2", "--start=40,0", "--out", tmp_path]) == 0
    echo = synth_echo(tmp_path)
    assert echo["trajectory"] == [[-1, 2]] * (SynthConfig.frames - 1) and echo["start"] == [40, 0]


@pytest.mark.parametrize(
    "flag, value",
    [("canvas", "12"), ("canvas", "1_28x9_6"), ("canvas", "\u0664x96"), ("velocity", "+2,1"), ("start", "4, 0")],
)
def test_synth_pairs_are_two_integers_in_ascii_digits(tmp_path, capsys, flag, value):
    # int() would read "1_28" as 128, "+2" as 2 and the Arabic-Indic "\u0664" as 4.
    out = tmp_path / "x"
    assert run(["synth", f"--{flag}={value}", "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: cannot parse --{flag} {value!r}, expected two integers\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "recipe",
    [
        {"canvas": [0, 96]},
        {"object": [200, 16]},
        {"frames": 0},
        {"background": "stripes"},
        {"frames": 5, "trajectory": [[1, 0], [1, 0]]},
        {"start": [500, 0]},
        {"frames": 60, "trajectory": [[3, 0]]},
    ],
)
def test_synth_recipe_error_names_the_file(tmp_path, capsys, recipe):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(recipe))
    assert run(["synth", "--config", cfgp, "--out", tmp_path / "x"]) == 2
    err = error_line(capsys)
    assert err.startswith(f"error ConfigError: {cfgp}: ") and "frame_count" not in err
    assert not (tmp_path / "x").exists()



@pytest.mark.parametrize(
    "recipe, flags",
    [
        ({"frames": 40}, ["--canvas", "192x144"]),
        ({"object": [64, 48]}, ["--canvas", "192x144"]),
        ({"trajectory": [[1, 0]] * 11}, ["--frames", "12"]),
        ({"canvas": [64, 64], "frames": 60}, ["--velocity", "0,0"]),
    ],
)
def test_synth_recipe_is_checked_after_the_flags_apply(tmp_path, recipe, flags):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(recipe))
    assert run(["synth", "--config", cfgp, "--out", tmp_path / "x", *flags]) == 0


def test_run_config_error_from_a_flag_names_the_file(tmp_path, capsys):
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"motion": {"search_range": 4}}))
    assert run(["simulate", "--config", cfgp, "--mb-size", "12", "--out", tmp_path / "o"]) == 2
    assert error_line(capsys).startswith(f"error ConfigError: {cfgp}: motion: mb_size must be a power of two")


def synth_echo(out):
    return json.loads((out / "truth.jsonl").read_text().splitlines()[0])["config"]["synthetic"]


def test_bare_synth_renders_the_defaults(tmp_path):
    assert run(["synth", "--out", tmp_path]) == 0
    echo = synth_echo(tmp_path)
    assert echo == {**SynthConfig().to_dict(), "trajectory": [[2, 1]] * (SynthConfig.frames - 1)}
    assert len(list(tmp_path.glob("*.pgm"))) == SynthConfig.frames


def test_synth_flags_override_config_file(tmp_path):
    cfgp = tmp_path / "synth.json"
    cfgp.write_text(json.dumps({"canvas": [96, 64], "frames": 20, "trajectory": [[1, 0]], "seed": 4}))
    assert run(["synth", "--config", cfgp, "--frames", "5", "--velocity", "0,1", "--out", tmp_path / "a"]) == 0
    echo = synth_echo(tmp_path / "a")
    # File fields hold where no flag is given; keys absent from both take the defaults.
    assert echo["canvas"] == [96, 64] and echo["seed"] == 4 and echo["object"] == list(SynthConfig.object)
    assert echo["frames"] == 5 and echo["trajectory"] == [[0, 1]] * 4
    assert len(list((tmp_path / "a").glob("*.pgm"))) == 5


def test_synth_config_echo_reruns_byte_exactly(tmp_path):
    args = ["synth", "--frames", "6", "--velocity=-1,2", "--start", "40,10", "--background", "noise"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    (tmp_path / "echo.json").write_text(json.dumps(synth_echo(tmp_path / "a")))
    assert run(["synth", "--config", tmp_path / "echo.json", "--out", tmp_path / "b"]) == 0
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_estimate_outputs(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    out = capsys.readouterr().out
    assert "grid 8x6 = 48 MBs" in out
    files = sorted(mv.glob("*.mvm"))
    assert len(files) == 11
    field = decode_metadata(files[0].read_bytes())
    assert (field.width, field.height) == (128, 96)
    assert len(files[0].read_bytes()) == 14 + 5 * 48


# Motion flags beyond the .mvm layout, and the error each one ends in.
# Motion settings past the .mvm layout's limits, and MotionParams' wording of each.
METADATA_LIMITS = [
    (["--search-range", "200"], "search_range must be at most 127, got 200"),
    (["--mb-size", "65536"], "mb_size must be at most 4096, got 65536"),
    (["--mb-size", "8192"], "mb_size must be at most 4096, got 8192"),
]


def test_estimate_checks_the_metadata_layout_before_searching(synth_dir, tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("estimate searched a field the metadata cannot hold")

    monkeypatch.setattr(cli, "estimate_motion_field", no_search)
    mv = tmp_path / "mv"
    for flag, message in METADATA_LIMITS:
        assert run(["estimate", "--frames", synth_dir, *flag, "--out", mv]) == 2
        assert error_line(capsys) == f"error ConfigError: {message}\n"
        assert not mv.exists()


def test_runs_from_frames_check_the_metadata_layout_before_searching(synth_dir, tmp_path, capsys, monkeypatch):
    """simulate from frames and from metadata, and sweep, accept the motion
    settings estimate does."""
    def no_search(*args, **kwargs):
        raise AssertionError("a run from frames searched a field the metadata cannot hold")

    assert run(["estimate", "--frames", synth_dir, "--out", tmp_path / "mv"]) == 0
    monkeypatch.setattr(scheduler, "estimate_motion_field", no_search)
    monkeypatch.setattr(cli, "decode_metadata", lambda data: pytest.fail("a run decoded a field before its config"))
    detections = str(synth_dir / "truth.jsonl")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=detections)
    metap = write_run_config(tmp_path / "meta.json", metadata_dir=str(tmp_path / "mv"), detections=detections)
    for config in (cfgp, metap):
        for flag, message in METADATA_LIMITS:
            assert run(["simulate", "--config", config, *flag, "--out", tmp_path / "sim"]) == 2
            assert error_line(capsys) == f"error ConfigError: {config}: motion: {message}\n"
            assert not (tmp_path / "sim").exists()
    assert run(["sweep", "--config", cfgp, "--axis", "mb_size", "--values", "65536", "--out", tmp_path / "s"]) == 2
    message = METADATA_LIMITS[1][1]
    assert error_line(capsys) == f"error ConfigError: sweep run mb_size=65536: ConfigError: motion: {message}\n"


def test_memory_error_is_one_line_with_exit_3(tmp_path, capsys, monkeypatch):
    # numpy raises a private subclass of MemoryError when an allocation fails.
    class _ArrayMemoryError(MemoryError):
        pass

    message = "Unable to allocate 18.6 GiB for an array with shape (2, 100000, 100000) and data type uint8"

    def exhausted(cfg):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(cli, "generate_sequence", exhausted)
    assert run(["synth", "--out", tmp_path / "x", "--canvas", "100000x100000", "--frames", "2"]) == 3
    assert error_line(capsys) == f"error MemoryError: {message}\n"


def test_estimate_rejects_mixed_dims(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    save_frame(Frame(np.zeros((16, 16), dtype=np.uint8)), d / "000000.pgm")
    save_frame(Frame(np.zeros((16, 32), dtype=np.uint8)), d / "000001.pgm")
    rc = run(["estimate", "--frames", d, "--out", tmp_path / "mv"])
    assert rc == 2
    assert "000001.pgm" in capsys.readouterr().err


def test_estimate_needs_two_frames(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    save_frame(Frame(np.zeros((16, 16), dtype=np.uint8)), d / "000000.pgm")
    assert run(["estimate", "--frames", d, "--out", tmp_path / "mv"]) == 2
    assert "at least 2 frames" in capsys.readouterr().err


def write_run_config(path, **kv):
    cfg = {"detections": None, "mode": "ew:4"}
    cfg.update(kv)
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_from_frames(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", out]) == 0
    trace = ResultTrace.load(out / "trace.jsonl")
    assert len(trace.frames) == 12 and trace.n_iframes == 3
    energy = json.loads((out / "energy.json").read_text())
    assert energy["report"]["n_frames"] == 12
    assert (out / "energy.csv").read_text().splitlines()[0].startswith("# {")


def test_simulate_from_metadata(synth_dir, tmp_path):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    cfgp = write_run_config(
        tmp_path / "run.json",
        metadata_dir=str(mv),
        detections=str(synth_dir / "truth.jsonl"),
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", out]) == 0
    trace = ResultTrace.load(out / "trace.jsonl")
    assert len(trace.frames) == 12


def test_simulate_from_metadata_needs_the_fields_motion_params(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--algo", "tss", "--mb-size", "8",
                "--search-range", "9", "--out", mv]) == 0
    det = str(synth_dir / "truth.jsonl")
    cfgp = write_run_config(tmp_path / "run.json", metadata_dir=str(mv), detections=det)
    fields = "MotionParams(mb_size=8, search_range=9, algorithm='tss')"
    for flags, algo in [([], "es"), (["--algo", "tss"], "tss")]:
        assert run(["simulate", "--config", cfgp, *flags, "--out", tmp_path / "sim"]) == 2
        assert error_line(capsys) == (
            f"error ConfigError: {mv / '000001.mvm'}: {fields} differs from the config's motion "
            f"MotionParams(mb_size=16, search_range=7, algorithm='{algo}')\n"
        )
    motion = {"mb_size": 8, "search_range": 9, "algorithm": "tss"}
    cfgp = write_run_config(tmp_path / "run.json", metadata_dir=str(mv), detections=det, motion=motion)
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 0
    assert ResultTrace.load(tmp_path / "sim" / "trace.jsonl").config["motion"] == motion


def test_simulate_frames_and_metadata_agree(synth_dir, tmp_path):
    """The on-the-fly and precomputed-metadata paths produce identical boxes."""
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    det = str(synth_dir / "truth.jsonl")
    cfg_a = write_run_config(tmp_path / "a.json", frames_dir=str(synth_dir), detections=det)
    cfg_b = write_run_config(tmp_path / "b.json", metadata_dir=str(mv), detections=det)
    assert run(["simulate", "--config", cfg_a, "--out", tmp_path / "sa"]) == 0
    assert run(["simulate", "--config", cfg_b, "--out", tmp_path / "sb"]) == 0
    a = (tmp_path / "sa" / "trace.jsonl").read_text().splitlines()[1:]
    b = (tmp_path / "sb" / "trace.jsonl").read_text().splitlines()[1:]
    assert a == b  # config echoes differ (frames_dir vs metadata_dir), frames match


def test_simulate_ew1_matches_provider(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
        mode="ew:1",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", out]) == 0
    trace = ResultTrace.load(out / "trace.jsonl")
    truth = read_detection_trace(synth_dir / "truth.jsonl")
    for f in trace.frames:
        assert f.kind == "I"
        assert [d.roi for d in f.detections] == truth[f.index]


def test_simulate_determinism_and_rerun_from_echo(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
        mode="ew:3",
    )
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "s1"]) == 0
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "s2"]) == 0
    t1 = (tmp_path / "s1" / "trace.jsonl").read_bytes()
    assert t1 == (tmp_path / "s2" / "trace.jsonl").read_bytes()

    # re-running from the embedded effective config reproduces outputs
    echoed = json.loads(t1.decode().splitlines()[0])["config"]
    (tmp_path / "echo.json").write_text(json.dumps(echoed))
    assert run(["simulate", "--config", tmp_path / "echo.json", "--out", tmp_path / "s3"]) == 0
    assert (tmp_path / "s3" / "trace.jsonl").read_bytes() == t1
    assert (tmp_path / "s3" / "energy.csv").read_bytes() == (tmp_path / "s1" / "energy.csv").read_bytes()


def test_simulate_rejects_a_negative_seed(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    assert run(["simulate", "--config", cfgp, "--seed=-1", "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys) == f"error ConfigError: {cfgp}: seed must be >= 0, got -1\n"
    assert not (tmp_path / "sim").exists()


def test_a_run_from_the_config_echo_equals_the_run_from_the_config(synth_dir, tmp_path):
    cfg = RunConfig(frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"), mode="adaptive", seed=5)
    trace, report = cli.run_simulation(cfg)
    echo_trace, echo_report = cli.run_simulation(cfg.to_dict())
    assert echo_trace.to_jsonl() == trace.to_jsonl()
    assert echo_report == report


def test_simulate_flag_overrides(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
        mode="ew:4",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--mode", "ew:6", "--algo", "tss", "--out", out]) == 0
    trace = ResultTrace.load(out / "trace.jsonl")
    assert trace.config["mode"] == "ew:6"
    assert trace.config["motion"]["algorithm"] == "tss"
    assert trace.n_iframes == 2


def test_simulate_missing_inputs(tmp_path, capsys):
    cfgp = write_run_config(tmp_path / "run.json", detections=str(tmp_path / "nope.jsonl"))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "o"]) == 2
    assert "error ConfigError" in capsys.readouterr().err

    cfgp2 = write_run_config(tmp_path / "run2.json")
    assert run(["simulate", "--config", cfgp2, "--out", tmp_path / "o2"]) == 2

    assert run(["simulate", "--config", tmp_path / "absent.json", "--out", tmp_path / "o3"]) == 2


@pytest.mark.parametrize(
    "sources, message",
    [
        ({"frames_dir": "f", "metadata_dir": "m"}, "config must name one input source, not both frames_dir and metadata_dir"),
        ({}, "config needs either 'frames_dir' or 'metadata_dir'"),
    ],
)
def test_simulate_checks_its_input_source_before_reading_the_detections(tmp_path, capsys, sources, message):
    dets = tmp_path / "dets.jsonl"
    dets.write_bytes(b"\xff")  # not UTF-8: reading it would fail first
    cfgp = write_run_config(tmp_path / "run.json", detections=str(dets), **sources)
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "o"]) == 2
    assert error_line(capsys) == f"error ConfigError: {message}\n"


def test_simulate_rejects_detections_that_are_not_utf8(synth_dir, tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    dets.write_bytes(b'\xff\xfe{"frame": 0}\n')
    assert run(["simulate", "--frames", synth_dir, "--detections", dets, "--out", tmp_path / "o"]) == 2
    assert error_line(capsys).startswith(f"error ConfigError: {dets}: not UTF-8 text: ")


def test_simulate_rejects_a_directory_without_frames(synth_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["simulate", "--frames", empty, "--detections", synth_dir / "truth.jsonl", "--out", tmp_path / "o"]) == 2
    assert error_line(capsys) == f"error MissingDataError: {empty}: no .pgm files\n"


def test_simulate_unknown_config_key(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"detections": "x", "frames_per_second": 30}))
    assert run(["simulate", "--config", p, "--out", tmp_path / "o"]) == 2
    assert "frames_per_second" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section",
    [
        {"extrapolation": {"grid": [100000, 100000]}},
        {"mode": "ew:1", "soc": {"net_ops_gop": 5e-324, "nnx_peak_tops": 1e308}},
        {"soc": {"nnx_peak_tops": 5e-324}},
        {"soc": {"sensor_power_mw": 1e308, "isp_power_mw": 1e308}},
        {"provider": {"noise_sigma": 65536}},
    ],
)
def test_simulate_rejects_a_config_the_model_cannot_run(synth_dir, tmp_path, capsys, section):
    # A grid this size means 10^10 sub-ROIs per track, these soc values
    # divide by zero or put Infinity/NaN into energy.json, and a jitter beyond
    # the largest frame side moves boxes off any frame: each must stop the
    # run at the config, before --out is made.
    cfgp = write_run_config(
        tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"), **section
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", out]) == 2
    (name,) = section.keys() - {"mode"}
    assert error_line(capsys).startswith(f"error ConfigError: {cfgp}: {name}: ")
    assert not out.exists()


def test_evaluate_perfect_trace(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    sim = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", sim]) == 0
    ev = tmp_path / "eval"
    assert run(["evaluate", "--trace", sim / "trace.jsonl", "--truth", synth_dir / "truth.jsonl",
                "--out", ev]) == 0
    assert "AP@0.5 = 1.0000" in capsys.readouterr().out
    ap_rows = (ev / "ap.csv").read_text().splitlines()
    assert len(ap_rows) == 2 + 21  # comment + header + 21 thresholds
    success = (ev / "success.csv").read_text().splitlines()
    assert success[1] == "threshold,success_rate"
    summary = json.loads((ev / "summary.json").read_text())
    assert dict((tuple(r) for r in summary["result"]["ap"]))[0.5] == 1.0


def test_evaluate_frame_mismatch(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    sim = tmp_path / "sim"
    assert run(["simulate", "--config", cfgp, "--out", sim]) == 0
    short = tmp_path / "short.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    short.write_text("\n".join(lines[:5]) + "\n")
    rc = run(["evaluate", "--trace", sim / "trace.jsonl", "--truth", short, "--out", tmp_path / "e"])
    assert rc == 2
    assert "error MissingDataError" in capsys.readouterr().err


def test_evaluate_empty_trace_warns(synth_dir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    lines = [json.dumps({"frame": i, "kind": "I", "boxes": []}) for i in range(12)]
    empty.write_text("\n".join(lines) + "\n")
    assert run(["evaluate", "--trace", empty, "--truth", synth_dir / "truth.jsonl",
                "--out", tmp_path / "e"]) == 0
    captured = capsys.readouterr()
    assert "no detections" in captured.err
    summary = json.loads((tmp_path / "e" / "summary.json").read_text())
    assert all(v == 0.0 for _, v in summary["result"]["ap"])


# Golden evaluate outputs: a multi-object trace with an unmatched detection,
# an empty frame, a frame with ground truth only, equal-IoU ties on both
# sides and boxes at IoU exactly 0.5, 1/3 and 0.25.
GOLDEN_EVAL_FRAMES = [
    # (kind, detections, ground truth); boxes are (x, y, w, h)
    ("I", [(0, 0, 10, 10), (50, 50, 10, 5), (100, 0, 10, 10), (200, 200, 5, 5)],
     [(0, 0, 10, 10), (50, 50, 10, 10), (100, 0, 20, 10)]),
    ("E", [], [(0, 0, 10, 10)]),
    ("E", [(5, 0, 10, 10), (-5, 0, 10, 10), (40, 0, 10, 10)],
     [(0, 0, 10, 10), (35, 0, 10, 10), (45, 0, 10, 10)]),
    ("E", [(2.5, 0, 10, 10), (0, 30, 10, 10), (60, 60, 4, 4)],
     [(0, 0, 10, 10), (0, 30, 10, 2.5)]),
    ("I", [(1, 1, 3, 3)], []),
]


@pytest.mark.parametrize(
    "thresholds, ap_digest, summary_digest",
    [
        (None, "52d31db1aaaae35489bf696f4ab90a0b5544ddbe35cb0688664713d9bd312081",
         "1a003173c44d70a11824c02a7565553da4d7d357fc54fa59bd433096e6f65c17"),
        ("0,0.5,1", "e7eda2bb8f18367243605dd75293dd9cad30b027d3c8354c52c5a83c0bddee1e",
         "b23539f13f28b939ef3fc680ff878f304d8ca0ae927e5e029d4940278e8139ec"),
    ],
)
def test_evaluate_golden_outputs(tmp_path, monkeypatch, thresholds, ap_digest, summary_digest):
    def boxes(rois):
        return [dict(zip("xywh", r)) for r in rois]

    monkeypatch.chdir(tmp_path)
    Path("trace.jsonl").write_text("".join(
        json.dumps({"frame": i, "kind": kind, "boxes": boxes(dets)}) + "\n"
        for i, (kind, dets, _) in enumerate(GOLDEN_EVAL_FRAMES)
    ))
    Path("truth.jsonl").write_text("".join(
        json.dumps({"frame": i, "boxes": boxes(gts)}) + "\n" for i, (_, _, gts) in enumerate(GOLDEN_EVAL_FRAMES)
    ))
    extra = [] if thresholds is None else ["--thresholds", thresholds]
    assert run(["evaluate", "--trace", "trace.jsonl", "--truth", "truth.jsonl", *extra, "--out", "eval"]) == 0
    assert not Path("eval/success.csv").exists()
    assert hashlib.sha256(Path("eval/ap.csv").read_bytes()).hexdigest() == ap_digest
    assert hashlib.sha256(Path("eval/summary.json").read_bytes()).hexdigest() == summary_digest


def test_one_process_parses_each_command_line_afresh(tmp_path, monkeypatch, capsys):
    """`main` reads every command line with one parser: a rejected flag, a
    usage error or a flag given once leaves nothing for the next call."""
    monkeypatch.chdir(tmp_path)
    line = json.dumps({"frame": 0, "kind": "I", "boxes": [{"x": 0.0, "y": 0.0, "w": 10.0, "h": 10.0}]}) + "\n"
    Path("trace.jsonl").write_text(line)
    Path("truth.jsonl").write_text(line)
    evaluate = ["evaluate", "--trace", "trace.jsonl", "--truth", "truth.jsonl", "--out", "eval"]

    def thresholds():
        return [float(row.split(",")[0]) for row in Path("eval/ap.csv").read_text().splitlines()[2:]]

    assert run([*evaluate, "--thresholds", "2"]) == 2
    assert "must lie within [0, 1]" in capsys.readouterr().err
    assert not Path("eval").exists()
    with pytest.raises(SystemExit) as usage:
        run(["evaluate", "--trace", "trace.jsonl", "--out", "eval"])  # no --truth
    assert usage.value.code == 2
    assert run([*evaluate, "--thresholds", "0.5"]) == 0
    assert thresholds() == [0.5]
    assert run(evaluate) == 0
    assert thresholds() == list(cli.DEFAULT_THRESHOLDS) and len(thresholds()) == 21


def test_sweep_ew_axis(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,2,4,8", "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1] == "ew,accuracy_at_0.5,energy_saving,achieved_fps"
    data = [r.split(",") for r in rows[2:]]
    assert [d[0] for d in data] == ["1", "2", "4", "8"]
    savings = [float(d[2]) for d in data]
    assert all(a <= b for a, b in zip(savings, savings[1:]))  # monotone in EW
    for v in ("1", "2", "4", "8"):
        assert (out / f"ew_{v}" / "trace.jsonl").is_file()
        assert (out / f"ew_{v}" / "energy.json").is_file()


def test_sweep_algorithm_axis(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfgp, "--axis", "algorithm", "--values", "es,tss",
                "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["es", "tss"]


@pytest.mark.parametrize(
    "axis, values", [("ew", "1,3,8"), ("algorithm", "tss,es"), ("ew", "8,3,1"), ("mb_size", "16,8")]
)
def test_sweep_variant_outputs_equal_a_simulate_of_their_echo(synth_dir, tmp_path, axis, values):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
        mode="ew:4" if axis == "ew" else "ew:3",  # an ew sweep's base leaves mode at its default
    )
    out = tmp_path / "sweep"
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", out]) == 0
    for value in values.split(","):
        variant = out / f"{axis}_{value}"
        echoed = json.loads((variant / "energy.json").read_text())["config"]
        varied = {"ew": echoed["mode"], "algorithm": echoed["motion"]["algorithm"],
                  "mb_size": str(echoed["motion"]["mb_size"])}[axis]
        assert varied == (f"ew:{value}" if axis == "ew" else value)
        echo = tmp_path / f"{axis}_{value}.json"
        echo.write_text(json.dumps(echoed))
        assert run(["simulate", "--config", echo, "--out", tmp_path / "sim"]) == 0
        for name in ("trace.jsonl", "energy.json"):
            assert (tmp_path / "sim" / name).read_bytes() == (variant / name).read_bytes(), (value, name)


def test_sweep_mb_axis_needs_frames(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    cfgp = write_run_config(
        tmp_path / "run.json",
        metadata_dir=str(mv),
        detections=str(synth_dir / "truth.jsonl"),
    )
    rc = run(["sweep", "--config", cfgp, "--axis", "mb_size", "--values", "4,16",
              "--out", tmp_path / "s"])
    assert rc == 2
    assert "frames_dir" in capsys.readouterr().err


def test_sweep_labels_failing_run(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    rc = run(["sweep", "--config", cfgp, "--axis", "mb_size", "--values", "16,12",
              "--out", tmp_path / "s"])
    assert rc == 2
    assert "mb_size=12" in capsys.readouterr().err


def test_sweep_rejects_repeated_values(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(
        tmp_path / "run.json",
        frames_dir=str(synth_dir),
        detections=str(synth_dir / "truth.jsonl"),
    )
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "2,4,02", "--out", out]) == 2
    assert error_line(capsys) == "error ConfigError: --values lists ew=2 more than once\n"
    assert run(["sweep", "--config", cfgp, "--axis", "algorithm", "--values", "es,es", "--out", out]) == 2
    assert error_line(capsys) == "error ConfigError: --values lists algorithm=es more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("ew", "4_0"), ("ew", "+4"), ("ew", "\u0664"), ("mb_size", "1_6")])
def test_sweep_values_are_integers_in_ascii_digits(synth_dir, tmp_path, capsys, axis, values):
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: --values for axis {axis} must be integers\n"
    assert not out.exists()


def test_sweep_checks_every_variant_before_any_run(synth_dir, tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("a sweep variant ran before every variant's config was checked")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,2,0", "--out", out]) == 2
    assert error_line(capsys) == "error ConfigError: sweep run ew=0: ConfigError: constant EW must be >= 1, got 0\n"
    assert not out.exists()


def test_sweep_checks_every_variant_against_the_metadata_layout_before_any_run(
    synth_dir, tmp_path, capsys, monkeypatch
):
    def no_run(cfg, inputs=None):
        raise AssertionError("a sweep variant ran before every variant's motion was checked against the layout")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    monkeypatch.setattr(cli, "load_sequence", lambda directory: pytest.fail("the layout check read a frame"))
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", "mb_size", "--values", "16,8192", "--out", out]) == 2
    message = METADATA_LIMITS[2][1]
    assert error_line(capsys) == f"error ConfigError: sweep run mb_size=8192: ConfigError: motion: {message}\n"
    assert not out.exists()


def test_sweep_needs_a_truth_and_a_value(synth_dir, tmp_path, capsys):
    out = tmp_path / "s"
    no_truth = write_run_config(tmp_path / "no_truth.json", frames_dir=str(synth_dir))
    assert run(["sweep", "--config", no_truth, "--axis", "ew", "--values", "1", "--out", out]) == 2
    assert error_line(capsys) == "error ConfigError: config needs a 'detections' trace path\n"
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", ",", "--out", out]) == 2
    assert error_line(capsys) == "error ConfigError: --values is empty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "sources, message",
    [
        ({"truth": "truth.jsonl"}, "config needs a 'detections' trace path"),
        (
            {"metadata_dir": "m", "detections": "truth.jsonl"},
            "config must name one input source, not both frames_dir and metadata_dir",
        ),
        ({"detections": "truth.jsonl", "truth": "nope.jsonl"}, "truth trace not found: {synth_dir}/nope.jsonl"),
    ],
)
def test_sweep_checks_the_run_inputs_before_making_out(synth_dir, tmp_path, capsys, sources, message):
    paths = {k: str(synth_dir / v) for k, v in sources.items()}
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), **paths)
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,2", "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: {message.format(synth_dir=synth_dir)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, values, field",
    [("ew", "1,3,8", "mode"), ("mb_size", "8,16,32", "motion.mb_size"), ("algorithm", "tss,es", "motion.algorithm")],
)
def test_sweep_variants_equal_loading_the_base_echo_with_the_swept_field_changed(synth_dir, axis, values, field):
    base = RunConfig.from_dict({
        "frames_dir": str(synth_dir), "detections": str(synth_dir / "truth.jsonl"),
        "mode": "ew:4" if axis == "ew" else "adaptive",  # an ew sweep's base leaves mode at its default
        "provider": {"noise_sigma": 1}, "extrapolation": {"grid": [3, 1]}, "soc": {"preset": "mdnet"},
    })
    variants = cli._sweep_variants(base, axis, values)
    assert list(variants) == [v if axis == "algorithm" else int(v) for v in values.split(",")]
    for value, variant in variants.items():
        change = {field: f"ew:{value}" if axis == "ew" else value}
        loaded = RunConfig.from_dict(merge_overrides(config_echo(base), change))
        assert variant == loaded
        assert repr(variant.to_dict()) == repr(loaded.to_dict())


@pytest.mark.parametrize(
    "axis, values, line",
    [
        ("mb_size", "16,3", "sweep run mb_size=3: ConfigError: motion: mb_size must be a power of two >= 4, got 3"),
        (
            "algorithm", "es,TSS",
            "sweep run algorithm=TSS: ConfigError: motion: algorithm must be 'es' or 'tss', got 'TSS'",
        ),
    ],
    ids=["mb_size=3", "algorithm=TSS"],
)
def test_sweep_words_a_bad_motion_value_as_loading_its_config_does(synth_dir, tmp_path, capsys, axis, values, line):
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: {line}\n"
    assert not out.exists()


def test_an_ew_sweep_rejects_mode_and_other_sweeps_take_it_as_their_base(synth_dir, tmp_path, capsys):
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    sweep = ["sweep", "--config", cfgp, "--out", out]
    assert run([*sweep, "--axis", "ew", "--values", "1,2", "--mode", "adaptive"]) == 2
    assert error_line(capsys) == (
        "error ConfigError: --axis ew sweeps mode: the base config must leave it at 'ew:4', not 'adaptive'\n"
    )
    assert not out.exists()
    assert run([*sweep, "--axis", "algorithm", "--values", "tss", "--mode", "ew:2"]) == 0
    for name in ("sweep.csv", "algorithm_tss/energy.json"):
        echo = (out / name).read_text()
        assert '"mode": "ew:2"' in echo and '"mode": "ew:4"' not in echo, name


@pytest.mark.parametrize(
    "axis, values, base, line",
    [
        ("ew", "1,2", {"mode": "adaptive"}, "mode: the base config must leave it at 'ew:4', not 'adaptive'"),
        ("mb_size", "16,4", {"motion": {"mb_size": 8}}, "motion.mb_size: the base config must leave it at 16, not 8"),
        (
            "algorithm", "es,tss", {"motion": {"algorithm": "tss"}},
            "motion.algorithm: the base config must leave it at 'es', not 'tss'",
        ),
    ],
    ids=["ew", "mb_size", "algorithm"],
)
def test_a_sweep_rejects_a_base_value_for_the_field_it_sweeps(synth_dir, tmp_path, capsys, axis, values, base, line):
    """Every run of a sweep sets the swept field itself, so a value for it in
    the config file would be ignored by the runs and echoed by sweep.csv."""
    cfgp = write_run_config(
        tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"), **base
    )
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: --axis {axis} sweeps {line}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, values, swept",
    [("ew", "1,2,8", "mode"), ("mb_size", "8,32", "mb_size"), ("algorithm", "tss,es", "algorithm")],
)
def test_a_sweep_from_its_csv_echo_rewrites_the_csv(synth_dir, tmp_path, axis, values, swept):
    """sweep.csv echoes the base config less the swept field, which no run
    used; its `sweep` entry names the axis and values, and a sweep run from
    that echo writes the same sweep.csv byte for byte."""
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", tmp_path / "a"]) == 0
    csv_bytes = (tmp_path / "a" / "sweep.csv").read_bytes()
    echo = json.loads(csv_bytes.decode().splitlines()[0].removeprefix("# "))["config"]
    assert swept not in (echo if axis == "ew" else echo["motion"]) and "search_range" in echo["motion"]
    sweep = echo.pop("sweep")
    assert sweep == {"axis": axis, "values": [v if axis == "algorithm" else int(v) for v in values.split(",")]}
    again = tmp_path / "echo.json"
    again.write_text(json.dumps(echo))
    values_again = ",".join(map(str, sweep["values"]))
    assert run(["sweep", "--config", again, "--axis", sweep["axis"], "--values", values_again,
                "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "b" / "sweep.csv").read_bytes() == csv_bytes


def counted(monkeypatch, owner, name) -> list:
    """The first argument of every call of `owner.name` from now on; the call
    goes through a wrapper set on the name the code looks up."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("other_truth", [False, True])
def test_an_ew_sweep_loads_each_frame_and_parses_each_trace_once(synth_dir, tmp_path, monkeypatch, other_truth):
    dets, truth = synth_dir / "truth.jsonl", tmp_path / "truth.jsonl"
    shutil.copy(dets, truth)
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(dets),
                            **({"truth": str(truth)} if other_truth else {}))
    loads = counted(monkeypatch, pixels, "load_frame")
    parses = counted(monkeypatch, cli, "read_detection_trace")
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,3,8", "--out", tmp_path / "s"]) == 0
    assert sorted(loads) == sorted(synth_dir.glob("*.pgm")) and len(loads) == 12
    assert list(map(Path, parses)) == ([truth, dets] if other_truth else [dets])


def test_a_metadata_ew_sweep_decodes_each_mvm_file_once(synth_dir, tmp_path, monkeypatch):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    cfgp = write_run_config(tmp_path / "run.json", metadata_dir=str(mv), detections=str(synth_dir / "truth.jsonl"))
    decodes = counted(monkeypatch, cli, "decode_metadata")
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,3,8", "--out", tmp_path / "s"]) == 0
    assert sorted(decodes) == sorted(f.read_bytes() for f in mv.glob("*.mvm")) and len(decodes) == 11


@pytest.mark.parametrize(
    "axis, values, sources", [("ew", "1,3,8", 1), ("mb_size", "8,16,32", 3), ("algorithm", "es,tss", 2)],
)
def test_a_sweep_builds_one_motion_source_per_motion_params(synth_dir, tmp_path, monkeypatch, axis, values, sources):
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    built = counted(monkeypatch, cli, "FrameMotion")
    assert run(["sweep", "--config", cfgp, "--axis", axis, "--values", values, "--out", tmp_path / "s"]) == 0
    assert len(built) == sources
    assert all(frames is built[0] for frames in built)  # every source searches the one load of the frames


@pytest.mark.parametrize("rewritten", ["frame", "detections"])
def test_a_second_sweep_reads_the_files_as_they_are_then(synth_dir, tmp_path, rewritten):
    # Two sweeps in one process (as a long-lived caller runs them) share
    # nothing: the second sees a frame or trace rewritten in place after the
    # first, so each of its variants equals a simulate of its echo.
    dets = synth_dir / "truth.jsonl"
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(dets))
    sweep = ["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,3,8"]
    assert run(sweep + ["--out", tmp_path / "before"]) == 0
    if rewritten == "frame":  # frame 1 repeats frame 0: no motion into it
        shutil.copy(synth_dir / "000000.pgm", synth_dir / "000001.pgm")
    else:  # every box one pixel to the right
        records = [json.loads(line) for line in dets.read_text().splitlines()]
        for record in records:
            for box in record.get("boxes", []):
                box["x"] += 1.0
        dets.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(sweep + ["--out", tmp_path / "after"]) == 0
    changed = 0
    for value in ("1", "3", "8"):
        after = tmp_path / "after" / f"ew_{value}"
        echo = tmp_path / f"echo_{value}.json"
        echo.write_text(json.dumps(json.loads((after / "energy.json").read_text())["config"]))
        assert run(["simulate", "--config", echo, "--out", tmp_path / "sim"]) == 0
        assert (tmp_path / "sim" / "trace.jsonl").read_bytes() == (after / "trace.jsonl").read_bytes(), value
        before = tmp_path / "before" / f"ew_{value}"
        changed += (after / "trace.jsonl").read_bytes() != (before / "trace.jsonl").read_bytes()
    assert changed  # the rewrite reaches some variant's outputs


def test_a_sweep_over_a_truncated_frame_names_its_first_variant(synth_dir, tmp_path, capsys):
    bad = synth_dir / "000005.pgm"
    bad.write_bytes(bad.read_bytes()[:-1])
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl"))
    out = tmp_path / "s"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "3,1,8", "--out", out]) == 2
    assert error_line(capsys) == (
        f"error ConfigError: sweep run ew=3: FrameFormatError: {bad}: payload size mismatch: "
        "header says 128x96 (12288 bytes), payload has 12287\n"
    )
    assert not any(out.iterdir())


# ---------------------------------------------------------------------------
# Malformed inputs end in one error line and exit 2


def error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


@pytest.fixture()
def sim_trace(synth_dir, tmp_path):
    cfgp = write_run_config(
        tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(synth_dir / "truth.jsonl")
    )
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 0
    return tmp_path / "sim" / "trace.jsonl"


def test_evaluate_missing_trace_file(synth_dir, tmp_path, capsys):
    rc = run(["evaluate", "--trace", tmp_path / "absent.jsonl", "--truth", synth_dir / "truth.jsonl",
              "--out", tmp_path / "e"])
    assert rc == 2
    assert error_line(capsys).startswith("error MissingDataError:")


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"frame": 3, "kind": "E", "boxes": [', "invalid JSON"),
        ("3", "expected a JSON object"),
        ('{"frame": 3, "boxes": []}', "kind: expected 'I' or 'E', got None"),
        ('{"frame": 3, "kind": "P", "boxes": []}', "kind: expected 'I' or 'E', got 'P'"),
        ('{"frame": 3, "kind": "E", "boxes": [{"x": NaN, "y": 0, "w": 4, "h": 4}]}', "box.x"),
        ('{"frame": 3, "kind": "E", "boxes": [{"x": "1", "y": 0, "w": 4, "h": 4}]}', "box.x"),
        ('{"frame": 3, "kind": "E", "boxes": [{"x": 1, "y": 0, "w": 0, "h": 4}]}', "extent must be positive"),
        ('{"frame": "3", "kind": "E", "boxes": []}', "frame: expected an integer"),
    ],
)
def test_evaluate_rejects_malformed_trace_line(synth_dir, sim_trace, capsys, line, message):
    lines = sim_trace.read_text().splitlines()
    lines[4] = line
    sim_trace.write_text("\n".join(lines) + "\n")
    rc = run(["evaluate", "--trace", sim_trace, "--truth", synth_dir / "truth.jsonl",
              "--out", sim_trace.parent / "e"])
    assert rc == 2
    err = error_line(capsys)
    assert err.startswith(f"error ConfigError: {sim_trace}:5: ") and message in err


def test_detections_with_nan_box_rejected(synth_dir, tmp_path, capsys):
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    lines[2] = json.dumps({"frame": 1, "boxes": [{"x": float("nan"), "y": 1, "w": 5, "h": 5}]})
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys).startswith(f"error ConfigError: {truth}:3: box.x: expected a finite number")


@pytest.mark.parametrize("thresholds", ["2,-1", "a", "0.5,0.2", "0.1_5,0.5", "\u0660.\u0665", "0.25,\u0660.\u0665"])
def test_evaluate_rejects_bad_thresholds(synth_dir, sim_trace, capsys, thresholds):
    rc = run(["evaluate", "--trace", sim_trace, "--truth", synth_dir / "truth.jsonl",
              "--thresholds", thresholds, "--out", sim_trace.parent / "e"])
    assert rc == 2
    assert error_line(capsys).startswith(f"error ConfigError: --thresholds {thresholds!r}")


@pytest.mark.parametrize(
    "thresholds, rule",
    [("0.5,0.2", "thresholds must be sorted ascending"), ("0.0,1.5", "thresholds must lie within [0, 1]")],
)
def test_evaluate_thresholds_must_be_ascending_within_0_and_1(synth_dir, sim_trace, capsys, thresholds, rule):
    rc = run(["evaluate", "--trace", sim_trace, "--truth", synth_dir / "truth.jsonl",
              "--thresholds", thresholds, "--out", sim_trace.parent / "e"])
    assert rc == 2
    assert error_line(capsys) == f"error ConfigError: --thresholds {thresholds!r}: {rule}\n"


@pytest.mark.parametrize("thresholds", ["0.25, 0.5", " 0.25 ,0.5 "])
def test_evaluate_ignores_spaces_around_a_threshold(synth_dir, sim_trace, thresholds):
    out = sim_trace.parent / "e"
    assert run(["evaluate", "--trace", sim_trace, "--truth", synth_dir / "truth.jsonl",
                "--thresholds", thresholds, "--out", out]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["thresholds"] == [0.25, 0.5]


def simulate_from_mvm(synth_dir, tmp_path, mv):
    cfgp = write_run_config(tmp_path / "run.json", metadata_dir=str(mv), detections=str(synth_dir / "truth.jsonl"))
    return run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"])


def test_simulate_rejects_gap_in_mvm_numbering(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    (mv / "000003.mvm").unlink()
    assert simulate_from_mvm(synth_dir, tmp_path, mv) == 2
    err = error_line(capsys)
    assert err.startswith("error MissingDataError:") and "no .mvm file for frame 3" in err


def test_simulate_rejects_a_directory_named_like_an_mvm_file(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    (mv / "000003.mvm").unlink()
    (mv / "000003.mvm").mkdir()
    assert simulate_from_mvm(synth_dir, tmp_path, mv) == 2
    assert error_line(capsys) == f"error FrameFormatError: {mv / '000003.mvm'}: not a file\n"


def test_estimate_rejects_a_directory_named_like_a_frame(synth_dir, tmp_path, capsys):
    (synth_dir / "000002.pgm").unlink()
    (synth_dir / "000002.pgm").mkdir()
    assert run(["estimate", "--frames", synth_dir, "--out", tmp_path / "mv"]) == 2
    assert error_line(capsys) == f"error FrameFormatError: {synth_dir / '000002.pgm'}: not a file\n"


def test_simulate_rejects_mixed_mvm_fields(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    wide = tmp_path / "wide"
    wide.mkdir()
    for name in ("000000.pgm", "000001.pgm"):
        save_frame(Frame(np.zeros((96, 160), dtype=np.uint8)), wide / name)
    assert run(["estimate", "--frames", wide, "--out", tmp_path / "mv_wide"]) == 0
    (mv / "000004.mvm").write_bytes((tmp_path / "mv_wide" / "000001.mvm").read_bytes())
    assert simulate_from_mvm(synth_dir, tmp_path, mv) == 2
    err = error_line(capsys)
    assert err.startswith(f"error DimensionMismatchError: {mv / '000004.mvm'}: 160x96")


def test_simulate_rejects_a_later_mvm_field_of_other_motion_params(synth_dir, tmp_path, capsys):
    mv = tmp_path / "mv"
    assert run(["estimate", "--frames", synth_dir, "--out", mv]) == 0
    assert run(["estimate", "--frames", synth_dir, "--search-range", "3", "--out", tmp_path / "mv3"]) == 0
    (mv / "000005.mvm").write_bytes((tmp_path / "mv3" / "000005.mvm").read_bytes())
    assert simulate_from_mvm(synth_dir, tmp_path, mv) == 2
    assert error_line(capsys) == (
        f"error ConfigError: {mv / '000005.mvm'}: MotionParams(mb_size=16, search_range=3, algorithm='es') "
        "differs from the config's motion MotionParams(mb_size=16, search_range=7, algorithm='es')\n"
    )


def test_estimate_rejects_a_frame_whose_header_comment_is_unterminated(synth_dir, tmp_path, capsys):
    (synth_dir / "000003.pgm").write_bytes(b"P5\n# no newline ends this comment")
    assert run(["estimate", "--frames", synth_dir, "--out", tmp_path / "mv"]) == 2
    assert error_line(capsys) == f"error FrameFormatError: {synth_dir / '000003.pgm'}: unterminated comment in header\n"


def test_estimate_flags_checked_like_config(synth_dir, tmp_path, capsys):
    assert run(["estimate", "--frames", synth_dir, "--out", tmp_path / "mv", "--mb-size", "12"]) == 2
    assert error_line(capsys).startswith("error ConfigError: mb_size must be a power of two")


def repeat_frame_line(src, dst, frame):
    """Copy trace `src` to `dst` with the line of `frame` written twice;
    returns the 1-based line number of the repeat."""
    lines = src.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line).get("frame") == frame)
    lines.insert(i + 1, lines[i])
    dst.write_text("\n".join(lines) + "\n")
    return i + 2


def test_simulate_rejects_repeated_detection_frame(synth_dir, tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    lineno = repeat_frame_line(synth_dir / "truth.jsonl", dets, 3)
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(dets))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys) == f"error ConfigError: {dets}:{lineno}: frame 3 is repeated\n"


@pytest.mark.parametrize("which", ["trace", "truth"])
def test_evaluate_rejects_repeated_frame(synth_dir, sim_trace, tmp_path, capsys, which):
    inputs = {"trace": sim_trace, "truth": synth_dir / "truth.jsonl"}
    bad = tmp_path / f"repeated_{which}.jsonl"
    lineno = repeat_frame_line(inputs[which], bad, 3)
    inputs[which] = bad
    assert run(["evaluate", "--trace", inputs["trace"], "--truth", inputs["truth"], "--out", tmp_path / "e"]) == 2
    assert error_line(capsys) == f"error ConfigError: {bad}:{lineno}: frame 3 is repeated\n"


def break_numbering(frames, case):
    """Mutate a synth frame directory; returns (error class, message part)."""
    if case == "gap":
        (frames / "000005.pgm").unlink()
        return "MissingDataError", "no .pgm file for frame 5 (next is 000006.pgm)"
    if case == "stray":
        (frames / "thumb.pgm").write_bytes((frames / "000000.pgm").read_bytes())
        return "FrameFormatError", "thumb.pgm: .pgm file names must be frame numbers"
    for t in reversed(range(12)):  # renumber 000000..000011 as 000001..000012
        (frames / f"{t:06d}.pgm").rename(frames / f"{t + 1:06d}.pgm")
    return "MissingDataError", "no .pgm file for frame 0 (next is 000001.pgm)"


@pytest.mark.parametrize("case", ["gap", "stray", "from_one"])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_frame_directory_numbering_is_strict(synth_dir, tmp_path, capsys, command, case):
    cls, message = break_numbering(synth_dir, case)
    args = ["--frames", synth_dir, "--out", tmp_path / "o"]
    if command == "simulate":
        args += ["--detections", synth_dir / "truth.jsonl"]
    assert run([command, *args]) == 2
    err = error_line(capsys)
    assert err.startswith(f"error {cls}: ") and message in err


def command_args(command, synth_dir, sim_trace, tmp_path):
    """Arguments, without --out, of a run of `command` that succeeds, or, for
    the `_without_frames` commands, fails on its missing frames_dir."""
    if command == "synth":
        return ["synth", "--frames", "3"]
    if command == "estimate":
        return ["estimate", "--frames", synth_dir]
    if command == "evaluate":
        return ["evaluate", "--trace", sim_trace, "--truth", synth_dir / "truth.jsonl"]
    frames_dir = tmp_path / "no_frames" if command.endswith("_without_frames") else synth_dir
    cfgp = write_run_config(tmp_path / "out_run.json", frames_dir=str(frames_dir),
                            detections=str(synth_dir / "truth.jsonl"))
    if command.startswith("simulate"):
        return ["simulate", "--config", cfgp]
    return ["sweep", "--config", cfgp, "--axis", "ew", "--values", "1,2"]


@pytest.mark.parametrize("where, reason", [("file", "File exists"), ("under_file", "Not a directory")])
@pytest.mark.parametrize(
    "command",
    ["synth", "estimate", "simulate", "evaluate", "sweep", "simulate_without_frames", "sweep_without_frames"],
)
def test_output_path_through_a_file_is_rejected(synth_dir, sim_trace, tmp_path, capsys, command, where, reason):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker if where == "file" else blocker / "sub"
    args = command_args(command, synth_dir, sim_trace, tmp_path)
    capsys.readouterr()
    assert run([*args, "--out", out]) == 2
    assert error_line(capsys) == f"error ConfigError: output directory {out}: {reason}\n"
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("field, value", [("x", 1e308), ("w", 1e-300)])
def test_detections_with_unrepresentable_corner_rejected(synth_dir, tmp_path, capsys, field, value):
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["boxes"][0][field] = value
    lines[2] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys).startswith(f"error ConfigError: {truth}:3: box: far corner (")


def test_detection_wholly_off_the_frame_is_recorded_then_lost(synth_dir, tmp_path):
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    record = json.loads(lines[1])  # frame 0 of the 128-wide sequence
    record["boxes"][0]["x"] = 5000
    lines[1] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 0
    frames = ResultTrace.load(tmp_path / "sim" / "trace.jsonl").frames
    assert frames[0].kind == "I" and [d.roi.x for d in frames[0].detections] == [5000.0]
    assert frames[1].kind == "E" and frames[1].detections == ()


def test_detection_whose_area_rounds_to_zero_rejected(synth_dir, tmp_path, capsys):
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["boxes"][0].update(x=0.0, y=0.0, w=1e-200, h=1e-200)
    lines[2] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys) == f"error ConfigError: {truth}:3: box: area of 1e-200x1e-200 at (0.0, 0.0) rounds to 0\n"


@pytest.mark.parametrize("w, h", [(1e200, 1e200), (1.3e154, 1e154)])
def test_detection_whose_area_overflows_rejected(synth_dir, tmp_path, capsys, w, h):
    # IoU adds two areas: an area above half the largest float would make
    # the IoU of two equal boxes nan (an infinite area) or 0 (an infinite sum).
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["boxes"][0].update(x=0.0, y=0.0, w=w, h=h)
    lines[2] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys) == (f"error ConfigError: {truth}:3: box: area of {w!r}x{h!r} at (0.0, 0.0) "
                                  "exceeds half the largest float\n")


def test_detection_too_thin_to_split_rejected(synth_dir, tmp_path, capsys):
    truth = tmp_path / "truth.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    record = json.loads(lines[2])  # frame 1, an I-frame at ew:1
    record["boxes"][0].update(x=10, w=1e-15)
    lines[2] = json.dumps(record)
    truth.write_text("\n".join(lines) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(truth))
    assert run(["simulate", "--config", cfgp, "--mode", "ew:1", "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys).startswith(f"error ConfigError: {truth}: frame 1: box at 10.0,")


def test_a_missing_detection_record_names_the_trace(synth_dir, tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    lines = (synth_dir / "truth.jsonl").read_text().splitlines()
    dets.write_text("\n".join(line for line in lines if json.loads(line).get("frame") != 4) + "\n")
    cfgp = write_run_config(tmp_path / "run.json", frames_dir=str(synth_dir), detections=str(dets), mode="ew:4")
    assert run(["simulate", "--config", cfgp, "--out", tmp_path / "sim"]) == 2
    assert error_line(capsys) == f"error MissingDataError: {dets}: no detection record for frame 4\n"
    assert run(["sweep", "--config", cfgp, "--axis", "ew", "--values", "4", "--out", tmp_path / "sweep"]) == 2
    assert error_line(capsys) == (
        f"error ConfigError: sweep run ew=4: MissingDataError: {dets}: no detection record for frame 4\n"
    )


# ---------------------------------------------------------------------------
# Flags: a flag's dest is the dotted path of the config field it sets


# The dests of each command that name no config field.
PLAIN_DESTS = {
    "synth": {"config", "out"},
    "estimate": {"frames", "out"},
    "simulate": {"config", "out"},
    "evaluate": {"trace", "truth", "thresholds", "out"},
    "sweep": {"config", "axis", "values", "out"},
}
CONFIG_OF = {"synth": SynthConfig, "estimate": MotionParams, "simulate": RunConfig, "sweep": RunConfig}
# A value for each flag, unlike the default of any field the flag sets.
FLAG_VALUES = {
    "--out": "o", "--canvas": "160x120", "--object": "16x8", "--frames": "8",
    "--velocity": "1,0", "--start": "3,4", "--background": "noise", "--seed": "5", "--mb-size": "8",
    "--search-range": "5", "--algo": "tss", "--detections": "d.jsonl", "--mode": "adaptive",
    "--trace": "t.jsonl", "--truth": "g.jsonl", "--axis": "ew", "--values": "1",
}


def subcommand_flags(command):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


@pytest.mark.parametrize("command", list(PLAIN_DESTS))
def test_each_flag_sets_the_config_field_its_dest_names(command):
    flags = subcommand_flags(command)
    required = [arg for a in flags if a.required for arg in (a.option_strings[0], FLAG_VALUES[a.option_strings[0]])]
    cls = CONFIG_OF.get(command)
    fields = cls.__dataclass_fields__ if cls else {}
    for a in flags:
        flag, field = a.option_strings[0], a.dest.split(".")[0]
        if a.dest in PLAIN_DESTS[command]:
            assert field not in fields, flag
            continue
        assert field in fields, f"{flag}: dest {a.dest!r} names no config field"
        args = cli.build_parser().parse_args([command, *required, flag, FLAG_VALUES[flag]])
        got, default = cli._load_config(cls, None, args).to_dict(), cls().to_dict()
        for key in a.dest.split("."):
            got, default = got[key], default[key]
        assert got == json.loads(json.dumps(getattr(args, a.dest))) != default, flag


USAGE = {
    "synth": """\
usage: euphrates synth [-h] [--config CONFIG] [--canvas CANVAS]
                       [--object OBJECT] [--frames FRAMES]
                       [--velocity VELOCITY] [--start START]
                       [--background {flat,noise}] [--seed SEED] --out OUT""",
    "estimate": """\
usage: euphrates estimate [-h] --frames FRAMES [--mb-size MB_SIZE]
                          [--search-range SEARCH_RANGE] [--algo {es,tss}]
                          --out OUT""",
    "simulate": """\
usage: euphrates simulate [-h] [--config CONFIG] [--frames FRAMES]
                          [--detections DETECTIONS] [--mode MODE]
                          [--mb-size MB_SIZE] [--search-range SEARCH_RANGE]
                          [--algo {es,tss}] [--seed SEED] --out OUT""",
    "evaluate": """\
usage: euphrates evaluate [-h] --trace TRACE --truth TRUTH
                          [--thresholds THRESHOLDS] --out OUT""",
    "sweep": """\
usage: euphrates sweep [-h] [--config CONFIG] --axis {ew,mb_size,algorithm}
                       --values VALUES [--mode MODE] [--seed SEED] --out OUT""",
}


@pytest.mark.parametrize("command", list(USAGE))
def test_usage_names_each_flag_by_its_option(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert capsys.readouterr().out.split("\n\n")[0] == USAGE[command]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("synth", "--frames", "\u0664"),
        ("synth", "--seed", "1_0"),
        ("estimate", "--mb-size", "+16"),
        ("estimate", "--search-range", " 7"),
        ("simulate", "--seed", "1_0"),
        ("simulate", "--mb-size", "+16"),
        ("simulate", "--search-range", "7_0"),
        ("sweep", "--seed", "+1"),
    ],
)
def test_integer_flags_take_an_optional_minus_and_ascii_digits(tmp_path, capsys, command, flag, value):
    # int() would read "1_0" as 10, "+16" as 16, " 7" as 7 and the Arabic-Indic "\u0664" as 4.
    out = tmp_path / "out"
    required = {"estimate": ["--frames", tmp_path], "sweep": ["--axis", "ew", "--values", "1"]}
    with pytest.raises(SystemExit) as raised:
        run([command, *required.get(command, []), f"{flag}={value}", "--out", out])
    assert raised.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Fuzz: arbitrary finite box values, damaged .mvm files and damaged PGM
# headers end in exit 0, or in exit 2 with one error line

FUZZ_SIZE = (64, 48)
FUZZ_FRAMES = 5
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Frames, their truth, and .mvm fields that move every MB, so that a
    box anywhere on the frame is carried somewhere by extrapolation."""
    root = tmp_path_factory.mktemp("fuzz")
    w, h = FUZZ_SIZE
    assert run(["synth", "--out", root / "frames", "--canvas", f"{w}x{h}", "--object", "16x12",
                "--frames", FUZZ_FRAMES, "--velocity", "2,1", "--start", "0,0", "--background", "noise"]) == 0
    (root / "mv").mkdir()
    for t in range(1, FUZZ_FRAMES):
        field = uniform_field(w, h, mv=(2, 1), sad=(t * 997) % 4000)
        (root / "mv" / f"{t:06d}.mvm").write_bytes(encode_metadata(field))
    return root


@st.composite
def box_damage(draw):
    near = {"x": st.floats(-20, 80), "y": st.floats(-20, 60), "w": st.floats(0, 40), "h": st.floats(0, 40)}
    box = {k: draw(near[k]) for k in "xywh"}
    for k in draw(st.sets(st.sampled_from("xywh"))):  # these take any finite value
        box[k] = draw(FINITE)
    if draw(st.booleans()):
        box["score"] = draw(FINITE)
    return "box", draw(st.integers(0, FUZZ_FRAMES - 1)), box


@st.composite
def mvm_damage(draw):
    t = draw(st.integers(1, FUZZ_FRAMES - 1))
    size = len(encode_metadata(uniform_field(*FUZZ_SIZE)))
    if draw(st.booleans()):
        return "mvm", t, ("truncate", draw(st.integers(0, size - 1)))
    flips = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)), min_size=1, max_size=3))
    return "mvm", t, ("flip", flips)


@st.composite
def pgm_damage(draw):
    t = draw(st.integers(0, FUZZ_FRAMES - 1))
    how = draw(st.sampled_from(["header", "flip", "truncate"]))
    if how == "header":
        token = st.sampled_from(["0", "1", "47", "48", "63", "64", "65", "255", "256", "3072", "-1", "x", "#c\n",
                                 "9" * 5000])
        magic = draw(st.sampled_from(["P5", "P2", "P6", "P", "Q5"]))
        sep = draw(st.sampled_from(["\n", " ", "\t", ""]))
        return "pgm", t, ("header", f"{magic}{sep}{' '.join(draw(token) for _ in range(3))}\n")
    if how == "flip":
        return "pgm", t, ("flip", draw(st.integers(0, 14)), draw(st.integers(1, 255)))
    return "pgm", t, ("truncate", draw(st.integers(0, 40)))


def damage(root: Path, work: Path, case) -> dict:
    """Copy the fuzz inputs into `work` with `case` applied; the run config."""
    kind, t, how = case
    lines = (root / "frames" / "truth.jsonl").read_text().splitlines()
    if kind == "box":
        record = json.loads(lines[t + 1])  # line 0 is the config echo
        record["boxes"][0] = {"label": 0, **how}
        lines[t + 1] = json.dumps(record)
    (work / "truth.jsonl").write_text("\n".join(lines) + "\n")
    cfg = {"detections": str(work / "truth.jsonl")}
    if kind == "pgm":
        frames = shutil.copytree(root / "frames", work / "frames", ignore=shutil.ignore_patterns("*.jsonl"))
        path = frames / f"{t:06d}.pgm"
        data = bytearray(path.read_bytes())
        header_len = len(f"P5\n{FUZZ_SIZE[0]} {FUZZ_SIZE[1]}\n255\n")
        if how[0] == "header":
            data[:header_len] = how[1].encode()
        elif how[0] == "flip":
            data[how[1]] ^= how[2]
        else:
            del data[how[1]:]
        path.write_bytes(bytes(data))
        cfg["frames_dir"] = str(frames)
    else:
        mv = shutil.copytree(root / "mv", work / "mv")
        if kind == "mvm":
            path = mv / f"{t:06d}.mvm"
            data = bytearray(path.read_bytes())
            if how[0] == "truncate":
                del data[how[1]:]
            else:
                for pos, mask in how[1]:
                    data[pos] ^= mask
            path.write_bytes(bytes(data))
        cfg["metadata_dir"] = str(mv)
    return cfg


def exits_cleanly(capsys, args) -> int:
    """`main(args)`'s exit status, after checking that it is 0, or 2 with
    exactly one `error <Class>: ` line on standard error."""
    rc = run(args)
    err = capsys.readouterr().err
    assert rc in (0, 2), (rc, err)
    if rc == 2:
        assert err.count("\n") == 1 and re.match(r"error [A-Za-z]+: ", err), err
    return rc


@settings(PROPERTY, max_examples=3 * PROPERTY.max_examples)
@given(case=st.one_of(box_damage(), mvm_damage(), pgm_damage()), mode=st.sampled_from(["ew:2", "adaptive"]))
# Moved by one pixel, this box's height rounds to 0.
@example(case=("box", 0, {"x": 0.0, "y": 0.0, "w": 1.0, "h": 3e-106}), mode="ew:2")
# The area of this box rounds to 0, which IoU would divide by.
@example(case=("box", 0, {"x": 0.0, "y": 0.0, "w": 1e-200, "h": 1e-200}), mode="ew:2")
# int() refuses this width, which has more than 4300 digits.
@example(case=("pgm", 1, ("header", "P5\n" + "9" * 5000 + " 48\n255\n")), mode="ew:2")
def test_damaged_inputs_exit_0_or_2_with_one_line(fuzz_inputs, tmp_path, capsys, case, mode):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cfgp = write_run_config(work / "run.json", mode=mode, **damage(fuzz_inputs, work, case))
    if exits_cleanly(capsys, ["simulate", "--config", cfgp, "--out", work / "sim"]) == 0:
        exits_cleanly(capsys, ["evaluate", "--trace", work / "sim" / "trace.jsonl", "--truth",
                               work / "truth.jsonl", "--out", work / "eval"])
