"""The typed config trees and strict parsing at every input boundary."""

import json
import struct
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from euphrates.cli import RunConfig, SynthConfig, main
from euphrates.config import ConfigNode
from euphrates.errors import ConfigError, EuphratesError
from euphrates.motion import decode_metadata
from euphrates.pixels import _parse_pgm
from euphrates.scheduler import AdaptiveParams, PipelineConfig, ResultTrace, read_detection_trace
from euphrates.socmodel import PRESETS, SocConfig, mdnet_config

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Loader


def test_defaults_fill_missing_keys():
    cfg = RunConfig.from_dict({"adaptive": {"tau_diff": 0.3}, "motion": {"mb_size": 8}})
    assert cfg.adaptive == AdaptiveParams(tau_diff=0.3)
    assert (cfg.motion.mb_size, cfg.motion.search_range) == (8, 7)
    assert cfg.soc == SocConfig()
    assert RunConfig.from_dict({}) == RunConfig()


def test_echo_is_json_native_and_round_trips():
    cfg = RunConfig.from_dict({"extrapolation": {"grid": [3, 1]}, "soc": {"preset": "mdnet"}})
    echo = cfg.to_dict()
    assert echo["extrapolation"]["grid"] == [3, 1]
    assert "preset" not in echo["soc"] and echo["soc"] == mdnet_config().to_dict()
    assert RunConfig.from_dict(json.loads(json.dumps(echo))) == cfg


def test_int_in_float_field_is_kept_as_given():
    cfg = RunConfig.from_dict({"provider": {"noise_sigma": 1}, "soc": {"capture_fps": 30}})
    echo = json.dumps(cfg.to_dict())
    assert '"noise_sigma": 1,' in echo and '"capture_fps": 30,' in echo


def test_pipeline_echo_uses_run_config_keys():
    assert set(PipelineConfig().to_dict()) == {"mode", "motion", "extrapolation", "adaptive"}
    assert set(RunConfig().to_dict()) == {
        "mode", "motion", "extrapolation", "adaptive", "frames_dir", "metadata_dir",
        "detections", "truth", "provider", "soc", "seed",
    }


@pytest.mark.parametrize(
    "data, message",
    [
        ({"adaptive": {"tau": 0.3}}, "adaptive.tau"),
        ({"adaptive": {"k_up": "3"}}, "adaptive.k_up: expected an integer"),
        ({"adaptive": {"k_up": True}}, "adaptive.k_up: expected an integer"),
        ({"adaptive": {"k_up": 3.0}}, "adaptive.k_up: expected an integer"),
        ({"adaptive": {"k_up": 0}}, "k_up must be >= 1"),
        ({"adaptive": {"tau_diff": float("nan")}}, "adaptive.tau_diff: expected a finite number"),
        ({"extrapolation": {"grid": 5}}, "extrapolation.grid: expected a list of 2"),
        ({"extrapolation": {"grid": [2, "2"]}}, "extrapolation.grid[1]"),
        ({"extrapolation": {"grid": [0, 2]}}, "extrapolation: sub-roi grid"),
        ({"soc": {"capture_fps": "60"}}, "soc.capture_fps: expected a finite number"),
        ({"soc": {"capture_fps": 10**400}}, "soc.capture_fps: expected a finite number"),
        ({"soc": {"preset": "nope"}}, "soc.preset: unknown preset 'nope'"),
        ({"soc": {"cpu_extrapolation": 1}}, "soc.cpu_extrapolation: expected a boolean"),
        ({"mode": 4}, "mode: expected a string"),
        ({"mode": "ew:0"}, "constant EW must be >= 1"),
        ({"adaptive": {"initial_ew": 40}}, "adaptive: need 1 <= ew_min <= initial_ew <= ew_max"),
        ({"motion": 7}, "motion: expected an object"),
        ({"motion": {"mb_size": 12}}, "motion: mb_size must be a power of two"),
        ({"provider": {"seed": -1}}, "provider"),
        ({"frames_dir": 3}, "frames_dir: expected a string"),
        ([], "config: expected an object"),
    ],
)
def test_loader_rejects(data, message):
    with pytest.raises(ConfigError, match=message.replace("[", r"\[").replace("(", r"\(")):
        RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Property: any JSON value loads or raises ConfigError, and the echo reloads

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _plausible(tp):
    """Values near a field's type, mixed with arbitrary JSON."""
    if typing.get_origin(tp) is typing.Union or type(None) in typing.get_args(tp):
        inner = next(a for a in typing.get_args(tp) if a is not type(None))
        return st.none() | _plausible(inner)
    if isinstance(tp, type) and issubclass(tp, ConfigNode):
        return _node_dicts(tp)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        item = _plausible(args[0]) if args[-1:] == (...,) else st.integers(-1, 4)
        return st.lists(item, min_size=1, max_size=3)
    leaf = {
        bool: st.booleans(),
        int: st.integers(-2, 40),
        float: st.floats(-1, 2) | st.integers(-1, 3),
        str: st.sampled_from(["ew:4", "ew:0", "ew:x", "adaptive", "es", "tss", "a/b"]),
    }[tp]
    return leaf | JSON


def _node_dicts(cls):
    optional = {name: _plausible(tp) for name, tp in typing.get_type_hints(cls).items()}
    if cls is SocConfig:
        optional["preset"] = st.sampled_from(sorted(PRESETS) + ["nope"]) | JSON
    return st.fixed_dictionaries({}, optional=optional)


@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)
@given(st.one_of(*(st.tuples(st.just(cls), JSON | _node_dicts(cls)) for cls in (RunConfig, SynthConfig))))
def test_any_json_loads_or_raises_config_error(case):
    cls, data = case
    try:
        cfg = cls.from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, cls)
    assert cls.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# ---------------------------------------------------------------------------
# Property: parsers of untrusted files raise only EuphratesError

_MVM_HEADER = struct.Struct("<4sBBHHHH")


@st.composite
def mvm_streams(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    w, h = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    L, d = draw(st.sampled_from([0, 3, 4, 8, 16])), draw(st.sampled_from([0, 1, 7, 8, 200]))
    header = _MVM_HEADER.pack(b"EUMV", draw(st.sampled_from([1, 2])), draw(st.integers(0, 2)), w, h, L, d)
    if L and draw(st.booleans()):  # a payload of the size the header implies
        size = -(-w // L) * -(-h // L) * (5 if d <= 7 else 6)
        return header + draw(st.binary(min_size=size, max_size=size))
    return header + draw(st.binary(max_size=400))


@PROPERTY
@given(mvm_streams())
def test_decode_metadata_parses_or_raises(data):
    try:
        field = decode_metadata(data)
    except EuphratesError:
        return
    assert field.cols >= 1 and field.rows >= 1


@st.composite
def pgm_streams(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    tokens = [draw(st.sampled_from(["0", "1", "3", "255", "256", "-1", "x", "#c\n"])) for _ in range(3)]
    header = ("P5\n" + " ".join(tokens) + draw(st.sampled_from(["\n", "", " "]))).encode()
    return header + draw(st.binary(max_size=16))


@PROPERTY
@given(pgm_streams())
def test_parse_pgm_parses_or_raises(data):
    try:
        _parse_pgm(data, "x.pgm")
    except EuphratesError:
        pass


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
NUMBER = st.floats(-5, 50) | st.integers(-5, 50)
BOX = st.fixed_dictionaries(
    {k: NUMBER | JSON for k in ("x", "y", "w", "h")},
    optional={"score": NUMBER | JSON, "id": st.integers(0, 3) | JSON, "label": JSON},
)
LINE = st.one_of(
    TEXT,
    JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"frame": st.integers(-1, 5) | JSON},
        optional={
            "kind": st.sampled_from(["I", "E", "X"]),
            "boxes": st.lists(BOX | JSON, max_size=3) | JSON,
            "ew": st.integers(1, 4) | JSON,
            "diff": st.floats(0, 1) | JSON,
        },
    ).map(json.dumps),
    st.fixed_dictionaries({"config": JSON, "version": JSON}).map(json.dumps),
)


@PROPERTY
@given(st.lists(LINE, max_size=5))
def test_trace_readers_parse_or_raise(tmp_path, lines):
    p = tmp_path / "t.jsonl"
    p.write_text("\n".join(lines), encoding="utf-8")
    for reader in (read_detection_trace, ResultTrace.load):
        try:
            reader(p)
        except EuphratesError:
            pass


# ---------------------------------------------------------------------------
# The CLI turns each rejected config into one error line and exit 2


@pytest.mark.parametrize(
    "probe",
    [
        {"extrapolation": {"grid": 5}},
        {"soc": {"capture_fps": "60"}},
        {"mode": 4},
        {"motion": 7},
        {"soc": {"preset": "nope"}},
        {"adaptive": {"tau": 0.3}},
        {"adaptive": {"k_up": "3"}},
    ],
)
def test_cli_rejects_probe_config(tmp_path, capsys, probe):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(probe))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ConfigError: {p}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("synth", b'{"canvas": 5}', "canvas: expected a list of 2"),
        ("synth", b'{"start": [1]}', "start: expected a list of 2"),
        ("synth", b"[64, 48]", "config: expected an object"),
        ("synth", b'{"frames": 1e400}', "frames: expected an integer"),
        ("synth", b'{"frames": "x"}', "frames: expected an integer"),
        ("synth", b'{"seed": -1}', "seed must be >= 0"),
        ("synth", b'{"canvas": [64', "invalid JSON"),
        ("synth", b'{"seed": "\xff"}', "not UTF-8 text"),
        ("synth", b'{"colour": 3}', "unknown config keys ['colour']"),
        ("synth", b'{"canvas": [64.7, 48]}', "canvas[0]: expected an integer"),
        ("synth", b'{"trajectory": [[true, 0]]}', "trajectory[0][0]: expected an integer"),
        ("synth", b'{"trajectory": 5}', "trajectory: expected a list of any length"),
        ("simulate", b'{"seed": "\xff"}', "not UTF-8 text"),
    ],
)
def test_cli_rejects_malformed_config_file(tmp_path, capsys, command, content, message):
    p = tmp_path / "in.json"
    p.write_bytes(content)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ConfigError: {p}: ") and err.count("\n") == 1
    assert message in err
