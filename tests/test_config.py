"""The typed config trees and strict parsing at every input boundary."""

import json
import math
import re
import struct
import types
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from euphrates.cli import RunConfig, SynthConfig, main
from euphrates.config import ConfigNode, check, merge_overrides
from euphrates.errors import ConfigError, EuphratesError
from euphrates.motion import MotionParams, decode_metadata
from euphrates.pixels import _parse_pgm, generate_sequence
from euphrates.roi import Roi
from euphrates.scheduler import AdaptiveParams, PipelineConfig, ResultTrace, read_detection_trace
from euphrates.socmodel import FIELD_RANGE, PRESETS, SocConfig

from oracles import config_echo

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
    assert "preset" not in echo["soc"] and echo["soc"] == PRESETS["mdnet"].to_dict()
    assert RunConfig.from_dict(json.loads(json.dumps(echo))) == cfg


def test_int_in_float_field_is_kept_as_given():
    cfg = RunConfig.from_dict({"provider": {"noise_sigma": 1}, "soc": {"capture_fps": 30}})
    echo = json.dumps(cfg.to_dict())
    assert '"noise_sigma": 1}' in echo and '"capture_fps": 30,' in echo


def test_pipeline_echo_uses_run_config_keys():
    assert set(PipelineConfig().to_dict()) == {"mode", "motion", "extrapolation", "adaptive"}
    assert set(RunConfig().to_dict()) == {
        "mode", "motion", "extrapolation", "adaptive", "frames_dir", "metadata_dir",
        "detections", "truth", "provider", "soc", "seed",
    }


@pytest.mark.parametrize(
    "node",
    [
        RunConfig.from_dict({"soc": {"preset": "tiny-yolo", "capture_fps": 30}}),
        RunConfig.from_dict({"provider": {"noise_sigma": 1}, "extrapolation": {"grid": [3, 1]}, "seed": 5}),
        SynthConfig.from_dict({"frames": 4, "trajectory": [[1, 0], [0, 2], [-1, 1]], "start": [10, 20]}),
        MotionParams(8, 3, "tss"),
        SocConfig(capture_fps=30, net_ops_gop=11),
    ],
    ids=["soc preset", "int in a float field and the grid tuple", "multi-step trajectory", "motion", "soc"],
)
def test_echo_equals_the_json_round_trip_of_asdict(node):
    """Built from the fields, the echo holds what the JSON round trip of
    `asdict` held: nodes as dicts, tuples as lists, an int in a float field
    as an int, the keys in field order. repr tells all of those apart."""
    echo = node.to_dict()
    assert echo == config_echo(node) and repr(echo) == repr(config_echo(node))
    assert node.to_dict() is not echo  # a fresh tree each call: callers may change it


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
        ({"soc": {"capture_fps": True}}, "soc.capture_fps: expected a finite number"),
        ({"mode": 4}, "mode: expected a string"),
        ({"mode": "ew:0"}, "constant EW must be >= 1"),
        ({"adaptive": {"initial_ew": 40}}, "adaptive: need 1 <= ew_min <= initial_ew <= ew_max"),
        ({"motion": 7}, "motion: expected an object"),
        ({"motion": {"mb_size": 12}}, "motion: mb_size must be a power of two"),
        ({"provider": {"seed": -1}}, "unknown config keys ['provider.seed']"),
        ({"frames_dir": 3}, "frames_dir: expected a string"),
        ([], "config: expected an object"),
    ],
)
def test_loader_rejects(data, message):
    with pytest.raises(ConfigError, match=message.replace("[", r"\[").replace("(", r"\(")):
        RunConfig.from_dict(data)


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"provider": {"seed": 1}, "soc": {"cpu_power_mw": 3}}, ["provider.seed", "soc.cpu_power_mw"]),
        ({"soc": {"preset": "mdnet", "cpu_power_mw": 3}, "colour": 1, "adaptive": {"tau": 0.3}},
         ["soc.cpu_power_mw", "colour", "adaptive.tau"]),
        ({"mode": 4, "motion": {"mb_size": 12, "size": 8}}, ["motion.size"]),  # before any value error
    ],
)
def test_every_unknown_key_of_the_tree_is_reported_in_one_error(data, unknown):
    with pytest.raises(ConfigError) as e:
        RunConfig.from_dict(data)
    assert str(e.value) == f"unknown config keys {unknown}"


@PROPERTY
@given(
    st.sampled_from(sorted(PRESETS)),
    st.dictionaries(st.sampled_from([f.name for f in fields(SocConfig)]), st.floats(*FIELD_RANGE) | st.integers(1, 10**6)),
)
def test_preset_values_sit_under_the_explicit_soc_fields(name, overrides):
    if "nnx_utilization" in overrides:
        overrides["nnx_utilization"] = min(overrides["nnx_utilization"], 1.0)
    expected = replace(PRESETS[name], **overrides)
    assert SocConfig.from_dict({"preset": name, **overrides}) == expected
    echo = RunConfig.from_dict({"soc": {"preset": name, **overrides}}).to_dict()["soc"]
    assert "preset" not in echo and SocConfig.from_dict(echo) == expected


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
# Property: a synth recipe loads and renders the positions it spells out, or
# raises ConfigError


PAIR = st.lists(st.integers(-8, 8), min_size=2, max_size=2)
SPOILED = {  # values for each field, most of which break the recipe
    "canvas": PAIR, "object": st.lists(st.integers(-1, 80), min_size=2, max_size=2),
    "frames": st.integers(-1, 0), "trajectory": st.lists(PAIR, max_size=13), "seed": st.just(-1),
    "background": st.just("stripes"), "start": st.lists(st.integers(-9, 80), min_size=2, max_size=2),
}


@st.composite
def synth_recipes(draw):
    """Small recipes as JSON objects: a valid-looking one, in which one field
    may then be drawn from values that break it."""
    canvas = [draw(st.integers(1, 64)), draw(st.integers(1, 64))]
    obj = [draw(st.integers(1, c)) for c in canvas]
    frames = draw(st.integers(1, 12))
    n_steps = draw(st.sampled_from([1, frames - 1]))
    step = st.lists(st.integers(-1, 1) | st.integers(-8, 8), min_size=2, max_size=2)
    recipe = {
        "canvas": canvas, "object": obj, "frames": frames,
        "trajectory": draw(st.lists(step, min_size=n_steps, max_size=n_steps)),
        "seed": draw(st.integers(0, 3)), "background": draw(st.sampled_from(["flat", "noise"])),
        "start": draw(st.none() | st.tuples(*(st.integers(0, c - o) for c, o in zip(canvas, obj))).map(list)),
    }
    spoil = draw(st.sampled_from([None, None, *SPOILED]))
    if spoil is not None:
        recipe[spoil] = draw(SPOILED[spoil])
    return {k: v for k, v in recipe.items() if draw(st.booleans()) or k in ("canvas", "object", "frames")}


def _corners_if_valid(recipe: dict) -> list[tuple[int, int]] | None:
    """The object's top-left corner at every frame, or None for a recipe that
    must be rejected; the rule spelled out naively."""
    (cw, ch), (ow, oh), n, traj = recipe["canvas"], recipe["object"], recipe["frames"], recipe["trajectory"]
    if recipe["seed"] < 0 or min(cw, ch, ow, oh) <= 0 or ow > cw or oh > ch or n < 1:
        return None
    if recipe["background"] not in ("flat", "noise") or len(traj) not in (1, n - 1):
        return None
    corners = [tuple(recipe["start"] or ((cw - ow) // 2, (ch - oh) // 2))]
    for t in range(1, n):
        dx, dy = traj[0] if len(traj) == 1 else traj[t - 1]
        corners.append((corners[-1][0] + dx, corners[-1][1] + dy))
    inside = all(0 <= x <= cw - ow and 0 <= y <= ch - oh for x, y in corners)
    return corners if inside else None


@PROPERTY
@given(synth_recipes())
def test_synth_recipe_renders_its_positions_or_raises(data):
    corners = _corners_if_valid({**SynthConfig().to_dict(), **data})
    if corners is None:
        with pytest.raises(ConfigError):
            SynthConfig.from_dict(data)
        return
    cfg = SynthConfig.from_dict(data)
    frames, rois = generate_sequence(cfg)
    (ow, oh), (x0, y0) = cfg.object, corners[0]
    assert [(r.x, r.y, r.w, r.h) for r in rois] == [(x, y, ow, oh) for x, y in corners]
    texture = frames[0].pixels[y0 : y0 + oh, x0 : x0 + ow]
    for frame, (x, y) in zip(frames, corners):
        assert (frame.width, frame.height) == cfg.canvas
        assert np.array_equal(frame.pixels[y : y + oh, x : x + ow], texture)
    full = replace(cfg, trajectory=cfg.steps)
    assert len(full.trajectory) == cfg.frames - 1
    assert SynthConfig.from_dict(json.loads(json.dumps(full.to_dict()))) == full
    assert generate_sequence(full) == (frames, rois)



def test_merge_overrides_makes_missing_parents_and_skips_none():
    data = {"motion": {"search_range": 4}, "seed": 1}
    merged = merge_overrides(data, {"motion.mb_size": 8, "soc.capture_fps": 30, "seed": None, "adaptive.k_up": None})
    assert merged == {"motion": {"search_range": 4, "mb_size": 8}, "soc": {"capture_fps": 30}, "seed": 1}
    # A path through a non-object leaves that value for the loader to report.
    assert merge_overrides({"motion": 7}, {"motion.mb_size": 8}) == {"motion": 7}
    assert merge_overrides([1], {"seed": 2}) == [1]


@pytest.mark.parametrize("velocity, frame", [((0, 0), None), ((1, 0), 500_000_001), ((0, -3), 166_666_667)])
def test_constant_velocity_on_a_huge_canvas_loads_in_closed_form(velocity, frame):
    # Walking frame by frame would take about 10**9 steps here.
    recipe = {"canvas": [10**9, 10**9], "object": [1, 1], "frames": 10**9, "trajectory": [list(velocity)]}
    if frame is None:
        assert SynthConfig.from_dict(recipe).frames == 10**9
        return
    with pytest.raises(ConfigError, match=f"out of canvas at frame {frame} "):
        SynthConfig.from_dict(recipe)


# ---------------------------------------------------------------------------
# Property: `check` on a leaf or optional leaf type follows the generic rule


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def generic_check(tp, value, path):
    """`check` on a leaf or `X | None` type, restated as the generic rule:
    unwrap the optional type, then apply the leaf's test."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    what, ok = {
        int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        float: ("a finite number", _finite_number),
        str: ("a string", lambda v: isinstance(v, str)),
    }[tp]
    if not ok(value):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return value


def _outcome(fn, tp, value):
    try:
        result = fn(tp, value, "box.x")
    except ConfigError as e:
        return "error", str(e)
    assert result is value or result is None
    return "ok", result


LEAF_TYPES = [int, float, str, int | None, float | None, str | None, typing.Optional[float]]


@PROPERTY
@given(
    tp=st.sampled_from(LEAF_TYPES),
    value=st.none() | st.booleans() | st.integers() | st.integers(2**1020, 2**1100).map(lambda n: n * (-1) ** n)
    | st.floats() | st.text(max_size=4) | JSON,
)
@example(tp=int, value=True)
@example(tp=float, value=False)
@example(tp=float | None, value=True)
@example(tp=float, value=2**1024)
@example(tp=float, value=-(2**1024))
@example(tp=float, value=math.nan)
@example(tp=float, value=math.inf)
@example(tp=float | None, value=-math.inf)
@example(tp=float, value=None)
@example(tp=float | None, value=None)
@example(tp=str, value=None)
@example(tp=float, value="1.5")
def test_check_of_a_leaf_equals_the_generic_rule(tp, value):
    assert repr(_outcome(check, tp, value)) == repr(_outcome(generic_check, tp, value))


def test_check_of_a_type_without_a_rule_is_a_type_error():
    """A schema field of a type `check` has no rule for is a fault of the
    schema, not of the input, so it is not a ConfigError."""
    with pytest.raises(TypeError, match=re.escape("box.x: no config rule for type list[int]")):
        check(list[int], [1], "box.x")


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


# Box values around each rule: plain floats, ints and bools, non-finite
# floats, strings, and extents whose area exceeds the bound (1e308), rounds
# to 0 (1e-200), or that are 0 or negative.
EXTENT = st.floats(0.5, 60) | st.sampled_from([1e308, 1e-200, 0.0, -0.0, -3.0])
BOX_VALUE = st.one_of(
    st.floats(-5, 50),
    EXTENT,
    st.sampled_from([1e308, math.nan, math.inf, -math.inf, "1.5", None]),
    st.integers(-5, 50),
    st.booleans(),
)
SCORE = st.none() | st.integers(0, 1) | st.floats(0, 1) | st.sampled_from([math.nan, "0.5", True])
BOX_EXTRAS = {"score": SCORE, "label": st.none() | st.integers(0, 3) | TEXT}
BOX_DICT = st.one_of(
    # plain floats throughout, as result traces write them
    st.fixed_dictionaries({"x": st.floats(-5, 50), "y": st.floats(-5, 50), "w": EXTENT, "h": EXTENT},
                          optional=BOX_EXTRAS),
    st.fixed_dictionaries({k: BOX_VALUE for k in "xywh"}, optional=BOX_EXTRAS),
    st.fixed_dictionaries({}, optional={**{k: BOX_VALUE for k in "xywh"}, **BOX_EXTRAS}),  # keys missing
    JSON,
)


@pytest.mark.parametrize("w, h", [(0, 1.0), (1.0, 0), (-1, 1.0), (1.0, -1), (math.nan, 1.0), (1.0, math.nan)])
def test_roi_extent_must_be_positive(w, h):
    with pytest.raises(ValueError) as e:
        Roi(0.0, 0.0, w, h)
    assert str(e.value) == f"roi extent must be positive, got w={w}, h={h}"


def _box_outcome(parse, box):
    try:
        return parse(box)
    except ConfigError as e:
        return str(e)


@settings(PROPERTY, max_examples=10 * PROPERTY.max_examples)
@given(BOX_DICT)
@example({"x": 0.0, "y": 0.0, "w": 1e308, "h": 1e308, "score": 1.0})
@example({"x": 0.0, "y": 0.0, "w": 1e-200, "h": 1e-200})
@example({"x": 1e308, "y": 0.0, "w": 1e308, "h": 1.0})
@example({"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "score": 1})
@example({"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "score": math.inf})
def test_box_fast_path_equals_the_checking_path(box):
    # The checking path decides every box and words every error; the fast
    # path may only take a box it would accept, and build the same Roi.
    got, want = _box_outcome(Roi.from_dict, box), _box_outcome(Roi._checked_from_dict, box)
    assert type(got) is type(want)
    if isinstance(want, Roi):
        assert [(type(v), repr(v)) for v in vars(got).values()] == [(type(v), repr(v)) for v in vars(want).values()]
    else:
        assert got == want


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
        ("simulate", b'{"provider": {"seed": 1}, "soc": {"cpu_power_mw": 3}}',
         "unknown config keys ['provider.seed', 'soc.cpu_power_mw']"),
    ],
)
def test_cli_rejects_malformed_config_file(tmp_path, capsys, command, content, message):
    p = tmp_path / "in.json"
    p.write_bytes(content)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ConfigError: {p}: ") and err.count("\n") == 1
    assert message in err


# ---------------------------------------------------------------------------
# README's schema tables list exactly the schema's keys

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("section, node", [("Run configuration", RunConfig()), ("Synthetic sequences", SynthConfig())])
def test_readme_schema_table_lists_the_schema_keys(section, node):
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in text.splitlines() if line.startswith("|")]
    assert {key for row in rows for key in re.findall(r"`([^`]+)`", row[0])} == set(node.to_dict())
    for key, described, *_ in rows:  # a nested section's row names its fields; soc takes any SocConfig field
        child = getattr(node, key.strip(" `"), None)
        if isinstance(child, ConfigNode) and not isinstance(child, SocConfig):
            assert set(re.findall(r"`([a-z_]+)`", described)) == set(child.to_dict()), key
