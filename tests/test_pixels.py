"""Frame I/O and synthetic sequence generation."""

import re
from dataclasses import replace

import numpy as np
import pytest

from euphrates.errors import ConfigError, DimensionMismatchError, FrameFormatError
from euphrates.pixels import (
    Frame,
    SynthConfig,
    generate_sequence,
    load_frame,
    load_sequence,
    noise_image,
    save_frame,
    save_sequence,
)


def test_frame_validation():
    with pytest.raises(FrameFormatError):
        Frame(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(FrameFormatError):
        Frame(np.zeros(16, dtype=np.uint8))


def test_frame_of_zero_pixels_is_rejected():
    with pytest.raises(FrameFormatError, match="frame must have at least one pixel"):
        Frame(np.zeros((0, 4), dtype=np.uint8))


def test_pgm_round_trip_exact(tmp_path):
    f = Frame(np.array([[0, 128], [255, 7]], dtype=np.uint8))
    p = tmp_path / "a.pgm"
    save_frame(f, p)
    loaded = load_frame(p)
    assert loaded == f



def test_loaded_pixels_are_read_only(tmp_path):
    # Runs of one sweep share the frames they load, so no run may write them.
    p = tmp_path / "a.pgm"
    save_frame(Frame(np.array([[0, 128], [255, 7]], dtype=np.uint8)), p)
    px = load_frame(p).pixels
    assert not px.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        px[0, 0] = 1

def test_pgm_parses_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4]))
    f = load_frame(p)
    assert f.pixels.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize(
    "payload,msg",
    [
        (b"P2\n2 2\n255\n" + bytes(4), "P2"),
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "mismatch"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed"),
        # int() refuses more than 4300 digits with a plain ValueError.
        pytest.param(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4),
                     "bad.pgm: header field of 5000 digits is too long", id="width-past-the-digit-limit"),
    ],
)
def test_pgm_errors(tmp_path, payload, msg):
    p = tmp_path / "bad.pgm"
    p.write_bytes(payload)
    with pytest.raises(FrameFormatError, match=msg):
        load_frame(p)


def test_load_frame_of_a_missing_path(tmp_path):
    with pytest.raises(FrameFormatError, match=re.escape(f"{tmp_path / 'absent.pgm'}: file not found")):
        load_frame(tmp_path / "absent.pgm")


def test_load_frame_unknown_extension(tmp_path):
    for name in ["f.bin", "f.raw", "f.y8"]:
        p = tmp_path / name
        p.write_bytes(bytes(16))
        with pytest.raises(FrameFormatError, match="format"):
            load_frame(p)
        out = tmp_path / ("out" + p.suffix)
        with pytest.raises(FrameFormatError, match="format"):
            save_frame(Frame(np.zeros((4, 4), dtype=np.uint8)), out)
        assert not out.exists()


def test_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    frames = [Frame(rng.integers(0, 256, size=(16, 16), dtype=np.uint8)) for _ in range(12)]
    save_sequence(frames, tmp_path / "seq")
    names = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert names == [f"{i:06d}.pgm" for i in range(12)]
    loaded = load_sequence(tmp_path / "seq")
    assert loaded == frames


def test_sequence_mixed_dims_names_file(tmp_path):
    d = tmp_path / "seq"
    d.mkdir()
    save_frame(Frame(np.zeros((8, 8), dtype=np.uint8)), d / "000000.pgm")
    save_frame(Frame(np.zeros((8, 16), dtype=np.uint8)), d / "000001.pgm")
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{d / '000001.pgm'}: 16x8 differs from 000000.pgm: 8x8")):
        load_sequence(d)


def test_noise_image_deterministic():
    a = noise_image(32, 48, np.random.default_rng(9))
    b = noise_image(32, 48, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (32, 48)
    assert a.min() == 0 and a.max() == 255  # full range after stretching


def test_generate_constant_motion_truth():
    spec = SynthConfig((128, 128), (32, 16), 10, ((2, 1),), seed=3, start=(10, 20))
    frames, rois = generate_sequence(spec)
    assert len(frames) == 10 and len(rois) == 10
    for t, r in enumerate(rois):
        assert (r.x, r.y, r.w, r.h) == (10 + 2 * t, 20 + t, 32, 16)


def test_generate_frame_is_translated_previous():
    spec = SynthConfig((96, 64), (24, 16), 5, ((3, 2),), seed=11, start=(8, 8))
    frames, rois = generate_sequence(spec)
    for t in range(1, 5):
        prev_obj = frames[t - 1].pixels[int(rois[t - 1].y) : int(rois[t - 1].y2), int(rois[t - 1].x) : int(rois[t - 1].x2)]
        cur_obj = frames[t].pixels[int(rois[t].y) : int(rois[t].y2), int(rois[t].x) : int(rois[t].x2)]
        assert np.array_equal(prev_obj, cur_obj)


def test_generate_zero_trajectory_identical_frames():
    spec = SynthConfig((64, 64), (16, 16), 4, ((0, 0),), seed=5)
    frames, rois = generate_sequence(spec)
    assert all(f == frames[0] for f in frames)
    assert all(r == rois[0] for r in rois)


def test_generate_deterministic():
    spec = SynthConfig((80, 60), (20, 12), 6, ((1, 1),), seed=42, background="noise")
    a, _ = generate_sequence(spec)
    b, _ = generate_sequence(spec)
    assert a == b


def test_generate_out_of_canvas_rejected():
    with pytest.raises(ConfigError, match="out of canvas at frame 5"):
        SynthConfig((64, 64), (32, 32), 8, ((8, 0),), start=(0, 0))



def test_constant_velocity_names_the_first_frame_outside():
    (cw, ch), (ow, oh), frames = (10, 7), (3, 2), 12
    for start in [(x, y) for x in range(cw - ow + 1) for y in range(ch - oh + 1)]:
        for v in [(dx, dy) for dx in range(-3, 4) for dy in range(-3, 4)]:
            corners = [(start[0] + t * v[0], start[1] + t * v[1]) for t in range(frames)]
            outside = [t for t, (x, y) in enumerate(corners) if not (0 <= x <= cw - ow and 0 <= y <= ch - oh)]
            if not outside:
                SynthConfig((cw, ch), (ow, oh), frames, (v,), start=start)
                continue
            with pytest.raises(ConfigError, match=f"at frame {outside[0]} \\(top-left {corners[outside[0]][0]},"):
                SynthConfig((cw, ch), (ow, oh), frames, (v,), start=start)

def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthConfig((64, 64), (128, 16), 2, ((0, 0),))  # object wider than canvas
    with pytest.raises(ConfigError):
        SynthConfig((64, 64), (16, 16), 4, ((0, 0), (0, 0)))  # trajectory too short
    with pytest.raises(ConfigError):
        SynthConfig((64, 64), (16, 16), 2, ((0, 0),), background="stripes")


def test_spec_dict_round_trip_and_broadcast():
    cfg = SynthConfig(canvas=(64, 48), object=(16, 8), frames=7, seed=2, background="noise")
    assert SynthConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.steps == ((2, 1),) * 6  # a one-entry trajectory is a constant velocity
    full = replace(cfg, trajectory=cfg.steps)
    assert SynthConfig.from_dict(full.to_dict()) == full and full.steps == cfg.steps
