"""Whole-CLI golden runs at benchmark scale.

Two seeded scenes are written with the package's own writers: a crowd like
the benchmark's metadata workload (640x480, 40 frames, one object in each of
12 horizontal lanes at its own constant speed) and a scene like its sweep
workload (320x240, 15 frames, one object on a fast trajectory). Every
command runs through `cli.main` from the scenes' directory with relative
paths, so the configuration echoed into each output is the same in any
checkout. The sha256 of every input and of every file written is pinned: an
input pin that moves means the generator changed, and an output pin that
moves by itself means a result did. Outputs echo the package version, so a
version change moves every output pin.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from euphrates import cli
from euphrates.pixels import Frame, noise_image, save_sequence
from euphrates.roi import Roi

CROWD_META = {"metadata_dir": "out/crowd-estimate-es", "detections": "crowd/truth.jsonl", "mode": "adaptive",
              "provider": {"noise_sigma": 0.5}, "seed": 1, "adaptive": {"tau_diff": 0.3}}
CROWD_FRAMES = {**{k: v for k, v in CROWD_META.items() if k != "metadata_dir"}, "frames_dir": "crowd/frames"}
FAST_FRAMES = {"frames_dir": "fast/frames", "detections": "fast/truth.jsonl"}
FAST_META = {"metadata_dir": "out/fast-estimate-tss", "detections": "fast/truth.jsonl", "motion": {"algorithm": "tss"}}


def render(width: int, height: int, objects: list, rng: np.random.Generator) -> list[Frame]:
    """Frames of noise-textured objects (w, h, positions) over a noise background."""
    background = noise_image(height, width, rng)
    textures = [noise_image(h, w, rng) for w, h, _ in objects]
    frames = []
    for t in range(len(objects[0][2])):
        canvas = background.copy()
        for texture, (w, h, positions) in zip(textures, objects):
            x, y = positions[t]
            canvas[y : y + h, x : x + w] = texture
        frames.append(Frame(canvas))
    return frames


def crowd_objects(rng: np.random.Generator) -> list:
    """One 24-pixel-high object 8 rows into each 40-pixel lane of a 640x480
    frame, moving at its own speed of 1 to 6 pixels a frame either way and
    inside the frame for all 40 frames."""
    objects = []
    for lane, vx in enumerate(rng.permutation([s for s in range(-6, 7) if s])[:12].tolist()):
        w = int(rng.choice([40, 48, 56, 64, 72]))
        travel = vx * 39
        x = int(rng.integers(max(0, -travel), 640 - w - max(0, travel) + 1))
        objects.append((w, 24, [(x + vx * t, 40 * lane + 8) for t in range(40)]))
    return objects


def fast_objects(rng: np.random.Generator) -> list:
    """One 48x32 object in a 320x240 frame for 15 frames: a (+-3, +-1)
    jitter with (+-11, 0) spikes, beyond the +-7 search range, every 7
    frames; it starts 8 rows into a macroblock row."""
    x, y = int(rng.integers(8, 320 - 48 - 11 - 8 + 1)), 8 + 16 * int(rng.integers((240 - 32 - 1 - 8) // 16 + 1))
    positions = [(x, y)]
    for t in range(14):
        dx, dy = (11, 0) if t % 14 == 6 else (-11, 0) if t % 14 == 13 else (3, 1) if t % 2 == 0 else (-3, -1)
        x, y = x + dx, y + dy
        positions.append((x, y))
    return [(48, 32, positions)]


def write_scene(name: str, width: int, height: int, objects: list, rng: np.random.Generator) -> None:
    save_sequence(render(width, height, objects, rng), Path(name) / "frames")
    lines = [
        json.dumps({"frame": t, "boxes": [Roi(float(p[t][0]), float(p[t][1]), float(w), float(h)).to_dict()
                                          for w, h, p in objects]}, sort_keys=True)
        for t in range(len(objects[0][2]))
    ]
    Path(name, "truth.jsonl").write_text("\n".join(lines) + "\n")


def write_inputs() -> None:
    rng = np.random.default_rng(2026)
    write_scene("crowd", 640, 480, crowd_objects(rng), rng)
    write_scene("fast", 320, 240, fast_objects(rng), rng)
    for path, cfg in [("crowd/meta.json", CROWD_META), ("crowd/frames.json", CROWD_FRAMES),
                      ("fast/frames.json", FAST_FRAMES), ("fast/meta.json", FAST_META)]:
        Path(path).write_text(json.dumps(cfg, indent=2) + "\n")


# (name, command line), in the order they run; each writes to out/<name>.
COMMANDS = [
    ("crowd-estimate-es", "estimate --frames crowd/frames --algo es"),
    ("crowd-simulate-adaptive", "simulate --config crowd/meta.json"),
    ("crowd-simulate-ew4", "simulate --config crowd/meta.json --mode ew:4"),
    ("crowd-simulate-frames-adaptive", "simulate --config crowd/frames.json"),
    ("crowd-evaluate-adaptive", "evaluate --trace out/crowd-simulate-adaptive/trace.jsonl --truth crowd/truth.jsonl"),
    ("crowd-evaluate-ew4", "evaluate --trace out/crowd-simulate-ew4/trace.jsonl --truth crowd/truth.jsonl"),
    ("fast-estimate-tss", "estimate --frames fast/frames --algo tss"),
    ("fast-simulate-ew4-es", "simulate --config fast/frames.json --mode ew:4"),
    ("fast-simulate-ew4-tss", "simulate --config fast/frames.json --mode ew:4 --algo tss"),
    ("fast-simulate-adaptive-es", "simulate --config fast/frames.json --mode adaptive"),
    ("fast-simulate-adaptive-tss", "simulate --config fast/frames.json --mode adaptive --algo tss"),
    ("fast-simulate-metadata-adaptive-tss", "simulate --config fast/meta.json --mode adaptive"),
    ("fast-evaluate-adaptive-es", "evaluate --trace out/fast-simulate-adaptive-es/trace.jsonl --truth fast/truth.jsonl"),
    ("fast-sweep-ew", "sweep --config fast/frames.json --axis ew --values 1,2,4,8,16"),
    ("fast-sweep-mb-size", "sweep --config fast/frames.json --axis mb_size --values 8,16,32"),
    ("fast-sweep-algorithm", "sweep --config fast/frames.json --axis algorithm --values es,tss"),
]


def digest(path: Path) -> str:
    """sha256 of a file's bytes; of a directory, of the line "path sha256"
    of each file under it, in path order."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return hashlib.sha256("".join(f"{p.relative_to(path)} {digest(p)}\n" for p in files).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The scenes' directory after every command ran, and each command's exit status."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        write_inputs()
        codes = {name: cli.main([*line.split(), "--out", f"out/{name}"]) for name, line in COMMANDS}
    return root, codes


# Each input; a frame sequence is pinned as its directory's digest.
INPUT_PINS = {
    "crowd/frames": "df1394d64462eec8a96a830001554087a790924a8fb3da93d397c17ee24cf4d8",
    "crowd/truth.jsonl": "80e7878b8f2c697ef2b1a8cc019d3c04406f3681e4b796cb59ce64b70e9c47db",
    "crowd/meta.json": "f9bd995fdc7623488ef87572e57edc153ad7439d4992ca160e014f91de07e925",
    "crowd/frames.json": "bb5607e7964762e84cb819b7ec0990d522de4f17fd37e376f04c325ba6928501",
    "fast/frames": "04e13199b504d87047f5d7fdbfaf81847db9969855d7c3181048cf5638a6e490",
    "fast/truth.jsonl": "213b953dd96e0efa7d530c95f56624bd249e9c8a8ee482e8a1e5da99db9a4bff",
    "fast/frames.json": "abcc90f490f974f04b15e9d7fdfe11c321e655d5932a2c45622bd5f20485355d",
    "fast/meta.json": "f621725e829d50e3ecb62bf1564d4cf2c081e32fa4391e74e923eb373067e051",
}

# The digest of each command's output directory.
OUTPUT_PINS = {
    "crowd-estimate-es": "7cf3e6f3d838b2ec33592763409f328fc14fafee53da2b052faa4c568cf9d53d",
    "crowd-simulate-adaptive": "11b00db1605e3f678615409e0e55be62a28dcadb5a26389a541d9ae4fc01116b",
    "crowd-simulate-ew4": "76a9e86a09b7a22da60720d7893d5305b7295aa9f774b4f55ebf8ff9d4bd5f63",
    "crowd-simulate-frames-adaptive": "f2bc94088f772b38b8f62785f614d66feded179b60d796eca7fb8558bbdef156",
    "crowd-evaluate-adaptive": "f267b0bb299b10e45462de8abef6e6b663c70537ef05ab7c1d84106c6d335da7",
    "crowd-evaluate-ew4": "8a8f7c085141ecbf34b5c9362a9feefc579ae43b69e59d8ff0a76b8ae87864e3",
    "fast-estimate-tss": "8b423ee2c90068bb4617f46f6eb7bceded4d8723cf09bf648457d249226ad18d",
    "fast-simulate-ew4-es": "8221b639c214884d33751313a2a07d934b9bb647ec910521d93a2062f38f29f7",
    "fast-simulate-ew4-tss": "6783e046e53b08e1e32439ea2d1889713441229a81d0915ad0f6f66a3c5eedc2",
    "fast-simulate-adaptive-es": "b93adcf75500710bdd07f0476f93869c240e53d699598d8d177267760b451b5b",
    "fast-simulate-adaptive-tss": "05f385db2935794de4a7d118f1dcaef4893f031852710720fef7865e8f37cb67",
    "fast-simulate-metadata-adaptive-tss": "acd4de389ce1d89c78a59afeb65ce07819792cce32bf94d99f47af3c33b09cbb",
    "fast-evaluate-adaptive-es": "be80e068649dfdea26a57dc6c422e34cfcb44d2000da43412945d8b2f3734531",
    "fast-sweep-ew": "4b7d25ba7c96d6d27985705fcfa6bc88e3e8d0074c8933076f6ca1896a83d848",
    "fast-sweep-mb-size": "e43cc07097d9c1f155a99bca8ba8adae95aafbdd17210b5f5d7fbbd164901509",
    "fast-sweep-algorithm": "1b0347036e23b18f810c0f3a9fc8712def287f5cce38419b027cade20366c6be",
}


def test_every_command_exits_0(golden):
    _, codes = golden
    assert codes == {name: 0 for name, _ in COMMANDS}


@pytest.mark.parametrize("path", list(INPUT_PINS))
def test_inputs_match_their_pins(golden, path):
    root, _ = golden
    assert digest(root / path) == INPUT_PINS[path]


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_outputs_match_their_pins(golden, name):
    root, _ = golden
    assert digest(root / "out" / name) == OUTPUT_PINS[name]


def test_every_file_is_pinned(golden):
    root, _ = golden
    pinned = [*INPUT_PINS, *(f"out/{name}" for name, _ in COMMANDS)]
    files = [str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()]
    assert [f for f in files if not any(f == p or f.startswith(p + "/") for p in pinned)] == []
