"""Workloads of the euphrates benchmark and their seeded input generator.

Each workload is a closed loop with one client: a single process runs the
workload's job (a short list of `euphrates` commands, the same ones a user
types, run through `cli.main` in-process) back to back. The program receives
only the files written here. Inputs depend on the seed alone and are cached
per seed under the work directory; preparing them is never timed.

All paths handed to the program are relative to the repository root, so the
configuration echoed into every output, and with it every output digest, is
the same in any checkout.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from euphrates.motion import MotionParams, encode_metadata, estimate_motion_field
from euphrates.pixels import Frame, noise_image, save_sequence
from euphrates.roi import Roi

WORK_DIR = Path(".bench_work")
# Bump when the generated inputs change, so cached inputs are rebuilt.
GENERATOR_VERSION = 4
MB_SIZE = 16
SEARCH_RANGE = 7
SWEEP_EWS = {"full": "1,2,4,8,16", "tiny": "1,2,4"}


# ---------------------------------------------------------------------------
# Scenes: a noise background with textured objects pasted at known positions


@dataclass(frozen=True)
class Scene:
    """`objects[i]` is (w, h, positions); positions[t] is the top-left at frame t."""

    width: int
    height: int
    objects: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]

    @property
    def n_frames(self) -> int:
        return len(self.objects[0][2])

    def boxes(self, t: int) -> list[Roi]:
        return [Roi(float(p[t][0]), float(p[t][1]), float(w), float(h), label=0, score=1.0)
                for w, h, p in self.objects]

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height,
                "objects": [{"w": w, "h": h, "positions": [list(xy) for xy in p]}
                            for w, h, p in self.objects]}

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        return cls(d["width"], d["height"], tuple(
            (o["w"], o["h"], tuple(tuple(xy) for xy in o["positions"])) for o in d["objects"]))


def render(scene: Scene, rng: np.random.Generator) -> list[Frame]:
    bg = noise_image(scene.height, scene.width, rng)
    textures = [noise_image(h, w, rng) for w, h, _ in scene.objects]
    frames = []
    for t in range(scene.n_frames):
        canvas = bg.copy()
        for tex, (w, h, pos) in zip(textures, scene.objects):
            x, y = pos[t]
            canvas[y : y + h, x : x + w] = tex
        frames.append(Frame(canvas))
    return frames


def _constant_path(rng, lo: tuple[int, int], hi: tuple[int, int], size: tuple[int, int],
                   velocity: tuple[int, int], n: int) -> tuple[tuple[int, int], ...]:
    """Positions of an object moving at `velocity` that stays inside [lo, hi)."""
    start = []
    for axis in (0, 1):
        travel = velocity[axis] * (n - 1)
        first = lo[axis] - min(0, travel)
        last = hi[axis] - size[axis] - max(0, travel)
        if first > last:
            raise ValueError(f"object {size} at velocity {velocity} does not fit its region")
        start.append(int(rng.integers(first, last + 1)))
    return tuple((start[0] + velocity[0] * t, start[1] + velocity[1] * t) for t in range(n))


def _crowd_scene(rng, tiny: bool) -> Scene:
    # One object per horizontal lane, each with its own constant velocity.
    width, height, lanes, n = (160, 120, 3, 12) if tiny else (640, 480, 12, 40)
    lane_h = height // lanes
    speeds = [s for s in range(-6, 7) if s != 0]
    velocities = rng.permutation(speeds)[:lanes]
    objects = []
    for lane, vx in enumerate(velocities):
        w = int(rng.choice([40, 48] if tiny else [40, 48, 56, 64, 72]))
        h = lane_h - 16
        lo, hi = (0, lane * lane_h + 8), (width, lane * lane_h + 8 + h)
        objects.append((w, h, _constant_path(rng, lo, hi, (w, h), (int(vx), 0), n)))
    return Scene(width, height, tuple(objects))


def fast_trajectory(n_steps: int) -> list[tuple[int, int]]:
    """Acceptance criterion 9's fast-motion trajectory: a (+-3, +-1) jitter
    with (+-11, 0) spikes, beyond the +-7 search range, every 7 frames."""
    traj = []
    for t in range(n_steps):
        if t % 14 == 6:
            traj.append((11, 0))
        elif t % 14 == 13:
            traj.append((-11, 0))
        else:
            traj.append((3, 1) if t % 2 == 0 else (-3, -1))
    return traj


def _sweep_scene(rng, tiny: bool) -> Scene:
    width, height, (w, h) = (96, 72, (32, 16)) if tiny else (320, 240, (48, 32))
    # One period of the trajectory (both spikes) keeps a job near 2 s, so a
    # run times enough jobs for some to fall in a fast stretch of the host.
    n = 15
    # The trajectory's cumulative offset stays within x in [0, 11], y in [-1, 1].
    # Starting 8 rows into a macroblock row keeps the +-1 vertical jitter off
    # row boundaries; elsewhere the accuracy would hinge on the seed's texture.
    x = int(rng.integers(8, width - w - 11 - 8 + 1))
    y = 8 + MB_SIZE * int(rng.integers((height - h - 1 - 8) // MB_SIZE + 1))
    pos = [(x, y)]
    for dx, dy in fast_trajectory(n - 1):
        x, y = x + dx, y + dy
        pos.append((x, y))
    return Scene(width, height, ((w, h, tuple(pos)),))


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: Callable[[np.random.Generator, bool], Scene]
    # (inputs dir, job output dir, size) -> commands of one job
    commands: Callable[[Path, Path, str], list[list[str]]]
    # (scene, size) -> input frames one job completes
    frames_per_job: Callable[[Scene, str], int]
    digest_globs: tuple[str, ...]
    # (inputs dir, job output dir, seed) -> run.json contents
    run_config: Callable[[Path, Path, int], dict]
    precompute_fields: bool = False


def _crowd_commands(inputs: Path, out: Path, size: str) -> list[list[str]]:
    return [
        ["simulate", "--config", f"{inputs}/run.json", "--out", f"{out}/sim"],
        ["evaluate", "--trace", f"{out}/sim/trace.jsonl", "--truth", f"{inputs}/truth.jsonl", "--out", f"{out}/eval"],
    ]


def _sweep_commands(inputs: Path, out: Path, size: str) -> list[list[str]]:
    return [["sweep", "--config", f"{inputs}/run.json", "--axis", "ew", "--values", SWEEP_EWS[size],
             "--out", f"{out}/sweep"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim_metadata_crowd",
            why="the deployed path: motion only decodes .mvm metadata, so extrapolation, scheduling and matching carry the load",
            scene=_crowd_scene,
            commands=_crowd_commands,
            frames_per_job=lambda scene, size: scene.n_frames,
            digest_globs=("sim/trace.jsonl",),
            run_config=lambda inputs, out, seed: {
                "metadata_dir": f"{inputs}/mv", "detections": f"{inputs}/truth.jsonl",
                "mode": "adaptive", "provider": {"noise_sigma": 0.5}, "seed": seed,
                # Prediction/inference diffs of these scenes peak near 0.22 on
                # every seed, so the EW schedule, and with it the work per job
                # and the energy saving, does not depend on the seed.
                "adaptive": {"tau_diff": 0.3}},
            precompute_fields=True,
        ),
        Workload(
            name="sweep_ew_frames",
            why="every EW variant reloads the same frames and re-estimates identical fields while only ROI macroblocks are read",
            scene=_sweep_scene,
            commands=_sweep_commands,
            frames_per_job=lambda scene, size: scene.n_frames * len(SWEEP_EWS[size].split(",")),
            digest_globs=("sweep/*/trace.jsonl",),
            run_config=lambda inputs, out, seed: {
                "frames_dir": f"{inputs}/frames", "detections": f"{inputs}/truth.jsonl"},
        ),
    )
}


def _source_digest() -> str:
    # Inputs are made with the program's own code (textures, the crowd's
    # .mvm fields), so cached inputs are only valid for the same source.
    h = hashlib.sha256()
    for f in sorted(Path("src/euphrates").glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def work_paths(name: str, size: str, seed: int) -> tuple[Path, Path]:
    """(inputs dir, job output dir), relative to the repository root."""
    key = f"{name}-{size}-seed{seed}"
    return WORK_DIR / "inputs" / key, WORK_DIR / "jobs" / key


def prepare(name: str, size: str, seed: int) -> tuple[Path, Scene]:
    """Write (or reuse) the workload's inputs for `seed`; return their dir and scene."""
    wl = WORKLOADS[name]
    inputs, out = work_paths(name, size, seed)
    stamp = inputs / "scene.json"
    source = _source_digest()
    if stamp.is_file():
        meta = json.loads(stamp.read_text())
        if (meta["generator"], meta.get("source")) == (GENERATOR_VERSION, source):
            return inputs, Scene.from_dict(meta["scene"])
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    scene = wl.scene(rng, size == "tiny")
    frames = render(scene, rng)

    tmp = inputs.with_name(inputs.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    save_sequence(frames, tmp / "frames")
    lines = [json.dumps({"frame": t, "boxes": [b.to_dict() for b in scene.boxes(t)]}, sort_keys=True)
             for t in range(scene.n_frames)]
    (tmp / "truth.jsonl").write_text("\n".join(lines) + "\n")
    if wl.precompute_fields:
        (tmp / "mv").mkdir()
        params = MotionParams(MB_SIZE, SEARCH_RANGE, "es")
        for t in range(1, len(frames)):
            data = encode_metadata(estimate_motion_field(frames[t - 1], frames[t], params))
            (tmp / "mv" / f"{t:06d}.mvm").write_bytes(data)
    (tmp / "run.json").write_text(json.dumps(wl.run_config(inputs, out, seed), indent=2) + "\n")
    # The stamp goes last: a dir with a stamp is complete.
    (tmp / "scene.json").write_text(json.dumps({"generator": GENERATOR_VERSION, "source": source,
                                                "seed": seed, "scene": scene.to_dict()}) + "\n")
    shutil.rmtree(inputs, ignore_errors=True)
    tmp.rename(inputs)
    return inputs, scene
