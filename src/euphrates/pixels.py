"""Frame ingestion and synthetic test sequences.

Frames are single-channel 8-bit luminance images, stored as binary PGM
(P5, maxval 255) in `.pgm` files. `read_sequence` reads a directory of files
named by frame number alone (000000.pgm, ..., or the 000001.mvm, ... motion
fields of `euphrates estimate`), numbered without a gap and of one size.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .config import ConfigNode
from .errors import ConfigError, DimensionMismatchError, FrameFormatError, MissingDataError
from .roi import Roi

FLAT_BACKGROUND_VALUE = 128

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class Frame:
    """Single-channel 8-bit image; `pixels` has shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if not isinstance(px, np.ndarray) or px.ndim != 2:
            raise FrameFormatError("frame pixels must be a 2-D numpy array")
        if px.dtype != np.uint8:
            raise FrameFormatError(f"frame pixels must be uint8, got dtype={px.dtype}")
        if px.size == 0:
            raise FrameFormatError("frame must have at least one pixel")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


# ---------------------------------------------------------------------------
# File I/O

# Before each P5 header field: whitespace and '#' comments, each to its newline.
_HEADER_GAP = re.compile(rb"(?:\s|#[^\n]*\n)*")
_HEADER_FIELD = re.compile(rb"\S*")


def _parse_pgm(data: bytes, path: str) -> Frame:
    # P5 header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, then a single whitespace byte before the payload.
    if len(data) < 2 or data[:1] != b"P":
        raise FrameFormatError(f"{path}: not a PGM file (missing 'P' magic)")
    magic = data[:2]
    if magic != b"P5":
        raise FrameFormatError(f"{path}: unsupported PGM magic {magic!r}, only binary P5 is supported")

    pos = 2
    tokens: list[int] = []
    for _ in range(3):
        pos = _HEADER_GAP.match(data, pos).end()
        if data[pos : pos + 1] == b"#":
            raise FrameFormatError(f"{path}: unterminated comment in header")
        tok = _HEADER_FIELD.match(data, pos).group()
        pos += len(tok)
        if not tok:
            raise FrameFormatError(f"{path}: truncated header, expected 3 numeric fields")
        if not tok.isdigit():
            raise FrameFormatError(f"{path}: malformed header field {tok!r}")
        try:
            tokens.append(int(tok))
        except ValueError:  # past int()'s limit of 4300 digits
            raise FrameFormatError(f"{path}: header field of {len(tok)} digits is too long") from None
    pos += 1  # exactly one whitespace byte separates header and payload

    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        raise FrameFormatError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise FrameFormatError(f"{path}: unsupported maxval {maxval}, only 255 is supported")
    payload_size = max(0, len(data) - pos)
    if payload_size != width * height:
        raise FrameFormatError(
            f"{path}: payload size mismatch: header says {width}x{height} "
            f"({width * height} bytes), payload has {payload_size}"
        )
    # A view of the immutable `data`: read-only, so frames that runs share stay as loaded.
    return Frame(np.frombuffer(data, np.uint8, count=width * height, offset=pos).reshape(height, width))


def _pgm_path(path: str | Path) -> Path:
    """`path` as a Path; FrameFormatError unless its extension is .pgm."""
    p = Path(path)
    ext = p.suffix.lower()
    if ext != ".pgm":
        raise FrameFormatError(f"{p}: unsupported frame format {ext!r}, only .pgm is supported")
    return p


def load_frame(path: str | Path) -> Frame:
    """Load a binary PGM (P5) frame from the `.pgm` file `path`; its pixels
    are read-only."""
    p = _pgm_path(path)
    if not os.path.isfile(p):
        raise FrameFormatError(f"{p}: file not found")
    return _parse_pgm(p.read_bytes(), str(p))


def save_frame(frame: Frame, path: str | Path) -> None:
    """Write `frame` losslessly as binary PGM (P5) to the `.pgm` file `path`."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    _pgm_path(path).write_bytes(header + frame.pixels.tobytes())


def read_sequence(directory: str | Path, suffix: str, first: int, load: Callable[[Path], T]) -> list[T]:
    """`load(path)` of each `suffix` file of a sequence directory, in frame order.

    Names must be a frame number alone (e.g. 000000.pgm), numbered from
    `first` without a gap, so no frame can be skipped or misplaced; each
    must name a file, and each item must share the first's width x height.
    """
    numbered = []
    # os.path.isdir is False where Path.glob raises, as for a name too long.
    for f in Path(directory).glob("*" + suffix) if os.path.isdir(directory) else ():
        if not (f.stem.isascii() and f.stem.isdigit()):
            raise FrameFormatError(f"{f}: {suffix} file names must be frame numbers")
        if not os.path.isfile(f):
            raise FrameFormatError(f"{f}: not a file")
        numbered.append((int(f.stem), f))
    if not numbered:
        raise MissingDataError(f"{directory}: no {suffix} files")
    numbered.sort()
    for n, (number, f) in enumerate(numbered, first):
        if number != n:
            raise MissingDataError(f"{directory}: no {suffix} file for frame {n} (next is {f.name})")
    items: list[T] = []
    for _, f in numbered:
        item = load(f)
        if items and (item.width, item.height) != (items[0].width, items[0].height):
            raise DimensionMismatchError(
                f"{f}: {item.width}x{item.height} differs from "
                f"{numbered[0][1].name}: {items[0].width}x{items[0].height}"
            )
        items.append(item)
    return items


def load_sequence(directory: str | Path) -> list[Frame]:
    """All frames of a sequence directory (000000.pgm, 000001.pgm, ...)."""
    return read_sequence(directory, ".pgm", 0, load_frame)


def save_sequence(frames: list[Frame], directory: str | Path) -> list[Path]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, frame in enumerate(frames):
        p = out / f"{i:06d}.pgm"
        save_frame(frame, p)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# Synthetic sequences


CARRIER_PERIOD = 16.0
CARRIER_WEIGHT = 0.93


def noise_image(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random texture, uint8, built for reliable block matching.

    A two-axis cosine carrier with random phases makes up CARRIER_WEIGHT
    (0.93) of the image and white speckle the remaining 7%. At that weight
    the carrier dominates: it makes the matching cost grow monotonically
    with misalignment in each axis, so coarse-to-fine searches descend to
    the true offset instead of getting trapped on the flat cost landscape
    pure white noise produces, while the thin speckle still keeps the
    zero-cost match unique. CARRIER_PERIOD equals the 16-pixel macroblock edge: every block then
    spans one full period (discrimination does not depend on block
    position) and no carrier alias fits inside a +-7 search window. The
    result is stretched to the full [0, 255] range so matches against flat
    regions stay unambiguous.
    """
    phase_x, phase_y = rng.uniform(0.0, 2.0 * np.pi, 2)
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    carrier = 0.5 * (
        np.cos(2.0 * np.pi * xx / CARRIER_PERIOD + phase_x)
        + np.cos(2.0 * np.pi * yy / CARRIER_PERIOD + phase_y)
    )
    img = CARRIER_WEIGHT * (carrier + 1.0) / 2.0 + (1.0 - CARRIER_WEIGHT) * rng.random(
        (height, width)
    )
    lo, hi = img.min(), img.max()
    if hi - lo <= 0:
        return np.full((height, width), FLAT_BACKGROUND_VALUE, dtype=np.uint8)
    return ((img - lo) / (hi - lo) * 255.0).round().astype(np.uint8)


@dataclass(frozen=True)
class SynthConfig(ConfigNode):
    """Recipe of a moving-object sequence with exact ground truth, the schema
    of `synth`. Its `to_dict` with `trajectory=steps` is the echo in
    truth.jsonl.

    `trajectory` holds the integer displacements [dx, dy] of the object
    between frames t-1 and t: one entry is a constant velocity, repeated for
    every frame pair; otherwise it needs frames - 1 entries. `start` is the
    object's top-left corner at frame 0.
    """

    canvas: tuple[int, int] = (128, 96)
    object: tuple[int, int] = (32, 16)
    frames: int = 24  # the centred object at velocity 2,1 stays in for 25
    trajectory: tuple[tuple[int, int], ...] = ((2, 1),)
    seed: int = 0
    background: str = "flat"
    start: tuple[int, int] | None = None  # None: centred

    def __post_init__(self):
        (cw, ch), (ow, oh) = self.canvas, self.object
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(cw, ch, ow, oh) <= 0:
            raise ConfigError("canvas and object dimensions must be positive")
        if ow > cw or oh > ch:
            raise ConfigError("object does not fit in canvas")
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.background not in ("flat", "noise"):
            raise ConfigError(f"unknown background mode {self.background!r}")
        if len(self.trajectory) not in (1, self.frames - 1):
            raise ConfigError(
                f"trajectory has {len(self.trajectory)} entries, need 1 or frames - 1 = {self.frames - 1}"
            )
        if len(self.trajectory) == 1:  # a line: the first frame outside follows in closed form
            (x0, y0), ((dx, dy),) = next(self._corners(1)), self.trajectory
            t = min(self.frames - 1, _frames_within(x0, dx, cw - ow), _frames_within(y0, dy, ch - oh))
            checked = [(0, (x0, y0)), (t, (x0 + t * dx, y0 + t * dy))]
        else:  # an explicit trajectory is as long as the recipe
            checked = enumerate(self._corners(self.frames))
        for t, (x, y) in checked:
            if not (0 <= x <= cw - ow and 0 <= y <= ch - oh):
                if t == 0:
                    raise ConfigError(f"start {x},{y} puts the {ow}x{oh} object outside the {cw}x{ch} canvas")
                raise ConfigError(
                    f"trajectory pushes object out of canvas at frame {t} "
                    f"(top-left {x},{y}, object {ow}x{oh}, canvas {cw}x{ch})"
                )

    def _steps(self, count: int):
        """The displacements of the first `count` frame pairs, lazily."""
        last = len(self.trajectory) - 1
        return (self.trajectory[min(t, last)] for t in range(count))

    @property
    def steps(self) -> tuple[tuple[int, int], ...]:
        """The trajectory spelled out: one displacement per frame pair."""
        return tuple(self._steps(self.frames - 1))

    def _corners(self, count: int):
        """The object's top-left corner at the first `count` frames, lazily."""
        x, y = self.start or ((self.canvas[0] - self.object[0]) // 2, (self.canvas[1] - self.object[1]) // 2)
        yield x, y
        for dx, dy in self._steps(count - 1):
            x, y = x + dx, y + dy
            yield x, y


def _frames_within(p: int, d: int, hi: int) -> float:
    """How many frames from frame 0 on p + t * d stays in [0, hi], given 0 <= p <= hi."""
    return ((hi if d > 0 else 0) - p) // d + 1 if d else math.inf


def generate_sequence(cfg: SynthConfig) -> tuple[list[Frame], list[Roi]]:
    """Render the sequence described by `cfg`.

    Frame t equals frame t-1 with the object translated by `cfg.steps[t-1]`;
    the returned ROI at frame t exactly bounds the object. Deterministic for
    a given seed.
    """
    (cw, ch), (ow, oh) = cfg.canvas, cfg.object
    rng = np.random.default_rng(cfg.seed)
    if cfg.background == "noise":
        bg = noise_image(ch, cw, rng)
    else:
        bg = np.full((ch, cw), FLAT_BACKGROUND_VALUE, dtype=np.uint8)
    texture = noise_image(oh, ow, rng)

    frames: list[Frame] = []
    rois: list[Roi] = []
    for x, y in cfg._corners(cfg.frames):
        canvas = bg.copy()
        canvas[y : y + oh, x : x + ow] = texture
        frames.append(Frame(canvas))
        rois.append(Roi(float(x), float(y), float(ow), float(oh), label=0, score=1.0))
    return frames, rois
