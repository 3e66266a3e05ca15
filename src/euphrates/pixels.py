"""Frame ingestion and synthetic test sequences.

Frames are single-channel 8-bit luminance images. Two on-disk formats are
supported: binary PGM (P5, maxval 255) and headerless raw Y8 with dimensions
supplied out of band; the file extension selects the format. Frame
sequences are directories of files named by frame number alone (000000.pgm,
000001.pgm, ...), numbered without a gap.

All operations here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrameFormatError, MissingDataError
from .roi import Roi

FLAT_BACKGROUND_VALUE = 128


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

    @classmethod
    def from_bytes(cls, width: int, height: int, payload: bytes) -> "Frame":
        expected = width * height
        if len(payload) != expected:
            raise FrameFormatError(
                f"payload size mismatch: declared {width}x{height} needs "
                f"{expected} bytes, got {len(payload)}"
            )
        px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
        return cls(px)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


# ---------------------------------------------------------------------------
# File I/O


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
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol == -1:
                raise FrameFormatError(f"{path}: unterminated comment in header")
            pos = eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok:
            raise FrameFormatError(f"{path}: truncated header, expected 3 numeric fields")
        if not tok.isdigit():
            raise FrameFormatError(f"{path}: malformed header field {tok!r}")
        tokens.append(int(tok))
    pos += 1  # exactly one whitespace byte separates header and payload

    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        raise FrameFormatError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise FrameFormatError(f"{path}: unsupported maxval {maxval}, only 255 is supported")
    payload = data[pos:]
    if len(payload) != width * height:
        raise FrameFormatError(
            f"{path}: payload size mismatch: header says {width}x{height} "
            f"({width * height} bytes), payload has {len(payload)}"
        )
    return Frame.from_bytes(width, height, payload)


def _is_raw(p: Path) -> bool:
    """False for PGM (.pgm), True for raw Y8 (.raw, .y8); other extensions fail."""
    ext = p.suffix.lower()
    if ext not in (".pgm", ".raw", ".y8"):
        raise FrameFormatError(f"{p}: cannot infer format from extension {ext!r}")
    return ext != ".pgm"


def load_frame(path: str | Path, width: int | None = None, height: int | None = None) -> Frame:
    """Load a PGM or raw Y8 frame from `path`; raw frames need `width` and `height`."""
    p = Path(path)
    raw = _is_raw(p)
    if not p.is_file():
        raise FrameFormatError(f"{p}: file not found")
    data = p.read_bytes()
    if not raw:
        return _parse_pgm(data, str(p))
    if width is None or height is None:
        raise FrameFormatError(f"{p}: raw format requires declared width and height")
    try:
        return Frame.from_bytes(width, height, data)
    except FrameFormatError as e:
        raise FrameFormatError(f"{p}: {e}") from None


def save_frame(frame: Frame, path: str | Path) -> None:
    """Write `frame` losslessly as PGM (P5) or raw Y8, by the extension of `path`."""
    p = Path(path)
    header = b"" if _is_raw(p) else f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    p.write_bytes(header + frame.pixels.tobytes())


def list_frame_files(directory: str | Path, suffix: str = ".pgm", first: int = 0) -> list[Path]:
    """The `suffix` files of a sequence directory in frame order.

    Names must be a frame number alone (e.g. 000000.pgm), numbered from
    `first` without a gap, so no frame can be skipped or misplaced.
    """
    numbered = []
    for f in Path(directory).glob("*" + suffix):
        if not (f.stem.isascii() and f.stem.isdigit()):
            raise FrameFormatError(f"{f}: {suffix} file names must be frame numbers")
        numbered.append((int(f.stem), f))
    if not numbered:
        raise MissingDataError(f"{directory}: no {suffix} files")
    numbered.sort()
    for n, (number, f) in enumerate(numbered, first):
        if number != n:
            raise MissingDataError(f"{directory}: no {suffix} file for frame {n} (next is {f.name})")
    return [f for _, f in numbered]


def load_sequence(directory: str | Path) -> list[Frame]:
    """Load all frames of a sequence; every frame must share dimensions."""
    frames: list[Frame] = []
    dims: tuple[int, int] | None = None
    for f in list_frame_files(directory):
        frame = load_frame(f)
        if dims is None:
            dims = (frame.width, frame.height)
        elif (frame.width, frame.height) != dims:
            raise FrameFormatError(
                f"{f}: dimensions {frame.width}x{frame.height} differ from "
                f"sequence dimensions {dims[0]}x{dims[1]}"
            )
        frames.append(frame)
    return frames


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
class SyntheticSpec:
    """Recipe for a moving-object sequence with exact ground truth.

    `trajectory[t-1]` is the integer displacement applied to the object
    between frames t-1 and t, so it must contain frame_count - 1 entries.
    `start` is the object's top-left corner at frame 0 (None = centered).
    """

    canvas_w: int
    canvas_h: int
    object_w: int
    object_h: int
    frame_count: int
    trajectory: tuple[tuple[int, int], ...]
    seed: int = 0
    background: str = "flat"
    start: tuple[int, int] | None = None

    def __post_init__(self):
        if min(self.canvas_w, self.canvas_h, self.object_w, self.object_h) <= 0:
            raise ConfigError("canvas and object dimensions must be positive")
        if self.object_w > self.canvas_w or self.object_h > self.canvas_h:
            raise ConfigError("object does not fit in canvas")
        if self.frame_count < 1:
            raise ConfigError("frame_count must be >= 1")
        if self.background not in ("flat", "noise"):
            raise ConfigError(f"unknown background mode {self.background!r}")
        if len(self.trajectory) != self.frame_count - 1:
            raise ConfigError(
                f"trajectory has {len(self.trajectory)} entries, "
                f"need frame_count - 1 = {self.frame_count - 1}"
            )
        if self.start is not None:
            x, y = self.start
            if not (0 <= x <= self.canvas_w - self.object_w and 0 <= y <= self.canvas_h - self.object_h):
                raise ConfigError(
                    f"start {x},{y} puts the {self.object_w}x{self.object_h} object outside "
                    f"the {self.canvas_w}x{self.canvas_h} canvas"
                )

    @classmethod
    def constant(
        cls,
        canvas: tuple[int, int],
        obj: tuple[int, int],
        velocity: tuple[int, int],
        frame_count: int,
        **kwargs,
    ) -> "SyntheticSpec":
        traj = tuple((int(velocity[0]), int(velocity[1])) for _ in range(frame_count - 1))
        return cls(canvas[0], canvas[1], obj[0], obj[1], frame_count, traj, **kwargs)


def generate_sequence(spec: SyntheticSpec) -> tuple[list[Frame], list[Roi]]:
    """Render the sequence described by `spec`.

    Frame t equals frame t-1 with the object translated by trajectory[t-1];
    the returned ROI at frame t exactly bounds the object. Deterministic for
    a given seed. Raises ConfigError when the trajectory pushes the object
    outside the canvas.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.background == "noise":
        bg = noise_image(spec.canvas_h, spec.canvas_w, rng)
    else:
        bg = np.full((spec.canvas_h, spec.canvas_w), FLAT_BACKGROUND_VALUE, dtype=np.uint8)
    texture = noise_image(spec.object_h, spec.object_w, rng)

    if spec.start is not None:
        x, y = int(spec.start[0]), int(spec.start[1])
    else:
        x = (spec.canvas_w - spec.object_w) // 2
        y = (spec.canvas_h - spec.object_h) // 2

    frames: list[Frame] = []
    rois: list[Roi] = []
    for t in range(spec.frame_count):
        if t > 0:
            dx, dy = spec.trajectory[t - 1]
            x += dx
            y += dy
        if not (0 <= x <= spec.canvas_w - spec.object_w and 0 <= y <= spec.canvas_h - spec.object_h):
            raise ConfigError(
                f"trajectory pushes object out of canvas at frame {t} "
                f"(top-left {x},{y}, object {spec.object_w}x{spec.object_h}, "
                f"canvas {spec.canvas_w}x{spec.canvas_h})"
            )
        canvas = bg.copy()
        canvas[y : y + spec.object_h, x : x + spec.object_w] = texture
        frames.append(Frame(canvas))
        rois.append(Roi(float(x), float(y), float(spec.object_w), float(spec.object_h), label=0, score=1.0))
    return frames, rois
