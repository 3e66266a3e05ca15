"""Axis-aligned bounding boxes (ROIs).

Coordinates are real-valued; rounding is deferred to display/metric time so
repeated extrapolation does not accumulate truncation drift. `Roi` is a plain
dataclass, not a frozen one, so that it is cheap to build; the package never
assigns to one, and tests/test_package.py checks that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from .config import check
from .errors import ConfigError


_BOX_PATHS = tuple((k, f"box.{k}") for k in "xywh")
_MAX_AREA = sys.float_info.max / 2  # IoU adds two areas


@dataclass
class Roi:
    """Axis-aligned box with top-left corner (x, y) and extent (w, h) > 0."""

    x: float
    y: float
    w: float
    h: float
    label: Any = None
    score: float | None = None

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"roi extent must be positive, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    def to_dict(self) -> dict:
        d = {"x": float(self.x), "y": float(self.y), "w": float(self.w), "h": float(self.h)}
        if self.label is not None:
            d["label"] = self.label
        if self.score is not None:
            d["score"] = float(self.score)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Roi":
        """Inverse of `to_dict`; ConfigError unless x, y, w, h are finite
        numbers, the far corner x + w, y + h is finite and beyond x, y, and
        the area between the corners neither rounds to 0 nor exceeds
        half the largest float.

        A box whose x, y, w, h are plain floats, whose score is absent, None
        or a finite plain float, and that `_box_fault` passes is built at
        once; every other box goes through `_checked_from_dict`, which
        decides it and words any error."""
        if type(d) is dict:
            x, y, w, h, score = d.get("x"), d.get("y"), d.get("w"), d.get("h"), d.get("score")
            if (
                type(x) is type(y) is type(w) is type(h) is float
                and (score is None or (type(score) is float and math.isfinite(score)))
                and _box_fault(x, y, w, h) is None
            ):
                return cls(x, y, w, h, label=d.get("label"), score=score)
        return cls._checked_from_dict(d)

    @classmethod
    def _checked_from_dict(cls, d) -> "Roi":
        """`from_dict` of any JSON value, checking each key in turn."""
        if not isinstance(d, dict):
            raise ConfigError(f"box: expected an object, got {d!r}")
        x, y, w, h = [float(check(float, d.get(k), path)) for k, path in _BOX_PATHS]
        score = d.get("score")
        if score is not None:
            score = check(float, score, "box.score")
        try:
            roi = cls(x, y, w, h, label=d.get("label"), score=score)
        except ValueError as e:
            raise ConfigError(f"box: {e}") from None
        fault = _box_fault(x, y, w, h)
        if fault is not None:
            raise ConfigError(f"box: {fault}")
        return roi


def _box_fault(x: float, y: float, w: float, h: float) -> str | None:
    """Why floats x, y, w, h make no valid box, or None when they make one:
    the far corner must be finite and beyond (x, y), and the area between
    the corners, the one IoU takes, must neither round to 0 nor exceed
    `_MAX_AREA`. A box that passes has finite x, y and positive, finite w, h."""
    x2, y2 = x + w, y + h
    if not (x < x2 < math.inf and y < y2 < math.inf):
        return f"far corner ({x2!r}, {y2!r}) is not finite or not beyond ({x!r}, {y!r})"
    area = (x2 - x) * (y2 - y)
    if not 0.0 < area <= _MAX_AREA:
        fault = "exceeds half the largest float" if area > 0.0 else "rounds to 0"
        return f"area of {w!r}x{h!r} at ({x!r}, {y!r}) {fault}"
    return None


def framed_bounding_box(rois: Sequence[Roi], width: float, height: float) -> Roi | None:
    """Minimal axis-aligned box that encloses every box in `rois`, intersected
    with the frame rectangle [0, width] x [0, height], with the label and
    score of rois[0]. None when the enclosing box rounds to zero extent or
    lies outside the frame."""
    first = rois[0]
    x1, y1, x2, y2 = first.x, first.y, first.x + first.w, first.y + first.h
    for r in rois:  # min() and max() written out: each keeps its first argument on a tie
        x, y, xe, ye = r.x, r.y, r.x + r.w, r.y + r.h
        x1, y1 = x if x < x1 else x1, y if y < y1 else y1
        x2, y2 = xe if xe > x2 else x2, ye if ye > y2 else y2
    w, h = x2 - x1, y2 - y1
    if not (w > 0 and h > 0):
        return None
    # Clip the far corner the enclosing box reports, x1 + w, not the maximum
    # itself: the two can differ in the last bit, and result traces pin it.
    fx1 = max(x1, 0.0)
    fy1 = max(y1, 0.0)
    fx2 = min(x1 + w, float(width))
    fy2 = min(y1 + h, float(height))
    if fx2 <= fx1 or fy2 <= fy1:
        return None
    return Roi(fx1, fy1, fx2 - fx1, fy2 - fy1, label=first.label, score=first.score)
