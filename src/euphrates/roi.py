"""Axis-aligned bounding boxes (ROIs).

Coordinates are real-valued; rounding is deferred to display/metric time so
repeated extrapolation does not accumulate truncation drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .config import check
from .errors import ConfigError


@dataclass(frozen=True)
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

    @property
    def area(self) -> float:
        return self.w * self.h

    def translated(self, dx: float, dy: float) -> "Roi":
        return replace(self, x=self.x + dx, y=self.y + dy)

    def intersect(self, other: "Roi") -> "Roi | None":
        """Overlap box with `other`, or None when the boxes are disjoint.

        Label and score are carried from self.
        """
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return replace(self, x=x1, y=y1, w=x2 - x1, h=y2 - y1)

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
        numbers and the far corner x + w, y + h is finite and beyond x, y."""
        if not isinstance(d, dict):
            raise ConfigError(f"box: expected an object, got {d!r}")
        x, y, w, h = (float(check(float, d.get(k), f"box.{k}")) for k in "xywh")
        score = check(float | None, d.get("score"), "box.score")
        try:
            roi = cls(x, y, w, h, label=d.get("label"), score=score)
        except ValueError as e:
            raise ConfigError(f"box: {e}") from None
        if not (x < roi.x2 < math.inf and y < roi.y2 < math.inf):
            raise ConfigError(
                f"box: far corner ({roi.x2!r}, {roi.y2!r}) is not finite or not beyond ({x!r}, {y!r})"
            )
        return roi


def bounding_box(rois: list[Roi]) -> Roi:
    """Minimal axis-aligned box that encloses every box in `rois`."""
    if not rois:
        raise ValueError("bounding_box of an empty list")
    x1 = min(r.x for r in rois)
    y1 = min(r.y for r in rois)
    x2 = max(r.x2 for r in rois)
    y2 = max(r.y2 for r in rois)
    first = rois[0]
    return Roi(x1, y1, x2 - x1, y2 - y1, label=first.label, score=first.score)
