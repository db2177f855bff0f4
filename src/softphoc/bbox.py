"""Axis-aligned bounding boxes derived from detected line segments."""

import math
from dataclasses import dataclass

from .errors import DegenerateSegment, EmptyTranscription
from .geometry import LineSegment


@dataclass(frozen=True)
class BoundingBox:
    cx: float
    cy: float
    width: float
    height: float

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1)"""
        return (self.cx - 0.5 * self.width, self.cy - 0.5 * self.height,
                self.cx + 0.5 * self.width, self.cy + 0.5 * self.height)


def line_to_bbox(segment: LineSegment, n_chars: int,
                 image_size: tuple[int, int]) -> BoundingBox:
    """Box centered on the segment midpoint, sized by the +/-45 degree rule.

    A near-horizontal segment (|angle| <= 45 from horizontal) spans the
    box width; its height is the length divided by the character count.
    Otherwise the segment spans the box height and the width is the
    length multiplied by the character count. The result is clipped to
    the image. Raises EmptyTranscription for an n_chars below 1 and
    DegenerateSegment for a segment of zero or non-finite length.
    """
    if not n_chars >= 1:
        raise EmptyTranscription(f"n_chars {n_chars} must be at least 1")
    length = segment.length
    if not math.isfinite(length):
        raise DegenerateSegment("cannot box a segment of non-finite length")
    if length <= 0.0:
        raise DegenerateSegment("cannot box a zero-length segment")
    angle = segment.angle_from_horizontal()
    cx, cy = segment.midpoint
    if abs(angle) <= 45.0:
        width, height = length, length / n_chars
    else:
        width, height = length * n_chars, length

    image_w, image_h = image_size
    x0 = max(0.0, cx - 0.5 * width)
    x1 = min(float(image_w), cx + 0.5 * width)
    y0 = max(0.0, cy - 0.5 * height)
    y1 = min(float(image_h), cy + 0.5 * height)
    return BoundingBox(cx=0.5 * (x0 + x1), cy=0.5 * (y0 + y1),
                       width=x1 - x0, height=y1 - y0)
