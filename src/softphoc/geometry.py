"""Planar geometry shared by the encoder, masks, spotting and evaluation."""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateQuad, DegenerateSegment


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class LineSegment:
    """Finite text-line candidate with its normal-form line parameters.

    ``(rho, theta)`` satisfy ``x*cos(theta) + y*sin(theta) = rho`` with
    theta in degrees in [0, 180); both endpoints lie on that line up to
    accumulator quantization. The length, math.hypot of the endpoint
    differences, must be finite and above 0: building any other segment
    raises DegenerateSegment, so every segment has a direction and can
    be sampled, boxed and scored.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    rho: float
    theta: float
    votes: int = 0

    def __post_init__(self):
        if not self.length < math.inf:  # also true for NaN
            raise DegenerateSegment("segment of non-finite length")
        if self.length == 0.0:
            raise DegenerateSegment("zero-length segment")

    @cached_property
    def length(self) -> float:
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    @property
    def midpoint(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def canonical(self) -> "LineSegment":
        """Endpoints ordered left-to-right, ties broken top-to-bottom."""
        if (self.x1, self.y1) <= (self.x2, self.y2):
            return self
        return replace(self, x1=self.x2, y1=self.y2, x2=self.x1, y2=self.y1)

    def angle_from_horizontal(self) -> float:
        """Direction angle in degrees in (-90, 90] of the canonical segment."""
        seg = self.canonical()
        ang = math.degrees(math.atan2(seg.y2 - seg.y1, seg.x2 - seg.x1))
        if ang <= -90.0:
            ang += 180.0
        elif ang > 90.0:
            ang -= 180.0
        return ang

    @classmethod
    def from_endpoints(cls, x1, y1, x2, y2, votes: int = 0) -> "LineSegment":
        """Build a segment, deriving (rho, theta) from the endpoints."""
        theta = (math.degrees(math.atan2(y2 - y1, x2 - x1)) + 90.0) % 180.0
        rho = x1 * math.cos(math.radians(theta)) + y1 * math.sin(math.radians(theta))
        return cls(x1, y1, x2, y2, rho, theta, votes).canonical()


def quad_signed_area(quad: np.ndarray) -> float:
    """Shoelace area of a 4-point polygon, positive when its vertices run
    clockwise on screen (image coordinates, y pointing down)."""
    q = np.asarray(quad, dtype=float)
    x, y = q[:, 0], q[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def quad_area(quad: np.ndarray) -> float:
    """Absolute shoelace area of a 4-point polygon."""
    return abs(quad_signed_area(quad))


def quad_is_convex_clockwise(quad: np.ndarray) -> bool:
    """Positive signed area and no edge turning counter-clockwise on
    screen: true for a convex quad ordered clockwise, false for a
    counter-clockwise, non-convex or self-intersecting one. Collinear
    vertices are allowed."""
    q = np.asarray(quad, dtype=float)
    e = np.roll(q, -1, axis=0) - q
    turns = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    return quad_signed_area(q) > 0.0 and bool(np.all(turns >= 0.0))


def quad_mean_side_lengths(quad: np.ndarray) -> tuple[float, float]:
    """(mean of top/bottom edges, mean of left/right edges).

    Assumes vertices ordered clockwise from top-left: TL, TR, BR, BL.
    """
    q = np.asarray(quad, dtype=float)
    top = np.linalg.norm(q[1] - q[0])
    right = np.linalg.norm(q[2] - q[1])
    bottom = np.linalg.norm(q[3] - q[2])
    left = np.linalg.norm(q[0] - q[3])
    return 0.5 * (top + bottom), 0.5 * (left + right)


def quad_aabb(quad: np.ndarray) -> tuple[float, float, float, float]:
    q = np.asarray(quad, dtype=float)
    return q[:, 0].min(), q[:, 1].min(), q[:, 0].max(), q[:, 1].max()


def segment_quad_overlap_length(segment: LineSegment, quad: np.ndarray) -> float:
    """Length of the part of a segment inside a convex quadrilateral.

    Parametric half-plane clipping; the quad's centroid defines the
    interior side of each edge. When a point reaches 2**510 in magnitude,
    all points are first scaled by a power of two to below it: that keeps
    each clip fraction and every cross product within the float range.
    """
    q = np.asarray(quad, dtype=float)
    if quad_area(q) <= 0.0:
        raise DegenerateQuad("quad has zero area")
    points = np.vstack((q, [(segment.x1, segment.y1), (segment.x2, segment.y2)]))
    exponent = math.frexp(float(np.abs(points).max()))[1]
    if exponent > 510:
        points = np.ldexp(points, 510 - exponent)
    q, p1, p2 = points[:4], points[4], points[5]
    centroid = q.mean(axis=0)
    t0, t1 = 0.0, 1.0
    for i in range(4):
        a = q[i]
        e = q[(i + 1) % 4] - a
        side = e[0] * (centroid[1] - a[1]) - e[1] * (centroid[0] - a[0])
        if side == 0.0:
            continue  # edge through centroid: degenerate edge, skip
        s = 1.0 if side > 0 else -1.0
        f0 = s * (e[0] * (p1[1] - a[1]) - e[1] * (p1[0] - a[0]))
        f1 = s * (e[0] * (p2[1] - a[1]) - e[1] * (p2[0] - a[0]))
        if f0 < 0.0 and f1 < 0.0:
            return 0.0
        if f0 < 0.0:
            t0 = max(t0, f0 / (f0 - f1))
        elif f1 < 0.0:
            t1 = min(t1, f0 / (f0 - f1))
    return max(0.0, t1 - t0) * segment.length


# Direction components below this count as zero, and a line along an axis
# within this distance of the rectangle counts as inside it: cos(90 deg)
# is about 6e-17, so a line refit onto a border row can sit ~1e-15 off it.
AXIS_TOLERANCE = 1e-12


def line_param_range_in_rect(rho: float, theta_rad: float, width: int, height: int):
    """Parameter range of the line rho=(x cos, y sin) inside [0,W-1]x[0,H-1].

    Points are parameterized p(t) = rho*(cos, sin) + t*(-sin, cos).
    Returns (t_lo, t_hi) or None when the line misses the rectangle.
    """
    c, s = math.cos(theta_rad), math.sin(theta_rad)
    t_lo, t_hi = -math.inf, math.inf
    # x(t) = rho*c - t*s in [0, width-1]
    if abs(s) > AXIS_TOLERANCE:
        bounds = sorted(((rho * c - 0.0) / s, (rho * c - (width - 1)) / s))
        t_lo, t_hi = max(t_lo, bounds[0]), min(t_hi, bounds[1])
    elif not (-AXIS_TOLERANCE <= rho * c <= width - 1 + AXIS_TOLERANCE):
        return None
    # y(t) = rho*s + t*c in [0, height-1]
    if abs(c) > AXIS_TOLERANCE:
        bounds = sorted(((0.0 - rho * s) / c, ((height - 1) - rho * s) / c))
        t_lo, t_hi = max(t_lo, bounds[0]), min(t_hi, bounds[1])
    elif not (-AXIS_TOLERANCE <= rho * s <= height - 1 + AXIS_TOLERANCE):
        return None
    if t_lo > t_hi:
        return None
    return t_lo, t_hi
