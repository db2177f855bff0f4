import math
from dataclasses import replace

import numpy as np
import pytest

from softphoc.errors import DegenerateQuad, DegenerateSegment
from softphoc.geometry import LineSegment, segment_quad_overlap_length

QUAD = np.array([[10, 10], [60, 10], [60, 30], [10, 30]], dtype=float)


class TestLineSegmentContract:
    @pytest.mark.parametrize("x1, y1, x2, y2", [
        (5.0, 5.0, 5.0, 5.0),
        (0.0, 0.0, -0.0, 0.0),   # -0.0 and 0.0 coincide
        (1e-320, 3.0, 1e-320, 3.0),
    ])
    def test_zero_length_refused(self, x1, y1, x2, y2):
        with pytest.raises(DegenerateSegment, match="zero-length segment"):
            LineSegment(x1, y1, x2, y2, rho=0.0, theta=0.0)

    @pytest.mark.parametrize("x1, y1, x2, y2", [
        (0.0, 0.0, math.nan, 0.0),
        (math.nan, math.nan, math.nan, math.nan),
        (0.0, 0.0, math.inf, 0.0),
        (0.0, -math.inf, 0.0, 3.0),
        (math.inf, 0.0, math.inf, 1.0),  # inf - inf is NaN
        (-1e308, 20.0, 1e308, 20.0),     # finite endpoints, length overflows
        (0.0, 0.0, 1.5e308, 1.5e308),
    ])
    def test_non_finite_length_refused(self, x1, y1, x2, y2):
        with pytest.raises(DegenerateSegment, match="segment of non-finite length"):
            LineSegment(x1, y1, x2, y2, rho=0.0, theta=0.0)

    def test_subnormal_length_accepted(self):
        # np.linalg.norm([1e-320, 0]) is 0.0; math.hypot keeps it
        seg = LineSegment(0.0, 20.0, 1e-320, 20.0, rho=0.0, theta=90.0)
        assert seg.length == 1e-320
        assert seg.angle_from_horizontal() == 0.0

    @pytest.mark.parametrize("x1, y1, x2, y2, angle", [
        (0.0, 10.0, 1e-20, 0.0, 90.0),  # atan2 reads -90.0 before the wrap
        (0.0, 0.0, 1e-20, 10.0, 90.0),
        (3.0, 0.0, 3.0, 5.0, 90.0),
        (5.0, 1.0, 0.0, 1.0, 0.0),
        (0.0, 2.0, 2.0, 0.0, -45.0),
    ])
    def test_angle_from_horizontal_lies_in_the_half_open_range(self, x1, y1, x2, y2, angle):
        seg = LineSegment(x1, y1, x2, y2, rho=0.0, theta=0.0)
        assert seg.angle_from_horizontal() == angle

    def test_largest_finite_length_accepted(self):
        seg = LineSegment(-0.8e308, 0.0, 0.8e308, 0.0, rho=0.0, theta=90.0)
        assert seg.length == 1.6e308

    def test_canonical_keeps_the_rule(self):
        seg = LineSegment(9.0, 4.0, 1.0, 1.0, rho=0.0, theta=0.0)
        flipped = seg.canonical()
        assert (flipped.x1, flipped.y1, flipped.x2, flipped.y2) == (1.0, 1.0, 9.0, 4.0)
        assert flipped.length == seg.length
        with pytest.raises(DegenerateSegment, match="zero-length"):
            replace(flipped, x2=1.0, y2=1.0)

    @pytest.mark.parametrize("ends, message", [
        ((3.0, 4.0, 3.0, 4.0), "zero-length"),
        ((0.0, 0.0, math.nan, 1.0), "non-finite"),
        ((-1e308, 0.0, 1e308, 0.0), "non-finite"),
    ])
    def test_from_endpoints_keeps_the_rule(self, ends, message):
        with pytest.raises(DegenerateSegment, match=message):
            LineSegment.from_endpoints(*ends)

    def test_length_is_part_of_no_comparison(self):
        a = LineSegment(0.0, 0.0, 3.0, 4.0, rho=1.0, theta=2.0)
        b = LineSegment(0.0, 0.0, 3.0, 4.0, rho=1.0, theta=2.0)
        assert a.length == 5.0 and a == b and hash(a) == hash(b)


class TestSegmentQuadOverlapLength:
    def test_takes_the_segment(self):
        seg = LineSegment.from_endpoints(0, 20, 100, 20)
        assert segment_quad_overlap_length(seg, QUAD) == pytest.approx(50.0)

    def test_zero_area_quad_refused(self):
        collapsed = np.array([[0, 0], [10, 0], [10, 0], [0, 0]], dtype=float)
        with pytest.raises(DegenerateQuad):
            segment_quad_overlap_length(LineSegment.from_endpoints(0, 0, 5, 5), collapsed)

    def test_repeated_vertex_edge_is_skipped(self):
        # the zero edge from a repeated vertex has no interior side; the
        # quad clips as the triangle it draws
        seg = LineSegment.from_endpoints(-100, 10, 100, 10)
        triangle = np.array([[0, 0], [20, 0], [40, 0], [0, 40]], dtype=float)
        repeated = np.array([[0, 0], [0, 0], [40, 0], [0, 40]], dtype=float)
        assert segment_quad_overlap_length(seg, repeated) == pytest.approx(30.0)
        assert segment_quad_overlap_length(seg, repeated) == \
            segment_quad_overlap_length(seg, triangle)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x1, x2", [(-1e308, 1e307), (-1.7e308, 0.0), (35.0, 1.7e308)])
    def test_far_reaching_segment_clips_to_the_quad(self, x1, x2):
        # the edge cross products of these overflowed, and the whole
        # segment used to count as inside
        seg = LineSegment(x1, 20.0, x2, 20.0, rho=20.0, theta=90.0)
        assert segment_quad_overlap_length(seg, QUAD) <= 50.0 + 1e-12 * seg.length

    def test_scaling_by_a_power_of_two_keeps_the_clip_fraction(self):
        # past 2**510 the points are scaled; the fraction inside is the
        # one of the same picture drawn 2**503 times smaller
        small = LineSegment(0.0, 20.0, 200.0, 20.0, rho=20.0, theta=90.0)
        scale = 2.0**503
        big = LineSegment(0.0, 20.0 * scale, 200.0 * scale, 20.0 * scale,
                          rho=20.0 * scale, theta=90.0)
        assert big.x2 >= 2.0**510
        fraction = segment_quad_overlap_length(small, QUAD) / small.length
        assert fraction == 0.25
        assert segment_quad_overlap_length(big, QUAD * scale) / big.length == fraction
