import math

import numpy as np
import pytest

from softphoc.bbox import line_to_bbox
from softphoc.errors import DegenerateSegment, EmptyTranscription
from softphoc.geometry import LineSegment

BIG = (100000, 100000)


def segment(x1, y1, x2, y2):
    return LineSegment.from_endpoints(x1, y1, x2, y2)


def test_horizontal_segment_box():
    box = line_to_bbox(segment(100, 200, 190, 200), n_chars=9, image_size=BIG)
    assert box.width == pytest.approx(90.0)
    assert box.height == pytest.approx(10.0)
    assert (box.cx, box.cy) == (pytest.approx(145.0), pytest.approx(200.0))


def test_vertical_segment_box():
    box = line_to_bbox(segment(50, 100, 50, 130), n_chars=3, image_size=BIG)
    assert box.width == pytest.approx(90.0)
    assert box.height == pytest.approx(30.0)
    assert (box.cx, box.cy) == (pytest.approx(50.0), pytest.approx(115.0))


def test_45_degree_boundary_is_near_horizontal():
    box = line_to_bbox(segment(1000, 1000, 1050, 1050), n_chars=5, image_size=BIG)
    length = math.hypot(50, 50)
    assert box.width == pytest.approx(length)
    assert box.height == pytest.approx(length / 5)


def test_just_past_45_degrees_is_near_vertical():
    box = line_to_bbox(segment(1000, 1000, 1049, 1051), n_chars=5, image_size=BIG)
    length = math.hypot(49, 51)
    assert box.height == pytest.approx(length)
    assert box.width == pytest.approx(length * 5)


def test_randomized_ratio_and_midpoint():
    rng = np.random.default_rng(6)
    for _ in range(300):
        x1, y1 = rng.uniform(40000, 60000, size=2)
        angle = float(rng.uniform(-90, 90))
        length = float(rng.uniform(5, 400))
        n = int(rng.integers(1, 15))
        x2 = x1 + length * math.cos(math.radians(angle))
        y2 = y1 + length * math.sin(math.radians(angle))
        seg = segment(x1, y1, x2, y2)
        box = line_to_bbox(seg, n, BIG)
        if abs(seg.angle_from_horizontal()) <= 45.0:
            assert box.width / box.height == pytest.approx(n)
            assert box.width == pytest.approx(length)
        else:
            assert box.width / box.height == pytest.approx(n)
            assert box.height == pytest.approx(length)
        assert (box.cx, box.cy) == (pytest.approx(seg.midpoint[0]),
                                    pytest.approx(seg.midpoint[1]))


def test_clipping_to_image():
    box = line_to_bbox(segment(2, 5, 42, 5), n_chars=1, image_size=(60, 30))
    x0, y0, x1, y1 = box.extent
    assert x0 >= 0 and y0 >= 0 and x1 <= 60 and y1 <= 30
    assert box.width > 0 and box.height > 0


def test_degenerate_segment_rejected():
    seg = LineSegment(5, 5, 5, 5, rho=0, theta=0)
    with pytest.raises(DegenerateSegment):
        line_to_bbox(seg, 3, BIG)


@pytest.mark.parametrize("n_chars", [0, -2])
def test_fewer_than_one_character_rejected(n_chars):
    with pytest.raises(EmptyTranscription, match="n_chars"):
        line_to_bbox(segment(2, 5, 42, 5), n_chars, BIG)


@pytest.mark.parametrize("x2, y2", [(math.nan, 0.0), (math.inf, 0.0),
                                    (10.0, -math.inf), (math.nan, math.nan)])
def test_non_finite_segment_rejected(x2, y2):
    # (0, 0)-(nan, 0) used to give the whole 80 x 40 image as its box
    seg = LineSegment(0.0, 0.0, x2, y2, rho=0, theta=90)
    with pytest.raises(DegenerateSegment, match="non-finite"):
        line_to_bbox(seg, 3, (80, 40))
