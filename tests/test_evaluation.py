import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.bbox import BoundingBox
from softphoc.errors import DegenerateQuad, DegenerateSegment
from softphoc.evaluation import (EvalReport, box_quad_iou, combine_reports,
                                 evaluate_bboxes, evaluate_lines,
                                 line_box_overlap)
from softphoc.geometry import LineSegment
from softphoc.spotting import Detection

from oracles import oracle_clipped_length
from scenegen import rotated_rect_quad


def box_quad(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def segment(x1, y1, x2, y2):
    return LineSegment.from_endpoints(x1, y1, x2, y2)


class TestLineBoxOverlap:
    def test_full_midline_coverage(self):
        quad = box_quad(10, 10, 110, 30)
        assert line_box_overlap(segment(10, 20, 110, 20), quad) == pytest.approx(1.0)

    def test_fully_outside(self):
        quad = box_quad(10, 10, 110, 30)
        assert line_box_overlap(segment(0, 50, 100, 50), quad) == 0.0

    def test_half_inside_matches_sampling_oracle(self):
        quad = box_quad(0, 0, 100, 20)  # major axis 100
        seg = segment(50, 10, 150, 10)  # length 100, half inside
        got = line_box_overlap(seg, quad)
        assert got == pytest.approx(0.5, abs=1e-9)
        oracle = oracle_clipped_length((50, 10), (150, 10), quad) / 100.0
        assert got == pytest.approx(oracle, abs=1e-3)

    def test_random_segments_match_sampling_oracle(self):
        rng = np.random.default_rng(12)
        quad = np.array([[20, 10], [90, 18], [85, 44], [15, 36]], dtype=float)
        for _ in range(10):
            x1, y1, x2, y2 = rng.uniform(0, 100, size=4)
            if (x1, y1) == (x2, y2):
                continue
            seg = segment(x1, y1, x2, y2)
            clipped = oracle_clipped_length((x1, y1), (x2, y2), quad)
            expected = clipped / max(seg.length, max(
                (np.linalg.norm(quad[1] - quad[0]) + np.linalg.norm(quad[2] - quad[3])) / 2,
                (np.linalg.norm(quad[3] - quad[0]) + np.linalg.norm(quad[2] - quad[1])) / 2))
            assert line_box_overlap(seg, quad) == pytest.approx(expected, abs=2e-3)

    def test_overshooting_segment_penalized(self):
        quad = box_quad(40, 10, 60, 20)  # major axis 20
        long_seg = segment(0, 15, 100, 15)  # passes through, length 100
        assert line_box_overlap(long_seg, quad) == pytest.approx(0.2)

    def test_degenerate_inputs(self):
        quad = box_quad(0, 0, 10, 10)
        with pytest.raises(DegenerateSegment):
            line_box_overlap(LineSegment(1, 1, 1, 1, 0, 0), quad)
        collapsed = np.array([[0, 0], [10, 0], [10, 0], [0, 0]], dtype=float)
        with pytest.raises(DegenerateQuad):
            line_box_overlap(segment(0, 0, 5, 5), collapsed)


COORD = st.one_of(st.floats(-1.7e308, 1.7e308), st.floats(-300.0, 300.0))


@settings(max_examples=300, deadline=None)
@given(ends=st.tuples(COORD, COORD, COORD, COORD),
       cx=st.floats(-100, 300), cy=st.floats(-100, 300), width=st.floats(1, 300),
       height=st.floats(1, 80), angle=st.floats(-180, 180))
def test_overlap_is_bounded_by_the_quad_diagonal(ends, cx, cy, width, height, angle):
    # The part of a segment inside a convex quad is no longer than the
    # quad's diagonal, however far the segment reaches; edge cross
    # products that overflowed used to count a whole far-off segment in.
    try:
        seg = LineSegment(*ends, rho=0.0, theta=0.0)
    except DegenerateSegment:
        return
    quad = rotated_rect_quad(cx, cy, width, height, angle)
    diagonal = max(math.dist(a, b) for a, b in itertools.combinations(quad, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        overlap = line_box_overlap(seg, quad)
    assert 0.0 <= overlap <= diagonal / seg.length + 1e-12


# Quad coordinates up to just below the 2**510 bound WordAnnotation keeps
EDGE = math.nextafter(2.0 ** 510, 0.0)
QUAD_COORD = st.one_of(st.floats(-EDGE, EDGE), st.floats(-300.0, 300.0),
                       st.sampled_from([-EDGE, EDGE]))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-300.0, 300.0))


@settings(max_examples=300, deadline=None)
@given(x=st.tuples(QUAD_COORD, QUAD_COORD), y=st.tuples(QUAD_COORD, QUAD_COORD),
       skew=QUAD_COORD, ends=st.tuples(FINITE, FINITE, FINITE, FINITE),
       box=st.tuples(FINITE, FINITE, FINITE, FINITE))
def test_accepted_quad_scores_any_finite_record_without_warnings(x, y, skew, ends, box):
    # a parallelogram, sheared by skew, is clockwise and convex when it
    # has area; WordAnnotation refuses it once a vertex reaches 2**510
    (x0, x1), (y0, y1) = sorted(x), sorted(y)
    try:
        word = WordAnnotation([[x0, y0], [x1, y0 + skew], [x1, y1 + skew], [x0, y1]], "big")
        seg = LineSegment(*ends, rho=0.0, theta=0.0)
    except (DegenerateQuad, DegenerateSegment):
        return
    gt = SceneAnnotation(640, 480, [word])
    cx, cy, width, height = box
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lines = evaluate_lines([Detection("big", seg, 0.0)], gt, 0.5)
        boxes = evaluate_bboxes([("big", BoundingBox(cx, cy, abs(width), abs(height)))],
                                gt, 0.5)
    for report in (lines, boxes):
        assert report.true_positives + report.false_positives == 1


def make_gt():
    return SceneAnnotation(200, 100, [
        WordAnnotation(box_quad(10, 10, 90, 26), "alpha"),
        WordAnnotation(box_quad(110, 10, 190, 26), "beta"),
        WordAnnotation(box_quad(10, 60, 90, 76), "gamma"),
    ])


def centerline_detection(query, quad):
    y = (quad[0][1] + quad[2][1]) / 2
    seg = segment(quad[0][0], y, quad[1][0], y)
    return Detection(query=query, segment=seg, dtw_distance=0.0)


class TestEvaluateLines:
    def test_perfect_detections(self):
        gt = make_gt()
        detections = [centerline_detection(w.transcription, w.quad)
                      for w in gt.words]
        report = evaluate_lines(detections, gt, threshold=0.9)
        assert report.precision == report.recall == report.accuracy == 1.0

    def test_empty_detections_with_queried_words(self):
        gt = make_gt()
        report = evaluate_lines([], gt, threshold=0.5,
                                queries=["alpha", "beta", "gamma"])
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert report.accuracy == 0.0
        assert report.false_negatives == 3

    def test_case_insensitive_matching(self):
        gt = make_gt()
        detections = [centerline_detection("ALPHA", gt.words[0].quad)]
        report = evaluate_lines(detections, gt, threshold=0.5)
        assert report.true_positives == 1

    @pytest.mark.parametrize("x1, x2", [(-1e308, 1e307), (0.0, 1e-320)])
    def test_far_reaching_or_tiny_line_is_a_false_positive(self, x1, x2):
        gt = SceneAnnotation(100, 50, [WordAnnotation(box_quad(10, 10, 60, 30), "hello")])
        det = Detection("hello", LineSegment(x1, 20.0, x2, 20.0, 20.0, 90.0), 0.1)
        report = evaluate_lines([det], gt, threshold=0.5)
        assert (report.true_positives, report.false_positives) == (0, 1)

    def test_raising_threshold_never_adds_matches(self):
        gt = make_gt()
        half = segment(10, 18, 50, 18)  # covers half of "alpha"
        detections = [Detection("alpha", half, 0.0),
                      centerline_detection("beta", gt.words[1].quad)]
        tps = [evaluate_lines(detections, gt, t).true_positives
               for t in (0.3, 0.5, 0.7)]
        assert tps == sorted(tps, reverse=True)

    def test_accuracy_bounded_by_precision_and_recall(self):
        gt = make_gt()
        detections = [centerline_detection("alpha", gt.words[0].quad),
                      Detection("beta", segment(0, 90, 50, 90), 0.0),
                      Detection("nosuch", segment(0, 95, 50, 95), 0.0)]
        report = evaluate_lines(detections, gt, threshold=0.5,
                                queries=["alpha", "beta", "gamma", "nosuch"])
        assert report.true_positives == 1
        assert report.false_positives == 2
        assert report.false_negatives == 2
        assert report.accuracy <= min(report.precision, report.recall)


class TestEvaluateBboxes:
    def test_exact_box_is_tp(self):
        gt = make_gt()
        boxes = [("alpha", BoundingBox(cx=50, cy=18, width=80, height=16))]
        report = evaluate_bboxes(boxes, gt, iou_threshold=0.5)
        assert report.true_positives == 1
        assert report.hmean == 1.0  # only "alpha" was queried
        partial = evaluate_bboxes(boxes, gt, iou_threshold=0.5,
                                  queries=["alpha", "beta"])
        assert partial.recall == pytest.approx(0.5)

    def test_disjoint_box_is_fp_and_fn(self):
        gt = make_gt()
        boxes = [("alpha", BoundingBox(cx=150, cy=80, width=20, height=10))]
        report = evaluate_bboxes(boxes, gt, iou_threshold=0.5)
        assert report.true_positives == 0
        assert report.false_positives == 1
        assert report.false_negatives == 1
        assert report.hmean == 0.0

    def test_iou_values(self):
        quad = box_quad(0, 0, 10, 10)
        assert box_quad_iou(BoundingBox(5, 5, 10, 10), quad) == pytest.approx(1.0)
        assert box_quad_iou(BoundingBox(10, 5, 10, 10), quad) == pytest.approx(1 / 3)
        assert box_quad_iou(BoundingBox(50, 50, 10, 10), quad) == 0.0


def test_combine_reports():
    merged = combine_reports([EvalReport(3, 1, 0), EvalReport(2, 0, 2)])
    assert merged == EvalReport(5, 1, 2)
    assert merged.precision == pytest.approx(5 / 6)
    assert merged.recall == pytest.approx(5 / 7)


def test_out_of_range_thresholds_rejected():
    from softphoc.errors import SoftPhocError
    gt = make_gt()
    with pytest.raises(SoftPhocError):
        evaluate_lines([], gt, threshold=1.2, queries=["alpha"])
    with pytest.raises(SoftPhocError):
        evaluate_bboxes([], gt, iou_threshold=0.0, queries=["alpha"])
