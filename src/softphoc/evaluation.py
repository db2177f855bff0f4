"""Detection quality protocols: line-overlap matching and box IoU."""

from dataclasses import dataclass

import numpy as np

from .annotations import SceneAnnotation
from .bbox import BoundingBox
from .errors import SoftPhocError
from .geometry import (LineSegment, quad_aabb, quad_mean_side_lengths,
                       segment_quad_overlap_length)
from .spotting import Detection


@dataclass(frozen=True)
class EvalReport:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def accuracy(self) -> float:
        denom = self.true_positives + self.false_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def hmean(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def combine_reports(reports) -> EvalReport:
    """Merge per-scene reports by summing their counts."""
    return EvalReport(
        true_positives=sum(r.true_positives for r in reports),
        false_positives=sum(r.false_positives for r in reports),
        false_negatives=sum(r.false_negatives for r in reports),
    )


def line_box_overlap(segment: LineSegment, quad: np.ndarray) -> float:
    """How well a segment covers a quad's major axis, in [0, 1].

    clipped_length / max(segment_length, quad_major_axis), where
    clipped_length is the length of the segment inside the quad and the
    major axis is the longer mean side-pair length. Penalizes both
    segments that undershoot the word and ones that overshoot it. Raises
    DegenerateQuad for a quad of zero area.
    """
    quad = np.asarray(quad, dtype=float).reshape(4, 2)
    clipped = segment_quad_overlap_length(segment, quad)
    return clipped / max(segment.length, max(quad_mean_side_lengths(quad)))


def _evaluate(items, query_of, score, gt, threshold, threshold_name,
              queries) -> EvalReport:
    """Greedy one-to-one matching of items to same-transcription
    ground-truth words by descending score(item, quad) >= threshold.

    Only ground-truth words whose transcription was queried count;
    `queries` defaults to the items' own queries.
    """
    if not (0.0 < threshold < 1.0):
        raise SoftPhocError(f"{threshold_name} {threshold} outside (0, 1)")
    queried = {q.lower() for q in (queries if queries is not None
                                   else map(query_of, items))}
    gt_words = [w for w in gt.words if w.transcription.lower() in queried]
    pairs = []
    for di, item in enumerate(items):
        query = query_of(item).lower()
        for gi, word in enumerate(gt_words):
            if query == word.transcription.lower():
                s = score(item, word.quad)
                if s >= threshold:
                    pairs.append((s, di, gi))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_det, used_gt = set(), set()
    for _, di, gi in pairs:
        if di not in used_det and gi not in used_gt:
            used_det.add(di)
            used_gt.add(gi)
    tp = len(used_det)
    return EvalReport(true_positives=tp,
                      false_positives=len(items) - tp,
                      false_negatives=len(gt_words) - tp)


def evaluate_lines(detections: list[Detection], gt: SceneAnnotation,
                   threshold: float, queries=None) -> EvalReport:
    """Line protocol: a detection is correct when its overlap with some
    unmatched ground-truth word of the same transcription reaches the
    threshold. Transcription comparison is case-insensitive.

    `queries` lists every transcription that was searched for (so
    queries with no returned detection still count their ground-truth
    words as misses); it defaults to the detections' own queries.
    """
    return _evaluate(detections, lambda det: det.query,
                     lambda det, quad: line_box_overlap(det.segment, quad),
                     gt, threshold, "overlap threshold", queries)


def box_quad_iou(box: BoundingBox, quad: np.ndarray) -> float:
    """IoU between a detected box and the quad's axis-aligned bounding box."""
    bx0, by0, bx1, by1 = box.extent
    qx0, qy0, qx1, qy1 = quad_aabb(quad)
    ix = max(0.0, min(bx1, qx1) - max(bx0, qx0))
    iy = max(0.0, min(by1, qy1) - max(by0, qy0))
    inter = ix * iy
    union = (bx1 - bx0) * (by1 - by0) + (qx1 - qx0) * (qy1 - qy0) - inter
    return inter / union if union > 0 else 0.0


def evaluate_bboxes(boxes: list[tuple[str, BoundingBox]], gt: SceneAnnotation,
                    iou_threshold: float = 0.5, queries=None) -> EvalReport:
    """Box protocol: standard IoU against the ground-truth quad's
    axis-aligned bounding rectangle, with the same greedy
    same-transcription matching as the line protocol."""
    return _evaluate(boxes, lambda item: item[0],
                     lambda item, quad: box_quad_iou(item[1], quad),
                     gt, iou_threshold, "IoU threshold", queries)
