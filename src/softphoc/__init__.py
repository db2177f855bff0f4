"""Pixel-level soft character histograms for query-driven word spotting."""

from . import errors
from .alphabet import (BACKGROUND, NUM_CHAR_CLASSES, NUM_CLASSES, PUNCTUATION,
                       classify_char, transcription_to_classes)
from .annotations import SceneAnnotation, WordAnnotation, clamp_quad
from .bbox import BoundingBox, line_to_bbox
from .dtw import dtw_distance
from .encoder import (CharRegion, char_region_bounds, embed_scene,
                      encode_word, scene_coverage_mask)
from .evaluation import (EvalReport, box_quad_iou, combine_reports,
                         evaluate_bboxes, evaluate_lines, line_box_overlap)
from .fileio import (load_annotations, parse_annotations, read_detections,
                     read_tensor, write_detections, write_tensor)
from .geometry import LineSegment
from .masks import LossReport, LossWeights, MaskTriple, build_masks, evaluate_loss
from .oracle import NoiseConfig, simulate
from .spotting import (Detection, SpottingConfig, bigram_heatmap,
                       check_probability_map, hough_lines, query_descriptor,
                       sample_line_descriptor, spot, threshold_mask)

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND", "NUM_CHAR_CLASSES", "NUM_CLASSES", "PUNCTUATION",
    "classify_char", "transcription_to_classes",
    "SceneAnnotation", "WordAnnotation", "clamp_quad",
    "BoundingBox", "line_to_bbox",
    "dtw_distance",
    "CharRegion", "char_region_bounds", "embed_scene", "encode_word",
    "scene_coverage_mask",
    "EvalReport", "box_quad_iou", "combine_reports", "evaluate_bboxes",
    "evaluate_lines", "line_box_overlap",
    "load_annotations", "parse_annotations", "read_detections", "read_tensor",
    "write_detections", "write_tensor",
    "LineSegment",
    "LossReport", "LossWeights", "MaskTriple", "build_masks", "evaluate_loss",
    "NoiseConfig", "simulate",
    "Detection", "SpottingConfig", "bigram_heatmap", "check_probability_map",
    "hough_lines",
    "query_descriptor", "sample_line_descriptor", "spot",
    "threshold_mask",
    "errors",
]
