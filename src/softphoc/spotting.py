"""Query-driven line spotting.

Given a per-pixel character probability map and a query transcription:
build the query's consecutive-pair (bigram) heatmap, threshold it
relative to its peak response, propose candidate text lines with the
Hough transform, sample the probability map along each candidate, and
rank candidates by DTW distance against the query's own fixed-width
descriptor.

Each query reads the whole map once: the heatmap walks it in blocks of
about HEATMAP_BLOCK_BYTES of rows, forming every pair product of a block
while it is in cache, and all candidates are scored in one DTW pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import alphabet, hough
# dtw_distance is unused here but stays bound: perfbench/selftest.py
# checks that the tracer wraps it on this module.
from .dtw import dtw_distance, dtw_distances  # noqa: F401
from .encoder import encode_word
from .errors import (DegenerateSegment, EmptyTranscription,
                     InvalidProbabilityMap, SoftPhocError, check_fields)
from .geometry import LineSegment
from .warp import bilinear_sample

# Rows of the map read together by bigram_heatmap: about this many bytes,
# at least one row.
HEATMAP_BLOCK_BYTES = 1 << 20
# Largest allowed |sum - 1| of a pixel's channels in a probability map.
MAP_SUM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SpottingConfig:
    """Pipeline knobs; only heatmap_threshold has a principled default,
    the rest are voting/extraction plumbing. Out-of-range values raise
    InvalidConfig."""

    heatmap_threshold: float = 0.2
    hough_rho_res: float = 1.0
    hough_theta_res: float = 1.0
    hough_min_votes: int = 20
    nms_rho: float = 5.0
    nms_theta: float = 5.0
    max_candidates: int = 20
    gap_bridge: int = 5
    band_halfwidth: float = 2.0
    query_samples_per_char: int = 10

    def __post_init__(self):
        check_fields(self, (
            ("heatmap_threshold", 0.0 < self.heatmap_threshold < 1.0, "in (0, 1)"),
            ("hough_rho_res", 0.0 < self.hough_rho_res < math.inf, "finite and > 0"),
            ("hough_theta_res", 0.0 < self.hough_theta_res < math.inf,
             "finite and > 0"),
            ("hough_min_votes", self.hough_min_votes >= 1, ">= 1"),
            ("nms_rho", self.nms_rho >= 0.0, ">= 0"),
            ("nms_theta", self.nms_theta >= 0.0, ">= 0"),
            ("max_candidates", self.max_candidates >= 1, ">= 1"),
            ("gap_bridge", self.gap_bridge >= 0, ">= 0"),
            ("band_halfwidth", 0.0 < self.band_halfwidth < math.inf,
             "finite and > 0"),
            ("query_samples_per_char", self.query_samples_per_char >= 1, ">= 1"),
        ))


@dataclass(frozen=True)
class Detection:
    query: str
    segment: LineSegment
    dtw_distance: float
    candidates_considered: int = 0


def bigram_heatmap(prob: np.ndarray, query: str) -> np.ndarray:
    """Pixel-wise sum of products of consecutive query-character channels.

    For "text" this is P(t)P(e) + P(e)P(x) + P(x)P(t); repeated pairs
    reuse the same channel. Single-character queries fall back to the
    character's own channel. The map is read in blocks of whole rows of
    about HEATMAP_BLOCK_BYTES, each block once for all pairs; every pixel
    sums the same float64 products in the same order as a pair-by-pair
    pass over the whole map would.
    """
    classes = alphabet.transcription_to_classes(query)
    if len(classes) == 1:
        return np.array(prob[..., classes[0]], dtype=np.float64)
    height, width, channels = prob.shape
    rows = max(1, HEATMAP_BLOCK_BYTES // max(1, width * channels * prob.itemsize))
    heat = np.zeros((height, width), dtype=np.float64)
    for top in range(0, height, rows):
        block = prob[top:top + rows]
        out = heat[top:top + rows]
        for a, b in zip(classes[:-1], classes[1:]):
            out += block[..., a].astype(np.float64) * block[..., b].astype(np.float64)
    return heat


def check_probability_map(prob: np.ndarray) -> None:
    """Raise InvalidProbabilityMap unless every value is finite and in
    [0, 1] and each pixel's channels sum to 1 within MAP_SUM_TOLERANCE."""
    if prob.size == 0:
        return
    low, high = prob.min(), prob.max()
    if not (0.0 <= low and high <= 1.0):  # also false for NaN
        raise InvalidProbabilityMap(
            f"map values must be finite and in [0, 1], found [{low}, {high}]")
    deviation = np.abs(prob.sum(axis=-1) - 1.0).max()
    if deviation > MAP_SUM_TOLERANCE:
        raise InvalidProbabilityMap(
            f"per-pixel channel sums must be within {MAP_SUM_TOLERANCE} of 1, "
            f"found {deviation:.3g} away")


def threshold_mask(heatmap: np.ndarray, threshold: float) -> np.ndarray:
    """Binary mask of pixels with value >= threshold (boundary inclusive)."""
    if not (0.0 < threshold < 1.0):
        raise SoftPhocError(f"threshold {threshold} outside (0, 1)")
    return np.asarray(heatmap) >= threshold


def hough_lines(mask: np.ndarray, cfg: SpottingConfig = SpottingConfig()) -> list[LineSegment]:
    """Candidate text-line segments for a binary mask (may be empty)."""
    return hough.lines_from_mask(mask, cfg)


def query_descriptor(query: str, cfg: SpottingConfig = SpottingConfig()) -> np.ndarray:
    """Fixed-width (samples_per_char * |query|, 38) descriptor sequence."""
    if not query:
        raise EmptyTranscription("query must be non-empty")
    width = cfg.query_samples_per_char * len(query)
    return encode_word(query, width, 1)[0]


def sample_line_descriptor(prob: np.ndarray, segment: LineSegment) -> np.ndarray:
    """Probability-map profile along a segment at 1 px steps.

    The segment is canonicalized (left-to-right, ties top-to-bottom)
    first, so reversed endpoints produce the identical sequence. Returns
    (floor(length) + 1, 38).
    """
    seg = segment.canonical()
    length = seg.length
    if length < 1e-9:
        raise DegenerateSegment("cannot sample a zero-length segment")
    n_samples = int(math.floor(length)) + 1
    ts = np.arange(n_samples, dtype=np.float64)
    ux = (seg.x2 - seg.x1) / length
    uy = (seg.y2 - seg.y1) / length
    return bilinear_sample(prob, seg.x1 + ts * ux, seg.y1 + ts * uy)


def spot(prob: np.ndarray, query: str, cfg: SpottingConfig = SpottingConfig()):
    """Best line for a query, or None when nothing qualifies.

    The bigram heatmap is normalized by its peak before thresholding:
    exact soft annotations are much flatter than the near-binary output
    of a trained predictor, so the threshold is interpreted as a
    fraction of the strongest response. Candidates are ranked by DTW
    distance; ties fall back to more Hough votes, then smaller rho,
    then smaller theta. A map whose heatmap peak is not finite raises
    InvalidProbabilityMap; check_probability_map checks the whole map.
    """
    if not query:
        raise EmptyTranscription("query must be non-empty")
    heat = bigram_heatmap(prob, query)
    peak = float(heat.max()) if heat.size else 0.0
    if not math.isfinite(peak):
        raise InvalidProbabilityMap(f"heatmap peak of {query!r} is {peak}")
    if peak <= 0.0:
        return None
    mask = threshold_mask(heat / peak, cfg.heatmap_threshold)
    candidates = hough_lines(mask, cfg)
    if not candidates:
        return None
    reference = query_descriptor(query, cfg)
    distances = dtw_distances(
        [sample_line_descriptor(prob, seg) for seg in candidates], reference)
    distance, best = min(zip(distances.tolist(), candidates),
                         key=lambda pair: (pair[0], -pair[1].votes,
                                           pair[1].rho, pair[1].theta))
    return Detection(query=query, segment=best, dtw_distance=distance,
                     candidates_considered=len(candidates))
