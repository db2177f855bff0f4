"""Query-driven line spotting.

Given a per-pixel character probability map and a query transcription:
build the query's consecutive-pair (bigram) heatmap, threshold it
relative to its peak response, propose candidate text lines with the
Hough transform, sample the probability map along each candidate, and
rank candidates by DTW distance against the query's own fixed-width
descriptor.

spot() computes exact heat only where the peak or a mask pixel can be.
For each TILE x TILE tile it takes the maximum M_c of each query
channel and bounds the tile's heat by B = sum over pairs of M_a * M_b,
formed in float64 in the query's pair order (B = M_c for one
character). The bound is exact: every value is >= 0, each product is
<= M_a * M_b and round-to-nearest is monotone, so every computed heat
is <= B and fl(heat / peak) <= fl(B / peak). A tile is skipped only
when B is finite, B <= peak and fl(B / peak) < threshold; tiles holding
a negative value, -0.0, NaN or inf always get exact heat. The peak
comes from the tile of highest bound, and further rounds add the tiles
that could still beat it or reach the threshold. Peak and mask pixels
are those of the whole-map heatmap, and a query's cost scales with the
area of text, not of the image. The tile maxima of all 38 channels
belong to the map, not the query: the first call on a map array reads
it once, in its own order, and keeps the maxima (about 1.1 MB at 720p)
while that array object lives, so every later query on it forms its
bound from them alone. The memo holds no reference to the map and
drops the entry when the map dies; an entry is never served to
another array, nor to the same one after its memory or layout changed.
A map must therefore not be written in place between calls on the same
array: spot a changed map as a new array, such as prob.copy(). A map
that is not native float32 or float64 is converted to float64 once, for
its maxima (the memo is keyed on the caller's array); exact heat is
gathered from the map itself, in blocks of about HEATMAP_BLOCK_BYTES,
and converted to float64 as it is gathered. bigram_heatmap,
the plain whole-map heatmap that tests compare spot() against, shares
its pair-sum formula. All candidates are sampled in one bilinear
read of the map and scored in one DTW pass.
"""

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import alphabet, hough
# dtw_distance is unused here but stays bound: perfbench/selftest.py
# checks that the tracer wraps it on this module.
from .dtw import dtw_distance, dtw_distances  # noqa: F401
from .encoder import encode_word
from .errors import (InvalidProbabilityMap, ShapeMismatch, SoftPhocError,
                     check_fields)
from .geometry import LineSegment
from .warp import bilinear_sample

# Pixels whose heat spot() gathers together, at least one: about this
# many bytes of pixel stride, small enough for a block to stay in cache
# while each of the query's channels is read from it.
HEATMAP_BLOCK_BYTES = 1 << 19
# Side in pixels of the square tiles over which spot() bounds a query's
# heat; the tiles at the bottom and right edges may be smaller.
TILE = 16
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


def _pair_heat(planes, classes: list[int]) -> np.ndarray:
    """A query's heat from the float64 arrays planes[c] of its channels:
    the one channel of a one-character query, else the products of
    consecutive pairs summed in query order, starting from zero."""
    if len(classes) == 1:
        return planes[classes[0]]
    heat = np.zeros_like(planes[classes[0]])
    for a, b in zip(classes[:-1], classes[1:]):
        heat += planes[a] * planes[b]
    return heat


def bigram_heatmap(prob: np.ndarray, query: str) -> np.ndarray:
    """Pixel-wise sum of products of consecutive query-character channels.

    For "text" this is P(t)P(e) + P(e)P(x) + P(x)P(t); repeated pairs
    reuse the same channel. Single-character queries fall back to the
    character's own channel. This is the whole-map heatmap in float64;
    spot() computes the same sums only on the tiles that can matter.
    """
    classes = alphabet.transcription_to_classes(query)
    return _pair_heat({c: prob[..., c].astype(np.float64) for c in set(classes)},
                      classes)


def _tile_max(a: np.ndarray) -> np.ndarray:
    """Maxima of an (H, W, ...) array over TILE x TILE tiles, smaller at
    the bottom and right edges: shape (ceil(H/TILE), ceil(W/TILE), ...)."""
    for axis in (0, 1):
        full = a.shape[axis] - a.shape[axis] % TILE
        before = (slice(None),) * axis
        top = a[before + (slice(full),)].reshape(
            a.shape[:axis] + (full // TILE, TILE) + a.shape[axis + 1:]).max(axis=axis + 1)
        if full < a.shape[axis]:
            rest = a[before + (slice(full, None),)].max(axis=axis, keepdims=True)
            top = np.concatenate((top, rest), axis=axis)
        a = top
    return a


def _tile_maxima(prob: np.ndarray) -> np.ndarray:
    """(ceil(H/TILE), ceil(W/TILE), 38) float64 maxima of a native float32
    or float64 map over tiles, not finite where a tile holds a value that
    is negative, -0.0, NaN or infinite.

    Finite values >= +0 sort as their bits read as unsigned integers do,
    and every other value reads at or above the bits of +inf, so one
    maximum per tile and channel, capped at those bits, gives both the
    channel maxima and the tiles whose heat must be computed whatever
    the bound. One pass reads the map in its own order, whatever its
    layout.
    """
    bits = prob.view(f"u{prob.itemsize}")
    inf = np.array(np.inf, dtype=prob.dtype).view(bits.dtype)
    return np.minimum(_tile_max(bits), inf).view(prob.dtype).astype(np.float64)


# _tile_maxima of the maps seen by mask_pixels: id(map) -> (weak reference
# to the map, its data pointer, shape, strides and dtype, the maxima).
# An entry holds no reference to its map and is dropped when the map dies.
_MAP_MAXIMA = {}
_MAP_MAXIMA_LOCK = threading.Lock()


def _map_maxima(prob: np.ndarray) -> np.ndarray:
    """_tile_maxima of np.asarray(prob), converted to float64 first unless
    native float32 or float64: computed once per array object prob, such
    as an np.memmap, while it lives and keeps its memory and layout."""
    layout = (prob.__array_interface__["data"][0], prob.shape, prob.strides,
              prob.dtype)
    with _MAP_MAXIMA_LOCK:
        ref, seen, top = _MAP_MAXIMA.get(id(prob), (None, None, None))
        if ref is None or ref() is not prob:
            weakref.finalize(prob, _MAP_MAXIMA.pop, id(prob), None)
        elif seen == layout:
            return top
        data = np.asarray(prob)
        native = data.dtype in (np.float32, np.float64)
        top = _tile_maxima(data if native else data.astype(np.float64))
        _MAP_MAXIMA[id(prob)] = (weakref.ref(prob), layout, top)
    return top


def _tile_pixels(tiles: np.ndarray, height: int, width: int) -> np.ndarray:
    """Flat indices y * width + x of the pixels of the tiles flagged in
    `tiles`, tile by tile, not row-major: mask_pixels sorts those it keeps."""
    ty, tx = np.nonzero(tiles)
    y = ty[:, None, None] * TILE + np.arange(TILE)[:, None]
    x = tx[:, None, None] * TILE + np.arange(TILE)
    return (y * width + x)[(y < height) & (x < width)]


def _heat_at(flat: np.ndarray, index: np.ndarray, classes: list[int]) -> np.ndarray:
    """Heat of the pixels flat[index] of an (H * W, 38) map, gathered in
    blocks of about HEATMAP_BLOCK_BYTES of pixel stride, each block
    once for all channels while it is in cache."""
    step = max(1, HEATMAP_BLOCK_BYTES // max(1, abs(flat.strides[0])))
    heat = np.empty(len(index))
    for lo in range(0, len(index), step):
        at = index[lo:lo + step]
        heat[lo:lo + step] = _pair_heat(
            {c: flat[:, c][at].astype(np.float64) for c in set(classes)}, classes)
    return heat


def mask_pixels(prob: np.ndarray, query: str, threshold: float):
    """(peak, ys, xs): the peak of the query's bigram heatmap and, in
    row-major order, the pixels whose heat / peak >= threshold; no pixels
    when the peak is <= 0. Raises InvalidProbabilityMap when the peak is
    not finite.

    The same peak and pixels as thresholding bigram_heatmap(prob, query)
    / peak, computed only where they can be: exact heat is computed on
    the TILE x TILE tile of highest bound, then on every tile whose
    bound exceeds the peak so far or reaches threshold * peak, until no
    tile is left that could. The tile maxima are the map's, computed on
    the first call for the array object prob (see the module docstring).
    """
    classes = alphabet.transcription_to_classes(query)
    height, width, channels = prob.shape
    none = np.zeros(0, dtype=np.intp)
    if prob.size == 0:
        return 0.0, none, none
    top = _map_maxima(prob)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _pair_heat({c: top[..., c] for c in set(classes)}, classes)
    flat = np.asarray(prob).reshape(height * width, channels)
    finite = np.isfinite(bound)
    todo = ~finite
    if finite.any():
        todo.flat[np.argmax(np.where(finite, bound, -np.inf))] = True
    done = np.zeros_like(todo)
    peak, pixels, heats = -math.inf, [], []
    while todo.any():
        index = _tile_pixels(todo, height, width)
        heat = _heat_at(flat, index, classes)
        peak = float(np.maximum(peak, heat.max()))
        # Every NaN and inf on the query's channels is in a first-round
        # tile, and a later tile can only overflow to +inf, so a peak
        # that is not finite now is the whole map's.
        if not math.isfinite(peak):
            raise InvalidProbabilityMap(f"heatmap peak of {query!r} is {peak}")
        pixels.append(index)
        heats.append(heat)
        done |= todo
        # heat <= bound, so a tile with bound <= peak holds no higher
        # heat, and with fl(bound / peak) < threshold no mask pixel.
        skip = bound <= peak
        if peak > 0.0:
            with np.errstate(over="ignore"):
                skip &= bound / peak < threshold
        todo = ~(done | skip)
    if peak <= 0.0:
        return peak, none, none
    keep = threshold_mask(np.concatenate(heats) / peak, threshold)
    index = np.sort(np.concatenate(pixels)[keep], kind="stable")
    ys, xs = np.divmod(index, width)
    return peak, ys, xs


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
    width = cfg.query_samples_per_char * len(query)
    return encode_word(query, width, 1)[0]


def sample_line_descriptor(prob: np.ndarray, segment: LineSegment) -> np.ndarray:
    """Probability-map profile along a segment at 1 px steps.

    The segment is canonicalized (left-to-right, ties top-to-bottom)
    first, so reversed endpoints produce the identical sequence. Returns
    (floor(length) + 1, 38). Raises InvalidProbabilityMap for a profile
    that is not finite.
    """
    return sample_line_descriptors(prob, [segment])[0]


def sample_line_descriptors(prob: np.ndarray, segments) -> list[np.ndarray]:
    """sample_line_descriptor(prob, seg) for every seg in segments, read
    from the map in one bilinear_sample call over all their points."""
    starts, steps, counts = [], [], []
    for segment in segments:
        seg = segment.canonical()
        length = seg.length
        starts.append((seg.x1, seg.y1))
        steps.append(((seg.x2 - seg.x1) / length, (seg.y2 - seg.y1) / length))
        counts.append(int(math.floor(length)) + 1)
    if not counts:
        return []
    ends = np.cumsum(counts)
    # each point's step count along its own segment
    ts = np.arange(ends[-1], dtype=np.float64) - np.repeat(ends - counts, counts)
    (x0, y0), (ux, uy) = (np.repeat(np.array(a).T, counts, axis=1)
                          for a in (starts, steps))
    profiles = bilinear_sample(prob, x0 + ts * ux, y0 + ts * uy)
    if not np.isfinite(profiles).all():
        raise InvalidProbabilityMap("the map is not finite along a candidate line")
    return np.split(profiles, ends[:-1])


def spot(prob: np.ndarray, query: str, cfg: SpottingConfig = SpottingConfig()):
    """Best line for a query, or None when nothing qualifies.

    The bigram heatmap is normalized by its peak before thresholding:
    exact soft annotations are much flatter than the near-binary output
    of a trained predictor, so the threshold is interpreted as a
    fraction of the strongest response. Candidates are ranked by DTW
    distance; ties fall back to more Hough votes, then smaller rho,
    then smaller theta. A map whose heatmap peak is not finite, or that
    is not finite along a candidate line (in any channel), raises
    InvalidProbabilityMap; check_probability_map checks the whole map.
    A map not of shape (height, width, 38) raises ShapeMismatch.

    The first call on a map array (an np.memmap too) computes its 16 x 16
    tile maxima, which later calls on the same array object reuse (see the
    module docstring). A map must not be written in place between calls on
    the same array object: spot a changed buffer as a new array, such as
    prob.copy(). As the memo holds a weak reference to the map, numpy
    refuses to resize() it while it lives.
    """
    given, prob = prob, np.asarray(prob)
    if prob.ndim != 3 or prob.shape[2] != alphabet.NUM_CLASSES:
        raise ShapeMismatch(f"map of shape {prob.shape} is not "
                            f"(height, width, {alphabet.NUM_CLASSES})")
    # the memo key: np.asarray(a memmap) is a new array on every call
    _, ys, xs = mask_pixels(given if isinstance(given, np.ndarray) else prob,
                            query, cfg.heatmap_threshold)
    candidates = hough.lines_from_pixels(xs, ys, prob.shape[:2], cfg)
    if not candidates:
        return None
    reference = query_descriptor(query, cfg)
    distances = dtw_distances(sample_line_descriptors(prob, candidates), reference)
    distance, best = min(zip(distances.tolist(), candidates),
                         key=lambda pair: (pair[0], -pair[1].votes,
                                           pair[1].rho, pair[1].theta))
    return Detection(query=query, segment=best, dtw_distance=distance,
                     candidates_considered=len(candidates))
