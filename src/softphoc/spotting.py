"""Query-driven line spotting.

Given a per-pixel character probability map and a query transcription:
build the query's consecutive-pair (bigram) heatmap, threshold it
relative to its peak response, propose candidate text lines, sample the
probability map along each candidate, and rank candidates by DTW
distance against the query's own fixed-width descriptor.

Candidates are the lines fit to the mask's 8-connected components
(hough.lines_from_components), hough_min_votes being the least
component size. The paper's Hough transform stays as hough_lines, the
reference proposer, at the paper's resolutions and NMS window; spot()
does not call it.

spot() computes exact heat only where the peak or a mask pixel can be.
For each TILE x TILE tile it bounds the query's heat by the pair sums of
the tile's channel maxima, computed in float64 in the query's pair
order. The bound is exact: every value is >= 0, each product is at most
that of its channels' maxima and rounding is monotone. A tile is skipped
only when its bound is finite, no higher than the peak and below
threshold times it; tiles holding a negative value, -0.0, NaN or inf
always get exact heat. Peak and mask pixels are those of bigram_heatmap,
the whole-map reference that shares the pair-sum formula. The tile
maxima of all 38 channels belong to the map: check_probability_map, or
else the first call on a map array, computes them (about 1.1 MB at 720p)
and keeps them, without a reference to the map, while that array object
lives and keeps its memory and layout. A map must therefore not be
written in place between calls on the same array: spot a changed map as
a new array, such as prob.copy(). The candidates' profiles are bounded
from below together by dtw.dtw_lower_bounds, then scored one at a time
in order of bound up to the first bound more than 1e-9 above the best
distance so far.
"""

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import alphabet, hough
from .dtw import dtw_distance, dtw_lower_bounds
from .encoder import encode_word
from .errors import (InvalidProbabilityMap, ShapeMismatch, SoftPhocError,
                     blocks, check_fields, check_types)
from .geometry import LineSegment
from .warp import bilinear_sample

# Side in pixels of the square tiles over which spot() bounds a query's
# heat; the tiles at the bottom and right edges may be smaller.
TILE = 16
# Largest allowed |sum - 1| of a pixel's channels in a probability map.
MAP_SUM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SpottingConfig:
    """Pipeline knobs, all read by spot() and hough_lines; only
    heatmap_threshold has a principled default, the rest are
    proposal/extraction plumbing. Values of the wrong type (see
    errors.check_types) or out of range raise InvalidConfig."""

    heatmap_threshold: float = 0.2
    hough_min_votes: int = 20
    max_candidates: int = 20
    gap_bridge: int = 5
    band_halfwidth: float = 2.0
    query_samples_per_char: int = 10

    def __post_init__(self):
        check_types(self)
        check_fields(self, (
            ("heatmap_threshold", 0.0 < self.heatmap_threshold < 1.0, "in (0, 1)"),
            ("hough_min_votes", self.hough_min_votes >= 1, ">= 1"),
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


def _tile_maxima(prob: np.ndarray, sums: bool = False):
    """(maxima, deviation) of a non-empty native float32 or float64 map:
    its (ceil(H/TILE), ceil(W/TILE), 38) float64 maxima over tiles, not
    finite where a tile holds a value that is negative, -0.0, NaN or
    infinite, and with sums the largest |s - 1| of pixel sums s, else 0.

    Finite values >= +0 sort as their bits read as unsigned integers do,
    and every other value reads at or above the bits of +inf, so one
    maximum per tile and channel, capped at those bits, gives both the
    channel maxima and the tiles whose heat must be computed whatever
    the bound. The walk reads one band of TILE rows (columns, if they lie
    farther apart in memory) at a time, summed while still in cache by
    np.einsum, which wakes no BLAS threads.
    """
    axes = (1, 0, 2) if abs(prob.strides[0]) < abs(prob.strides[1]) else (0, 1, 2)
    prob = prob.transpose(axes)
    bits = prob.view(f"u{prob.itemsize}")
    height, width, channels = prob.shape
    full = width - width % TILE
    top = np.empty((-(-height // TILE), -(-width // TILE), channels), bits.dtype)
    deviation = 0.0
    for row, y in enumerate(range(0, height, TILE)):
        band = bits[y:y + TILE].max(axis=0)
        top[row, :full // TILE] = band[:full].reshape(-1, TILE, channels).max(axis=1)
        if full < width:
            top[row, -1] = band[full:].max(axis=0)
        if sums:
            with np.errstate(invalid="ignore", over="ignore"):
                total = np.einsum("ijc->ij", prob[y:y + TILE])
                deviation = max(deviation, np.abs(total - 1.0).max())
    inf = np.array(np.inf, dtype=prob.dtype).view(bits.dtype)
    return np.minimum(top, inf).view(prob.dtype).astype(np.float64).transpose(axes), deviation


# _tile_maxima of the maps checked or spotted: id(map) -> (weak reference
# to the map, its data pointer, shape, strides and dtype, the maxima).
# An entry holds no reference to its map and is dropped when the map dies.
_MAP_MAXIMA = {}
_MAP_MAXIMA_LOCK = threading.Lock()


def _map_maxima(prob: np.ndarray, check: bool = False) -> np.ndarray:
    """_tile_maxima of np.asarray(prob), converted to float64 first unless
    native float32 or float64: computed once per array object prob, such
    as an np.memmap, while it lives and keeps its memory and layout. With
    check, computed anew and kept only if check_probability_map passes."""
    layout = (prob.__array_interface__["data"][0], prob.shape, prob.strides,
              prob.dtype)
    with _MAP_MAXIMA_LOCK:
        ref, seen, top = _MAP_MAXIMA.get(id(prob), (None, None, None))
        known = ref is not None and ref() is prob
        if known and seen == layout and not check:
            return top
        data = np.asarray(prob)
        native = data.dtype in (np.float32, np.float64)
        if check and not native:
            _check_values_and_sums(data)
        top, deviation = _tile_maxima(data if native else data.astype(np.float64),
                                      check and native)
        if check and native and not (top.max() <= 1.0 and deviation <= MAP_SUM_TOLERANCE / 2):
            _check_values_and_sums(data)
        if not known:
            weakref.finalize(prob, _MAP_MAXIMA.pop, id(prob), None)
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
    blocks of about errors.BLOCK_BYTES of pixel stride, each block once
    for all channels while it is in cache."""
    return np.concatenate([
        _pair_heat({c: flat[:, c][at].astype(np.float64) for c in set(classes)}, classes)
        for at in blocks(index, abs(flat.strides[0]))])


def mask_pixels(prob: np.ndarray, query: str, threshold: float):
    """(peak, ys, xs): the peak of the query's bigram heatmap and, in
    row-major order, the pixels whose heat / peak >= threshold; no pixels
    when the peak is <= 0. Raises InvalidProbabilityMap when the peak is
    not finite.

    The same peak and pixels as thresholding bigram_heatmap(prob, query)
    / peak, computed only where they can be: exact heat is computed on
    the TILE x TILE tile of highest bound, then on every tile whose
    bound exceeds the peak so far or reaches threshold * peak, until no
    tile is left that could. The tile maxima are the map's, kept per array
    object prob (see the module docstring).
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


def _check_values_and_sums(prob: np.ndarray) -> None:
    """check_probability_map's decision and message, in three passes."""
    low, high = prob.min(), prob.max()
    if not (0.0 <= low and high <= 1.0):  # also false for NaN
        raise InvalidProbabilityMap(
            f"map values must be finite and in [0, 1], found [{low}, {high}]")
    deviation = np.abs(prob.sum(axis=-1) - 1.0).max()
    if deviation > MAP_SUM_TOLERANCE:
        raise InvalidProbabilityMap(
            f"per-pixel channel sums must be within {MAP_SUM_TOLERANCE} of 1, "
            f"found {deviation:.3g} away")


def check_probability_map(prob: np.ndarray) -> None:
    """Raise InvalidProbabilityMap unless every value is finite and in
    [0, 1] and each pixel's channels sum to 1 within MAP_SUM_TOLERANCE;
    ShapeMismatch unless prob has shape (height, width, 38). One walk
    takes the tile maxima, kept for spot(), and the channel sums; a map
    it cannot pass outright (a value outside [+0, 1] or a sum more than
    half the tolerance from 1) or not native float32 or float64 is
    decided, and its error worded, by three passes over it."""
    array = _map_array(prob)
    if array.size:
        _map_maxima(prob if isinstance(prob, np.ndarray) else array, check=True)


def threshold_mask(heatmap: np.ndarray, threshold: float) -> np.ndarray:
    """Binary mask of pixels with value >= threshold (boundary inclusive)."""
    if not (0.0 < threshold < 1.0):
        raise SoftPhocError(f"threshold {threshold} outside (0, 1)")
    return np.asarray(heatmap) >= threshold


def hough_lines(mask: np.ndarray, cfg: SpottingConfig = SpottingConfig()) -> list[LineSegment]:
    """Candidate text-line segments for a binary mask (may be empty),
    from the paper's Hough transform."""
    return hough.lines_from_mask(mask, cfg)


def query_descriptor(query: str, cfg: SpottingConfig = SpottingConfig()) -> np.ndarray:
    """Fixed-width (samples_per_char * |query|, 38) descriptor sequence."""
    width = cfg.query_samples_per_char * len(query)
    return encode_word(query, width, 1)[0]


def _map_array(prob) -> np.ndarray:
    """np.asarray(prob); ShapeMismatch unless of shape (height, width, 38)."""
    prob = np.asarray(prob)
    if prob.ndim != 3 or prob.shape[2] != alphabet.NUM_CLASSES:
        raise ShapeMismatch(f"map of shape {prob.shape} is not "
                            f"(height, width, {alphabet.NUM_CLASSES})")
    return prob


def sample_line_descriptor(prob: np.ndarray, segment: LineSegment) -> np.ndarray:
    """Probability-map profile along a segment at 1 px steps.

    The segment is canonicalized (left-to-right, ties top-to-bottom)
    first, so reversed endpoints produce the identical sequence. Returns
    (floor(length) + 1, 38). Raises ShapeMismatch for a map not of shape
    (height, width, 38), InvalidProbabilityMap for a profile not finite.
    """
    prob = _map_array(prob)
    seg = segment.canonical()
    length = seg.length
    ts = np.arange(int(math.floor(length)) + 1, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        profile = bilinear_sample(prob, seg.x1 + ts * ((seg.x2 - seg.x1) / length),
                                  seg.y1 + ts * ((seg.y2 - seg.y1) / length))
    if not np.isfinite(profile).all():
        raise InvalidProbabilityMap("the map is not finite along a candidate line")
    return profile


def spot(prob: np.ndarray, query: str, cfg: SpottingConfig = SpottingConfig()):
    """Best line for a query, or None when nothing qualifies.

    The bigram heatmap is normalized by its peak before thresholding:
    exact soft annotations are much flatter than the near-binary output
    of a trained predictor, so the threshold is interpreted as a
    fraction of the strongest response. Candidates, one per large enough
    connected component of the mask, are ranked by DTW distance; ties
    fall back to more votes (the component's pixel count), then smaller
    rho, then smaller theta. Candidates are scored in order of their DTW
    lower bound, stopping at the first bound that cannot reach the best
    distance so far, with the same result as scoring all. A map
    whose heatmap peak is not finite, or that is not finite along a
    candidate line (in any channel), raises InvalidProbabilityMap;
    check_probability_map checks the whole map. A map not of shape
    (height, width, 38) raises ShapeMismatch.

    The tile maxima of a map array (an np.memmap too) come from
    check_probability_map or the first call on it and are reused by later
    calls on the same array object (see the module docstring), which must
    not be written in place between them: spot a changed buffer as a new
    array, such as prob.copy(). As the memo holds a weak reference to the
    map, numpy refuses to resize() it while it lives.
    """
    array = _map_array(prob)
    # the memo key: np.asarray(a memmap) is a new array on every call
    _, ys, xs = mask_pixels(prob if isinstance(prob, np.ndarray) else array,
                            query, cfg.heatmap_threshold)
    candidates = hough.lines_from_components(xs, ys, array.shape[:2], cfg)
    if not candidates:
        return None
    reference = query_descriptor(query, cfg)
    profiles = [sample_line_descriptor(array, seg) for seg in candidates]
    bounds = dtw_lower_bounds(profiles, reference)
    best = None
    for k in np.argsort(bounds, kind="stable").tolist():
        # A bound is short of the DP's sum by rounding only, far below
        # 1e-9, so a larger one can neither beat nor tie the best so far.
        if best and bounds[k] > best[0] + 1e-9:
            break
        seg = candidates[k]
        scored = (dtw_distance(profiles[k], reference), -seg.votes, seg.rho, seg.theta, k)
        best = min(best or scored, scored)
    return Detection(query=query, segment=candidates[best[-1]], dtw_distance=best[0],
                     candidates_considered=len(candidates))
