"""spot() computes exact heat only on the tiles whose bound can hold the
peak or a mask pixel; these tests hold it to the whole-map path.

The whole-map path is written out here: bigram_heatmap, divide by its
peak, threshold_mask, np.nonzero, lines_from_components, then DTW over
every candidate, unpruned. spot() must agree with it on the peak, on
the mask pixels (values and row-major order) and on the detection, for
every layout, dtype, size and query shape, including maps with values
the tile bound cannot vouch for (negative, -0.0, NaN, inf).
"""

import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import spotting
from softphoc.alphabet import classify_char
from softphoc.dtw import dtw_distance
from softphoc.errors import InvalidProbabilityMap, ShapeMismatch
from softphoc.hough import lines_from_components
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import (TILE, Detection, SpottingConfig, bigram_heatmap,
                               mask_pixels, query_descriptor,
                               sample_line_descriptor, spot, threshold_mask)

from scenegen import random_scene

CFG = SpottingConfig()
DTYPES = (np.float16, np.float32, np.float64, np.int32)


def whole_map_path(prob, query, cfg=CFG):
    """(peak, ys, xs, detection) from the query's whole-map heatmap."""
    heat = bigram_heatmap(prob, query)
    peak = float(heat.max()) if heat.size else 0.0
    if not math.isfinite(peak):
        raise InvalidProbabilityMap(f"heatmap peak of {query!r} is {peak}")
    if peak <= 0.0:
        return peak, np.zeros(0, np.intp), np.zeros(0, np.intp), None
    mask = threshold_mask(heat / peak, cfg.heatmap_threshold)
    ys, xs = np.nonzero(mask)
    candidates = lines_from_components(xs, ys, mask.shape, cfg)
    if not candidates:
        return peak, ys, xs, None
    reference = query_descriptor(query, cfg)
    distances = [dtw_distance(sample_line_descriptor(prob, seg), reference)
                 for seg in candidates]
    distance, best = min(zip(distances, candidates),
                         key=lambda pair: (pair[0], -pair[1].votes,
                                           pair[1].rho, pair[1].theta))
    return peak, ys, xs, Detection(query, best, distance, len(candidates))


def planar(prob):
    """A channel-planar view of prob, a layout spot() also takes."""
    return np.ascontiguousarray(prob.transpose(2, 0, 1)).transpose(1, 2, 0)


def assert_same_as_whole_map(prob, query, cfg=CFG):
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            expected = whole_map_path(prob, query, cfg)
        except InvalidProbabilityMap:
            with pytest.raises(InvalidProbabilityMap):
                mask_pixels(prob, query, cfg.heatmap_threshold)
            with pytest.raises(InvalidProbabilityMap):
                spot(prob, query, cfg)
            return None
        peak, ys, xs = mask_pixels(prob, query, cfg.heatmap_threshold)
        det = spot(prob, query, cfg)
    assert peak == expected[0]
    assert ys.dtype == xs.dtype == np.intp
    assert np.array_equal(ys, expected[1]) and np.array_equal(xs, expected[2])
    assert det == expected[3]
    return det


def text_map(rng, height, width, query, dtype=np.float32, blobs=2):
    """A faint random map with a few bright boxes on the query's channels."""
    prob = rng.random((height, width, 38)) * 0.05
    for _ in range(blobs):
        y0, x0 = rng.integers(0, height), rng.integers(0, width)
        y1 = y0 + rng.integers(1, 12)
        x1 = x0 + rng.integers(1, 40)
        for ch in query:
            prob[y0:y1, x0:x1, classify_char(ch)] = rng.uniform(0.3, 1.0)
    if np.dtype(dtype).kind == "i":
        return np.rint(prob * 1000).astype(dtype)
    return prob.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       height=st.integers(1, 3 * TILE + 3), width=st.integers(1, 5 * TILE + 3),
       query=st.text(alphabet="abcd", min_size=1, max_size=6),
       dtype=st.sampled_from(DTYPES + (np.uint8, np.dtype(">f4"), np.dtype(">i2"))),
       channel_planar=st.booleans(),
       special=st.sampled_from([None, -0.0, -0.25, math.nan, math.inf]))
def test_spot_matches_the_whole_map_path(seed, height, width, query, dtype,
                                         channel_planar, special):
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        prob = np.rint(text_map(rng, height, width, query) * 255).astype(np.uint8)
    else:
        prob = text_map(rng, height, width, query, dtype)
    kind = np.dtype(dtype).kind
    if special is not None and (kind == "f" or (kind == "i" and special < 0)):
        # a single tile holds it, on one of the query's channels
        y, x = rng.integers(0, height), rng.integers(0, width)
        prob[y, x, classify_char(query[rng.integers(len(query))])] = (
            -1 if kind == "i" else special)
    assert_same_as_whole_map(planar(prob) if channel_planar else prob, query)


def scene_map(size, seed):
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, image_size=size, n_words=6, max_len=8)
    noise = NoiseConfig(blur_sigma=1.5, confusion_rate=0.2, background_leak=0.1)
    return simulate(scene, noise), [w.transcription for w in scene.words]


@pytest.mark.parametrize("dtype", DTYPES)
def test_ragged_scene_of_721_by_1281(dtype):
    prob, words = scene_map((1281, 721), 5)
    prob = (np.rint(prob * 1000) if np.dtype(dtype).kind == "i" else prob).astype(dtype)
    for layout in (prob, planar(prob)):
        for query in words[:2] + ["qzx"]:
            assert_same_as_whole_map(layout, query)


def test_only_a_few_tiles_get_exact_heat(monkeypatch):
    prob, words = scene_map((1281, 721), 6)
    computed = []
    original = spotting._tile_pixels

    def counting(tiles, height, width):
        index = original(tiles, height, width)
        computed.append(len(index))
        return index

    monkeypatch.setattr(spotting, "_tile_pixels", counting)
    for query in words:
        computed.clear()
        assert spot(prob, query) is not None
        assert 0 < sum(computed) < 0.1 * prob.shape[0] * prob.shape[1]


@pytest.mark.parametrize("height, width", [(1, 1), (1, 50), (50, 1), (17, 33)])
@pytest.mark.parametrize("query", ["a", "ab", "aaa", "abab", "cab"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_small_and_ragged_maps(height, width, query, dtype):
    rng = np.random.default_rng(height * 1000 + width)
    prob = text_map(rng, height, width, query, dtype)
    assert_same_as_whole_map(prob, query)
    assert_same_as_whole_map(planar(prob), query)


def test_strided_views():
    rng = np.random.default_rng(12)
    prob = text_map(rng, 70, 90, "abc", blobs=4)
    for view in (prob[::-1], prob[:, ::-2], prob[5:60:3, 1:], prob.transpose(1, 0, 2),
                 planar(prob)[::2, ::-1]):
        for query in ("abc", "b", "cc"):
            assert_same_as_whole_map(view, query)


@pytest.mark.parametrize("value", [0.5, 1.0 / 38])
@pytest.mark.parametrize("query", ["a", "ab", "abab"])
def test_uniform_map_computes_every_tile(value, query):
    prob = np.full((40, 70, 38), value, dtype=np.float32)
    det = assert_same_as_whole_map(prob, query)
    assert det is not None
    assert_same_as_whole_map(planar(prob), query)


@pytest.mark.parametrize("dtype", DTYPES)
def test_all_zero_map_is_not_found(dtype):
    prob = np.zeros((33, 47, 38), dtype=dtype)
    for query in ("a", "ab", "aaa"):
        assert assert_same_as_whole_map(prob, query) is None
        assert mask_pixels(prob, query, 0.2)[0] == 0.0


@pytest.mark.parametrize("value", [-0.0, -0.3, -5.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dtype", (np.float16, np.float32, np.float64))
@pytest.mark.parametrize("query", ["a", "ab", "abba"])
def test_special_values_in_one_tile(value, dtype, query):
    rng = np.random.default_rng(9)
    prob = text_map(rng, 40, 70, query, dtype, blobs=1)
    # at the brightest pixel of the box and in a faint corner tile
    for y, x in (divmod(int(np.argmax(prob[..., classify_char(query[0])])), 70),
                 (39, 69)):
        spoiled = prob.copy()
        spoiled[y, x, classify_char(query[-1])] = value
        assert_same_as_whole_map(spoiled, query)
        assert_same_as_whole_map(planar(spoiled), query)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nan_and_inf_raise(value):
    prob = np.zeros((30, 30, 38), dtype=np.float32)
    prob[3, 4, classify_char("b")] = value
    with np.errstate(invalid="ignore"), pytest.raises(InvalidProbabilityMap):
        spot(prob, "ab")
    with np.errstate(invalid="ignore"), pytest.raises(InvalidProbabilityMap):
        spot(planar(prob), "ab")


def test_negative_integer_map():
    prob = np.zeros((20, 40, 38), dtype=np.int16)
    prob[5, 3:30, classify_char("a")] = -4
    prob[5, 3:30, classify_char("b")] = -3
    prob[12, 0:40, classify_char("a")] = 2
    prob[12, 0:40, classify_char("b")] = 1
    for query in ("ab", "a", "ba"):
        assert_same_as_whole_map(prob, query)


def test_peak_from_a_later_round():
    # The tile of highest bound is not the tile of the peak: its two
    # channels peak at different pixels.
    prob = np.zeros((32, 64, 38), dtype=np.float32)
    a, b = classify_char("a"), classify_char("b")
    prob[2, 2, a], prob[9, 9, b] = 1.0, 1.0
    prob[20, 30:60, a] = prob[20, 30:60, b] = 0.6
    peak, ys, xs = mask_pixels(prob, "ab", 0.2)
    assert peak == np.float64(np.float32(0.6)) ** 2
    assert set(ys.tolist()) == {20}
    assert_same_as_whole_map(prob, "ab")


@pytest.mark.parametrize("n", [2, 50, 300])
def test_one_row_and_one_column_maps_give_transposed_segments(n):
    row = np.zeros((1, n, 38), dtype=np.float32)
    row[..., classify_char("a")] = row[..., classify_char("b")] = 0.5
    column = np.ascontiguousarray(row.transpose(1, 0, 2))
    cfg = SpottingConfig(hough_min_votes=2)
    across, down = spot(row, "ab", cfg), spot(column, "ab", cfg)
    assert across is not None and down is not None
    a, d = across.segment, down.segment
    assert (a.x1, a.y1, a.x2, a.y2) == pytest.approx((d.y1, d.x1, d.y2, d.x2),
                                                     abs=1e-9)
    assert (a.x1, a.x2) == pytest.approx((0, n - 1), abs=1e-9)
    assert across.dtw_distance == down.dtw_distance


@pytest.mark.parametrize("shape", [(6, 8), (6, 8, 37), (6, 8, 39), (2, 6, 8, 38)])
def test_map_of_the_wrong_shape_rejected(shape, monkeypatch):
    def no_work(*args):
        raise AssertionError("spot() did work on a malformed map")

    monkeypatch.setattr(spotting, "mask_pixels", no_work)
    with pytest.raises(ShapeMismatch):
        spot(np.zeros(shape, dtype=np.float32), "ab")


def test_random_letter_queries_on_a_simulated_scene():
    prob, words = scene_map((320, 240), 11)
    rng = np.random.default_rng(3)
    queries = words + ["".join(rng.choice(list(string.ascii_lowercase), size=k))
                       for k in (1, 2, 5)]
    for query in queries:
        assert_same_as_whole_map(prob, query)
        assert_same_as_whole_map(planar(prob), query)
