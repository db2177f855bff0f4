import re
from dataclasses import replace

import numpy as np
import pytest

from softphoc import hough, spotting
from softphoc.alphabet import classify_char
from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.dtw import dtw_distance, dtw_lower_bounds
from softphoc.encoder import embed_scene, scene_coverage_mask
from softphoc.evaluation import line_box_overlap
from softphoc.errors import (DegenerateSegment, EmptyTranscription, InvalidConfig,
                             InvalidProbabilityMap, ShapeMismatch, SoftPhocError)
from softphoc.geometry import LineSegment
from softphoc.masks import build_masks
from softphoc.oracle import NoiseConfig, simulate
from softphoc.errors import BLOCK_BYTES
from softphoc.spotting import (TILE, SpottingConfig,
                               _tile_pixels, bigram_heatmap,
                               check_probability_map, query_descriptor,
                               sample_line_descriptor, spot, threshold_mask)
from softphoc.warp import bilinear_sample

from oracles import oracle_clipped_length
from scenegen import anagram_scene, baseline_scene

CFG = SpottingConfig()


def box_quad(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def spot_scoring(monkeypatch, prob, query, candidates):
    """spot() proposing the given candidates, and the profiles it scores
    with dtw_distance, in order."""
    monkeypatch.setattr(hough, "lines_from_components", lambda *args: list(candidates))
    scored = []

    def recording(a, b):
        scored.append(a)
        return dtw_distance(a, b)

    monkeypatch.setattr(spotting, "dtw_distance", recording)
    return spot(prob, query), scored


def word_coverage(scene, index):
    solo = SceneAnnotation(scene.image_width, scene.image_height,
                           [scene.words[index]])
    return scene_coverage_mask(solo)


class TestBigramHeatmap:
    def test_matches_consecutive_pair_expansion(self):
        rng = np.random.default_rng(4)
        prob = rng.random((6, 7, 38))
        heat = bigram_heatmap(prob, "text")
        t, e, x = classify_char("t"), classify_char("e"), classify_char("x")
        expected = (prob[..., t] * prob[..., e]
                    + prob[..., e] * prob[..., x]
                    + prob[..., x] * prob[..., t])
        np.testing.assert_allclose(heat, expected, atol=1e-12)

    def test_repeated_pair_squares_the_channel(self):
        prob = np.zeros((1, 1, 38))
        prob[0, 0, classify_char("a")] = 0.5
        assert bigram_heatmap(prob, "aa")[0, 0] == pytest.approx(0.25)

    def test_single_character_query_uses_unigram(self):
        prob = np.zeros((2, 2, 38))
        prob[..., classify_char("k")] = 0.7
        np.testing.assert_allclose(bigram_heatmap(prob, "k"), 0.7)

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyTranscription):
            bigram_heatmap(np.zeros((1, 1, 38)), "")

    def test_anagram_pair_means_separate(self):
        scene = anagram_scene(np.random.default_rng(31))
        prob = simulate(scene)
        heat = bigram_heatmap(prob, "listen")
        in_listen = word_coverage(scene, 0)
        in_silent = word_coverage(scene, 1)
        assert heat[in_listen].mean() > heat[in_silent].mean()

    def test_differing_pair_multisets_give_different_heatmaps(self):
        rng = np.random.default_rng(55)
        prob = rng.random((5, 5, 38))
        assert not np.allclose(bigram_heatmap(prob, "listen"),
                               bigram_heatmap(prob, "silent"))

    # (height, width): a single row, a few rows, a tall map, rows wider than
    # BLOCK_BYTES, the block spot() gathers heat in (6899 float32 pixels of
    # 38 channels span two blocks; 3450 span just over half a block), and
    # empty maps; bigram_heatmap, the whole-map reference of spot(), must
    # equal the pair products written out here on each
    @pytest.mark.parametrize("height, width", [
        (1, 30), (7, 30), (721, 40), (3, 6899), (3, 3450), (0, 30), (5, 0)])
    @pytest.mark.parametrize("query", ["DIRECTORY", "k", "aaaa", "abab"])
    def test_row_blocks_match_whole_map_products(self, height, width, query):
        if width == 6899:
            assert width * 38 * 4 > BLOCK_BYTES
        rng = np.random.default_rng(height * 31 + width)
        prob = rng.random((height, width, 38), dtype=np.float32)
        classes = [classify_char(ch) for ch in query]
        if len(classes) == 1:
            expected = prob[..., classes[0]].astype(np.float64)
        else:
            expected = np.zeros((height, width))
            for a, b in zip(classes[:-1], classes[1:]):
                expected += (prob[..., a].astype(np.float64)
                             * prob[..., b].astype(np.float64))
        heat = bigram_heatmap(prob, query)
        assert heat.dtype == np.float64
        assert np.array_equal(heat, expected)
        # a channel-planar layout, each channel contiguous
        planar = np.ascontiguousarray(prob.transpose(2, 0, 1)).transpose(1, 2, 0)
        assert np.array_equal(bigram_heatmap(planar, query), heat)


class TestThresholdMask:
    def test_all_zero_heatmap(self):
        assert not threshold_mask(np.zeros((4, 4)), 0.2).any()

    def test_boundary_value_included(self):
        heat = np.array([[0.2, 0.19999]])
        mask = threshold_mask(heat, 0.2)
        assert mask[0, 0] and not mask[0, 1]

    def test_threshold_out_of_range(self):
        for t in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(SoftPhocError):
                threshold_mask(np.zeros((2, 2)), t)

    def test_present_query_mask_within_expanded_region(self):
        # "carpark" has repeated characters, so its raw heatmap tops 0.2
        quad = box_quad(20, 30, 90, 46)
        scene = SceneAnnotation(160, 100, [WordAnnotation(quad, "carpark")])
        prob = simulate(scene)
        mask = threshold_mask(bigram_heatmap(prob, "carpark"), 0.2)
        assert mask.any()
        assert np.all(build_masks(scene).mask3[mask])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        heat = rng.random((10, 10))
        low = threshold_mask(heat, 0.3)
        high = threshold_mask(heat, 0.6)
        assert np.all(low[high])


@pytest.mark.parametrize("height, width, density", [
    (1, 1, 1.0), (17, 33, 0.5), (17, 33, 0.0), (721, 1281, 1.0), (721, 1281, 0.01)])
def test_tile_pixels_are_the_pixels_of_the_flagged_tiles(height, width, density):
    rng = np.random.default_rng(height * width)
    for _ in range(5):
        tiles = rng.random((-(-height // TILE), -(-width // TILE))) < density
        # from a whole-image mask of the flagged tiles, in row-major order
        expected = np.flatnonzero(
            tiles.repeat(TILE, 0)[:height].repeat(TILE, 1)[:, :width])
        assert np.array_equal(np.sort(_tile_pixels(tiles, height, width)), expected)


class TestQueryDescriptor:
    def test_two_char_query(self):
        desc = query_descriptor("AB", CFG)
        assert desc.shape == (20, 38)
        assert desc[0, classify_char("a")] == pytest.approx(2 / 3)
        assert desc[0, classify_char("b")] == pytest.approx(1 / 3)

    def test_single_char_query(self):
        desc = query_descriptor("A", CFG)
        assert desc.shape == (10, 38)
        assert np.all(desc[:, classify_char("a")] == 1.0)

    def test_length_scales_with_query(self):
        for q in ("ab", "abcde", "a1b2"):
            desc = query_descriptor(q, CFG)
            assert len(desc) == CFG.query_samples_per_char * len(q)
            np.testing.assert_allclose(desc.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(desc[:, 0] == 0.0)


class TestSampleLineDescriptor:
    def setup_method(self):
        quad = box_quad(10, 5, 50, 15)
        self.scene = SceneAnnotation(64, 32, [WordAnnotation(quad, "AB")])
        self.prob = embed_scene(self.scene)

    def test_profile_across_identity_word(self):
        seg = LineSegment.from_endpoints(10, 10, 49, 10)
        desc = sample_line_descriptor(self.prob, seg)
        assert desc.shape == (40, 38)
        assert desc[0, classify_char("a")] == pytest.approx(2 / 3, abs=0.05)
        assert desc[-1, classify_char("b")] == pytest.approx(2 / 3, abs=0.05)

    def test_background_segment_is_background_one_hot(self):
        seg = LineSegment.from_endpoints(2, 25, 60, 25)
        desc = sample_line_descriptor(self.prob, seg)
        np.testing.assert_allclose(desc[:, 0], 1.0, atol=1e-6)

    def test_reversed_endpoints_identical(self):
        fwd = LineSegment.from_endpoints(10, 10, 49, 12)
        rev = LineSegment.from_endpoints(49, 12, 10, 10)
        np.testing.assert_array_equal(sample_line_descriptor(self.prob, fwd),
                                      sample_line_descriptor(self.prob, rev))

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateSegment):
            sample_line_descriptor(self.prob, LineSegment(5, 5, 5, 5, rho=0, theta=0))

    @pytest.mark.parametrize("end", [(float("nan"), 0.0), (float("inf"), 0.0),
                                     (3.0, float("-inf")), (1e308, -1e308)])
    def test_non_finite_segment_rejected(self, end):
        # the last one has finite endpoints but a length that overflows
        with pytest.raises(DegenerateSegment, match="non-finite"):
            sample_line_descriptor(self.prob, LineSegment(
                -1e308 if end[0] == 1e308 else 0.0, 0.0, *end, rho=0, theta=90))

    def test_sample_count_is_floor_length_plus_one(self):
        seg = LineSegment.from_endpoints(0, 0, 10.7, 0)
        assert len(sample_line_descriptor(self.prob, seg)) == 11

    def test_profile_is_one_bilinear_read_at_unit_steps(self):
        rng = np.random.default_rng(8)
        ends = rng.uniform(-5.0, 70.0, size=(30, 4))
        ends[:3, 2:] = ends[:3, :2] + [[0.5, 0.0], [0.0, 1.0], [3.0, 4.0]]  # 1-2 samples
        for e in ends:
            seg = LineSegment.from_endpoints(*e).canonical()
            length = seg.length
            ts = np.arange(int(np.floor(length)) + 1, dtype=np.float64)
            expected = bilinear_sample(self.prob, seg.x1 + ts * ((seg.x2 - seg.x1) / length),
                                       seg.y1 + ts * ((seg.y2 - seg.y1) / length))
            assert np.array_equal(sample_line_descriptor(self.prob, seg), expected)

    @pytest.mark.parametrize("shape", [(10, 10), (10, 10, 37), (10, 10, 39), (10, 10, 38, 1)])
    def test_map_not_of_38_channels_rejected(self, shape):
        seg = LineSegment.from_endpoints(1, 1, 8, 3)
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            sample_line_descriptor(np.full(shape, 0.5), seg)
        with pytest.raises(ShapeMismatch, match=re.escape(str(shape))):
            spot(np.full(shape, 0.5), "ab")


class TestSpot:
    def test_single_word_scene(self):
        quad = box_quad(20, 30, 90, 46)
        scene = SceneAnnotation(160, 100, [WordAnnotation(quad, "CARPARK")])
        prob = simulate(scene)
        det = spot(prob, "CARPARK")
        assert det is not None
        seg = det.segment
        mx, my = seg.midpoint
        assert 20 <= mx <= 90 and 30 <= my <= 46
        inside = oracle_clipped_length((seg.x1, seg.y1), (seg.x2, seg.y2),
                                       quad, samples=2001)
        assert inside >= 0.7 * seg.length

    def test_absent_characters_not_found(self):
        quad = box_quad(20, 30, 90, 46)
        scene = SceneAnnotation(160, 100, [WordAnnotation(quad, "carpark")])
        prob = simulate(scene)
        assert spot(prob, "zzzz") is None

    def test_anagram_discrimination(self):
        scene = anagram_scene(np.random.default_rng(77))
        prob = simulate(scene)
        det = spot(prob, "listen")
        assert det is not None
        seg = det.segment
        in_listen = oracle_clipped_length((seg.x1, seg.y1), (seg.x2, seg.y2),
                                          scene.words[0].quad, samples=2001)
        in_silent = oracle_clipped_length((seg.x1, seg.y1), (seg.x2, seg.y2),
                                          scene.words[1].quad, samples=2001)
        assert in_listen > in_silent

    @pytest.mark.parametrize("seed", range(4))
    def test_words_on_one_baseline_8_px_apart_are_each_found(self, seed):
        # touching words make one mask component: the fit and the trim must
        # still give each query its own word
        scene = baseline_scene(np.random.default_rng(seed), gap=8)
        prob = simulate(scene, NoiseConfig(blur_sigma=1.5, confusion_rate=0.2,
                                           background_leak=0.1))
        for word in scene.words:
            det = spot(prob, word.transcription)
            assert det is not None, word.transcription
            assert line_box_overlap(det.segment, word.quad) >= 0.7, word.transcription

    def test_deterministic(self):
        scene = anagram_scene(np.random.default_rng(13))
        prob = simulate(scene)
        a = spot(prob, "silent")
        b = spot(prob, "silent")
        assert a == b

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyTranscription):
            spot(np.zeros((4, 4, 38)), "")
        with pytest.raises(EmptyTranscription):
            spot(np.zeros((0, 4, 38)), "")
        with pytest.raises(EmptyTranscription):
            query_descriptor("", CFG)

    def test_map_shape_is_checked_before_the_query(self):
        with pytest.raises(ShapeMismatch):
            spot(np.zeros((4, 4)), "")

    def test_non_finite_map_rejected(self):
        with pytest.raises(InvalidProbabilityMap):
            spot(np.full((6, 8, 38), np.nan, dtype=np.float32), "abc")

    @pytest.mark.parametrize("shape", [(0, 8, 38), (6, 0, 38)])
    def test_empty_map_not_found(self, shape):
        assert spot(np.zeros(shape, dtype=np.float32), "abc") is None

    def test_pruning_keeps_ties_and_skips_only_losers(self, monkeypatch):
        quad = box_quad(20, 20, 130, 40)
        prob = embed_scene(SceneAnnotation(160, 80, [WordAnnotation(quad, "hello")]))
        on_word = LineSegment.from_endpoints(22, 30, 128, 30)
        off_word = LineSegment.from_endpoints(10, 65, 150, 65, votes=30)
        # the lower-vote copy first: its bound is the first least one
        candidates = [replace(on_word, votes=5), replace(on_word, votes=9), off_word]
        det, scored = spot_scoring(monkeypatch, prob, "hello", candidates)
        reference = query_descriptor("hello", CFG)
        profile = sample_line_descriptor(prob, on_word)
        assert det.segment == candidates[1]
        assert det.dtw_distance == dtw_distance(profile, reference)
        assert det.candidates_considered == 3
        assert len(scored) == 2  # both copies, not the line off the word

    def test_scan_in_bound_order_stops_at_the_best_distance_so_far(self, monkeypatch):
        quad = box_quad(20, 20, 130, 40)
        prob = embed_scene(SceneAnnotation(160, 80, [WordAnnotation(quad, "hello")]))
        least = LineSegment.from_endpoints(58, 35, 132, 25)  # least bound, loses
        winner = LineSegment.from_endpoints(52, 30, 90, 35)
        loser = LineSegment.from_endpoints(16, 30, 108, 25)
        candidates = [loser, winner, least]
        reference = query_descriptor("hello", CFG)
        profiles = [sample_line_descriptor(prob, seg) for seg in candidates]
        (b_loser, b_winner, b_least) = dtw_lower_bounds(profiles, reference)
        d_loser, d_winner, d_least = (dtw_distance(p, reference) for p in profiles)
        # the best distance improves mid-scan, from d_least to d_winner,
        # and only that improvement rules out the third line
        assert b_least < b_winner < b_loser
        assert d_winner < d_least and d_winner < d_loser
        assert d_winner + 1e-9 < b_loser <= d_least
        det, scored = spot_scoring(monkeypatch, prob, "hello", candidates)
        assert det == spotting.Detection("hello", winner, d_winner, 3)
        assert len(scored) == 2
        assert np.array_equal(scored[0], profiles[2]) and np.array_equal(scored[1], profiles[1])


class TestCheckProbabilityMap:
    def test_simulated_map_passes(self):
        scene = anagram_scene(np.random.default_rng(5))
        check_probability_map(simulate(scene))
        check_probability_map(np.zeros((0, 4, 38), dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
    def test_out_of_range_value_rejected(self, value):
        prob = np.zeros((3, 4, 38), dtype=np.float32)
        prob[..., 0] = 1.0
        prob[1, 2, 5] = value
        with pytest.raises(InvalidProbabilityMap):
            check_probability_map(prob)

    def test_sum_tolerance(self):
        prob = np.zeros((3, 4, 38), dtype=np.float32)
        prob[..., 0] = 1.0
        prob[2, 1, 3] = 5e-4
        check_probability_map(prob)
        prob[2, 1, 3] = 2e-3
        with pytest.raises(InvalidProbabilityMap):
            check_probability_map(prob)


class TestNonFiniteProfiles:
    def setup_method(self):
        quad = box_quad(20, 20, 130, 40)
        self.prob = embed_scene(SceneAnnotation(160, 60, [WordAnnotation(quad, "hello")]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_channel_the_query_does_not_use(self, value):
        assert spot(self.prob, "hello") is not None
        bad = self.prob.copy()
        bad[..., 37] = value
        with pytest.raises(InvalidProbabilityMap, match="not finite"):
            spot(bad, "hello")

    def test_sampling_a_non_finite_profile(self):
        bad = self.prob.copy()
        bad[10, 30, 5] = np.nan
        across = LineSegment.from_endpoints(20, 10, 60, 10)
        assert np.isfinite(sample_line_descriptor(self.prob, across)).all()
        with pytest.raises(InvalidProbabilityMap):
            sample_line_descriptor(bad, across)
        below = LineSegment.from_endpoints(20, 30, 60, 30)
        np.testing.assert_array_equal(sample_line_descriptor(bad, below),
                                      sample_line_descriptor(self.prob, below))



class TestConfigFields:
    @pytest.mark.parametrize("config_class, field, value", [
        # the wrong type
        (SpottingConfig, "max_candidates", 2.5),
        (SpottingConfig, "query_samples_per_char", 2.5),
        (SpottingConfig, "hough_min_votes", "20"),
        (SpottingConfig, "gap_bridge", np.float64(5.0)),
        (SpottingConfig, "max_candidates", None),
        (SpottingConfig, "heatmap_threshold", "0.3"),
        (SpottingConfig, "band_halfwidth", 2j),
        (NoiseConfig, "blur_sigma", "1.5"),
        (NoiseConfig, "confusion_rate", None),
        (NoiseConfig, "background_leak", [0.1]),
        # out of range
        (SpottingConfig, "heatmap_threshold", np.nan),
        (SpottingConfig, "max_candidates", np.int64(0)),
        (SpottingConfig, "band_halfwidth", np.inf),
        (NoiseConfig, "confusion_rate", 1.5),
    ])
    def test_a_bad_value_is_refused_naming_its_field(self, config_class, field, value):
        with pytest.raises(InvalidConfig, match=f"^{field} "):
            config_class(**{field: value})

    def test_integer_fields_take_index_values_as_ints(self):
        cfg = SpottingConfig(hough_min_votes=np.int64(5), max_candidates=np.uint8(3),
                             gap_bridge=np.int32(0), query_samples_per_char=np.int16(6),
                             heatmap_threshold=np.float32(0.25), band_halfwidth=3)
        assert cfg == SpottingConfig(hough_min_votes=5, max_candidates=3, gap_bridge=0,
                                     query_samples_per_char=6, heatmap_threshold=0.25,
                                     band_halfwidth=3)
        assert all(type(getattr(cfg, name)) is int for name in (
            "hough_min_votes", "max_candidates", "gap_bridge", "query_samples_per_char"))
        assert NoiseConfig(np.float32(1.5), 0, np.float64(0.1)) == NoiseConfig(1.5, 0.0, 0.1)
