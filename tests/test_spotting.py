import numpy as np
import pytest

from softphoc.alphabet import classify_char
from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.encoder import embed_scene, scene_coverage_mask
from softphoc.errors import (DegenerateSegment, EmptyTranscription,
                             InvalidProbabilityMap, ShapeMismatch, SoftPhocError)
from softphoc.geometry import LineSegment
from softphoc.masks import build_masks
from softphoc.oracle import simulate
from softphoc.spotting import (HEATMAP_BLOCK_BYTES, TILE, SpottingConfig,
                               _tile_pixels, bigram_heatmap,
                               check_probability_map, query_descriptor,
                               sample_line_descriptor, sample_line_descriptors,
                               spot, threshold_mask)
from softphoc.warp import bilinear_sample

from oracles import oracle_clipped_length
from scenegen import anagram_scene

CFG = SpottingConfig()


def box_quad(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


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
    # HEATMAP_BLOCK_BYTES, the block spot() gathers heat in (6899 float32
    # pixels of 38 channels span two blocks; the other width is one pixel
    # past a block), and empty maps; bigram_heatmap, the whole-map reference
    # of spot(), must equal the pair products written out here on each
    @pytest.mark.parametrize("height, width", [
        (1, 30), (7, 30), (721, 40), (3, 6899),
        (3, HEATMAP_BLOCK_BYTES // (38 * 4) + 1), (0, 30), (5, 0)])
    @pytest.mark.parametrize("query", ["DIRECTORY", "k", "aaaa", "abab"])
    def test_row_blocks_match_whole_map_products(self, height, width, query):
        if width == 6899:
            assert width * 38 * 4 > HEATMAP_BLOCK_BYTES
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

    def test_batch_matches_one_segment_at_a_time(self):
        rng = np.random.default_rng(8)
        ends = rng.uniform(-5.0, 70.0, size=(30, 4))
        ends[:3, 2:] = ends[:3, :2] + [[0.5, 0.0], [0.0, 1.0], [3.0, 4.0]]  # 1-2 samples
        segments = [LineSegment.from_endpoints(*e) for e in ends]
        batch = sample_line_descriptors(self.prob, segments)
        assert len(batch) == len(segments)
        for seg, profile in zip(segments, batch):
            seg = seg.canonical()
            length = seg.length
            ts = np.arange(int(np.floor(length)) + 1, dtype=np.float64)
            expected = bilinear_sample(self.prob, seg.x1 + ts * ((seg.x2 - seg.x1) / length),
                                       seg.y1 + ts * ((seg.y2 - seg.y1) / length))
            assert np.array_equal(profile, expected)
            assert np.array_equal(profile, sample_line_descriptor(self.prob, seg))


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
        assert sample_line_descriptors(bad, []) == []
        below = LineSegment.from_endpoints(20, 30, 60, 30)
        (profile,) = sample_line_descriptors(bad, [below])
        np.testing.assert_array_equal(profile, sample_line_descriptor(self.prob, below))
