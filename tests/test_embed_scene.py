import numpy as np
import pytest

from softphoc import encoder
from softphoc.alphabet import classify_char
from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.encoder import embed_scene, encode_word, scene_coverage_mask
from softphoc.errors import DegenerateQuad
from softphoc.warp import apply_homography, bilinear_sample, homography

from oracles import embed_scene_all_channels
from scenegen import MIXED_CHARSET, random_scene, rotated_rect_quad


def box_quad(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


def test_empty_scene_is_background():
    t = embed_scene(SceneAnnotation(32, 20, []))
    assert t.shape == (20, 32, 38)
    assert np.all(t[..., 0] == 1.0)
    assert np.all(t[..., 1:] == 0.0)


def test_axis_aligned_box_matches_word_crop():
    scene = SceneAnnotation(64, 32, [WordAnnotation(box_quad(10, 5, 50, 15), "AB")])
    t = embed_scene(scene)
    crop = encode_word("AB", 40, 10)
    inside = t[5:15, 10:50]
    np.testing.assert_allclose(inside, crop, atol=1e-6)
    assert np.all(inside[..., 0] == 0.0)
    outside = np.ones((32, 64), dtype=bool)
    outside[5:15, 10:50] = False
    assert np.all(t[outside, 0] == 1.0)


def test_rotated_word_mass_progresses_vertically():
    quad = rotated_rect_quad(40, 40, 40, 10, 90.0)
    scene = SceneAnnotation(80, 80, [WordAnnotation(quad, "AB")])
    t = embed_scene(scene)
    a, b = classify_char("a"), classify_char("b")
    ys = np.arange(80, dtype=float)
    a_profile = t[..., a].sum(axis=1)
    b_profile = t[..., b].sum(axis=1)
    a_centroid = (ys * a_profile).sum() / a_profile.sum()
    b_centroid = (ys * b_profile).sum() / b_profile.sum()
    # 90 degree rotation: the crop's column order runs along scene rows
    assert abs(a_centroid - b_centroid) > 5.0
    # no variation along scene columns inside the quad band
    assert t[..., a].sum() > 0 and t[..., b].sum() > 0


def test_per_pixel_sums_are_one(seed=3):
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, image_size=(200, 160), n_words=4)
    t = embed_scene(scene)
    np.testing.assert_allclose(t.sum(axis=2), 1.0, atol=1e-6)


def test_later_word_overwrites_contested_pixels():
    first = WordAnnotation(box_quad(10, 10, 50, 20), "aaaa")
    second = WordAnnotation(box_quad(30, 10, 70, 20), "bbbb")
    scene = SceneAnnotation(90, 32, [first, second])
    t = embed_scene(scene)
    a, b = classify_char("a"), classify_char("b")
    assert np.all(t[12:18, 32:48, b] == 1.0)  # contested strip: second word
    assert np.all(t[12:18, 32:48, a] == 0.0)
    assert np.all(t[12:18, 12:28, a] == 1.0)  # uncontested part of first word


def test_coverage_mask_matches_embedding_support():
    rng = np.random.default_rng(5)
    scene = random_scene(rng, image_size=(180, 140), n_words=3)
    t = embed_scene(scene)
    coverage = scene_coverage_mask(scene)
    np.testing.assert_array_equal(coverage, t[..., 0] == 0.0)


def test_rank_deficient_quad_is_rejected():
    # positive area but three collinear corners: no valid homography
    quad = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [0.0, 10.0]])
    with pytest.raises(DegenerateQuad, match="sends a corner to infinity"):
        homography(quad, np.array([[0, 0], [10, 0], [10, 10], [0, 10]]))


def test_nearly_collinear_quad_has_no_exact_homography():
    # the fourth corner 1e-10 off the line of the first two: the fit's
    # corners stay finite but miss their targets
    quad = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 1e-10], [0.0, 10.0]])
    with pytest.raises(DegenerateQuad, match="no exact homography"):
        homography(quad, np.array([[0, 0], [10, 0], [10, 10], [0, 10]]))


@pytest.mark.parametrize("quad", [
    [[90, 10], [100, 10], [100, 30], [100, 30]],  # "90,10,130,10,130,30,105,30" clamped to x <= 100
    [[0, 0], [10, 0], [20, 1e-10], [0, 10]],
])
def test_word_with_collinear_vertices_is_named(quad):
    scene = SceneAnnotation(100, 40, [WordAnnotation(box_quad(10, 10, 60, 30), "fine"),
                                      WordAnnotation(np.array(quad, dtype=float), "edge")])
    for build in (embed_scene, scene_coverage_mask):
        with pytest.raises(DegenerateQuad, match="quad of 'edge' has three "
                           r"\(nearly\) collinear vertices"):
            build(scene)


def whole_box_warp(word, w, h, crop):
    """(x0, y0, covered, samples) with the crop sampled at every pixel of
    the word's box, covered or not."""
    crop_w, crop_h = encoder.word_crop_size(word)
    rect = np.array([[0.0, 0.0], [crop_w, 0.0], [crop_w, crop_h], [0.0, crop_h]])
    x0, y0, x1, y1 = encoder.word_box(word, w, h)
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    u, v, valid = apply_homography(homography(word.quad, rect),
                                   xs.astype(float), ys.astype(float))
    eps = encoder.EDGE_EPS
    covered = valid & (u >= -eps) & (u < crop_w - eps) \
        & (v >= -eps) & (v < crop_h - eps)
    return x0, y0, covered, bilinear_sample(crop, u, v)


def whole_image_embed(scene):
    """embed_scene with whole-box sampling and its finalisation written as
    whole-image passes."""
    w, h = scene.image_width, scene.image_height
    out = np.zeros((h, w, 38), dtype=np.float32)
    claimed = np.zeros((h, w), dtype=bool)
    for word in scene.words:
        crop = encoder.encode_word(word.transcription, *encoder.word_crop_size(word))
        x0, y0, covered, samples = whole_box_warp(word, w, h, crop)
        block = out[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]]
        block[covered] = samples[covered].astype(np.float32)
        claimed[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]] |= covered
    char_sum = out[..., 1:].sum(axis=-1)
    safe = claimed & (char_sum > 0)
    out[safe, 1:] /= char_sum[safe, None]
    out[safe, 0] = 0.0
    out[~safe] = 0.0
    out[~safe, 0] = 1.0
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_claimed_only_finalisation_matches_whole_image_passes(seed):
    # negative separation: words overlap and later ones overwrite
    scene = random_scene(np.random.default_rng(seed), image_size=(200, 150),
                         n_words=6, separation=-12.0)
    assert np.array_equal(embed_scene(scene), whole_image_embed(scene))


@pytest.mark.parametrize("seed", range(6))
def test_sampling_only_the_words_channels_matches_all_channels(seed):
    # negative separation: words overlap and later ones overwrite
    scene = random_scene(np.random.default_rng(seed), image_size=(200, 150),
                         n_words=6, min_len=1, max_len=8, separation=-12.0,
                         charset=MIXED_CHARSET)
    got, want = embed_scene(scene), embed_scene_all_channels(scene)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_overlapping_words_with_shared_and_distinct_channels():
    scene = SceneAnnotation(120, 60, [
        WordAnnotation(box_quad(5, 5, 70, 25), "Hello!"),
        WordAnnotation(rotated_rect_quad(55, 25, 60, 14, 20.0), "l0L?"),
        WordAnnotation(box_quad(40, 30, 110, 52), "ZZZ2024"),
        WordAnnotation(box_quad(90, 2, 118, 20), "..."),
    ])
    got, want = embed_scene(scene), embed_scene_all_channels(scene)
    assert got.tobytes() == want.tobytes()
    assert got[..., 37].any() and got[..., classify_char("z")].any()
