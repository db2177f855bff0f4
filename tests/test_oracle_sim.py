import tracemalloc

import numpy as np
import pytest

from softphoc import oracle
from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.encoder import embed_scene, scene_coverage_mask
from softphoc.errors import InvalidConfig
from softphoc.oracle import NoiseConfig, simulate

from oracles import simulate_all_channels
from scenegen import MIXED_CHARSET, random_scene


def make_scene(seed=13):
    return random_scene(np.random.default_rng(seed), image_size=(160, 120),
                        n_words=3)


def test_zero_noise_is_exactly_embed_scene():
    scene = make_scene()
    assert np.array_equal(simulate(scene, NoiseConfig()), embed_scene(scene))


def test_full_confusion_flattens_characters_inside_words():
    scene = make_scene()
    out = simulate(scene, NoiseConfig(confusion_rate=1.0))
    inside = scene_coverage_mask(scene)
    chars = out[inside][:, 1:]
    spread = chars.max(axis=1) - chars.min(axis=1)
    assert np.all(spread < 1e-6)


def test_deterministic_for_fixed_seed():
    scene = make_scene()
    cfg = NoiseConfig(blur_sigma=1.5, confusion_rate=0.3, background_leak=0.2)
    a = simulate(scene, cfg)
    b = simulate(scene, cfg)
    assert np.array_equal(a, b)


def test_outputs_stay_distributions_across_configs():
    scene = make_scene(29)
    rng = np.random.default_rng(0)
    for _ in range(8):
        cfg = NoiseConfig(blur_sigma=float(rng.uniform(0, 3)),
                          confusion_rate=float(rng.uniform(0, 1)),
                          background_leak=float(rng.uniform(0, 1)))
        out = simulate(scene, cfg)
        sums = out.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert out.min() >= 0.0


def box_word(x0, y0, x1, y1, text):
    return WordAnnotation(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]],
                                   dtype=float), text)


# Words touching the left, top, right and bottom image borders.
BORDER_SCENE = SceneAnnotation(160, 120, [
    box_word(0, 40, 30, 56, "left"), box_word(50, 0, 100, 14, "top"),
    box_word(125, 60, 160, 76, "right"), box_word(60, 104, 110, 120, "bottom")])
# Boxes 7 px apart: their windows overlap for r >= 4 (sigma 1.5 gives r = 6).
NEAR_PAIR_SCENE = SceneAnnotation(200, 80, [
    box_word(20, 30, 80, 46, "near"), box_word(88, 30, 150, 46, "pair")])
EMPTY_SCENE = SceneAnnotation(90, 70, [])
# Digits and "ab!?" merge into one window at sigma 1.5 and "zzz" keeps its
# own, so the windows blur different channel sets; at sigma 45 one window
# holds them all.
CHANNEL_SETS_SCENE = SceneAnnotation(200, 80, [
    box_word(10, 10, 60, 26, "0123"), box_word(66, 10, 116, 26, "ab!?"),
    box_word(150, 50, 190, 66, "zzz")])


def noisy(sigma):
    return NoiseConfig(blur_sigma=sigma, confusion_rate=0.2, background_leak=0.1)


@pytest.mark.parametrize("scene_name", ["random", "overlapping", "border",
                                        "near-pair", "channel-sets", "mixed", "empty"])
@pytest.mark.parametrize("cfg", [
    noisy(0.0), noisy(0.3), noisy(1.5), noisy(3.3),
    NoiseConfig(blur_sigma=45.0, confusion_rate=0.1),  # window spans the image
    NoiseConfig(confusion_rate=0.3), NoiseConfig(background_leak=0.4),
    NoiseConfig(blur_sigma=1.0),
], ids=lambda cfg: f"{cfg.blur_sigma}-{cfg.confusion_rate}-{cfg.background_leak}")
def test_windowed_simulate_is_bit_identical_to_whole_image(scene_name, cfg):
    scene = {
        "random": make_scene(),
        "overlapping": random_scene(np.random.default_rng(4), image_size=(160, 120),
                                    n_words=5, separation=-12.0),
        "border": BORDER_SCENE,
        "near-pair": NEAR_PAIR_SCENE,
        "channel-sets": CHANNEL_SETS_SCENE,
        "mixed": random_scene(np.random.default_rng(5), image_size=(160, 120), n_words=6,
                              min_len=1, max_len=8, separation=-12.0,
                              charset=MIXED_CHARSET),
        "empty": EMPTY_SCENE,
    }[scene_name]
    assert simulate(scene, cfg).tobytes() == simulate_all_channels(scene, cfg).tobytes()


def test_overlapping_windows_merge_until_disjoint():
    assert len(oracle._windows(NEAR_PAIR_SCENE, 6)) == 1
    assert len(oracle._windows(NEAR_PAIR_SCENE, 3)) == 2
    assert len(oracle._windows(CHANNEL_SETS_SCENE, 6)) == 2
    assert len(oracle._windows(CHANNEL_SETS_SCENE, 180)) == 1
    # "four" reaches "two" only, and the merged box then reaches "three",
    # which no single word's window did.
    chain = SceneAnnotation(200, 120, [
        box_word(10, 10, 60, 26, "one"), box_word(70, 10, 120, 26, "two"),
        box_word(10, 60, 40, 76, "three"), box_word(110, 36, 150, 52, "four")])
    assert oracle._windows(chain, 6) == [(4, 83, 4, 157)]
    assert np.array_equal(simulate(chain, noisy(1.5)),
                          simulate_all_channels(chain, noisy(1.5)))
    scene = random_scene(np.random.default_rng(8), image_size=(400, 300), n_words=8,
                         separation=4.0)
    windows = oracle._windows(scene, 6)
    assert len(windows) > 2
    for i, a in enumerate(windows):
        for b in windows[i + 1:]:
            assert not oracle._overlap(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_random_scenes_and_sigmas_are_bit_identical(seed):
    # words from overlapping to 12 px apart, so windows often just touch
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, image_size=(180, 130), n_words=6,
                         separation=float(rng.uniform(-8.0, 12.0)))
    cfg = NoiseConfig(blur_sigma=float(rng.uniform(0.2, 4.0)),
                      confusion_rate=float(rng.uniform(0.0, 0.5)),
                      background_leak=float(rng.uniform(0.0, 0.5)))
    assert np.array_equal(simulate(scene, cfg), simulate_all_channels(scene, cfg))


@pytest.mark.parametrize("sigma", [1e19, 1e300])
def test_blur_whose_kernel_exceeds_physical_memory_is_refused(sigma):
    with pytest.raises(InvalidConfig, match="blur_sigma .* physical memory"):
        NoiseConfig(blur_sigma=sigma)


@pytest.mark.parametrize("cfg", [noisy(1.5), NoiseConfig(confusion_rate=0.3),
                                 NoiseConfig(blur_sigma=2.0)],
                         ids=["all", "confusion", "blur"])
def test_simulate_allocates_one_window_and_the_blur_copies(cfg):
    # beyond the output map: one float64 window, the blur's input and
    # output copies of its live channels, and band-sized temporaries
    scene = random_scene(np.random.default_rng(3), image_size=(320, 240), n_words=4)
    r = int(oracle.TRUNCATE * cfg.blur_sigma + 0.5)
    exact = embed_scene(scene)
    bound = 0
    for y0, y1, x0, x1 in oracle._windows(scene, r):
        live = np.count_nonzero(exact[y0:y1, x0:x1].any(axis=(0, 1)))
        bound = max(bound, 8 * (y1 - y0) * (x1 - x0) * (38 + 2 * live))
    tracemalloc.start()
    try:
        out = simulate(scene, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound > 1 << 20
    assert peak <= out.nbytes + bound + (64 << 10), (peak, out.nbytes, bound)
