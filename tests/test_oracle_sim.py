import numpy as np

from softphoc.encoder import embed_scene, scene_coverage_mask
from softphoc.oracle import NoiseConfig, simulate

from scenegen import random_scene


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
