"""errors.blocks, the one split of every array built in parts, and the
paths that go through it: each must give the same result whatever the
budget, down to a few items per block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import errors
from softphoc.encoder import embed_scene
from softphoc.errors import BLOCK_BYTES, blocks
from softphoc.fileio import write_tensor
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import mask_pixels, spot

from oracles import simulate_all_channels
from scenegen import random_scene


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300),
       item_bytes=st.one_of(st.integers(0, 2 * BLOCK_BYTES),
                            st.sampled_from([1, BLOCK_BYTES // 7, BLOCK_BYTES // 2 + 1,
                                             BLOCK_BYTES, BLOCK_BYTES + 1])))
def test_blocks_cover_the_items_once_and_in_order(n, item_bytes):
    for items in (list(range(n)), np.arange(n), range(n)):
        runs = list(blocks(items, item_bytes))
        assert [x for run in runs for x in run] == list(range(n))
        assert (runs == []) == (n == 0)
        for run in runs:
            assert len(run) == 1 or len(run) * item_bytes <= BLOCK_BYTES
        for run in runs[:-1]:  # every run but the last is as long as fits
            assert len(run) == 1 or (len(run) + 1) * item_bytes > BLOCK_BYTES


def scene_maps(seed):
    """A C-order and a channel-planar float32 map of a random scene,
    blended with noise so every channel of every pixel is nonzero."""
    rng = np.random.default_rng(seed)
    scene = random_scene(rng, image_size=(160, 120), n_words=3)
    noise = rng.random((120, 160, 38), dtype=np.float32)
    noise /= noise.sum(axis=-1, keepdims=True)
    prob = (0.8 * embed_scene(scene) + 0.2 * noise).astype(np.float32)
    planar = np.ascontiguousarray(prob.transpose(2, 0, 1)).transpose(1, 2, 0)
    queries = [word.transcription for word in scene.words] + ["zq"]
    return (prob, planar), queries


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", ["C-order", "planar"])
def test_small_blocks_give_the_same_mask_and_detection(seed, layout, monkeypatch):
    maps, queries = scene_maps(seed)
    prob = maps[layout == "planar"]
    expected = [(mask_pixels(prob, q, 0.2), spot(prob, q)) for q in queries]
    assert any(detection is not None for _, detection in expected)
    # three pixels of heat per block; the Hough stage splits its votes
    # by theta, peak suppression by peak and refit and trim by line
    monkeypatch.setattr(errors, "BLOCK_BYTES", 3 * prob.strides[1])
    for query, ((peak, ys, xs), detection) in zip(queries, expected):
        small_peak, small_ys, small_xs = mask_pixels(prob, query, 0.2)
        assert small_peak == peak
        assert np.array_equal(small_ys, ys) and np.array_equal(small_xs, xs)
        assert spot(prob, query) == detection


@pytest.mark.parametrize("layout", ["C-order", "planar"])
def test_small_blocks_write_the_same_tensor_bytes(layout, tmp_path, monkeypatch):
    prob = scene_maps(2)[0][layout == "planar"]
    whole = tmp_path / "whole.sphoc"
    write_tensor(whole, prob)
    monkeypatch.setattr(errors, "BLOCK_BYTES", 3 * 160 * 38 * 4 + 5)  # three rows
    small = tmp_path / "small.sphoc"
    write_tensor(small, prob)
    assert small.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("cfg", [
    NoiseConfig(blur_sigma=1.5), NoiseConfig(confusion_rate=0.3),
    NoiseConfig(background_leak=0.4), NoiseConfig(blur_sigma=1.5, confusion_rate=0.2,
                                                  background_leak=0.1),
], ids=["blur", "confusion", "leak", "all"])
@pytest.mark.parametrize("budget", [1, 3 * 160 * 38 * 8 + 5])
def test_small_blocks_corrupt_the_same_map_bytes(cfg, budget, monkeypatch):
    # one row per band, or 5 to 13 rows per band of this scene's windows,
    # which are 29 to 103 rows tall: each window spans several bands, the
    # last one short
    scene = random_scene(np.random.default_rng(6), image_size=(160, 120), n_words=3,
                         separation=-12.0)
    expected = simulate_all_channels(scene, cfg)
    monkeypatch.setattr(errors, "BLOCK_BYTES", budget)
    assert simulate(scene, cfg).tobytes() == expected.tobytes()
