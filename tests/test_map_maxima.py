"""spot() computes a map's tile maxima once per array object and keeps
them while the array lives; these tests hold that memo to its contract.

The memo is keyed on the array the caller passes, holds no reference to
it, and never serves an entry to a different array, or to the same
array after its memory or layout changed. A map written in place between
calls is outside the contract: a changed map is spotted as a new array.
"""

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from softphoc import spotting
from softphoc.alphabet import classify_char
from softphoc.cli import main
from softphoc.spotting import check_probability_map, spot

from test_heat_tiles import assert_same_as_whole_map, planar, scene_map, text_map


@pytest.fixture
def fills(monkeypatch):
    """The maps whose tile maxima were computed, one entry per fill."""
    filled = []
    original = spotting._tile_maxima

    def counting(prob, sums=False):
        filled.append(prob.shape)
        return original(prob, sums)

    monkeypatch.setattr(spotting, "_tile_maxima", counting)
    return filled


def test_maxima_are_computed_once_per_map(fills):
    prob, words = scene_map((320, 240), 21)
    for query in words + words:
        assert_same_as_whole_map(prob, query)
    assert len(fills) == 1


def test_two_threads_give_the_serial_results(fills):
    prob, words = scene_map((320, 240), 22)
    queries = words + ["qzx", "e"]
    serial = [spot(prob.copy(), query) for query in queries]
    fills.clear()
    fresh = planar(prob)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(lambda query: spot(fresh, query), queries)) == serial
    assert len(fills) == 1


def test_memmap_map_is_filled_once(fills, tmp_path):
    prob, words = scene_map((320, 240), 24)
    queries = words + ["qzx"] + words
    expected = [spot(prob, query) for query in queries]
    np.save(tmp_path / "map.npy", prob)
    mapped = np.load(tmp_path / "map.npy", mmap_mode="r")
    assert isinstance(mapped, np.memmap)
    fills.clear()
    assert [spot(mapped, query) for query in queries] == expected
    assert len(fills) == 1


def test_reallocated_map_is_never_served_the_old_entry(fills):
    rng = np.random.default_rng(4)
    for k in range(6):
        # same shape and size, so the allocator may hand out the same
        # address and Python the same id; the words move each time
        prob = text_map(rng, 48, 96, "ab", blobs=1 + k % 3)
        assert_same_as_whole_map(prob, "ab")
        del prob
    assert len(fills) == 6


def test_map_whose_layout_changes_gets_new_maxima(fills):
    rng = np.random.default_rng(5)
    prob = text_map(rng, 40, 64, "ab", dtype=np.float64, blobs=4)
    assert_same_as_whole_map(prob, "ab")
    # the same array object and memory, read as a 64 x 40 map
    prob.shape = (64, 40, 38)
    assert_same_as_whole_map(prob, "ab")
    assert len(fills) == 2


def test_dead_map_leaves_no_entry():
    gc.collect()
    before = set(spotting._MAP_MAXIMA)
    prob, words = scene_map((320, 240), 23)
    assert spot(prob, words[0]) is not None
    assert id(prob) in spotting._MAP_MAXIMA
    ref = weakref.ref(prob)
    del prob
    gc.collect()
    assert ref() is None
    assert set(spotting._MAP_MAXIMA) <= before
    assert all(entry[0]() is not None for entry in spotting._MAP_MAXIMA.values())


def test_written_copy_is_spotted_with_its_new_values():
    rng = np.random.default_rng(6)
    prob = text_map(rng, 48, 96, "ab", blobs=1)
    before = assert_same_as_whole_map(prob, "ab")
    changed = prob.copy()
    # a brighter line elsewhere, so the peak and the mask move
    changed[40, 10:90, classify_char("a")] = changed[40, 10:90, classify_char("b")] = 1.0
    after = assert_same_as_whole_map(changed, "ab")
    assert after is not None and after != before
    assert assert_same_as_whole_map(prob, "ab") == before


@pytest.mark.parametrize("dtype", [np.float16, np.dtype(">f4"), np.dtype(">f8")])
def test_converted_maps_are_keyed_on_the_callers_array(dtype, fills):
    rng = np.random.default_rng(7)
    prob = text_map(rng, 40, 70, "abc", dtype=dtype, blobs=3)
    for layout in (prob, planar(prob)):
        for query in ("abc", "b", "ca", "abc"):
            assert_same_as_whole_map(layout, query)
        assert spotting._MAP_MAXIMA[id(layout)][0]() is layout
    assert len(fills) == 2


def test_checked_map_is_not_read_again_by_spot(fills):
    prob, words = scene_map((320, 240), 25)
    check_probability_map(prob)
    assert fills == [prob.shape]
    for query in words + ["qzx"]:
        spot(prob, query)
    assert fills == [prob.shape]


def test_spot_command_fills_the_maxima_once(fills, tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text("10,10,80,10,80,30,10,30,hello\n30,50,120,50,120,70,30,70,world\n")
    tensor = tmp_path / "m.sphoc"
    assert main(["simulate", str(gt), str(tensor), "--width", "150", "--height", "90"]) == 0
    queries = tmp_path / "q.txt"
    queries.write_text("hello\nworld\nqzx\n")
    for jobs in ("1", "2"):
        fills.clear()
        assert main(["spot", str(tensor), str(queries), str(tmp_path / "d.tsv"),
                     "--jobs", jobs]) == 0
        # the check's walk, with the channel sums; no query reads the map again
        assert fills == [(90, 150, 38)]
