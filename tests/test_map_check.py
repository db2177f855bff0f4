"""check_probability_map takes a map's tile maxima and channel sums in one
walk and reads the map again only to word a refusal; these tests hold it
to the three-pass check it replaced (tests/oracles.three_pass_check):
the same maps accepted, the same errors with the same messages, and, for
a map that passes, the maxima of the whole-map reference kept for spot().
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import spotting
from softphoc.errors import InvalidProbabilityMap, ShapeMismatch
from softphoc.spotting import MAP_SUM_TOLERANCE, check_probability_map

from oracles import three_pass_check, tile_maxima

LAYOUTS = ("C", "F", "planar", "memmap")
SUBNORMAL = {np.float32: float(np.finfo(np.float32).smallest_subnormal),
             np.float64: float(np.finfo(np.float64).smallest_subnormal)}


def values(dtype):
    """Single values that a map may or may not hold."""
    return [math.nan, math.inf, -math.inf, -0.0, 0.0, -0.25, 1.5,
            float(np.nextafter(dtype(1), dtype(2))), SUBNORMAL[dtype],
            -SUBNORMAL[dtype]]


DEVIATIONS = [5e-4, 2e-3, -2e-3, MAP_SUM_TOLERANCE / 2]


def distribution(rng, height, width, dtype):
    """A random map whose pixels each sum to 1 up to rounding."""
    prob = rng.random((height, width, 38), dtype=np.float32)
    prob += np.float32(1e-3)
    prob /= prob.sum(axis=-1, keepdims=True)
    return prob.astype(dtype, copy=False)


def corrupt(prob, rng, value=None, deviation=None):
    """prob with one value set, or one pixel's sum moved by deviation."""
    height, width, _ = prob.shape
    if prob.size == 0 or (value is None and deviation is None):
        return prob
    y, x, c = rng.integers(height), rng.integers(width), rng.integers(38)
    if value is not None:
        prob[y, x, c] = value
    else:
        prob[y, x, c] += deviation
    return prob


def in_layout(prob, layout, directory, dtype=None):
    """prob as dtype (its own by default) in a layout of LAYOUTS; a
    memmap is saved under directory and mapped read-only."""
    dtype = dtype or prob.dtype
    if layout == "F":
        return prob.astype(dtype, order="F")
    if layout == "planar":
        planes = np.empty((38,) + prob.shape[:2], dtype).transpose(1, 2, 0)
        planes[...] = prob
        return planes
    prob = prob.astype(dtype, copy=False)
    if layout == "memmap":
        path = Path(directory) / "map.npy"
        np.save(path, prob)
        return np.load(path, mmap_mode="r")
    return prob


def refusal(check, prob):
    """The message check raises for prob, or None when it passes."""
    try:
        check(prob)
    except InvalidProbabilityMap as exc:
        return str(exc)
    return None


def assert_same_as_three_passes(prob):
    got = refusal(check_probability_map, prob)
    assert got == refusal(three_pass_check, prob)
    entry = spotting._MAP_MAXIMA.get(id(prob))
    if got is not None or prob.size == 0:
        assert entry is None
        return got
    assert entry is not None and entry[0]() is prob
    expected = tile_maxima(np.asarray(prob))
    assert entry[2].dtype == np.float64
    assert np.array_equal(entry[2].view(np.uint64), expected.view(np.uint64))
    return got


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([(0, 9), (7, 0), (1, 1), (17, 33), (16, 16), (33, 5)]),
       dtype=st.sampled_from([np.float32, np.float64]),
       layout=st.sampled_from(LAYOUTS),
       damage=st.sampled_from(["none", "value", "deviation", "near tolerance"]),
       pick=st.integers(0, 9),
       near=st.floats(-1e-6, 1e-6))
def test_check_is_the_three_pass_check(seed, size, dtype, layout, damage, pick, near):
    rng = np.random.default_rng(seed)
    prob = distribution(rng, *size, dtype)
    if damage == "value":
        prob = corrupt(prob, rng, value=values(dtype)[pick])
    elif damage == "deviation":
        prob = corrupt(prob, rng, deviation=DEVIATIONS[pick % len(DEVIATIONS)])
    elif damage == "near tolerance":
        prob = corrupt(prob, rng, deviation=MAP_SUM_TOLERANCE + near)
    with tempfile.TemporaryDirectory() as directory:
        mapped = in_layout(prob, layout, directory)
        assert_same_as_three_passes(mapped)
        if mapped.size:
            # spot()'s walk, without sums, on the same map, whatever it holds
            walk, deviation = spotting._tile_maxima(np.asarray(mapped))
            expected = tile_maxima(np.asarray(mapped))
            assert deviation == 0.0
            assert np.array_equal(walk.view(np.uint64), expected.view(np.uint64))
        del mapped


@pytest.mark.parametrize("dtype, layout", [(np.float32, "C"), (np.float32, "memmap"),
                                           (np.float64, "F"), (np.float64, "planar")])
def test_ragged_map_of_721_by_1281(dtype, layout, tmp_path):
    rng = np.random.default_rng(31)
    prob = in_layout(distribution(rng, 721, 1281, np.float32), layout, tmp_path, dtype)
    assert assert_same_as_three_passes(prob) is None
    if layout == "memmap":
        prob = np.array(prob)
    # the last row and column are tiles of their own; prob[:] is a new
    # array object on the same memory, so no maxima are kept from before
    corners = [(720, 1280), (0, 0), (400, 1280), (720, 3)]
    deviations = DEVIATIONS + [MAP_SUM_TOLERANCE - 1e-6, MAP_SUM_TOLERANCE + 1e-6]
    for k, damage in enumerate(values(dtype) + deviations):
        y, x = corners[k % len(corners)]
        keep = prob[y, x, 5]
        if k < len(values(dtype)):
            prob[y, x, 5] = damage
        else:
            prob[y, x, 5] += damage
        assert_same_as_three_passes(prob[:])
        prob[y, x, 5] = keep


def test_real_map_deviation_is_far_inside_the_fast_path():
    rng = np.random.default_rng(32)
    prob = distribution(rng, 40, 50, np.float32)
    _, deviation = spotting._tile_maxima(prob, sums=True)
    assert 0.0 < deviation < 1e-6 < MAP_SUM_TOLERANCE / 2


@pytest.mark.parametrize("shape", [(5, 1), (2, 3, 4), (0, 4, 37), (38,)])
def test_array_that_is_not_a_map_is_refused(shape):
    with pytest.raises(ShapeMismatch, match=r"not \(height, width, 38\)"):
        check_probability_map(np.ones(shape, dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.float16, np.dtype(">f4"), np.int32])
def test_other_dtypes_are_decided_by_the_three_passes(dtype):
    rng = np.random.default_rng(34)
    prob = distribution(rng, 18, 20, np.float64)
    for damage in (None, 1.5, 2e-3):
        bad = prob.copy()
        if damage == 1.5:
            bad[2, 3, 4] = 1.5
        elif damage:
            bad[2, 3, 4] += damage
        bad = bad.astype(dtype)
        assert refusal(check_probability_map, bad) == refusal(three_pass_check, bad)
