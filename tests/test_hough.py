import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from softphoc import errors, hough
from softphoc.errors import BLOCK_BYTES, InvalidConfig
from softphoc.geometry import LineSegment
from softphoc.hough import (find_peaks, hough_accumulator, lines_from_components,
                            lines_from_pixels, refine_line, trim_line_to_mask)
from softphoc.spotting import SpottingConfig, hough_lines

from oracles import (bounding_box_components, bounding_box_labels, per_line_refine,
                     per_line_trim)

CFG = SpottingConfig()


def cells_of(acc, min_votes=1):
    """The (rho_bins, theta_indices, votes) cells of a grid that reach
    min_votes, in the form hough_accumulator returns."""
    cand_r, cand_t = np.nonzero(acc >= min_votes)
    return cand_r, cand_t, acc[cand_r, cand_t]


def grid_of(cells, n_rho, n_theta):
    """The cells scattered into a zero (n_rho, n_theta) grid."""
    acc = np.zeros((n_rho, n_theta), dtype=np.int64)
    acc[cells[0], cells[1]] = cells[2]
    return acc


def mask_with_run(shape=(100, 100), row=40, col0=20, length=60):
    mask = np.zeros(shape, dtype=bool)
    mask[row, col0:col0 + length] = True
    return mask


def test_single_horizontal_run_recovered():
    mask = mask_with_run()
    segments = hough_lines(mask, CFG)
    assert segments
    top = segments[0]
    assert abs(top.theta - 90.0) <= 1.0
    assert abs(top.rho - 40.0) <= 1.0
    assert math.hypot(top.x1 - 20, top.y1 - 40) <= 2.0
    assert math.hypot(top.x2 - 79, top.y2 - 40) <= 2.0
    assert top.votes >= 60


def test_empty_mask_gives_no_candidates():
    assert hough_lines(np.zeros((50, 50), dtype=bool), CFG) == []


def test_find_peaks_respects_the_candidate_cap():
    acc = np.zeros((5, 4), dtype=np.int64)
    acc[1, 1], acc[3, 3] = 30, 25
    rhos, thetas = np.arange(5.0), np.arange(4.0)
    peaks = [(1.0, 1.0, 30), (3.0, 3.0, 25)]
    for cap in range(4):
        assert find_peaks(cells_of(acc, 20), rhos, thetas, 0.0, 0.0, cap) == peaks[:cap]


def test_two_parallel_runs_survive_nms():
    mask = np.zeros((100, 100), dtype=bool)
    mask[30, 20:80] = True
    mask[60, 20:80] = True
    segments = hough_lines(mask, CFG)
    rhos = {round(s.rho) for s in segments if abs(s.theta - 90.0) <= 1.0}
    assert {30, 60} <= rhos
    assert len(segments) >= 2


def sample_segment_start(rng, angle_deg, length=59, lo=5.0, hi=114.0):
    """Random start so the whole segment stays inside [lo, hi]^2."""
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    x_lo, x_hi = (lo, hi - length * c) if c >= 0 else (lo - length * c, hi)
    y_lo, y_hi = (lo, hi - length * s) if s >= 0 else (lo - length * s, hi)
    return float(rng.uniform(x_lo, x_hi)), float(rng.uniform(y_lo, y_hi))


def synthetic_segment_mask(angle_deg, x0, y0, length=60, shape=(120, 120)):
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    mask = np.zeros(shape, dtype=bool)
    for k in range(length):
        mask[int(round(y0 + k * s)), int(round(x0 + k * c))] = True
    return mask


def expected_line_params(angle_deg, x0, y0):
    theta = (angle_deg + 90.0) % 180.0
    rho = x0 * math.cos(math.radians(theta)) + y0 * math.sin(math.radians(theta))
    return rho, theta


def angular_distance(a, b):
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def recovery_ok(top, angle_deg, x0, y0):
    rho_t, theta_t = expected_line_params(angle_deg, x0, y0)
    dt = angular_distance(top.theta, theta_t)
    rho_got = top.rho if abs(top.theta - theta_t) <= 90 else -top.rho
    return dt <= 1.0 and abs(rho_got - rho_t) <= 1.0


def test_orientation_sweep_sample():
    rng = np.random.default_rng(99)
    for angle in range(0, 180, 15):
        x0, y0 = sample_segment_start(rng, angle)
        mask = synthetic_segment_mask(angle, x0, y0)
        segments = hough_lines(mask, CFG)
        assert segments, f"no candidate at {angle} deg"
        assert recovery_ok(segments[0], angle, x0, y0), f"bad recovery at {angle} deg"


def test_segments_consistent_with_their_line_parameters():
    rng = np.random.default_rng(41)
    for angle in (0, 37, 90, 141):
        x0, y0 = sample_segment_start(rng, angle)
        mask = synthetic_segment_mask(angle, x0, y0)
        for seg in hough_lines(mask, CFG):
            rad = math.radians(seg.theta)
            for x, y in ((seg.x1, seg.y1), (seg.x2, seg.y2)):
                dist = abs(x * math.cos(rad) + y * math.sin(rad) - seg.rho)
                assert dist <= 1.0
            normal_of_direction = (seg.angle_from_horizontal() + 90.0) % 180.0
            assert angular_distance(normal_of_direction, seg.theta) <= 1.0


def test_gap_bridging_joins_close_runs():
    mask = np.zeros((60, 120), dtype=bool)
    mask[20, 10:50] = True
    mask[20, 54:90] = True  # 4-px gap, bridgeable with gap_bridge=5
    segments = hough_lines(mask, CFG)
    top = segments[0]
    assert top.x2 - top.x1 > 70

    mask2 = np.zeros((60, 120), dtype=bool)
    mask2[20, 10:50] = True
    mask2[20, 70:110] = True  # 20-px gap, not bridgeable
    segments2 = hough_lines(mask2, CFG)
    top2 = segments2[0]
    assert top2.x2 - top2.x1 < 45


def per_theta_accumulator(xs, ys, shape, rho_res, theta_res):
    """The accumulator voted one theta at a time."""
    height, width = shape
    half_bins = int(math.ceil(math.hypot(width - 1, height - 1) / rho_res))
    thetas = np.arange(0.0, 180.0, theta_res)
    acc = np.zeros((2 * half_bins + 1, len(thetas)), dtype=np.int64)
    for ti, theta in enumerate(np.radians(thetas)):
        r = xs * np.cos(theta) + ys * np.sin(theta)
        bins = np.rint(r / rho_res).astype(np.intp) + half_bins
        acc[:, ti] += np.bincount(bins, minlength=acc.shape[0])
    return acc


@pytest.mark.parametrize("n_pixels", [
    0, 1, 5000,
    BLOCK_BYTES // 8 + 1])  # more pixels than a one-theta block holds
# at theta 0, rho_res 2 puts every odd x at a half-integer: ties round to even
@pytest.mark.parametrize("rho_res, theta_res", [(1.0, 1.0), (0.5, 0.7), (2.0, 1.0)])
def test_theta_blocks_match_per_theta_votes(n_pixels, rho_res, theta_res):
    shape = (400, 700)
    rng = np.random.default_rng(n_pixels)
    flat = rng.choice(shape[0] * shape[1], size=n_pixels, replace=False)
    ys, xs = np.unravel_index(np.sort(flat), shape)
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, rho_res, theta_res)
    expected = per_theta_accumulator(xs, ys, shape, rho_res, theta_res)
    assert all(np.issubdtype(a.dtype, np.integer) for a in cells)
    assert np.all(cells[2] >= 1)
    acc = grid_of(cells, *expected.shape)
    assert np.array_equal(acc, expected)
    assert acc.sum() == n_pixels * len(thetas)
    assert len(rhos) == acc.shape[0] and np.array_equal(
        thetas, np.arange(0.0, 180.0, theta_res))
    for min_votes in (2, 3):
        cells, _, _ = hough_accumulator(xs, ys, shape, rho_res, theta_res, min_votes)
        assert np.array_equal(grid_of(cells, *expected.shape),
                              np.where(expected >= min_votes, expected, 0))


def looped_peaks(acc, rhos, thetas, min_votes, nms_rho, nms_theta,
                 max_candidates):
    """Greedy NMS, one candidate at a time over every cell at or above
    min_votes in (votes descending, rho, theta) order."""
    cand_r, cand_t = np.nonzero(acc >= min_votes)
    votes = acc[cand_r, cand_t]
    peaks = []
    for k in np.lexsort((cand_t, cand_r, -votes)):
        if len(peaks) >= max_candidates:
            break
        rho, theta = rhos[cand_r[k]], thetas[cand_t[k]]
        if any(abs(rho - pr) <= nms_rho and abs(theta - pt) <= nms_theta
               for pr, pt, _ in peaks):
            continue
        peaks.append((float(rho), float(theta), int(votes[k])))
    return peaks


@pytest.mark.parametrize("levels", [7, 1024])  # distinct vote counts: 7 tie often
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nms", [(0.0, 0.0), (5.0, 5.0), (1.0, 7.0), (40.0, 0.5),
                                 (math.nan, math.nan)])  # NaN suppresses nothing
@pytest.mark.parametrize("max_candidates", [1, 3, 20, 10_000])
def test_find_peaks_matches_the_one_candidate_loop(seed, nms, max_candidates, levels):
    rng = np.random.default_rng(seed)
    acc = rng.integers(0, levels, size=(41, 30)) * 10
    before = acc.copy()
    rhos = (np.arange(41) - 20) * float(rng.choice([0.5, 1.0, 2.0]))
    thetas = np.arange(0.0, 180.0, 6.0)
    above_all = 10 * levels - 9
    for min_votes in (1, 20, 50, 5 * levels, above_all):
        expected = looped_peaks(acc, rhos, thetas, min_votes, *nms, max_candidates)
        cells = cells_of(acc, min_votes)
        got = find_peaks(cells, rhos, thetas, *nms, max_candidates)
        assert got == expected
        assert all(type(v) is t for peak in got
                   for v, t in zip(peak, (float, float, int)))
        assert np.array_equal(grid_of(cells, *acc.shape),
                              np.where(acc >= min_votes, acc, 0))
    assert find_peaks(cells_of(acc, above_all), rhos, thetas, *nms, max_candidates) == []
    assert np.array_equal(acc, before)


def test_find_peaks_on_a_voted_mask_matches_the_loop():
    rng = np.random.default_rng(7)
    mask = np.zeros((90, 160), dtype=bool)
    mask[rng.random(mask.shape) < 0.05] = True
    mask[30, 10:150] = mask[60, 20:140] = True
    ys, xs = np.nonzero(mask)
    cells, rhos, thetas = hough_accumulator(xs, ys, mask.shape, min_votes=5)
    acc = grid_of(cells, len(rhos), len(thetas))
    for max_candidates in (1, 20, acc.size + 1):
        assert find_peaks(cells, rhos, thetas, 5.0, 5.0, max_candidates) == looped_peaks(
            acc, rhos, thetas, 5, 5.0, 5.0, max_candidates)
    assert np.array_equal(grid_of(cells, len(rhos), len(thetas)), acc)


def test_find_peaks_grows_the_cells_it_picks_from():
    # The top 600 cells share one NMS window, so the first peak uses up
    # the first ~512 top-voted cells and the later peaks lie below them.
    rng = np.random.default_rng(3)
    acc = rng.integers(1, 40, size=(1200, 20))
    acc[:30] += 1000
    rhos, thetas = np.arange(1200.0), np.arange(0.0, 180.0, 9.0)
    args = (100.0, 180.0, 8)
    got = find_peaks(cells_of(acc), rhos, thetas, *args)
    assert got == looped_peaks(acc, rhos, thetas, 1, *args)
    assert len(got) == 8 and got[1][2] < np.sort(acc, axis=None)[-512]


def test_find_peaks_restarts_when_the_cells_tied_at_the_cut_are_used_up():
    # 600 cells tie at 1000 votes across the 512th, all kept in the first
    # round; 30 windows use them up after 30 peaks, so 20 peaks come from
    # the first round and 40 from a second one over the lower cells too
    rng = np.random.default_rng(5)
    acc = rng.integers(1, 40, size=(1200, 20))
    acc[::40] = 1000
    rhos, thetas = np.arange(1200.0), np.arange(0.0, 180.0, 9.0)
    for cap in (20, 40):
        got = find_peaks(cells_of(acc), rhos, thetas, 10.0, 180.0, cap)
        assert got == looped_peaks(acc, rhos, thetas, 1, 10.0, 180.0, cap)
        assert [v == 1000 for _, _, v in got] == [k < 30 for k in range(cap)]


def test_find_peaks_without_suppression_beyond_the_first_cells():
    rng = np.random.default_rng(11)
    mask = np.zeros((90, 160), dtype=bool)
    mask[rng.random(mask.shape) < 0.05] = True
    ys, xs = np.nonzero(mask)
    cells, rhos, thetas = hough_accumulator(xs, ys, mask.shape, min_votes=4)
    assert len(cells[2]) > 700
    acc = grid_of(cells, len(rhos), len(thetas))
    got = find_peaks(cells, rhos, thetas, 0.0, 0.0, 700)
    assert len(got) == 700
    assert got == looped_peaks(acc, rhos, thetas, 4, 0.0, 0.0, 700)


@pytest.mark.parametrize("min_votes", [0, -3, math.nan])
def test_accumulator_refuses_a_min_votes_below_one(min_votes):
    with pytest.raises(InvalidConfig, match="min_votes"):
        hough_accumulator(np.array([1, 2]), np.array([3, 4]), (50, 100), 1.0, 1.0,
                          min_votes)


def test_lines_from_pixels_never_allocates_the_full_grid():
    # a word-sized box of 3000 pixels on a 6000 x 4000 image, whose
    # 14421 x 180 int64 grid takes 19.8 MiB
    shape = (4000, 6000)
    ys, xs = np.nonzero(np.ones((30, 100), dtype=bool))
    ys, xs = ys + 2000, xs + 3000
    half_bins = math.ceil(math.hypot(shape[1] - 1, shape[0] - 1))
    grid_bytes = (2 * half_bins + 1) * 180 * 8
    tracemalloc.start()
    try:
        segments = lines_from_pixels(xs, ys, shape, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert segments
    assert peak < grid_bytes / 2


@pytest.mark.parametrize("rho_res, theta_res", [(1e-300, 1.0), (1.0, 1e-300),
                                                (5e-324, 5e-324)])
def test_accumulator_beyond_physical_memory_is_refused(rho_res, theta_res):
    # only resolutions no machine can hold, refused before allocating
    xs, ys = np.array([1, 2]), np.array([3, 4])
    with pytest.raises(InvalidConfig, match="physical memory"):
        hough_accumulator(xs, ys, (50, 100), rho_res, theta_res)


def test_tiny_hough_resolutions_are_refused_without_a_warning():
    ys, xs = np.nonzero(np.eye(20, dtype=bool))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidConfig, match="rho_res 1e-300 and theta_res 1e-300"):
            hough_accumulator(xs, ys, (20, 20), 1e-300, 1e-300)


def refit_mask(seed, shape=(70, 130)):
    """Random pixels left of x = 100, plus straight runs: horizontal,
    vertical, diagonal, and a gapped one."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)
    mask[:, :100] = rng.random((shape[0], 100)) < 0.04
    mask[20, 5:95] = mask[45, 10:40] = mask[45, 43:90] = True
    mask[5:65, 30] = True
    idx = np.arange(50)
    mask[10 + idx, 15 + idx] = True
    mask[60, 110:125] = True  # collinear and alone on its row
    mask[3, 120] = True  # a support of one pixel
    return mask


def per_line_lines(xs, ys, shape, cfg):
    """lines_from_pixels with the per-line refit and trim."""
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, hough.RHO_RES,
                                            hough.THETA_RES, cfg.hough_min_votes)
    segments = []
    for rho, theta, votes in find_peaks(cells, rhos, thetas, hough.NMS_RHO,
                                        hough.NMS_THETA, cfg.max_candidates):
        rho, theta = per_line_refine(rho, theta, xs, ys, cfg.band_halfwidth)
        ends = per_line_trim(rho, theta, xs, ys, shape, cfg.band_halfwidth, cfg.gap_bridge)
        if ends is not None:
            segments.append(LineSegment(*ends[0], *ends[1], rho=rho, theta=theta,
                                        votes=votes).canonical())
    return segments


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rho_res, theta_res", [(1.0, 1.0), (0.5, 0.7)])
@pytest.mark.parametrize("band", [1e-3, 2.0, 8.0])
@pytest.mark.parametrize("gap_bridge", [0, 5, 2**63, 10**30])
@pytest.mark.parametrize("lines_per_block", [None, 3])
def test_batched_refit_and_trim_match_the_per_line_references(
        seed, rho_res, theta_res, band, gap_bridge, lines_per_block, monkeypatch):
    mask = refit_mask(seed)
    ys, xs = np.nonzero(mask)
    if lines_per_block:
        monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * len(xs) * lines_per_block)
    for name, value in (("RHO_RES", rho_res), ("THETA_RES", theta_res),
                        ("NMS_RHO", 2.0), ("NMS_THETA", 2.0)):
        monkeypatch.setattr(hough, name, value)
    cfg = SpottingConfig(hough_min_votes=3, max_candidates=40, band_halfwidth=band,
                         gap_bridge=gap_bridge)
    cells, rhos, thetas = hough_accumulator(xs, ys, mask.shape, rho_res, theta_res, 3)
    lines = [peak[:2] for peak in find_peaks(cells, rhos, thetas, 2.0, 2.0, 40)]
    lines += [
        (-5.0, 0.0), (-4.0, 90.0), (140.0, 0.0),  # beside the image, near edge pixels
        (-300.0, 45.0),  # far outside: no support
        (120.0, 0.0), (3.0, 90.0),  # through the one-pixel support
        (60.0, 90.0), (60.3, 89.0), (30.0, 0.0), (30.0, 179.5),  # collinear runs
    ]
    refined = refine_line(lines, xs, ys, band)
    assert refined == [per_line_refine(r, t, xs, ys, band) for r, t in lines]
    for some in (lines, refined):
        trimmed = trim_line_to_mask(some, xs, ys, mask.shape, band, gap_bridge)
        assert trimmed == [
            per_line_trim(r, t, xs, ys, mask.shape, band, gap_bridge) for r, t in some]
        if gap_bridge > sum(mask.shape):  # one run across every gap
            assert trimmed == trim_line_to_mask(some, xs, ys, mask.shape, band,
                                                sum(mask.shape))
    assert lines_from_pixels(xs, ys, mask.shape, cfg) == per_line_lines(xs, ys, mask.shape, cfg)


def test_refit_and_trim_of_repeated_and_tiny_supports():
    # two copies of one pixel: a support of two points with no spread
    xs, ys = np.array([10, 10, 40, 41]), np.array([5, 5, 20, 20])
    lines = [(10.0, 0.0), (5.0, 90.0), (20.0, 90.0), (40.0, 0.0), (0.0, 0.0)]
    for band in (1e-3, 0.5, 2.0):
        refined = refine_line(lines, xs, ys, band)
        assert refined == [per_line_refine(r, t, xs, ys, band) for r, t in lines]
        for gap in (0, 3, 2**63, 10**30):
            assert trim_line_to_mask(refined, xs, ys, (30, 50), band, gap) == [
                per_line_trim(r, t, xs, ys, (30, 50), band, gap) for r, t in refined]
    assert refine_line([], xs, ys, 2.0) == []
    assert trim_line_to_mask([], xs, ys, (30, 50), 2.0, 5) == []


@pytest.mark.parametrize("lines_per_block", [None, 2])
def test_trim_of_a_block_mixing_runs_sub_pixel_runs_and_lines_off_the_image(
        lines_per_block, monkeypatch):
    xs, ys = np.array([0, 12, 20, 30]), np.array([7, 7, 7, 15])
    if lines_per_block:
        monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * len(xs) * lines_per_block)
    # x = 30 holds one pixel; x = -1 misses the image but has (0, 7) in its band
    lines = [(30.0, 0.0), (7.0, 90.0), (-1.0, 0.0), (7.3, 90.0)]
    got = trim_line_to_mask(lines, xs, ys, (30, 50), 2.0, 10)
    assert got == [per_line_trim(r, t, xs, ys, (30, 50), 2.0, 10) for r, t in lines]
    assert [ends is None for ends in got] == [True, False, True, False]


def test_refit_and_trim_blocks_stay_bounded_at_a_large_candidate_cap(monkeypatch):
    # 12k pixels and 2000 candidates: one (candidates, pixels) float64
    # array would take 190 MB
    rng = np.random.default_rng(5)
    shape = (200, 300)
    flat = np.sort(rng.choice(shape[0] * shape[1], size=12_000, replace=False))
    ys, xs = np.unravel_index(flat, shape)
    monkeypatch.setattr(hough, "NMS_RHO", 0.0)
    monkeypatch.setattr(hough, "NMS_THETA", 0.0)
    cfg = SpottingConfig(hough_min_votes=1, max_candidates=2000)
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, 1.0, 1.0, 1)
    peaks = find_peaks(cells, rhos, thetas, 0.0, 0.0, 2000)
    assert len(peaks) == 2000
    tracemalloc.start()
    try:
        segments = lines_from_pixels(xs, ys, shape, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(segments) > 1000
    assert peak < 16 * BLOCK_BYTES < 2000 * len(xs) * 8 / 10


def test_find_peaks_keeps_its_peaks_as_the_cells_grow():
    # 9000 distinct cells, small windows: the picking grows from 512 top
    # cells to 2048 and 8192, each time suppressing the new cells around
    # the peaks already found
    rng = np.random.default_rng(17)
    acc = rng.permutation(np.arange(1, 9001)).reshape(300, 30)
    rhos, thetas = np.arange(300.0), np.arange(0.0, 180.0, 6.0)
    for nms, cap in (((1.0, 6.0), 1100), ((0.0, 0.0), 2100)):
        got = find_peaks(cells_of(acc), rhos, thetas, *nms, cap)
        assert got == looped_peaks(acc, rhos, thetas, 1, *nms, cap)
        assert len(got) == cap


def components(mask, **fields):
    ys, xs = np.nonzero(mask)
    return lines_from_components(xs, ys, mask.shape, SpottingConfig(**fields))


def bar_mask(angle_deg, length=60, halfwidth=1, shape=(120, 120)):
    """A bar (2 * halfwidth + 1) px wide through the image centre; its
    centre line's start (x0, y0)."""
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    x0, y0 = 60 - length / 2 * c, 60 - length / 2 * s
    mask = np.zeros(shape, dtype=bool)
    for k in np.arange(0, length, 0.5):
        for w in np.arange(-halfwidth, halfwidth + 0.5, 0.5):
            mask[int(round(y0 + k * s + w * c)), int(round(x0 + k * c - w * s))] = True
    return mask, x0, y0


@pytest.mark.parametrize("angle", [45, -45, 30])
def test_component_of_a_rotated_bar(angle):
    mask, x0, y0 = bar_mask(angle)
    (seg,) = components(mask)
    assert recovery_ok(seg, angle, x0, y0)
    assert seg.votes == mask.sum()
    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    ends = sorted([(x0, y0), (x0 + 59.5 * c, y0 + 59.5 * s)])
    assert math.dist((seg.x1, seg.y1), ends[0]) <= 2.5
    assert math.dist((seg.x2, seg.y2), ends[1]) <= 2.5


def test_blobs_touching_diagonally_are_one_component():
    mask = np.zeros((40, 60), dtype=bool)
    mask[10:20, 10:30] = mask[20:30, 30:50] = True  # (19, 29) touches (20, 30)
    (seg,) = components(mask)
    assert seg.votes == 400
    apart = mask.copy()
    apart[20:30, 30] = False  # now a pixel apart
    assert sorted(seg.votes for seg in components(apart)) == [190, 200]


@pytest.mark.parametrize("angle", [0, 37, 90, 141])
def test_component_of_a_one_pixel_wide_line(angle):
    x0, y0 = sample_segment_start(np.random.default_rng(angle), angle)
    mask = synthetic_segment_mask(angle, x0, y0)
    (seg,) = components(mask)
    assert recovery_ok(seg, angle, x0, y0)
    assert seg.votes == mask.sum() and seg.length >= 57


def test_components_below_min_votes_give_no_segment():
    mask = np.zeros((40, 60), dtype=bool)
    mask[10, 5:24] = True  # 19 pixels
    mask[30, 5:25] = True  # 20 pixels
    assert [(round(seg.rho), seg.votes) for seg in components(mask)] == [(30, 20)]
    assert [seg.votes for seg in components(mask, hough_min_votes=19)] == [20, 19]
    assert components(mask, hough_min_votes=21) == []


def test_components_come_largest_first_and_then_in_row_major_order():
    mask = np.zeros((60, 100), dtype=bool)
    mask[10, 60:85] = True  # 25 pixels, first in row-major order
    mask[30, 10:50] = True  # 40 pixels
    mask[50, 0:25] = True  # 25 pixels, left of the first
    order = [(30, 40), (10, 25), (50, 25)]
    assert [(round(seg.rho), seg.votes) for seg in components(mask)] == order
    for cap in (1, 2, 3, 4):
        got = components(mask, max_candidates=cap)
        assert [(round(seg.rho), seg.votes) for seg in got] == order[:cap]


def test_no_pixels_give_no_components():
    empty = np.zeros(0, dtype=np.intp)
    assert lines_from_components(empty, empty, (30, 40), CFG) == []
    assert components(np.zeros((30, 40), dtype=bool)) == []


def looped_components(mask, cfg):
    """lines_from_components with a flood fill, one fit per component
    and the per-line trim."""
    height, width = mask.shape
    ys, xs = np.nonzero(mask)
    seen, found = np.zeros_like(mask), []
    for start in zip(ys, xs):
        if seen[start]:
            continue
        seen[start], todo, pixels = True, [start], []
        while todo:
            y, x = todo.pop()
            pixels.append((x, y))
            for v in range(max(y - 1, 0), min(y + 2, height)):
                for u in range(max(x - 1, 0), min(x + 2, width)):
                    if mask[v, u] and not seen[v, u]:
                        seen[v, u] = True
                        todo.append((v, u))
        found.append(np.array(pixels, dtype=np.float64))
    found = sorted(found, key=len, reverse=True)  # stable: first pixel order
    segments = []
    for pixels in [p for p in found if len(p) >= cfg.hough_min_votes][:cfg.max_candidates]:
        d = pixels - pixels.mean(axis=0)
        normal = np.linalg.eigh(d.T @ d)[1][:, 0]
        if normal[1] < 0 or (normal[1] == 0 and normal[0] < 0):
            normal = -normal
        theta = math.degrees(math.atan2(normal[1], normal[0])) % 180.0
        rho = float(pixels.mean(axis=0) @ [math.cos(math.radians(theta)),
                                           math.sin(math.radians(theta))])
        ends = per_line_trim(rho, theta, xs, ys, mask.shape, cfg.band_halfwidth,
                             cfg.gap_bridge)
        if ends is not None:
            segments.append(LineSegment(*ends[0], *ends[1], rho=rho, theta=theta,
                                        votes=len(pixels)).canonical())
    return segments


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("min_votes, cap", [(1, 200), (3, 40), (20, 5)])
def test_components_match_the_looped_reference(seed, min_votes, cap):
    mask = refit_mask(seed)
    cfg = SpottingConfig(hough_min_votes=min_votes, max_candidates=cap)
    got, expected = components(mask, hough_min_votes=min_votes, max_candidates=cap), \
        looped_components(mask, cfg)
    assert [seg.votes for seg in got] == [seg.votes for seg in expected]
    for g, e in zip(got, expected):
        assert (g.x1, g.y1, g.x2, g.y2, g.rho, g.theta) == pytest.approx(
            (e.x1, e.y1, e.x2, e.y2, e.rho, e.theta), abs=1e-6)


def squeezed(mask, monkeypatch, **fields):
    """(segments, the grid lines_from_components hands ndimage.label, the
    0-based label it gets for each mask pixel in row-major order)."""
    calls, label = [], ndimage.label

    def spy(grid, structure=None):
        out = label(grid, structure=structure)
        calls.append((grid, out[0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ndimage, "label", spy)
        segments = components(mask, **fields)
    (grid, labelled), = calls
    # the squeeze keeps row-major order, so the grid's pixels are the mask's
    assert grid.sum() == mask.sum()
    return segments, grid, labelled[np.nonzero(grid)] - 1


def expected_labels(mask):
    ys, xs = np.nonzero(mask)
    return bounding_box_labels(xs, ys)


@pytest.mark.parametrize("second", [(12, 5), (10, 7), (12, 7)])  # row, col
def test_components_one_empty_row_column_or_diagonal_step_apart_stay_apart(
        second, monkeypatch):
    mask = np.zeros((200, 300), dtype=bool)
    mask[10, 5] = mask[second] = True
    mask[150, 280] = True  # far away: the rows and columns between squeeze
    segments, grid, labels = squeezed(mask, monkeypatch, hough_min_votes=1)
    assert labels.tolist() == expected_labels(mask).tolist() == [0, 1, 2]
    assert grid.shape == (3 if second[0] == 10 else 5, 3 if second[1] == 5 else 5)


def test_diagonal_neighbours_across_squeezed_rows_and_columns_stay_one(monkeypatch):
    mask = np.zeros((300, 400), dtype=bool)
    idx = np.arange(20)
    mask[100 + idx, 200 + idx] = True  # a diagonal staircase
    mask[0, 0] = mask[299, 399] = mask[50, 390] = mask[250, 3] = True
    segments, grid, labels = squeezed(mask, monkeypatch, hough_min_votes=2)
    assert labels.tolist() == expected_labels(mask).tolist()
    assert [seg.votes for seg in segments] == [20]
    # rows 0, 50, 100-119, 250 and 299 and columns 0, 3, 200-219, 390 and
    # 399: 24 each, and one empty row or column between each two runs
    assert grid.shape == (28, 28)


def test_pixels_at_the_far_corners_of_a_720p_mask(monkeypatch):
    mask = np.zeros((720, 1280), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[0, 1279] = mask[719, 0] = True
    mask[718, 1278] = mask[719, 1279] = True
    segments, grid, labels = squeezed(mask, monkeypatch, hough_min_votes=2)
    assert labels.tolist() == expected_labels(mask).tolist() == [0, 1, 0, 2, 3, 2]
    # rows 0, 1, 718 and 719 with one empty row between 1 and 718, and so
    # for the columns
    assert grid.shape == (5, 5)
    assert [seg.votes for seg in segments] == [2, 2]


@pytest.mark.parametrize("seed", range(24))
def test_squeezed_labels_and_segments_match_the_bounding_box(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 720)), int(rng.integers(1, 1280)))
    density = rng.choice([0.0003, 0.002, 0.01])
    mask = rng.random(shape) < density
    for _ in range(int(rng.integers(0, 4))):  # a few straight strokes
        y, x = int(rng.integers(shape[0])), int(rng.integers(shape[1]))
        mask[y, x:x + int(rng.integers(1, 60))] = True
    if not mask.any():
        mask[shape[0] // 2, shape[1] // 2] = True
    ys, xs = np.nonzero(mask)
    cfg = SpottingConfig(hough_min_votes=1, max_candidates=200)
    segments, grid, labels = squeezed(mask, monkeypatch, hough_min_votes=1,
                                      max_candidates=200)
    assert np.array_equal(labels, bounding_box_labels(xs, ys))
    assert segments == bounding_box_components(xs, ys, shape, cfg)
    assert grid.shape[0] <= ys.max() - ys.min() + 1
    assert grid.shape[1] <= xs.max() - xs.min() + 1
