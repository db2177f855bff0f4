import math

import numpy as np
import pytest

from softphoc.errors import InvalidConfig
from softphoc.hough import HOUGH_BLOCK_BYTES, find_peaks, hough_accumulator
from softphoc.spotting import SpottingConfig, hough_lines

CFG = SpottingConfig()


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
        assert find_peaks(acc, rhos, thetas, 20, 0.0, 0.0, cap) == peaks[:cap]


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
    HOUGH_BLOCK_BYTES // 8 + 1])  # more pixels than a one-theta block holds
@pytest.mark.parametrize("rho_res, theta_res", [(1.0, 1.0), (0.5, 0.7)])
def test_theta_blocks_match_per_theta_votes(n_pixels, rho_res, theta_res):
    shape = (400, 700)
    rng = np.random.default_rng(n_pixels)
    flat = rng.choice(shape[0] * shape[1], size=n_pixels, replace=False)
    ys, xs = np.unravel_index(np.sort(flat), shape)
    acc, rhos, thetas = hough_accumulator(xs, ys, shape, rho_res, theta_res)
    expected = per_theta_accumulator(xs, ys, shape, rho_res, theta_res)
    assert acc.dtype == np.int64 and acc.flags.c_contiguous
    assert np.array_equal(acc, expected)
    assert acc.sum() == n_pixels * len(thetas)
    assert len(rhos) == acc.shape[0] and np.array_equal(
        thetas, np.arange(0.0, 180.0, theta_res))


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
        got = find_peaks(acc, rhos, thetas, min_votes, *nms, max_candidates)
        assert got == expected
        assert all(type(v) is t for peak in got
                   for v, t in zip(peak, (float, float, int)))
    assert find_peaks(acc, rhos, thetas, above_all, *nms, max_candidates) == []
    assert np.array_equal(acc, before)


def test_find_peaks_on_a_voted_mask_matches_the_loop():
    rng = np.random.default_rng(7)
    mask = np.zeros((90, 160), dtype=bool)
    mask[rng.random(mask.shape) < 0.05] = True
    mask[30, 10:150] = mask[60, 20:140] = True
    ys, xs = np.nonzero(mask)
    acc, rhos, thetas = hough_accumulator(xs, ys, mask.shape)
    before = acc.copy()
    for max_candidates in (1, 20, acc.size + 1):
        args = (acc, rhos, thetas, 5, 5.0, 5.0, max_candidates)
        assert find_peaks(*args) == looped_peaks(*args)
    assert np.array_equal(acc, before)


@pytest.mark.parametrize("rho_res, theta_res", [(1e-300, 1.0), (1.0, 1e-300),
                                                (5e-324, 5e-324)])
def test_accumulator_beyond_physical_memory_is_refused(rho_res, theta_res):
    # only resolutions no machine can hold, refused before allocating
    xs, ys = np.array([1, 2]), np.array([3, 4])
    with pytest.raises(InvalidConfig, match="physical memory"):
        hough_accumulator(xs, ys, (50, 100), rho_res, theta_res)
