"""Line voting over binary masks and extraction of supported segments.

Foreground pixels vote in a standard (rho, theta) accumulator with
theta in [0, 180) degrees and rho in [-diag, +diag]. Peaks, picked by
a repeated argmax with greedy non-maximum suppression, are converted to
finite segments by walking each infinite line across the image and
keeping the longest run of positions backed by mask pixels within a
perpendicular band, bridging small gaps.

The accumulator votes in blocks of thetas whose (thetas, pixels) array
of rho bins fits in about HOUGH_BLOCK_BYTES. One bincount counts a block
over only the rho bins between its lowest and highest vote, each theta's
bins offset by its row in the block, and only the cells that reach the
vote threshold are kept: the full (n_rho, n_theta) grid is never
allocated, and its cost follows the mask, not the image. Peak picking
sorts and scans only the top-voted of those cells (see find_peaks).
"""

import math

import numpy as np

from .errors import InvalidConfig, check_memory
from .geometry import LineSegment, line_param_range_in_rect

# Bytes of one block's (thetas, pixels) vote array; at least one theta.
HOUGH_BLOCK_BYTES = 1 << 20


def hough_accumulator(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
                      rho_res: float = 1.0, theta_res: float = 1.0,
                      min_votes: int = 1):
    """Votes of the pixels (xs, ys) of a (height, width) mask; returns
    (cells, rho_values, theta_values_deg), where cells is the int arrays
    (rho_bins, theta_indices, votes) of the cells with at least
    min_votes votes, in (theta, rho) order. Raises
    InvalidConfig for a min_votes below 1 and, before voting, when the
    full grid's int64 cells would take more than physical memory."""
    if not min_votes >= 1:
        raise InvalidConfig(f"min_votes {min_votes} must be >= 1")
    height, width = shape
    diag = math.hypot(width - 1, height - 1)
    # Python floats, so that bin counts beyond any integer are refused too.
    half_bins, n_theta = (float(np.ceil(x)) for x in (diag / rho_res, 180.0 / theta_res))
    check_memory((2 * half_bins + 1) * n_theta * 8, f"the accumulator of hough_rho_res "
                 f"{rho_res} and hough_theta_res {theta_res}")
    half_bins = int(half_bins)
    rhos = (np.arange(2 * half_bins + 1) - half_bins) * rho_res
    thetas = np.arange(0.0, 180.0, theta_res)
    cos_t = np.cos(np.radians(thetas))[:, None]
    sin_t = np.sin(np.radians(thetas))[:, None]
    step = max(1, HOUGH_BLOCK_BYTES // (8 * max(1, len(xs))))
    cells = []
    for t0 in range(0, len(thetas), step):
        t1 = min(t0 + step, len(thetas))
        r = xs * cos_t[t0:t1] + ys * sin_t[t0:t1]
        if rho_res != 1.0:  # x / 1.0 is x
            r /= rho_res
        bins = np.rint(r, out=r).astype(np.intp)
        lo, hi = (int(bins.min()), int(bins.max())) if bins.size else (0, 0)
        n_bins = hi - lo + 1
        bins += np.arange(t1 - t0)[:, None] * n_bins - lo
        counts = np.bincount(bins.ravel(), minlength=(t1 - t0) * n_bins)
        kept = np.flatnonzero(counts >= min_votes)
        block_t, block_r = np.divmod(kept, n_bins)
        cells.append((block_r + (lo + half_bins), block_t + t0, counts[kept]))
    return tuple(map(np.concatenate, zip(*cells))), rhos, thetas


def find_peaks(cells, rhos: np.ndarray, thetas: np.ndarray, nms_rho: float,
               nms_theta: float, max_candidates: int):
    """Greedy NMS peak picking over cells = (rho_bins, theta_indices,
    votes), indices into rhos and thetas with positive votes, as
    hough_accumulator returns them; returns [(rho, theta_deg, votes), ...] ordered by descending
    votes (ties: smaller rho, then theta). A cell becomes a peak unless
    it lies within nms_rho and nms_theta of an earlier peak.

    Whether a cell becomes a peak depends only on the cells before it in
    that order, so the cells with at least some vote count give exactly
    the first peaks. The picking runs over the top-voted cells (about
    512, all tied cells kept) and over four times as many whenever
    suppression uses them up before max_candidates peaks are found.
    """
    cell_r, cell_t, cell_v = cells
    size = 512
    while True:
        cut = np.partition(cell_v, -size)[-size] if size < len(cell_v) else 0
        top = np.flatnonzero(cell_v >= cut)
        # Listed by rho, then theta, argmax returns the first of tied
        # maxima: the next peak in (-votes, rho, theta) order.
        top = top[np.lexsort((cell_t[top], cell_r[top]))]
        rho, theta = rhos[cell_r[top]], thetas[cell_t[top]]
        votes = cell_v[top]
        peaks = []
        while len(peaks) < max_candidates and len(votes):
            k = int(np.argmax(votes))
            if votes[k] < 0:  # every cell is a peak or suppressed
                break
            peaks.append((float(rho[k]), float(theta[k]), int(votes[k])))
            near = (np.abs(rho - rho[k]) <= nms_rho) & (np.abs(theta - theta[k]) <= nms_theta)
            votes[near] = -1
            votes[k] = -1  # a NaN window suppresses nothing
        if len(peaks) >= max_candidates or len(top) == len(cell_v):
            return peaks
        size *= 4


def refine_line(rho: float, theta_deg: float, xs: np.ndarray, ys: np.ndarray,
                band_halfwidth: float) -> tuple[float, float]:
    """Refit (rho, theta) to the pixels within the band of the peak line.

    Accumulator bins quantize rho and theta; a total-least-squares fit
    of the supporting pixels recovers the line at sub-bin accuracy (the
    normal direction is the minor eigenvector of the support's scatter
    matrix). Falls back to the bin values for degenerate supports.
    """
    theta = math.radians(theta_deg)
    c, s = math.cos(theta), math.sin(theta)
    sel = np.abs(xs * c + ys * s - rho) <= band_halfwidth
    if sel.sum() < 2:
        return rho, theta_deg
    px = xs[sel].astype(float)
    py = ys[sel].astype(float)
    mx, my = px.mean(), py.mean()
    dx, dy = px - mx, py - my
    cov = np.array([[dx @ dx, dx @ dy], [dx @ dy, dy @ dy]])
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]  # minor axis
    if abs(eigvals[1]) < 1e-12:
        return rho, theta_deg
    if normal[1] < 0 or (normal[1] == 0 and normal[0] < 0):
        normal = -normal
    theta_new = math.degrees(math.atan2(normal[1], normal[0])) % 180.0
    rad = math.radians(theta_new)
    rho_new = mx * math.cos(rad) + my * math.sin(rad)
    return float(rho_new), float(theta_new)


def trim_line_to_mask(rho: float, theta_deg: float, xs: np.ndarray,
                      ys: np.ndarray, shape: tuple[int, int],
                      band_halfwidth: float, gap_bridge: int):
    """Longest supported run of the line inside a (height, width) image,
    or None.

    Positions along the line (1 px steps) count as supported when some
    mask pixel (xs, ys) lies within band_halfwidth perpendicular
    distance; runs may bridge unsupported stretches of up to gap_bridge
    positions.
    """
    height, width = shape
    theta = math.radians(theta_deg)
    c, s = math.cos(theta), math.sin(theta)
    offsets = xs * c + ys * s - rho
    near = np.abs(offsets) <= band_halfwidth
    if not near.any():
        return None
    trange = line_param_range_in_rect(rho, theta, width, height)
    if trange is None:
        return None
    t = ys[near] * c - xs[near] * s
    t = np.clip(t, trange[0], trange[1])
    positions = np.sort(np.rint(t).astype(np.int64))
    # split into runs: a break is a gap of more than gap_bridge positions
    # (repeated positions differ by 0 and never break a run)
    breaks = np.nonzero(np.diff(positions) > gap_bridge + 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(positions) - 1]))
    extents = positions[ends] - positions[starts]
    best = int(np.argmax(extents))
    t0, t1 = float(positions[starts[best]]), float(positions[ends[best]])
    if t1 - t0 < 1.0:
        return None
    x1 = min(max(rho * c - t0 * s, 0.0), width - 1.0)
    y1 = min(max(rho * s + t0 * c, 0.0), height - 1.0)
    x2 = min(max(rho * c - t1 * s, 0.0), width - 1.0)
    y2 = min(max(rho * s + t1 * c, 0.0), height - 1.0)
    return (x1, y1), (x2, y2)


def lines_from_mask(mask: np.ndarray, cfg) -> list[LineSegment]:
    """Full voting pipeline from a binary mask to candidate segments,
    tuned by the Hough fields of `cfg` (a spotting.SpottingConfig)."""
    ys, xs = np.nonzero(mask)
    return lines_from_pixels(xs, ys, mask.shape, cfg)


def lines_from_pixels(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
                      cfg) -> list[LineSegment]:
    """lines_from_mask for the pixels (xs, ys), in row-major order, of a
    (height, width) mask."""
    if len(xs) == 0:
        return []
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, cfg.hough_rho_res,
                                            cfg.hough_theta_res, cfg.hough_min_votes)
    peaks = find_peaks(cells, rhos, thetas, cfg.nms_rho, cfg.nms_theta,
                       cfg.max_candidates)
    segments = []
    for rho, theta, votes in peaks:
        rho, theta = refine_line(rho, theta, xs, ys, cfg.band_halfwidth)
        trimmed = trim_line_to_mask(rho, theta, xs, ys, shape,
                                    cfg.band_halfwidth, cfg.gap_bridge)
        if trimmed is None:
            continue
        (x1, y1), (x2, y2) = trimmed
        seg = LineSegment(x1, y1, x2, y2, rho=rho, theta=theta,
                          votes=votes).canonical()
        segments.append(seg)
    return segments
