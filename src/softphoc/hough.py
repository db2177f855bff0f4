"""Line voting over binary masks and extraction of supported segments.

Foreground pixels vote in a standard (rho, theta) accumulator with
theta in [0, 180) degrees and rho in [-diag, +diag]. Peaks, picked by
a repeated argmax with greedy non-maximum suppression, are converted to
finite segments by walking each infinite line across the image and
keeping the longest run of positions backed by mask pixels within a
perpendicular band, bridging small gaps.

The accumulator votes in blocks of thetas whose (thetas, pixels) array
of rho bins fits in about HOUGH_BLOCK_BYTES. One bincount counts a block
over only the rho bins that the corners of the mask's bounding box
reach, each theta's bins offset by its row in the block, and only the
cells that reach the vote threshold are kept: the full (n_rho, n_theta)
grid is never allocated, and its cost follows the mask, not the image.
Peak picking sorts and scans only the top-voted of those cells (see
find_peaks). The refit and the trim take all of a query's peaks at
once: each computes the (lines, pixels) offsets of a block of lines,
again of about HOUGH_BLOCK_BYTES, in one broadcast, and gives the same
floats as fitting and trimming one line at a time.
"""

import math

import numpy as np

from .errors import InvalidConfig, check_memory
from .geometry import LineSegment, line_param_range_in_rect

# Bytes of one block's (thetas, pixels) vote array; at least one theta.
HOUGH_BLOCK_BYTES = 1 << 20


def _blocks(items, n: int):
    """items (a sequence) in runs whose (items, n) float64 arrays fit in
    about HOUGH_BLOCK_BYTES, at least one item each."""
    step = max(1, HOUGH_BLOCK_BYTES // (8 * max(1, n)))
    return (items[i:i + step] for i in range(0, len(items), step))


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
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    # fl(x * c) + fl(y * s) is monotone in x and in y, and so are the
    # division and rint, so the bins of the mask's bounding-box corners
    # bound every bin its pixels vote in.
    corner_x = np.array([xs.min(), xs.max()] * 2) if len(xs) else np.zeros(0)
    corner_y = np.repeat([ys.min(), ys.max()], 2) if len(ys) else np.zeros(0)
    cells = []
    for block in _blocks(range(len(thetas)), len(xs)):
        t0, t1 = block.start, block.stop
        r = xs * cos_t[t0:t1] + ys * sin_t[t0:t1]
        corners = corner_x * cos_t[t0:t1] + corner_y * sin_t[t0:t1]
        if rho_res != 1.0:  # x / 1.0 is x
            r /= rho_res
            corners /= rho_res
        bins = np.rint(r, out=r).astype(np.intp)
        corners = np.rint(corners)
        lo, hi = (int(corners.min()), int(corners.max())) if corners.size else (0, 0)
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
    512, all tied cells kept). When suppression uses them up before
    max_candidates peaks are found, it goes on over the cells below them,
    four times as many in all: each of those has fewer votes than every
    cell picked from so far, so it is first suppressed around the peaks
    found, then picked from in the same order.
    """
    cell_r, cell_t, cell_v = cells
    peaks = []
    size, above = 512, None  # above: the lowest vote count picked from so far
    while True:
        cut = np.partition(cell_v, -size)[-size] if size < len(cell_v) else 0
        fresh = cell_v >= cut
        if above is not None:
            fresh &= cell_v < above
        top = np.flatnonzero(fresh)
        # Listed by rho, then theta, argmax returns the first of tied
        # maxima: the next peak in (-votes, rho, theta) order.
        top = top[np.lexsort((cell_t[top], cell_r[top]))]
        rho, theta = rhos[cell_r[top]], thetas[cell_t[top]]
        votes = cell_v[top]
        for block in _blocks(peaks, len(top)):
            peak_rho, peak_theta, _ = np.array(block).T
            near = ((np.abs(rho - peak_rho[:, None]) <= nms_rho)
                    & (np.abs(theta - peak_theta[:, None]) <= nms_theta))
            votes[near.any(axis=0)] = -1
        while len(peaks) < max_candidates and len(votes):
            k = int(np.argmax(votes))
            if votes[k] < 0:  # every cell is a peak or suppressed
                break
            peaks.append((float(rho[k]), float(theta[k]), int(votes[k])))
            near = (np.abs(rho - rho[k]) <= nms_rho) & (np.abs(theta - theta[k]) <= nms_theta)
            votes[near] = -1
            votes[k] = -1  # a NaN window suppresses nothing
        if len(peaks) >= max_candidates or cut <= cell_v.min(initial=cut):
            return peaks
        size, above = size * 4, cut


def _offsets(lines, xs: np.ndarray, ys: np.ndarray):
    """(c, s, |xs * c + ys * s - rho|) of lines [(rho, theta_deg), ...],
    c and s as math.cos and math.sin give them (np.cos can differ by an
    ulp): one row of pixel offsets per line."""
    rho = np.array([r for r, _ in lines], dtype=np.float64)
    theta = [math.radians(t) for _, t in lines]
    c = np.array([math.cos(t) for t in theta])
    s = np.array([math.sin(t) for t in theta])
    off = xs * c[:, None]
    off += ys * s[:, None]
    off -= rho[:, None]
    return c, s, np.abs(off, out=off)


def refine_line(lines, xs: np.ndarray, ys: np.ndarray,
                band_halfwidth: float) -> list[tuple[float, float]]:
    """Refit each (rho, theta_deg) of lines to the pixels within its band.

    Accumulator bins quantize rho and theta; a total-least-squares fit
    of the supporting pixels recovers the line at sub-bin accuracy (the
    normal direction is the minor eigenvector of the support's scatter
    matrix). A line keeps its bin values when its support is degenerate.
    The band test runs over all lines at once, in blocks of lines; each
    line's means and dot products are its own, so that every result is
    the one-line fit's to the bit.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    refined = []
    for block in _blocks(list(lines), len(xs)):
        near = np.flatnonzero(_offsets(block, xs, ys)[2] <= band_halfwidth)
        bounds = np.searchsorted(near, np.arange(len(block) + 1) * len(xs)).tolist()
        pixel = near % len(xs)
        px, py = xs[pixel], ys[pixel]
        fits, covs = [], []
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi - lo < 2:
                continue
            mx, my = px[lo:hi].mean(), py[lo:hi].mean()
            dx, dy = px[lo:hi] - mx, py[lo:hi] - my
            fits.append((k, mx, my))
            covs.append(((dx @ dx, dx @ dy), (dx @ dy, dy @ dy)))
        eigs = np.linalg.eigh(np.array(covs)) if covs else ((), ())
        for (k, mx, my), eigvals, eigvecs in zip(fits, *eigs):
            normal = eigvecs[:, 0]  # minor axis
            if abs(eigvals[1]) < 1e-12:
                continue
            if normal[1] < 0 or (normal[1] == 0 and normal[0] < 0):
                normal = -normal
            theta_new = math.degrees(math.atan2(normal[1], normal[0])) % 180.0
            rad = math.radians(theta_new)
            rho_new = mx * math.cos(rad) + my * math.sin(rad)
            block[k] = (float(rho_new), float(theta_new))
        refined.extend(block)
    return refined


def trim_line_to_mask(lines, xs: np.ndarray, ys: np.ndarray,
                      shape: tuple[int, int], band_halfwidth: float,
                      gap_bridge: int):
    """Longest supported run of each (rho, theta_deg) of lines inside a
    (height, width) image: a list of ((x1, y1), (x2, y2)) or None.

    Positions along a line (1 px steps) count as supported when some
    mask pixel (xs, ys) lies within band_halfwidth perpendicular
    distance; runs may bridge unsupported stretches of up to gap_bridge
    positions, and the first of a line's longest runs is kept. The
    positions of all lines' supporting pixels are sorted together, in
    blocks of lines, on the key (line, position).
    """
    height, width = shape
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    trimmed = []
    for block in _blocks(list(lines), len(xs)):
        c, s, off = _offsets(block, xs, ys)
        near = off <= band_halfwidth
        ranges = [line_param_range_in_rect(rho, math.radians(theta), width, height)
                  for rho, theta in block]
        near[[r is None for r in ranges]] = False
        line_of, pixel = np.divmod(np.flatnonzero(near), len(xs))
        runs = [None] * len(block)
        if len(line_of):
            lo, hi = np.array([r or (0.0, 0.0) for r in ranges]).T
            t = ys[pixel] * c[line_of] - xs[pixel] * s[line_of]
            t = np.clip(t, lo[line_of], hi[line_of])
            pos = np.rint(t).astype(np.int64)
            first = int(pos.min())
            span = int(pos.max()) - first + 1
            key = np.sort(line_of * span + (pos - first))
            line_of, pos = np.divmod(key, span)
            # runs break where the line changes or at a gap of more than
            # gap_bridge positions (repeated positions never break one)
            breaks = np.flatnonzero((np.diff(line_of) != 0)
                                    | (np.diff(pos) > gap_bridge + 1))
            starts = np.concatenate(([0], breaks + 1))
            stops = np.concatenate((breaks, [len(pos) - 1]))
            run_line = line_of[starts]
            # per line, the first of its longest runs
            order = np.lexsort((pos[starts] - pos[stops], run_line))
            best = order[np.diff(run_line[order], prepend=-1) != 0]
            for k, t0, t1 in zip(run_line[best].tolist(),
                                 (pos[starts[best]] + first).tolist(),
                                 (pos[stops[best]] + first).tolist()):
                runs[k] = (float(t0), float(t1))
        for (rho, _), ck, sk, run in zip(block, c.tolist(), s.tolist(), runs):
            if run is None or run[1] - run[0] < 1.0:
                trimmed.append(None)
                continue
            t0, t1 = run
            x1 = min(max(rho * ck - t0 * sk, 0.0), width - 1.0)
            y1 = min(max(rho * sk + t0 * ck, 0.0), height - 1.0)
            x2 = min(max(rho * ck - t1 * sk, 0.0), width - 1.0)
            y2 = min(max(rho * sk + t1 * ck, 0.0), height - 1.0)
            trimmed.append(((x1, y1), (x2, y2)))
    return trimmed


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
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, cfg.hough_rho_res,
                                            cfg.hough_theta_res, cfg.hough_min_votes)
    peaks = find_peaks(cells, rhos, thetas, cfg.nms_rho, cfg.nms_theta,
                       cfg.max_candidates)
    lines = refine_line([peak[:2] for peak in peaks], xs, ys, cfg.band_halfwidth)
    trimmed = trim_line_to_mask(lines, xs, ys, shape, cfg.band_halfwidth,
                                cfg.gap_bridge)
    return [LineSegment(*ends[0], *ends[1], rho=rho, theta=theta, votes=votes).canonical()
            for ends, (rho, theta), (_, _, votes) in zip(trimmed, lines, peaks)
            if ends is not None]
