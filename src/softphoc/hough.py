"""Line proposals over binary masks and extraction of supported segments.

Two proposers give the same kind of LineSegment. lines_from_components,
the one spot() uses, fits one line to each 8-connected component of the
mask, largest first, with votes = its pixel count and hough_min_votes
the least component size, labelled on a grid of the mask's rows and
columns with each empty run squeezed to one, whose cost follows the
text's rows and columns, not the mask's bounding box. lines_from_mask
(lines_from_pixels) is the paper's Hough transform, kept as the
reference proposer of spotting.hough_lines at the paper's resolutions
and NMS window (RHO_RES, THETA_RES, NMS_RHO, NMS_THETA): foreground
pixels vote in a standard (rho, theta) accumulator with theta in
[0, 180) degrees and rho in [-diag, +diag], and peaks are picked by a
repeated argmax with greedy non-maximum suppression and refit to the
pixels in their band. Both turn each line into a finite segment by
walking it across the image and keeping the longest run of positions
backed by mask pixels within a perpendicular band, bridging small gaps.

The accumulator votes in blocks of thetas whose (thetas, pixels) array
of rho bins fits in about errors.BLOCK_BYTES, the package's one budget
for arrays built in parts. One bincount counts a block over only the
rho bins that the corners of the mask's bounding box reach, each
theta's bins offset by its row in the block, and only the cells that
reach the vote threshold are kept: the full (n_rho, n_theta) grid is
never allocated, and its memory follows the mask, not the image.
"""

import math

import numpy as np
from scipy import ndimage

from .errors import InvalidConfig, blocks, check_memory
from .geometry import LineSegment, line_param_range_in_rect

# The paper's accumulator resolutions (rho in px, theta in degrees) and
# NMS window, with which lines_from_pixels votes and picks peaks.
RHO_RES, THETA_RES = 1.0, 1.0
NMS_RHO, NMS_THETA = 5.0, 5.0


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
    check_memory((2 * half_bins + 1) * n_theta * 8, f"the accumulator of rho_res "
                 f"{rho_res} and theta_res {theta_res}")
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
    for block in blocks(range(len(thetas)), 8 * len(xs)):
        t0, t1 = block.start, block.stop
        r = xs * cos_t[t0:t1] + ys * sin_t[t0:t1]
        r /= rho_res
        bins = np.rint(r, out=r).astype(np.int64)
        corners = np.rint((corner_x * cos_t[t0:t1] + corner_y * sin_t[t0:t1]) / rho_res)
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
    it lies within nms_rho and nms_theta of an earlier peak."""
    cell_r, cell_t, cell_v = cells
    # Listed by rho, then theta, argmax returns the first of tied
    # maxima: the next peak in (-votes, rho, theta) order.
    order = np.lexsort((cell_t, cell_r))
    rho, theta = rhos[cell_r[order]], thetas[cell_t[order]]
    votes = cell_v[order]
    peaks = []
    while len(peaks) < max_candidates and len(votes):
        k = int(np.argmax(votes))
        if votes[k] < 0:  # every cell is a peak or suppressed
            break
        peaks.append((float(rho[k]), float(theta[k]), int(votes[k])))
        near = (np.abs(rho - rho[k]) <= nms_rho) & (np.abs(theta - theta[k]) <= nms_theta)
        votes[near] = -1
        votes[k] = -1  # a NaN window suppresses nothing
    return peaks


def _band(rho: float, theta_deg: float, xs: np.ndarray, ys: np.ndarray,
          band_halfwidth: float):
    """(c, s, indices of the pixels within band_halfwidth of the line
    (rho, theta_deg)), c and s as math.cos and math.sin give them (np.cos
    can differ by an ulp)."""
    theta = math.radians(theta_deg)
    c, s = math.cos(theta), math.sin(theta)
    return c, s, np.flatnonzero(np.abs(xs * c + ys * s - rho) <= band_halfwidth)


def refine_line(lines, xs: np.ndarray, ys: np.ndarray,
                band_halfwidth: float) -> list[tuple[float, float]]:
    """Refit each (rho, theta_deg) of lines to the pixels within its band.

    Accumulator bins quantize rho and theta; a total-least-squares fit
    of the supporting pixels recovers the line at sub-bin accuracy (the
    normal direction is the minor eigenvector of the support's scatter
    matrix). A line keeps its bin values when its support is degenerate.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    refined = []
    for rho, theta in lines:
        near = _band(rho, theta, xs, ys, band_halfwidth)[2]
        if len(near) >= 2:
            px, py = xs[near], ys[near]
            mx, my = px.mean(), py.mean()
            dx, dy = px - mx, py - my
            eigvals, eigvecs = np.linalg.eigh([[dx @ dx, dx @ dy], [dx @ dy, dy @ dy]])
            if abs(eigvals[1]) >= 1e-12:
                rho, theta = _line_through(mx, my, eigvecs[:, 0])  # the minor axis
        refined.append((rho, theta))
    return refined


def _line_through(mx, my, normal) -> tuple[float, float]:
    """(rho, theta_deg) of the line through (mx, my) with the given
    normal vector, theta_deg in [0, 180)."""
    if normal[1] < 0 or (normal[1] == 0 and normal[0] < 0):
        normal = -normal
    theta = math.degrees(math.atan2(normal[1], normal[0])) % 180.0
    rad = math.radians(theta)
    return float(mx * math.cos(rad) + my * math.sin(rad)), float(theta)


def trim_line_to_mask(lines, xs: np.ndarray, ys: np.ndarray,
                      shape: tuple[int, int], band_halfwidth: float,
                      gap_bridge: int):
    """Longest supported run of each (rho, theta_deg) of lines inside a
    (height, width) image: a list of ((x1, y1), (x2, y2)) or None.

    Positions along a line (1 px steps) count as supported when some
    mask pixel (xs, ys) lies within band_halfwidth perpendicular
    distance; runs may bridge unsupported stretches of up to gap_bridge
    positions, and the first of a line's longest runs is kept.
    """
    height, width = shape
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    trimmed = []
    for rho, theta in lines:
        c, s, near = _band(rho, theta, xs, ys, band_halfwidth)
        span = line_param_range_in_rect(rho, math.radians(theta), width, height)
        if not len(near) or span is None:
            trimmed.append(None)
            continue
        t = np.clip(ys[near] * c - xs[near] * s, *span)
        pos = np.sort(np.rint(t).astype(np.int64))
        # runs break at a gap of more than gap_bridge positions
        breaks = np.flatnonzero(np.diff(pos) > gap_bridge + 1)
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks, [len(pos) - 1]))
        best = int(np.argmax(pos[stops] - pos[starts]))  # the first longest
        t0, t1 = float(pos[starts[best]]), float(pos[stops[best]])
        if t1 - t0 < 1:  # shorter than 1 px: no segment
            trimmed.append(None)
            continue
        x1 = min(max(rho * c - t0 * s, 0.0), width - 1.0)
        y1 = min(max(rho * s + t0 * c, 0.0), height - 1.0)
        x2 = min(max(rho * c - t1 * s, 0.0), width - 1.0)
        y2 = min(max(rho * s + t1 * c, 0.0), height - 1.0)
        trimmed.append(((x1, y1), (x2, y2)))
    return trimmed


def lines_from_mask(mask: np.ndarray, cfg) -> list[LineSegment]:
    """Full voting pipeline from a binary mask to candidate segments,
    with the hough_min_votes, max_candidates, band_halfwidth and
    gap_bridge of `cfg` (a spotting.SpottingConfig)."""
    ys, xs = np.nonzero(mask)
    return lines_from_pixels(xs, ys, mask.shape, cfg)


def lines_from_pixels(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
                      cfg) -> list[LineSegment]:
    """lines_from_mask for the pixels (xs, ys), in row-major order, of a
    (height, width) mask."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    cells, rhos, thetas = hough_accumulator(xs, ys, shape, RHO_RES, THETA_RES,
                                            cfg.hough_min_votes)
    peaks = find_peaks(cells, rhos, thetas, NMS_RHO, NMS_THETA, cfg.max_candidates)
    lines = refine_line([peak[:2] for peak in peaks], xs, ys, cfg.band_halfwidth)
    return _segments(lines, [votes for _, _, votes in peaks], xs, ys, shape, cfg)


def lines_from_components(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
                          cfg) -> list[LineSegment]:
    """Candidate segments from the 8-connected components of the pixels
    (xs, ys), in row-major order, of a (height, width) mask: up to
    max_candidates components of at least hough_min_votes pixels,
    largest first (ties: the first in row-major order), each fit by
    total least squares and trimmed as lines_from_pixels trims its
    lines, with votes the component's pixel count. The grid labelled
    keeps the rows and columns that hold pixels, in order, and squeezes
    each run of absent ones between them to one: 8-adjacency and
    row-major order stay those of the mask, so the labels do too, and
    the grid is never larger than the mask's bounding box."""
    if len(xs) == 0:
        return []
    at = []  # each pixel's row, then column, on the squeezed grid
    for coords in (ys, xs):
        used = np.bincount(coords) > 0
        used[1:] |= used[:-1]  # and the first absent one of each run
        at.append(np.cumsum(used)[coords] - 1)
    grid = np.zeros([k.max() + 1 for k in at], dtype=bool)
    grid[tuple(at)] = True
    # ndimage.label numbers components by their first pixel in row-major order
    label = ndimage.label(grid, structure=np.ones((3, 3)))[0][tuple(at)] - 1
    sizes = np.bincount(label)
    kept = np.argsort(-sizes, kind="stable")
    kept = kept[sizes[kept] >= cfg.hough_min_votes][:cfg.max_candidates]
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    # means first, then the centred second moments, which do not cancel
    mx, my = np.bincount(label, xs) / sizes, np.bincount(label, ys) / sizes
    dx, dy = xs - mx[label], ys - my[label]
    sxx, sxy, syy = (np.bincount(label, w)[kept] for w in (dx * dx, dx * dy, dy * dy))
    normals = np.linalg.eigh(np.stack((sxx, sxy, sxy, syy), axis=-1).reshape(-1, 2, 2))[1]
    lines = [_line_through(mx[k], my[k], normal[:, 0]) for k, normal in zip(kept, normals)]
    return _segments(lines, sizes[kept].tolist(), xs, ys, shape, cfg)


def _segments(lines, votes, xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
              cfg) -> list[LineSegment]:
    """The (rho, theta_deg) lines trimmed to the pixels (xs, ys), each
    with its votes; lines trimmed to nothing are dropped."""
    trimmed = trim_line_to_mask(lines, xs, ys, shape, cfg.band_halfwidth,
                                cfg.gap_bridge)
    return [LineSegment(*min(ends), *max(ends), rho=rho, theta=theta, votes=v)
            for ends, (rho, theta), v in zip(trimmed, lines, votes) if ends is not None]
