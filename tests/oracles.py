"""Independent brute-force oracles used to verify the library.

These deliberately avoid the library's own formulas: the encoder oracle
tests interval overlap per (level, bin, character) instead of snapping
bounds, the DTW oracle enumerates every monotone alignment path, and
the clipping oracle densely samples points against an even-odd
point-in-polygon test.

The per-line Hough refit and trim and the DTW batch below are the
library's earlier one-at-a-time forms, kept as exact references: the
batched library code must give the same floats, to the bit. So are the
word encoding one region at a time, the exact reference of the
array-wise encoding, and the component labels of the mask's whole
bounding box, that of the labelling on a squeezed grid. So are the
whole-map tile maxima and the three-pass map check, those of the banded
walk that takes the maxima and the channel sums together. The
scene-embedding and simulation references keep the library's warp but
sample every crop channel and corrupt every channel of the whole image,
where the library samples only the channels of each word's own
characters and blurs only the live channels of windows around the words.
"""

import math

import numpy as np
from scipy import ndimage

from softphoc import alphabet, encoder, hough, spotting
from softphoc.alphabet import NUM_CHAR_CLASSES, NUM_CLASSES, classify_char
from softphoc.errors import InvalidProbabilityMap
from softphoc.geometry import line_param_range_in_rect


def oracle_encode_word(word: str, width: int) -> np.ndarray:
    """Accumulate per (level, bin, character) by fractional-interval
    overlap, then L1-normalize. Returns (width, 38)."""
    n = len(word)
    acc = np.zeros((width, NUM_CLASSES), dtype=np.float64)
    for level in range(1, n + 1):
        for k in range(level):
            bin_lo, bin_hi = k / level, (k + 1) / level
            px_lo = math.floor(k * width / level + 0.5)
            px_hi = math.floor((k + 1) * width / level + 0.5)
            for p in range(1, n + 1):
                char_lo, char_hi = (p - 1) / n, p / n
                if char_lo < bin_hi and char_hi > bin_lo:  # interior overlap
                    cls = classify_char(word[p - 1])
                    for x in range(px_lo, px_hi):
                        acc[x, cls] += 1.0
    return acc / acc.sum(axis=1, keepdims=True)


def looped_encode_word(transcription: str, width: int, height: int) -> np.ndarray:
    """encode_word adding one char_region_bounds region at a time."""
    classes = alphabet.transcription_to_classes(transcription)
    n = len(classes)
    row = np.zeros((width, NUM_CLASSES), dtype=np.float64)
    for level in range(1, n + 1):
        for position in range(1, n + 1):
            region = encoder.char_region_bounds(position, n, level, width)
            row[region.lower:region.upper, classes[position - 1]] += 1.0
    row /= row.sum(axis=1, keepdims=True)
    return np.broadcast_to(row, (height, width, NUM_CLASSES)).copy()


def bounding_box_labels(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """0-based 8-connected component label of each pixel (xs, ys), by
    ndimage.label on a grid the size of the pixels' bounding box."""
    cols, rows = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
    x0, y0 = cols.min(), rows.min()
    grid = np.zeros((rows.max() - y0 + 1, cols.max() - x0 + 1), dtype=bool)
    grid[rows - y0, cols - x0] = True
    return ndimage.label(grid, structure=np.ones((3, 3)))[0][rows - y0, cols - x0] - 1


def bounding_box_components(xs: np.ndarray, ys: np.ndarray, shape: tuple[int, int],
                            cfg) -> list:
    """hough.lines_from_components with bounding_box_labels."""
    if len(xs) == 0:
        return []
    label = bounding_box_labels(xs, ys)
    sizes = np.bincount(label)
    kept = np.argsort(-sizes, kind="stable")
    kept = kept[sizes[kept] >= cfg.hough_min_votes][:cfg.max_candidates]
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    mx, my = np.bincount(label, xs) / sizes, np.bincount(label, ys) / sizes
    dx, dy = xs - mx[label], ys - my[label]
    sxx, sxy, syy = (np.bincount(label, w)[kept] for w in (dx * dx, dx * dy, dy * dy))
    normals = np.linalg.eigh(np.stack((sxx, sxy, sxy, syy), axis=-1).reshape(-1, 2, 2))[1]
    lines = [hough._line_through(mx[k], my[k], normal[:, 0])
             for k, normal in zip(kept, normals)]
    return hough._segments(lines, sizes[kept].tolist(), xs, ys, shape, cfg)


def oracle_dtw(cost: np.ndarray) -> float:
    """Minimum accumulated cost over all monotone paths, by exhaustive
    recursion. Exponential; keep sequences short."""
    n, m = cost.shape

    def walk(i, j):
        here = cost[i, j]
        if i == 0 and j == 0:
            return here
        best = math.inf
        if i > 0:
            best = min(best, walk(i - 1, j))
        if j > 0:
            best = min(best, walk(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, walk(i - 1, j - 1))
        return here + best

    return walk(n - 1, m - 1) / (n + m)


def oracle_cosine_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = len(a), len(b)
    cost = np.ones((n, m))
    for i in range(n):
        for j in range(m):
            na, nb = np.linalg.norm(a[i]), np.linalg.norm(b[j])
            if na >= 1e-12 and nb >= 1e-12:
                cost[i, j] = max(0.0, 1.0 - float(np.dot(a[i], b[j])) / (na * nb))
    return cost


def point_in_polygon(x: float, y: float, poly: np.ndarray) -> bool:
    """Even-odd rule with boundary-inclusive handling."""
    poly = np.asarray(poly, dtype=float)
    n = len(poly)
    inside = False
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        # on-segment check
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) < 1e-9 * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
            if min(x1, x2) - 1e-9 <= x <= max(x1, x2) + 1e-9 \
                    and min(y1, y2) - 1e-9 <= y <= max(y1, y2) + 1e-9:
                return True
        if (y1 > y) != (y2 > y):
            if x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                inside = not inside
    return inside


def oracle_clipped_length(p1, p2, quad, samples: int = 20001) -> float:
    """Length of segment p1-p2 inside a polygon by dense point sampling."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    seg_len = float(np.linalg.norm(p2 - p1))
    ts = np.linspace(0.0, 1.0, samples)
    hits = sum(point_in_polygon(*(p1 + t * (p2 - p1)), quad) for t in ts)
    return seg_len * hits / samples


def per_line_refine(rho: float, theta_deg: float, xs: np.ndarray, ys: np.ndarray,
                    band_halfwidth: float) -> tuple[float, float]:
    """Total-least-squares refit of one (rho, theta) line to the pixels
    within its band; the bin values for degenerate supports."""
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


def per_line_trim(rho: float, theta_deg: float, xs: np.ndarray, ys: np.ndarray,
                  shape: tuple[int, int], band_halfwidth: float, gap_bridge: int):
    """Longest supported run of one line inside a (height, width) image,
    as ((x1, y1), (x2, y2)), or None."""
    height, width = shape
    theta = math.radians(theta_deg)
    c, s = math.cos(theta), math.sin(theta)
    near = np.abs(xs * c + ys * s - rho) <= band_halfwidth
    if not near.any():
        return None
    trange = line_param_range_in_rect(rho, theta, width, height)
    if trange is None:
        return None
    t = np.clip(ys[near] * c - xs[near] * s, trange[0], trange[1])
    positions = np.sort(np.rint(t).astype(np.int64))
    breaks = np.nonzero(np.diff(positions) > gap_bridge + 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(positions) - 1]))
    best = int(np.argmax(positions[ends] - positions[starts]))
    t0, t1 = float(positions[starts[best]]), float(positions[ends[best]])
    if t1 - t0 < 1.0:
        return None
    x1 = min(max(rho * c - t0 * s, 0.0), width - 1.0)
    y1 = min(max(rho * s + t0 * c, 0.0), height - 1.0)
    x2 = min(max(rho * c - t1 * s, 0.0), width - 1.0)
    y2 = min(max(rho * s + t1 * c, 0.0), height - 1.0)
    return (x1, y1), (x2, y2)


def padded_dtw_distances(samples, reference) -> np.ndarray:
    """Normalized DTW distance of each sequence in samples to reference:
    one cosine cost matrix per sequence, padded at the bottom into a
    (rows, K, M) stack, one cumsum and one concatenate per row."""
    reference = np.asarray(reference, dtype=np.float64)
    samples = [np.asarray(s, dtype=np.float64) for s in samples]
    nb = np.linalg.norm(reference, axis=1)
    lengths = np.array([len(seq) for seq in samples])
    k, m = len(samples), len(reference)
    cost = np.zeros((lengths.max(), k, m))
    for j, seq in enumerate(samples):
        na = np.linalg.norm(seq, axis=1)
        denom = np.outer(np.maximum(na, 1e-12), np.maximum(nb, 1e-12))
        c = 1.0 - (seq @ reference.T) / denom
        c[na < 1e-12, :] = 1.0
        c[:, nb < 1e-12] = 1.0
        cost[:len(seq), j] = np.maximum(c, 0.0)
    last = np.empty(k)
    inf_column = np.full((k, 1), np.inf)
    acc = np.cumsum(cost[0], axis=1)
    for i, c in enumerate(cost):
        if i:
            u = c + np.minimum(acc, np.concatenate((inf_column, acc[:, :-1]), axis=1))
            s = np.cumsum(c, axis=1)
            acc = s + np.minimum.accumulate(u - s, axis=1)
        ends = lengths == i + 1
        last[ends] = acc[ends, -1]
    return last / (lengths + m)


def tile_max(a: np.ndarray) -> np.ndarray:
    """Maxima of an (H, W, ...) array over TILE x TILE tiles, smaller at
    the bottom and right edges: shape (ceil(H/TILE), ceil(W/TILE), ...)."""
    tile = spotting.TILE
    for axis in (0, 1):
        full = a.shape[axis] - a.shape[axis] % tile
        before = (slice(None),) * axis
        top = a[before + (slice(full),)].reshape(
            a.shape[:axis] + (full // tile, tile) + a.shape[axis + 1:]).max(axis=axis + 1)
        if full < a.shape[axis]:
            rest = a[before + (slice(full, None),)].max(axis=axis, keepdims=True)
            top = np.concatenate((top, rest), axis=axis)
        a = top
    return a


def tile_maxima(prob: np.ndarray) -> np.ndarray:
    """The float64 tile maxima of a native float32 or float64 map, from
    tile_max over the whole map's unsigned bits, capped at those of +inf."""
    bits = prob.view(f"u{prob.itemsize}")
    inf = np.array(np.inf, dtype=prob.dtype).view(bits.dtype)
    return np.minimum(tile_max(bits), inf).view(prob.dtype).astype(np.float64)


def three_pass_check(prob: np.ndarray) -> None:
    """check_probability_map as a minimum, a maximum and a channel sum,
    each over the whole map."""
    if prob.size == 0:
        return
    low, high = prob.min(), prob.max()
    if not (0.0 <= low and high <= 1.0):  # also false for NaN
        raise InvalidProbabilityMap(
            f"map values must be finite and in [0, 1], found [{low}, {high}]")
    deviation = np.abs(prob.sum(axis=-1) - 1.0).max()
    if deviation > spotting.MAP_SUM_TOLERANCE:
        raise InvalidProbabilityMap(
            f"per-pixel channel sums must be within {spotting.MAP_SUM_TOLERANCE} of 1, "
            f"found {deviation:.3g} away")


def embed_scene_all_channels(scene) -> np.ndarray:
    """embed_scene with every word's crop sampled on all 38 channels."""
    out = np.zeros((scene.image_height, scene.image_width, NUM_CLASSES),
                   dtype=np.float32)
    out[..., 0] = 1.0
    claimed = np.zeros(out.shape[:2], dtype=bool)
    for word in scene.words:
        crop = encoder.encode_word(word.transcription, *encoder.word_crop_size(word))
        x0, y0, covered, samples = encoder._warp_word(
            word, scene.image_width, scene.image_height, crop=crop)
        block = out[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]]
        block[covered] = samples.astype(np.float32)
        claimed[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]] |= covered
    ys, xs = np.nonzero(claimed)
    px = out[ys, xs]
    char_sum = px[:, 1:].sum(axis=-1)
    safe = char_sum > 0
    px[safe, 1:] /= char_sum[safe, None]
    px[:, 0] = ~safe
    out[ys, xs] = px
    return out


def simulate_all_channels(scene, cfg) -> np.ndarray:
    """simulate written out over the whole image and all 38 channels of
    embed_scene_all_channels."""
    x = embed_scene_all_channels(scene).astype(np.float64)
    if cfg.blur_sigma > 0.0:
        x = ndimage.gaussian_filter(x, sigma=(cfg.blur_sigma, cfg.blur_sigma, 0.0))
    if cfg.confusion_rate > 0.0:
        char = x[..., 1:]
        mass = char.sum(axis=-1, keepdims=True)
        uniform = mass / NUM_CHAR_CLASSES
        x[..., 1:] = (1.0 - cfg.confusion_rate) * char + cfg.confusion_rate * uniform
    if cfg.background_leak > 0.0:
        char = x[..., 1:]
        mass = char.sum(axis=-1)
        x[..., 1:] = (1.0 - cfg.background_leak) * char
        x[..., 0] += cfg.background_leak * mass
    x /= x.sum(axis=-1, keepdims=True)
    return x.astype(np.float32)
