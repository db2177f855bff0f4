"""Pixel-level pyramidal character-histogram encoding.

A word of n characters is encoded over a W-pixel-wide crop by stacking
histograms from n pyramid levels. At level L the crop splits into L bins;
the character at 1-based position p occupies the fractional span
[(p-1)/n, p/n] of the word, snapped outward to the bin boundaries:

    lower = floor(L*(p-1)/n) * (W/L)
    upper = ceil(L*p/n)  * (W/L)

Each level adds one unit of that character's channel to every pixel
column in [lower, upper); the accumulated tensor is finally
L1-normalized per pixel over the 37 character channels, giving every
pixel a character probability distribution. Scene tensors are assembled
by projecting each word's crop tensor through the homography onto its
quadrilateral; only the crop channels of the word's own characters are
sampled, since every other channel of the crop is 0.
"""

from dataclasses import dataclass

import numpy as np

from . import alphabet
from .annotations import SceneAnnotation, WordAnnotation
from .errors import CropTooNarrow, DegenerateQuad, InvalidIndex, blocks, check_memory
from .geometry import quad_mean_side_lengths, round_half_up
from .warp import apply_homography, bilinear_sample, homography

EDGE_EPS = 1e-9  # tolerance for the half-open coverage test at quad borders


@dataclass(frozen=True)
class CharRegion:
    """Pixel-column region of influence of one character at one level."""

    position: int  # 1-based character index p
    level: int
    lower: int  # first pixel column (inclusive)
    upper: int  # last pixel column (exclusive)


def char_region_bounds(position: int, n_chars: int, level: int, width: int) -> CharRegion:
    """Snapped region of character `position` at pyramid `level`.

    Bounds are computed in real arithmetic and rounded half-up to pixel
    columns at the end; the region is never empty while width >= n_chars.
    encode_word takes every region's bounds at once, by the same steps.
    """
    if not (1 <= position <= n_chars):
        raise InvalidIndex(f"position {position} outside 1..{n_chars}")
    if not (1 <= level <= n_chars):
        raise InvalidIndex(f"level {level} outside 1..{n_chars}")
    if width < n_chars:
        raise InvalidIndex(f"width {width} cannot hold {n_chars} characters")
    bin_width = width / level
    lower = np.floor(level * (position - 1) / n_chars) * bin_width
    upper = np.ceil(level * position / n_chars) * bin_width
    return CharRegion(position, level, round_half_up(lower), round_half_up(upper))


def encode_word(transcription: str, width: int, height: int) -> np.ndarray:
    """Soft character-histogram tensor for a rectified word crop.

    Returns a (height, width, 38) float64 array where every pixel's 37
    character channels sum to 1 and the background channel is 0. The
    output varies only along columns. The regions of char_region_bounds
    are added as steps, in blocks of levels of about errors.BLOCK_BYTES;
    InvalidConfig refuses the row and its copy, the only width-sized
    arrays, 8 * 38 * width * (height + 1) bytes, beyond physical memory.
    """
    classes = alphabet.transcription_to_classes(transcription)
    n = len(classes)
    if width < n:
        raise CropTooNarrow(f"width {width} < {n} characters")
    if height < 1:
        raise InvalidIndex("height must be at least 1")
    check_memory(8.0 * alphabet.NUM_CLASSES * width * (height + 1),
                 f"a {width}x{height} word encoding")

    row = np.zeros((width + 1, alphabet.NUM_CLASSES), dtype=np.float64)
    before, chars = np.arange(n), np.asarray(classes)  # p - 1, class of p
    for levels in blocks(np.arange(1, n + 1)[:, None], 8 * 3 * n):
        for snap, p, step in ((np.floor, before, 1.0), (np.ceil, before + 1, -1.0)):
            bound = snap(levels * p / n) * (width / levels)
            np.add.at(row, (np.floor(bound + 0.5).astype(np.intp), chars), step)
    row = np.cumsum(row, axis=0, out=row)[:width]  # exact integer counts
    row /= row.sum(axis=1, keepdims=True)
    return np.broadcast_to(row, (height, width, alphabet.NUM_CLASSES)).copy()


def word_crop_size(word: WordAnnotation) -> tuple[int, int]:
    """Crop (width, height) for a word: rounded mean side lengths, with
    width clamped so every character gets at least one column."""
    mean_w, mean_h = quad_mean_side_lengths(word.quad)
    width = max(round_half_up(mean_w), 1, len(word.transcription))
    height = max(round_half_up(mean_h), 1)
    return width, height


def word_box(word: WordAnnotation, image_width: int, image_height: int):
    """(x0, y0, x1, y1): the quad's pixel bounding box, inclusive and
    clipped to the image. Only these pixels can receive the word's mass."""
    x0 = int(np.clip(np.floor(word.quad[:, 0].min()), 0, image_width - 1))
    x1 = int(np.clip(np.ceil(word.quad[:, 0].max()), 0, image_width - 1))
    y0 = int(np.clip(np.floor(word.quad[:, 1].min()), 0, image_height - 1))
    y1 = int(np.clip(np.ceil(word.quad[:, 1].max()), 0, image_height - 1))
    return x0, y0, x1, y1


def _warp_word(word, image_width, image_height, crop=None):
    """Inverse-map a word quad onto the scene grid.

    Returns (x0, y0, covered, samples): the offset of the quad's clipped
    pixel bounding box, a boolean coverage grid over it, and the crop
    bilinearly sampled at the covered pixels only, in row-major order
    (None when crop is None). A scene pixel is covered when its preimage
    falls in [0, W) x [0, H) of the crop rectangle. Raises DegenerateQuad
    naming the word, and its line when known, when three of its vertices
    are (nearly) collinear, as those of a quad clamped to the image
    border can be: no homography maps it onto the crop.
    """
    crop_w, crop_h = word_crop_size(word)
    rect = np.array([[0.0, 0.0], [crop_w, 0.0], [crop_w, crop_h], [0.0, crop_h]])
    try:
        h_inv = homography(word.quad, rect)
    except DegenerateQuad:
        where = "" if word.line_number is None else f"line {word.line_number}: "
        raise DegenerateQuad(f"{where}quad of {word.transcription!r} has three (nearly) "
                             "collinear vertices: no homography maps it onto its "
                             "crop") from None

    x0, y0, x1, y1 = word_box(word, image_width, image_height)
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]

    u, v, valid = apply_homography(h_inv, xs.astype(float), ys.astype(float))
    covered = valid & (u >= -EDGE_EPS) & (u < crop_w - EDGE_EPS) \
        & (v >= -EDGE_EPS) & (v < crop_h - EDGE_EPS)
    samples = None
    if crop is not None:
        samples = bilinear_sample(crop, u[covered], v[covered])
    return x0, y0, covered, samples


def scene_coverage_mask(scene: SceneAnnotation) -> np.ndarray:
    """Boolean (H, W) mask of pixels that receive character mass."""
    mask = np.zeros((scene.image_height, scene.image_width), dtype=bool)
    for word in scene.words:
        x0, y0, covered, _ = _warp_word(word, scene.image_width, scene.image_height)
        mask[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]] |= covered
    return mask


def embed_scene(scene: SceneAnnotation) -> np.ndarray:
    """Scene-level tensor: every word's crop tensor warped into place.

    Returns (image_height, image_width, 38) float32. Pixels covered by
    no word are background one-hot; each word writes every pixel it
    covers, so where words overlap, later words in the list overwrite
    earlier ones. Each word's pixels are renormalized over the character
    channels as they are written, so every pixel is a probability
    distribution over the 38 channels. Each word samples only its own
    characters' crop channels, the others of its crop being 0.
    """
    out = np.zeros((scene.image_height, scene.image_width, alphabet.NUM_CLASSES),
                   dtype=np.float32)
    out[..., 0] = 1.0
    for word in scene.words:
        crop_w, crop_h = word_crop_size(word)
        live = sorted(set(alphabet.transcription_to_classes(word.transcription)))
        crop = encode_word(word.transcription, crop_w, crop_h)[..., live]
        x0, y0, covered, live_samples = _warp_word(
            word, scene.image_width, scene.image_height, crop=crop)
        # Bilinear edges can leak mass: renormalize over the character
        # channels. Every crop pixel's live channels sum to 1, so a
        # covered pixel's float32 character sum is about 1.
        px = np.zeros((len(live_samples), alphabet.NUM_CLASSES), dtype=np.float32)
        px[:, live] = live_samples
        px[:, 1:] /= px[:, 1:].sum(axis=-1, keepdims=True)
        out[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]][covered] = px
    return out
