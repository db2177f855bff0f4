"""Probability-map simulator standing in for a trained dense predictor.

Builds the exact scene tensor from ground truth and then optionally
corrupts it: per-channel Gaussian blur, uniform confusion of character
mass, and leakage of character mass into the background. All corruptions
are deterministic.

Only pixels within the blur radius r of a word's pixel box can change:
a pure-background pixel with only pure background within r leaves every
corruption exactly as it came (character channels 0, background s / s =
1). So the corruption runs on merged windows, each the word boxes grown
by r, and never on the rest of the image. The result is bit-identical to
corrupting the whole image: the filter's per-pixel sums do not depend on
the array's extent, a window cut by the image keeps the image's
reflecting edge, and at any other window edge the reflection brings in
pure background, which is what lies beyond it, because a word box within
r of a window would have merged into it. Within a window only the
channels holding a nonzero value are blurred: any other is +0.0 there
and across the reflected border, and a Gaussian of zeros is +0.0. Cost
and memory scale with the text area, not the image.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import alphabet
from .annotations import SceneAnnotation
from .encoder import embed_scene, word_box
from .errors import blocks, check_fields, check_memory, check_types

TRUNCATE = 4.0  # kernel radius in sigmas, shared by the filter and the windows


@dataclass(frozen=True)
class NoiseConfig:
    blur_sigma: float = 0.0
    confusion_rate: float = 0.0
    background_leak: float = 0.0

    def __post_init__(self):
        check_types(self)
        check_fields(self, (
            ("blur_sigma", 0.0 <= self.blur_sigma < math.inf, "finite and >= 0"),
            ("confusion_rate", 0.0 <= self.confusion_rate <= 1.0, "in [0, 1]"),
            ("background_leak", 0.0 <= self.background_leak <= 1.0, "in [0, 1]"),
        ))
        # the blur's float64 kernel has 2 * int(TRUNCATE * sigma + 0.5) + 1 taps
        check_memory(8 * (2 * TRUNCATE * self.blur_sigma + 2),
                     f"the blur kernel of blur_sigma {self.blur_sigma}")

    @property
    def is_identity(self) -> bool:
        return self.blur_sigma == 0.0 and self.confusion_rate == 0.0 \
            and self.background_leak == 0.0


def simulate(scene: SceneAnnotation, cfg: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """Simulated (H, W, 38) float32 probability map for a scene.

    With an all-zero config the output is exactly embed_scene(scene).
    Otherwise: blur each channel with cfg.blur_sigma, replace
    cfg.confusion_rate of each pixel's character mass by a uniform
    spread over the 37 character channels, move cfg.background_leak of
    the character mass to the background channel, then renormalize so
    every pixel stays a valid distribution. This runs only on merged
    windows reaching the blur radius past the word boxes, blurring only
    the channels live in each window (see the module docstring), with
    the same result as running it on the whole image.
    """
    out = embed_scene(scene)
    if cfg.is_identity:
        return out
    r = int(TRUNCATE * cfg.blur_sigma + 0.5) if cfg.blur_sigma > 0.0 else 0
    for y0, y1, x0, x1 in _windows(scene, r):
        window = out[y0:y1, x0:x1]
        window[...] = _corrupt(window, cfg)
    return out


def _windows(scene: SceneAnnotation, r: int) -> list[tuple[int, int, int, int]]:
    """Half-open (y0, y1, x0, x1) boxes: each word's pixel box grown by r
    and clipped to the image. Overlapping boxes merge into their bounding
    box until none overlap: exactness needs every word box within r of a
    window inside it, and the total area never exceeds the image's."""
    h, w = scene.image_height, scene.image_width
    merged = []
    for word in scene.words:
        x0, y0, x1, y1 = word_box(word, w, h)
        box = max(y0 - r, 0), min(y1 + 1 + r, h), max(x0 - r, 0), min(x1 + 1 + r, w)
        while hit := next((m for m in merged if _overlap(box, m)), None):
            merged.remove(hit)
            box = tuple(f(a, b) for f, a, b in zip((min, max, min, max), box, hit))
        merged.append(box)
    return merged


def _overlap(a, b) -> bool:
    return a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]


def _corrupt(window: np.ndarray, cfg: NoiseConfig) -> np.ndarray:
    """Blur, confusion, leak and renormalization of a float32 block, on
    a float64 copy of it, which is returned. The blur runs on the
    block's live channels; the other steps run on row bands of about
    errors.BLOCK_BYTES, so each band stays in cache, and in place, so no
    other temporary the size of the block is made. Each step is per
    pixel and keeps its operands, so the bytes do not depend on the
    bands."""
    x = window.astype(np.float64)
    if cfg.blur_sigma > 0.0:
        live = np.flatnonzero(window.any(axis=(0, 1)))
        x[..., live] = gaussian_filter(x[..., live], truncate=TRUNCATE,
                                       sigma=(cfg.blur_sigma, cfg.blur_sigma, 0.0))
    confusion, leak = cfg.confusion_rate, cfg.background_leak
    for band in blocks(x, x.strides[0]):
        # Whole-band ops, with the background channel kept aside, run
        # faster than the same ops on the strided character channels.
        background = band[..., 0].copy()
        if confusion > 0.0:
            uniform = band[..., 1:].sum(axis=-1, keepdims=True)
            uniform /= alphabet.NUM_CHAR_CLASSES
            uniform *= confusion
            band *= 1.0 - confusion
            band += uniform
        if leak > 0.0:
            mass = band[..., 1:].sum(axis=-1)
            band *= 1.0 - leak
            mass *= leak
            background += mass
        band[..., 0] = background
        band /= band.sum(axis=-1, keepdims=True)
    return x
