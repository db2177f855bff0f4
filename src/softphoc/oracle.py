"""Probability-map simulator standing in for a trained dense predictor.

Builds the exact scene tensor from ground truth and then optionally
corrupts it: per-channel Gaussian blur, uniform confusion of character
mass, and leakage of character mass into the background. All corruptions
are deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import alphabet
from .annotations import SceneAnnotation
from .encoder import embed_scene
from .errors import check_fields


@dataclass(frozen=True)
class NoiseConfig:
    blur_sigma: float = 0.0
    confusion_rate: float = 0.0
    background_leak: float = 0.0

    def __post_init__(self):
        check_fields(self, (
            ("blur_sigma", 0.0 <= self.blur_sigma < math.inf, "finite and >= 0"),
            ("confusion_rate", 0.0 <= self.confusion_rate <= 1.0, "in [0, 1]"),
            ("background_leak", 0.0 <= self.background_leak <= 1.0, "in [0, 1]"),
        ))

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
    every pixel stays a valid distribution.
    """
    clean = embed_scene(scene)
    if cfg.is_identity:
        return clean

    x = clean.astype(np.float64)
    if cfg.blur_sigma > 0.0:
        x = gaussian_filter(x, sigma=(cfg.blur_sigma, cfg.blur_sigma, 0.0))
    if cfg.confusion_rate > 0.0:
        char = x[..., 1:]
        mass = char.sum(axis=-1, keepdims=True)
        uniform = mass / alphabet.NUM_CHAR_CLASSES
        x[..., 1:] = (1.0 - cfg.confusion_rate) * char + cfg.confusion_rate * uniform
    if cfg.background_leak > 0.0:
        char = x[..., 1:]
        mass = char.sum(axis=-1)
        x[..., 1:] = (1.0 - cfg.background_leak) * char
        x[..., 0] += cfg.background_leak * mass
    x /= x.sum(axis=-1, keepdims=True)
    return x.astype(np.float32)
