"""Word and scene ground-truth annotations."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQuad, EmptyTranscription
from .geometry import quad_area, quad_is_convex_clockwise


@dataclass
class WordAnnotation:
    """A quadrilateral word region with its transcription.

    The quad holds 4 (x, y) vertices ordered clockwise from the word's
    top-left corner (reading order), as in ICDAR-style ground truth.
    Every coordinate must be finite and below 2**510 in magnitude, which
    keeps the quad's area, turn, side-length and box products in range.
    line_number is the word's line in the file it was parsed from, for
    error messages; it is None for a word built in code, and equality
    ignores it.
    """

    quad: np.ndarray
    transcription: str
    line_number: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.quad = np.asarray(self.quad, dtype=float).reshape(4, 2)
        if not self.transcription:
            raise EmptyTranscription("word annotation needs a transcription")
        if not np.all(np.abs(self.quad) < 2.0 ** 510):  # also false for NaN
            raise DegenerateQuad(f"quad of {self.transcription!r} has a coordinate"
                                 " out of range")
        if quad_area(self.quad) <= 0.0:
            raise DegenerateQuad(f"quad of {self.transcription!r} has zero area")
        if not quad_is_convex_clockwise(self.quad):
            raise DegenerateQuad(f"quad of {self.transcription!r} is counter-clockwise,"
                                 " non-convex or self-intersecting")


@dataclass
class SceneAnnotation:
    image_width: int
    image_height: int
    words: list[WordAnnotation] = field(default_factory=list)


def clamp_quad(quad: np.ndarray, image_width: int, image_height: int) -> np.ndarray:
    """Clamp out-of-image vertices to [0, W] x [0, H]."""
    q = np.asarray(quad, dtype=float).reshape(4, 2).copy()
    q[:, 0] = np.clip(q[:, 0], 0.0, float(image_width))
    q[:, 1] = np.clip(q[:, 1], 0.0, float(image_height))
    return q
