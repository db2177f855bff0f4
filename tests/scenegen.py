"""Synthetic scene construction for desk-scale end-to-end tests."""

import math
import string

import numpy as np

from softphoc.annotations import SceneAnnotation, WordAnnotation

LETTERS = list(string.ascii_lowercase)
LETTERS_DIGITS = LETTERS + list(string.digits)
# Repeated letters, upper case, digits and class 37 (punctuation and
# non-Latin letters), so words share some channels and not others.
MIXED_CHARSET = list("aAbzZ0079!?-é")


def rotated_rect_quad(cx, cy, width, height, angle_deg) -> np.ndarray:
    """Clockwise-from-top-left quad of a rotated rectangle."""
    c = math.cos(math.radians(angle_deg))
    s = math.sin(math.radians(angle_deg))
    rel = [(-width / 2, -height / 2), (width / 2, -height / 2),
           (width / 2, height / 2), (-width / 2, height / 2)]
    return np.array([[cx + x * c - y * s, cy + x * s + y * c] for x, y in rel])


def random_word(rng, min_len=3, max_len=10, charset=LETTERS) -> str:
    n = int(rng.integers(min_len, max_len + 1))
    return "".join(rng.choice(charset, size=n))


def _aabb(quad, margin=0.0):
    return (quad[:, 0].min() - margin, quad[:, 1].min() - margin,
            quad[:, 0].max() + margin, quad[:, 1].max() + margin)


def _disjoint(a, b):
    return a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1]


def random_scene(rng, image_size=(320, 240), n_words=None, min_len=3,
                 max_len=10, max_angle=45.0, char_width=10.0,
                 word_height=16.0, separation=8.0,
                 charset=LETTERS) -> SceneAnnotation:
    """Scene of non-overlapping rotated words, rejection-placed."""
    width, height = image_size
    if n_words is None:
        n_words = int(rng.integers(1, 7))
    words, placed = [], []
    transcriptions = set()
    attempts = 0
    while len(words) < n_words and attempts < 400:
        attempts += 1
        text = random_word(rng, min_len, max_len, charset)
        if text in transcriptions:
            continue
        w = char_width * len(text)
        angle = float(rng.uniform(-max_angle, max_angle))
        half_span = 0.5 * math.hypot(w, word_height) + 2.0
        if 2 * half_span >= min(width, height):
            continue
        cx = float(rng.uniform(half_span, width - half_span))
        cy = float(rng.uniform(half_span, height - half_span))
        quad = rotated_rect_quad(cx, cy, w, word_height, angle)
        box = _aabb(quad, margin=separation)
        if all(_disjoint(box, other) for other in placed):
            words.append(WordAnnotation(quad, text))
            placed.append(box)
            transcriptions.add(text)
    assert words, "failed to place any word"
    return SceneAnnotation(image_width=width, image_height=height, words=words)


def baseline_scene(rng, gap, image_size=(640, 480), n_words=3, char_width=10.0,
                   word_height=16.0, max_angle=20.0) -> SceneAnnotation:
    """n_words distinct random words on one straight baseline through the
    image centre, gap px apart, at a random angle."""
    texts = []
    while len(texts) < n_words:
        text = random_word(rng)
        if text not in texts:
            texts.append(text)
    widths = [char_width * len(text) for text in texts]
    angle = float(rng.uniform(-max_angle, max_angle))
    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    along = -(sum(widths) + gap * (n_words - 1)) / 2  # the line's start
    words = []
    for text, w in zip(texts, widths):
        centre = along + w / 2
        words.append(WordAnnotation(rotated_rect_quad(
            image_size[0] / 2 + centre * c, image_size[1] / 2 + centre * s,
            w, word_height, angle), text))
        along += w + gap
    return SceneAnnotation(image_width=image_size[0], image_height=image_size[1],
                           words=words)


def anagram_scene(rng, first="listen", second="silent",
                  image_size=(280, 200)) -> SceneAnnotation:
    """A scene containing both words of an anagram pair."""
    width, height = image_size
    w = 11.0 * len(first)
    for _ in range(100):
        a1 = float(rng.uniform(-12, 12))
        a2 = float(rng.uniform(-12, 12))
        c1 = (float(rng.uniform(50, width - 50)), float(rng.uniform(25, height // 2 - 15)))
        c2 = (float(rng.uniform(50, width - 50)), float(rng.uniform(height // 2 + 15, height - 25)))
        q1 = rotated_rect_quad(*c1, w, 15.0, a1)
        q2 = rotated_rect_quad(*c2, w, 15.0, a2)
        if _disjoint(_aabb(q1, 8.0), _aabb(q2, 8.0)) \
                and min(q1[:, 1].min(), q2[:, 1].min()) > 1 \
                and max(q1[:, 1].max(), q2[:, 1].max()) < height - 1:
            return SceneAnnotation(image_width=width, image_height=height,
                                   words=[WordAnnotation(q1, first),
                                          WordAnnotation(q2, second)])
    raise AssertionError("could not place the anagram pair")
