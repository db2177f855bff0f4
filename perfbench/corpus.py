"""Seeded scene, query and distractor generator of the benchmark.

It is kept apart from the test suite's scene generator on purpose, so
that edits to the tests cannot shift the benchmark's inputs. The
program under test sees only what this module writes: ICDAR-style
annotation text with integer vertices and one query per line.
"""

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one workload's corpus; recorded with every run."""

    width: int
    height: int
    scenes: int
    min_words: int
    max_words: int
    min_len: int = 3
    max_len: int = 10
    max_angle: float = 45.0
    min_char_width: float = 10.0
    max_char_width: float = 10.0
    height_per_char_width: float = 1.6
    separation: float = 8.0
    distractors_per_word: float = 0.25


@dataclass(frozen=True)
class Scene:
    annotations: str  # ICDAR-style text, one word per line
    queries: tuple[str, ...]  # present words and distractors, shuffled
    present: frozenset[str]


def _strata(rng, n):
    """n draws in [0, 1), one from each of n equal strata, in random order.

    Word counts, lengths, scales and angles are stratified so that every
    seed gets nearly the same mix of them: runs on different seeds then
    differ in the details of the scenes, not in how much work they hold.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _lengths(rng, spec, n):
    span = spec.max_len - spec.min_len + 1
    return [spec.min_len + int(u * span) for u in _strata(rng, n)]


def _word(rng, length, taken):
    while True:
        text = "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), size=length))
        if text not in taken:
            return text


def _quad(cx, cy, width, height, angle_deg):
    """Integer clockwise-from-top-left corners of a rotated rectangle."""
    c, s = math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))
    rel = ((-width / 2, -height / 2), (width / 2, -height / 2),
           (width / 2, height / 2), (-width / 2, height / 2))
    return [(int(round(cx + x * c - y * s)), int(round(cy + x * s + y * c)))
            for x, y in rel]


def _footprint(spec, length, char_width, angle):
    """Area of the axis-aligned box around a rotated word."""
    w, h = char_width * length, char_width * spec.height_per_char_width
    c, s = abs(math.cos(math.radians(angle))), abs(math.sin(math.radians(angle)))
    return (w * c + h * s) * (w * s + h * c)


def _place(rng, spec, shapes, tries=2000):
    """Rejection-place (length, char_width, angle) shapes without overlap,
    largest first; None when some shape finds no free spot."""
    placed = []
    boxes = []
    for i in sorted(range(len(shapes)), key=lambda i: -shapes[i][0] * shapes[i][1]):
        length, char_width, angle = shapes[i]
        w, h = char_width * length, char_width * spec.height_per_char_width
        half_span = 0.5 * math.hypot(w, h) + 2.0
        for _ in range(tries):
            cx = float(rng.uniform(half_span, spec.width - half_span))
            cy = float(rng.uniform(half_span, spec.height - half_span))
            quad = _quad(cx, cy, w, h, angle)
            xs, ys = [p[0] for p in quad], [p[1] for p in quad]
            box = (min(xs) - spec.separation, min(ys) - spec.separation,
                   max(xs) + spec.separation, max(ys) + spec.separation)
            if all(box[2] < o[0] or o[2] < box[0] or box[3] < o[1] or o[3] < box[1]
                   for o in boxes):
                placed.append((i, quad))
                boxes.append(box)
                break
        else:
            return None
    return [quad for _, quad in sorted(placed)]


def generate(spec: CorpusSpec, seed: int) -> list[Scene]:
    rng = np.random.default_rng(seed)
    counts = [spec.min_words + int(u * (spec.max_words - spec.min_words + 1))
              for u in _strata(rng, spec.scenes)]
    n_words = sum(counts)
    lengths = _lengths(rng, spec, n_words)
    widths = [spec.min_char_width + u * (spec.max_char_width - spec.min_char_width)
              for u in _strata(rng, n_words)]
    angles = [spec.max_angle * (2.0 * u - 1.0) for u in _strata(rng, n_words)]
    n_distractors = [math.ceil(spec.distractors_per_word * n) for n in counts]
    distractor_lengths = _lengths(rng, spec, sum(n_distractors))

    # Deal the shapes round-robin from the largest footprint down, so
    # that scenes with many words also get many small ones and fit.
    shapes = sorted(zip(lengths, widths, angles), key=lambda t: -_footprint(spec, *t))
    dealt = [[] for _ in counts]
    while shapes:
        for k in rng.permutation(len(counts)):
            if len(dealt[k]) < counts[k] and shapes:
                dealt[k].append(shapes.pop(0))

    scenes = []
    for shapes, n_d in zip(dealt, n_distractors):
        for _ in range(100):
            quads = _place(rng, spec, shapes)
            if quads is not None:
                break
        else:
            raise RuntimeError(f"cannot place {shapes} in {spec}")
        texts = []
        for length, _, _ in shapes:
            texts.append(_word(rng, length, texts))
        distractors = []
        for length in distractor_lengths[:n_d]:
            distractors.append(_word(rng, length, texts + distractors))
        del distractor_lengths[:n_d]
        queries = texts + distractors
        order = rng.permutation(len(queries))
        lines = [",".join(f"{x},{y}" for x, y in quad) + "," + text
                 for text, quad in zip(texts, quads)]
        scenes.append(Scene(annotations="\n".join(lines) + "\n",
                            queries=tuple(queries[i] for i in order),
                            present=frozenset(texts)))
    return scenes


def describe(spec: CorpusSpec, seed: int, scenes: list[Scene]) -> dict:
    """Generator parameters, seed, distractor share and input digest."""
    digest = hashlib.sha256()
    for scene in scenes:
        digest.update(scene.annotations.encode())
        digest.update(("\n".join(scene.queries) + "\n\n").encode())
    n_queries = sum(len(s.queries) for s in scenes)
    n_present = sum(len(s.present) for s in scenes)
    return {
        "generator": asdict(spec),
        "seed": seed,
        "queries": n_queries,
        "present_queries": n_present,
        "distractor_share": (n_queries - n_present) / n_queries,
        "input_sha256": digest.hexdigest(),
    }

