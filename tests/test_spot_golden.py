"""spot() outputs pinned on seeded scenes.

tests/data/spot_golden_components.tsv holds, for every query of every
case, whether spot() found a line, the line's endpoints and its DTW
distance. tests/data/spot_golden.tsv holds the same for spot() with the
paper's Hough proposer (hough.lines_from_pixels) in place of
hough.lines_from_components. They are written by

    PYTHONPATH=src python tests/test_spot_golden.py [components] [hough]

Rewrite a file only in a change that means to move its outputs, and say
so in that change.
"""

import contextlib
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from softphoc import hough
from softphoc.evaluation import line_box_overlap
from softphoc.fileio import read_tensor, write_tensor
from softphoc.geometry import LineSegment
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import spot

from scenegen import random_scene, random_word

DATA = Path(__file__).parent / "data"
GOLDENS = {"components": DATA / "spot_golden_components.tsv",
           "hough": DATA / "spot_golden.tsv"}

# (rng seed, image size, word count, noise)
CASES = (
    (61, (320, 240), 6, NoiseConfig()),
    (62, (320, 240), 6, NoiseConfig(confusion_rate=0.2)),
    (63, (640, 480), 10, NoiseConfig(blur_sigma=1.5, confusion_rate=0.2,
                                     background_leak=0.1)),
)
N_DISTRACTORS = 2


def proposing(proposals):
    """A context in which spot() proposes its lines with the proposer
    that `proposals` names, a key of GOLDENS."""
    if proposals == "hough":
        return mock.patch.object(hough, "lines_from_components", hough.lines_from_pixels)
    return contextlib.nullcontext()


def spot_rows(proposals, load=lambda prob: prob):
    """(case, query, found, x1, y1, x2, y2, dtw) for every query, in order,
    spotting on load(map) with the named proposer for each simulated map."""
    rows = []
    with proposing(proposals):
        for case, (seed, size, n_words, noise) in enumerate(CASES):
            rng = np.random.default_rng(seed)
            scene = random_scene(rng, image_size=size, n_words=n_words)
            prob = load(simulate(scene, noise))
            queries = [w.transcription for w in scene.words]
            queries += [random_word(rng) for _ in range(N_DISTRACTORS)]
            for query in queries:
                det = spot(prob, query)
                if det is None:
                    rows.append((case, query, False) + (float("nan"),) * 5)
                else:
                    seg = det.segment
                    rows.append((case, query, True, seg.x1, seg.y1, seg.x2, seg.y2,
                                 det.dtw_distance))
    return rows


def read_golden(proposals):
    rows = []
    for line in GOLDENS[proposals].read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        case, query, status, *numbers = line.split("\t")
        rows.append((int(case), query, status == "found",
                     *(float(v) for v in numbers)))
    return rows


def write_goldens(names):
    DATA.mkdir(exist_ok=True)
    for proposals in names:
        path = GOLDENS[proposals]
        lines = ["# case\tquery\tstatus\tx1\ty1\tx2\ty2\tdtw"]
        for case, query, found, *numbers in spot_rows(proposals):
            lines.append("\t".join([str(case), query,
                                    "found" if found else "not-found",
                                    *(repr(v) for v in numbers)]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_rows(got, proposals):
    expected = read_golden(proposals)
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for g, e in zip(got, expected):
        if e[2]:
            assert g[3:7] == pytest.approx(e[3:7], abs=1e-6), g[:2]
            assert g[7] == pytest.approx(e[7], abs=1e-9), g[:2]


@pytest.mark.parametrize("proposals", sorted(GOLDENS))
def test_spot_matches_golden_outputs(proposals):
    check_rows(spot_rows(proposals), proposals)


@pytest.mark.parametrize("proposals", sorted(GOLDENS))
def test_spot_matches_golden_outputs_on_maps_read_from_files(tmp_path, proposals):
    # write_tensor -> read_tensor gives the C-order map the CLI spots on
    def through_file(prob):
        path = tmp_path / "map.sphoc"
        write_tensor(path, prob)
        return read_tensor(path)

    check_rows(spot_rows(proposals, through_file), proposals)


def word_hits(rows):
    """(case, query) of the rows whose line covers the query's word with
    an overlap of at least 0.7."""
    quads = [{w.transcription: w.quad for w in random_scene(
        np.random.default_rng(seed), image_size=size, n_words=n_words).words}
        for seed, size, n_words, _ in CASES]
    return {(case, query) for case, query, found, *ends, _ in rows
            if found and query in quads[case]
            and line_box_overlap(LineSegment.from_endpoints(*ends), quads[case][query]) >= 0.7}


def test_components_hit_every_word_the_hough_golden_hits():
    hough_hits = word_hits(read_golden("hough"))
    assert len(hough_hits) == 22  # every present word
    assert hough_hits <= word_hits(read_golden("components"))


if __name__ == "__main__":
    write_goldens(sys.argv[1:] or sorted(GOLDENS))
