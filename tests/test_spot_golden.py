"""spot() outputs pinned on seeded scenes.

tests/data/spot_golden.tsv holds, for every query of every case, whether
spot() found a line, the line's endpoints and its DTW distance. It is
written by

    PYTHONPATH=src python tests/test_spot_golden.py

Rewrite it only in a change that means to move these outputs, and say so
in that change.
"""

from pathlib import Path

import numpy as np
import pytest

from softphoc.fileio import read_tensor, write_tensor
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import spot

from scenegen import random_scene, random_word

GOLDEN = Path(__file__).parent / "data" / "spot_golden.tsv"

# (rng seed, image size, word count, noise)
CASES = (
    (61, (320, 240), 6, NoiseConfig()),
    (62, (320, 240), 6, NoiseConfig(confusion_rate=0.2)),
    (63, (640, 480), 10, NoiseConfig(blur_sigma=1.5, confusion_rate=0.2,
                                     background_leak=0.1)),
)
N_DISTRACTORS = 2


def spot_rows(load=lambda prob: prob):
    """(case, query, found, x1, y1, x2, y2, dtw) for every query, in order,
    spotting on load(map) for each simulated map."""
    rows = []
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


def read_golden():
    rows = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        case, query, status, *numbers = line.split("\t")
        rows.append((int(case), query, status == "found",
                     *(float(v) for v in numbers)))
    return rows


def write_golden():
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ["# case\tquery\tstatus\tx1\ty1\tx2\ty2\tdtw"]
    for case, query, found, *numbers in spot_rows():
        lines.append("\t".join([str(case), query,
                                "found" if found else "not-found",
                                *(repr(v) for v in numbers)]))
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_rows(got):
    expected = read_golden()
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for g, e in zip(got, expected):
        if e[2]:
            assert g[3:7] == pytest.approx(e[3:7], abs=1e-6), g[:2]
            assert g[7] == pytest.approx(e[7], abs=1e-9), g[:2]


def test_spot_matches_golden_outputs():
    check_rows(spot_rows())


def test_spot_matches_golden_outputs_on_maps_read_from_files(tmp_path):
    # write_tensor -> read_tensor gives the C-order map the CLI spots on
    def through_file(prob):
        path = tmp_path / "map.sphoc"
        write_tensor(path, prob)
        return read_tensor(path)

    check_rows(spot_rows(through_file))


if __name__ == "__main__":
    write_golden()
