"""Acceptance suite: every release-gating criterion with its tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of failures) before asserting, so a full run yields a
criterion-by-criterion report.
"""

import math
import time

import numpy as np
import pytest

from softphoc.alphabet import classify_char
from softphoc.bbox import line_to_bbox
from softphoc.dtw import dtw_distance
from softphoc.encoder import embed_scene, encode_word
from softphoc.evaluation import combine_reports, evaluate_lines, line_box_overlap
from softphoc.fileio import read_tensor, write_tensor
from softphoc.geometry import LineSegment
from softphoc.masks import MaskTriple, build_masks, evaluate_loss
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import SpottingConfig, hough_lines, spot

from oracles import oracle_cosine_cost, oracle_dtw, oracle_encode_word
from scenegen import anagram_scene, random_scene
from test_hough import (angular_distance, expected_line_params,
                        sample_segment_start, synthetic_segment_mask)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


_SPOT_CACHE = {}


def spotting_scenes():
    rng = np.random.default_rng(20240501)
    return [random_scene(rng, image_size=(320, 240)) for _ in range(50)]


def run_spotting_sweep(confusion_rate):
    """(per-query overlaps, per-scene EvalReports at T=0.7) for the fixed
    50-scene benchmark at one confusion level."""
    if confusion_rate in _SPOT_CACHE:
        return _SPOT_CACHE[confusion_rate]
    overlaps, reports = [], []
    for scene in spotting_scenes():
        prob = simulate(scene, NoiseConfig(confusion_rate=confusion_rate))
        queries = [w.transcription for w in scene.words]
        detections = []
        for word in scene.words:
            det = spot(prob, word.transcription)
            if det is None:
                overlaps.append(0.0)
                continue
            detections.append(det)
            overlaps.append(line_box_overlap(det.segment, word.quad))
        reports.append(evaluate_lines(detections, scene, threshold=0.7,
                                      queries=queries))
    _SPOT_CACHE[confusion_rate] = (np.array(overlaps), reports)
    return _SPOT_CACHE[confusion_rate]


def test_criterion_01_encoder_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    chars = list("abcdefghijklmnopqrstuvwxyz0123456789.,!?")
    start = time.time()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        word = "".join(rng.choice(chars, size=n))
        width = int(rng.integers(8, 65))
        got = encode_word(word, width, 1)[0]
        expected = oracle_encode_word(word, width)
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.time() - start
    report(1, "encoder == bin-overlap oracle on 500 random words",
           worst <= 1e-9 and elapsed < 10.0,
           f"(max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_normalization_invariants():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 9))
        word = "".join(rng.choice(list("abcxyz019"), size=n))
        t = encode_word(word, int(rng.integers(max(8, n), 40)), 3)
        worst = max(worst, float(np.abs(t.sum(axis=2) - 1.0).max()))
    scene = random_scene(rng, image_size=(200, 150))
    worst = max(worst, float(np.abs(embed_scene(scene).sum(axis=2) - 1.0).max()))
    for _ in range(20):
        cfg = NoiseConfig(blur_sigma=float(rng.uniform(0, 3)),
                          confusion_rate=float(rng.uniform(0, 1)),
                          background_leak=float(rng.uniform(0, 1)))
        # NoiseConfig had a seed field that no corruption used; its draw is
        # kept so the following configurations stay those of earlier runs
        rng.integers(0, 2**31)
        out = simulate(scene, cfg)
        worst = max(worst, float(np.abs(out.sum(axis=2) - 1.0).max()))
    report(2, "per-pixel sums stay 1 +/- 1e-6 across the noise sweep",
           worst <= 1e-6, f"(max deviation {worst:.2e})")


def test_criterion_03_hough_recovery_sweep():
    rng = np.random.default_rng(303)
    cfg = SpottingConfig()
    failures = 0
    trials = 0
    for angle in range(180):
        for _ in range(5):
            x0, y0 = sample_segment_start(rng, angle)
            mask = synthetic_segment_mask(angle, x0, y0)
            segments = hough_lines(mask, cfg)
            trials += 1
            if not segments:
                failures += 1
                continue
            top = segments[0]
            rho_t, theta_t = expected_line_params(angle, x0, y0)
            rho_got = top.rho if abs(top.theta - theta_t) <= 90 else -top.rho
            if angular_distance(top.theta, theta_t) > 1.0 \
                    or abs(rho_got - rho_t) > 1.0:
                failures += 1
    rate = 1.0 - failures / trials
    report(3, "top Hough candidate within 1 px / 1 deg across orientations",
           rate >= 0.99, f"({rate:.4f} over {trials} trials)")


def test_criterion_04_dtw_matches_path_enumeration():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.random((n, 8))
        b = rng.random((m, 8))
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        got = dtw_distance(a, b)
        expected = oracle_dtw(oracle_cosine_cost(a, b))
        worst = max(worst, abs(got - expected))
    report(4, "DTW equals exhaustive path enumeration on 200 pairs",
           worst <= 1e-12, f"(max err {worst:.2e})")


def test_criterion_05_noise_free_end_to_end_spotting():
    start = time.time()
    overlaps, reports = run_spotting_sweep(0.0)
    elapsed = time.time() - start
    merged = combine_reports(reports)
    hit_rate = float(np.mean(overlaps >= 0.7))
    ok = (hit_rate >= 0.95 and merged.precision >= 0.95
          and merged.recall >= 0.95 and merged.accuracy >= 0.95
          and elapsed < 120.0)
    report(5, "noise-free spotting on 50 scenes",
           ok,
           f"(overlap>=0.7 for {hit_rate:.3f} of {len(overlaps)} queries; "
           f"P={merged.precision:.3f} R={merged.recall:.3f} "
           f"Acc={merged.accuracy:.3f} at T=0.7; {elapsed:.0f}s)")


def test_criterion_06_graceful_degradation_under_confusion():
    rates = [0.0, 0.2, 0.4, 0.6]
    means = [float(run_spotting_sweep(r)[0].mean()) for r in rates]
    # Ties allowed: corruption jitters trimmed segment endpoints by a
    # pixel, moving the mean by ~1e-4; a single query changing outcome
    # moves it by ~5e-3. Differences below 1e-3 are ties, not reversals.
    tie = 1e-3
    non_increasing = all(means[i + 1] <= means[i] + tie
                         for i in range(len(means) - 1))
    report(6, "mean line-overlap non-increasing in confusion_rate",
           non_increasing,
           "(" + ", ".join(f"{r}:{m:.6f}" for r, m in zip(rates, means)) + ")")


def test_criterion_07_anagram_discrimination():
    rng = np.random.default_rng(707)
    wins = 0
    scenes = 20
    for _ in range(scenes):
        scene = anagram_scene(rng)
        prob = simulate(scene)
        det = spot(prob, "listen")
        if det is None:
            continue
        ov_listen = line_box_overlap(det.segment, scene.words[0].quad)
        ov_silent = line_box_overlap(det.segment, scene.words[1].quad)
        if ov_listen > ov_silent:
            wins += 1
    report(7, 'spot("listen") lands on the right anagram',
           wins >= 0.9 * scenes, f"({wins}/{scenes} scenes)")


def test_criterion_08_loss_evaluator_reference_values():
    # hand-computed 1x2 case: every term is ln 2, total = 3.6 ln 2
    pred = np.zeros((1, 2, 38))
    pred[0, 0, 0] = 0.5
    pred[0, 0, 7] = 0.5
    pred[0, 1, classify_char("a")] = 0.5
    pred[0, 1, 0] = 0.5
    gt = np.zeros((1, 2, 38))
    gt[0, 0, 0] = 1.0
    gt[0, 1, classify_char("a")] = 1.0
    masks = MaskTriple(mask1=np.array([[True, False]]),
                       mask2=np.array([[False, True]]),
                       mask3=np.array([[False, True]]))
    two_pixel = evaluate_loss(pred, gt, masks)
    err_hand = abs(two_pixel.total - 3.6 * math.log(2.0))

    uniform = np.full((1, 1, 38), 1.0 / 38.0)
    one_hot = np.zeros((1, 1, 38))
    one_hot[0, 0, classify_char("z")] = 1.0
    all3 = MaskTriple(np.zeros((1, 1), bool), np.zeros((1, 1), bool),
                      np.ones((1, 1), bool))
    err_uniform = abs(evaluate_loss(uniform, one_hot, all3).l3 - math.log(38.0))

    rng = np.random.default_rng(808)
    worst_self = 0.0
    for _ in range(20):
        scene = random_scene(rng, image_size=(160, 120))
        tensor = embed_scene(scene)
        rep = evaluate_loss(tensor, tensor, build_masks(scene))
        worst_self = max(worst_self, abs(rep.total))
    ok = err_hand <= 1e-6 and err_uniform <= 1e-6 and worst_self <= 1e-6
    report(8, "loss evaluator reference values and self-loss",
           ok, f"(hand {err_hand:.1e}, uniform {err_uniform:.1e}, "
               f"self {worst_self:.1e})")


def test_criterion_09_bbox_rule_exactness():
    rng = np.random.default_rng(909)
    big = (10**6, 10**6)
    checked = 0
    for case in range(1000):
        x1, y1 = rng.uniform(400000, 600000, size=2)
        if case % 10 == 0:
            angle = 45.0 if case % 20 == 0 else -45.0  # exact boundary
        else:
            angle = float(rng.uniform(-89.9, 90.0))
        length = float(rng.uniform(2, 500))
        n = int(rng.integers(1, 16))
        seg = LineSegment.from_endpoints(
            x1, y1,
            x1 + length * math.cos(math.radians(angle)),
            y1 + length * math.sin(math.radians(angle)))
        box = line_to_bbox(seg, n, big)
        horizontal = abs(seg.angle_from_horizontal()) <= 45.0
        span = box.width if horizontal else box.height
        assert span == pytest.approx(length, rel=1e-9)
        assert box.width / box.height == pytest.approx(n, rel=1e-9)
        mx, my = seg.midpoint
        assert box.cx == pytest.approx(mx, abs=1e-6)
        assert box.cy == pytest.approx(my, abs=1e-6)
        checked += 1
    report(9, "bbox geometry exact on randomized sweep", checked == 1000,
           f"({checked} cases incl. the +/-45 deg boundary)")


def test_criterion_10_tensor_serialization_bit_exact(tmp_path):
    rng = np.random.default_rng(1010)
    ok = True
    for i in range(10):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        tensor = rng.random((h, w, 38)).astype(np.float32)
        flat = tensor.reshape(-1)
        k = min(6, flat.size)
        flat[:k] = [np.float32(1e-40), np.float32(-1e-42),
                    np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny,
                    np.float32(0.0), np.float32(-0.0)][:k]
        path = tmp_path / f"t{i}.sphoc"
        write_tensor(path, tensor)
        ok = ok and read_tensor(path).tobytes() == tensor.tobytes()
    report(10, "tensor round-trip bit-exact incl. denormals", ok)
