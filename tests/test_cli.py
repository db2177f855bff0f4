import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softphoc
from softphoc import cli
from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.cli import main
from softphoc.encoder import embed_scene
from softphoc.fileio import load_annotations, read_tensor, write_tensor
from softphoc.oracle import NoiseConfig, simulate
from softphoc.spotting import SpottingConfig

GT_SINGLE = "20,30,90,30,90,46,20,46,CARPARK\n"
GT_DIRECTORY = "30,40,138,40,138,58,30,58,DIRECTORY\n"
GT_HELLO = "20,30,90,30,90,46,20,46,hello\n"


def quad_scene(transcription="CARPARK"):
    quad = np.array([[20, 30], [90, 30], [90, 46], [20, 46]], dtype=float)
    return SceneAnnotation(160, 100, [WordAnnotation(quad, transcription)])


def run(args):
    return main([str(a) for a in args])


class TestEncode:
    def test_round_trip_matches_in_process(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_SINGLE)
        out = tmp_path / "scene.sphoc"
        assert run(["encode", gt, out, "--width", 160, "--height", 100]) == 0
        assert read_tensor(out).tobytes() == embed_scene(quad_scene()).tobytes()

    def test_empty_annotation_gives_background(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        out = tmp_path / "scene.sphoc"
        assert run(["encode", gt, out, "--width", 32, "--height", 16]) == 0
        tensor = read_tensor(out)
        assert np.all(tensor[..., 0] == 1.0)

    def test_malformed_line_exits_2_with_line_number(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("20,30,90,30,90,46,20,46,ok\n1,2,3,bad\n")
        out = tmp_path / "scene.sphoc"
        assert run(["encode", gt, out, "--width", 160, "--height", 100]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_coordinate_beyond_float_range_exits_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"{GT_SINGLE}{'9' * 401},30,90,30,90,46,20,46,big\n")
        out = tmp_path / "scene.sphoc"
        assert run(["encode", gt, out, "--width", 160, "--height", 100]) == 2
        err = capsys.readouterr().err
        assert "line 2: coordinate out of range" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exits_3(self, tmp_path):
        assert run(["encode", tmp_path / "nope.txt", tmp_path / "o.sphoc",
                    "--width", 10, "--height", 10]) == 3

    @pytest.mark.parametrize("coords", ["10,10,10,30,90,30,90,10",
                                        "10,10,90,10,50,15,10,30"])
    def test_counter_clockwise_or_concave_quad_exits_2(self, tmp_path, capsys, coords):
        gt = tmp_path / "gt.txt"
        gt.write_text(f"{GT_SINGLE}{coords},word\n")
        out = tmp_path / "scene.sphoc"
        assert run(["encode", gt, out, "--width", 160, "--height", 100]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "non-convex" in err
        assert not out.exists()


class TestSimulate:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_SINGLE)
        a, b = tmp_path / "a.sphoc", tmp_path / "b.sphoc"
        flags = ["--width", 160, "--height", 100, "--blur-sigma", 1.0,
                 "--confusion-rate", 0.2]
        assert run(["simulate", gt, a, *flags]) == 0
        assert run(["simulate", gt, b, *flags]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_equals_encode(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_SINGLE)
        enc, sim = tmp_path / "e.sphoc", tmp_path / "s.sphoc"
        assert run(["encode", gt, enc, "--width", 160, "--height", 100]) == 0
        assert run(["simulate", gt, sim, "--width", 160, "--height", 100]) == 0
        assert enc.read_bytes() == sim.read_bytes()

    def test_writes_the_bytes_of_library_simulate(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_SINGLE + "100,60,150,60,150,76,100,76,EXIT\n")
        out, ref = tmp_path / "cli.sphoc", tmp_path / "lib.sphoc"
        assert run(["simulate", gt, out, "--width", 160, "--height", 100,
                    "--blur-sigma", 1.5, "--confusion-rate", 0.2,
                    "--background-leak", 0.1]) == 0
        scene = load_annotations(gt, 160, 100)
        write_tensor(ref, simulate(scene, NoiseConfig(1.5, 0.2, 0.1)))
        assert out.read_bytes() == ref.read_bytes()

    def test_confused_output_still_normalized(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_SINGLE)
        out = tmp_path / "n.sphoc"
        assert run(["simulate", gt, out, "--width", 160, "--height", 100,
                    "--confusion-rate", 0.3]) == 0
        sums = read_tensor(out).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestSpot:
    def make_tensor(self, tmp_path, gt_text=GT_DIRECTORY, size=(200, 120)):
        gt = tmp_path / "gt.txt"
        gt.write_text(gt_text)
        tensor = tmp_path / "scene.sphoc"
        assert run(["encode", gt, tensor,
                    "--width", size[0], "--height", size[1]]) == 0
        return tensor

    def test_found_query_record(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\n")
        out = tmp_path / "det.tsv"
        assert run(["spot", tensor, queries, out]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        fields = row.split("\t")
        assert fields[0] == "DIRECTORY" and fields[1] == "found"
        assert np.isfinite(float(fields[8]))

    def test_absent_query_not_found_exit_zero(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("zzzz\n")
        out = tmp_path / "det.tsv"
        assert run(["spot", tensor, queries, out]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert row.split("\t")[1] == "not-found"

    def test_two_runs_byte_identical(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\nzzzz\ndirectory\n")
        out1, out2 = tmp_path / "d1.tsv", tmp_path / "d2.tsv"
        assert run(["spot", tensor, queries, out1]) == 0
        assert run(["spot", tensor, queries, out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_flag_preserves_order_and_content(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\nzzzz\n")
        seq, par = tmp_path / "s.tsv", tmp_path / "p.tsv"
        assert run(["spot", tensor, queries, seq]) == 0
        assert run(["spot", tensor, queries, par, "--jobs", 4]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_one_and_two_jobs_write_identical_bytes(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_DIRECTORY + "20,80,130,70,133,88,23,98,carpark\n"
                      "150,20,180,20,180,110,150,110,exit\n")
        tensor = tmp_path / "scene.sphoc"
        assert run(["simulate", gt, tensor, "--width", 200, "--height", 120,
                    "--blur-sigma", 1.5, "--confusion-rate", 0.2]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\ncarpark\nexit\nzzzz\nparking\ndirect\n")
        one, two = tmp_path / "1.tsv", tmp_path / "2.tsv"
        assert run(["spot", tensor, queries, one, "--jobs", 1]) == 0
        assert run(["spot", tensor, queries, two, "--jobs", 2]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert "\tfound\t" in one.read_text()

    def test_jobs_never_exceed_the_cpu_count(self, tmp_path, monkeypatch):
        # --jobs used to go to the pool unchanged: one thread per query
        # up to N, and a failed start ended in a traceback
        asked = []

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(min(max_workers, 3), **kwargs)

        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\nzzzz\ndirectory\n")
        one, many = tmp_path / "1.tsv", tmp_path / "many.tsv"
        assert run(["spot", tensor, queries, one, "--jobs", 1]) == 0
        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        assert run(["spot", tensor, queries, many, "--jobs", 1000000]) == 0
        assert asked == [min(1000000, os.cpu_count() or 1)]
        assert many.read_bytes() == one.read_bytes()

    def test_config_flags_are_plumbed_through(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\n")
        out = tmp_path / "det.tsv"
        assert run(["spot", tensor, queries, out, "--max-candidates", 5,
                    "--band-halfwidth", 3.0, "--heatmap-threshold", 0.25]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert row.split("\t")[1] == "found"

    def test_empty_query_list_exits_4(self, tmp_path):
        tensor = self.make_tensor(tmp_path)
        queries = tmp_path / "q.txt"
        queries.write_text("\n\n")
        assert run(["spot", tensor, queries, tmp_path / "d.tsv"]) == 4

    def test_malformed_tensor_exits_2(self, tmp_path):
        bad = tmp_path / "bad.sphoc"
        bad.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        queries = tmp_path / "q.txt"
        queries.write_text("abc\n")
        assert run(["spot", bad, queries, tmp_path / "d.tsv"]) == 2


class TestEval:
    def prepare(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_DIRECTORY)
        tensor = tmp_path / "scene.sphoc"
        assert run(["encode", gt, tensor, "--width", 200, "--height", 120]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text("DIRECTORY\n")
        det = tmp_path / "det.tsv"
        assert run(["spot", tensor, queries, det]) == 0
        return gt, det

    def test_line_mode_self_evaluation(self, tmp_path, capsys):
        gt, det = self.prepare(tmp_path)
        assert run(["eval", det, gt, "--mode", "line", "--threshold", 0.5]) == 0
        out = capsys.readouterr().out
        assert "precision: 1.000000" in out
        assert "recall: 1.000000" in out
        assert "accuracy: 1.000000" in out
        report = json.loads((tmp_path / "det.tsv.report.json").read_text())
        assert report["true_positives"] == 1

    def test_bbox_mode(self, tmp_path, capsys):
        gt, det = self.prepare(tmp_path)
        assert run(["eval", det, gt, "--mode", "bbox", "--threshold", 0.4]) == 0
        assert "hmean:" in capsys.readouterr().out

    def test_standard_threshold_sweep(self, tmp_path, capsys):
        gt, det = self.prepare(tmp_path)
        for t in (0.3, 0.5, 0.7):
            assert run(["eval", det, gt, "--mode", "line", "--threshold", t]) == 0
            assert f"threshold: {t}" in capsys.readouterr().out

    def test_threshold_out_of_range_exits_2(self, tmp_path):
        gt, det = self.prepare(tmp_path)
        assert run(["eval", det, gt, "--threshold", 1.5]) == 2

    def test_query_starting_with_hash_round_trips(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("30,40,138,40,138,58,30,58,#1st\n")
        tensor = tmp_path / "scene.sphoc"
        assert run(["encode", gt, tensor, "--width", 200, "--height", 120]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text("#1st\n")
        det = tmp_path / "det.tsv"
        assert run(["spot", tensor, queries, det]) == 0
        assert "\n#1st\tfound\t" in det.read_text()
        assert run(["eval", det, gt, "--mode", "line", "--threshold", 0.5]) == 0
        assert "true_positives: 1" in capsys.readouterr().out
        report = json.loads((tmp_path / "det.tsv.report.json").read_text())
        assert report["true_positives"] == 1

    @pytest.mark.parametrize("field, value", [(2, "nan"), (9, "inf"), (11, "-70")])
    def test_non_finite_or_negative_detection_field_exits_2(self, tmp_path, capsys,
                                                            field, value):
        gt, det = self.prepare(tmp_path)
        lines = det.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[field] = value
        det.write_text("\n".join([lines[0], "\t".join(fields)]) + "\n")
        assert run(["eval", det, gt]) == 2
        err = capsys.readouterr().err
        assert "line 2:" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["line", "bbox"])
    def test_zero_length_detection_segment_exits_2(self, tmp_path, capsys, mode):
        gt, det = self.prepare(tmp_path)
        lines = det.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[4:6] = fields[2:4]  # x2 y2 = x1 y1
        det.write_text("\n".join([lines[0], "\t".join(fields)]) + "\n")
        assert run(["eval", det, gt, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "line 2: zero-length segment" in err and "Traceback" not in err


    def write_hello(self, tmp_path, x1, x2):
        gt = tmp_path / "gt.txt"
        gt.write_text("10,10,60,10,60,30,10,30,hello\n")
        det = tmp_path / "det.tsv"
        det.write_text("# header\n" + "\t".join(
            ["hello", "found", x1, "20", x2, "20", "20", "90", "0.1",
             "35", "20", "50", "20"]) + "\n")
        return gt, det

    @pytest.mark.parametrize("x1, x2", [("-1e308", "1e307"), ("0", "1e-320")])
    def test_far_reaching_or_tiny_line_is_a_false_positive(self, tmp_path, capsys,
                                                           x1, x2):
        gt, det = self.write_hello(tmp_path, x1, x2)
        assert run(["eval", det, gt, "--mode", "line"]) == 0
        captured = capsys.readouterr()
        assert "true_positives: 0" in captured.out
        assert "false_positives: 1" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("mode", ["line", "bbox"])
    def test_overflowing_segment_length_exits_2(self, tmp_path, capsys, mode):
        gt, det = self.write_hello(tmp_path, "-1e308", "1e308")
        assert run(["eval", det, gt, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: segment of non-finite length\n"


def test_module_entry_point(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_SINGLE)
    out = tmp_path / "scene.sphoc"
    # The child imports the same softphoc as this process, installed or not.
    package_root = str(Path(softphoc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "softphoc", "encode", str(gt), str(out),
         "--width", "160", "--height", "100"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert out.exists()


def test_log_env_var_controls_stderr_diagnostics(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPHOC_LOG", "info")
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_SINGLE)
    out = tmp_path / "scene.sphoc"
    assert run(["encode", gt, out, "--width", 160, "--height", 100]) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err
    assert captured.out == ""


def test_tensor_written_by_library_is_cli_compatible(tmp_path):
    tensor = embed_scene(quad_scene())
    path = tmp_path / "direct.sphoc"
    write_tensor(path, tensor)
    queries = tmp_path / "q.txt"
    queries.write_text("CARPARK\n")
    assert run(["spot", path, queries, tmp_path / "d.tsv"]) == 0


# Every flag generated from a config field, with a valid non-default
# value: flag -> (field, value).
SPOT_FLAGS = {
    "--heatmap-threshold": ("heatmap_threshold", 0.35),
    "--hough-rho-res": ("hough_rho_res", 1.5),
    "--hough-theta-res": ("hough_theta_res", 0.5),
    "--hough-min-votes": ("hough_min_votes", 7),
    "--nms-rho": ("nms_rho", 3.0),
    "--nms-theta": ("nms_theta", 4.0),
    "--max-candidates": ("max_candidates", 3),
    "--gap-bridge": ("gap_bridge", 2),
    "--band-halfwidth": ("band_halfwidth", 2.5),
    "--samples-per-char": ("query_samples_per_char", 6),
}
NOISE_FLAGS = {
    "--blur-sigma": ("blur_sigma", 0.5),
    "--confusion-rate": ("confusion_rate", 0.1),
    "--background-leak": ("background_leak", 0.05),
}


def hello_inputs(tmp_path):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_HELLO)
    tensor = tmp_path / "scene.sphoc"
    write_tensor(tensor, embed_scene(quad_scene("hello")))
    queries = tmp_path / "q.txt"
    queries.write_text("hello\n")
    return gt, tensor, queries


def test_every_config_flag_reaches_its_field(tmp_path, monkeypatch):
    gt, tensor, queries = hello_inputs(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "spot", lambda prob, query, cfg: seen.append(cfg))
    monkeypatch.setattr(cli, "simulate",
                        lambda scene, noise: seen.append(noise) or embed_scene(scene))
    for flags, config_class in ((SPOT_FLAGS, SpottingConfig),
                                (NOISE_FLAGS, NoiseConfig)):
        assert {field for field, _ in flags.values()} == \
            {f.name for f in dataclasses.fields(config_class)}
        for field, value in flags.values():
            assert getattr(config_class(), field) != value

    argv = [a for flag, (_, value) in SPOT_FLAGS.items() for a in (flag, value)]
    assert run(["spot", tensor, queries, tmp_path / "d.tsv", *argv]) == 0
    assert run(["spot", tensor, queries, tmp_path / "d.tsv"]) == 0
    assert seen == [SpottingConfig(**dict(SPOT_FLAGS.values())), SpottingConfig()]

    seen.clear()
    size = ["--width", 160, "--height", 100]
    argv = [a for flag, (_, value) in NOISE_FLAGS.items() for a in (flag, value)]
    assert run(["simulate", gt, tmp_path / "n.sphoc", *size, *argv]) == 0
    assert run(["simulate", gt, tmp_path / "n.sphoc", *size]) == 0
    assert run(["encode", gt, tmp_path / "e.sphoc", *size]) == 0
    assert seen == [NoiseConfig(**dict(NOISE_FLAGS.values())), NoiseConfig(),
                    NoiseConfig()]


@pytest.mark.parametrize("command, flag, value", [
    ("spot", "--hough-rho-res", "0"),
    ("spot", "--hough-theta-res", "0"),
    ("spot", "--hough-rho-res", "nan"),
    # accumulators and blur kernels no machine can hold, refused before
    # anything is allocated
    ("spot", "--hough-rho-res", "1e-300"),
    ("spot", "--hough-theta-res", "1e-300"),
    ("simulate", "--blur-sigma", "1e19"),
    ("spot", "--band-halfwidth", "-1"),
    ("spot", "--gap-bridge", "-3"),
    ("spot", "--max-candidates", "0"),
    ("simulate", "--background-leak", "2"),
    ("simulate", "--confusion-rate", "-0.5"),
    ("simulate", "--confusion-rate", "nan"),
    ("simulate", "--blur-sigma", "-1"),
    ("spot", "--jobs", "0"),
    ("spot", "--jobs", "-3"),
    ("encode", "--width", "-5"),
    ("encode", "--width", "0"),
    ("simulate", "--height", "0"),
])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, flag, value):
    _, tensor, queries = hello_inputs(tmp_path)
    # no words, so that no quad can be clamped to a bad size and fail first
    empty_gt = tmp_path / "empty.txt"
    empty_gt.write_text("")
    size = ["--width", 160, "--height", 100]
    argv = {
        "spot": ["spot", tensor, queries, tmp_path / "d.tsv"],
        "encode": ["encode", empty_gt, tmp_path / "e.sphoc", *size],
        "simulate": ["simulate", empty_gt, tmp_path / "n.sphoc", *size],
    }[command]
    assert run([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag[2:].replace("-", "_") in err, err


@pytest.mark.parametrize("command", ["encode", "simulate"])
@pytest.mark.parametrize("width, height", [
    (3_000_000_000, 3_000_000_000),
    (1_000_000, 1_000_000),
    (1_000_000, 5_000_000_000)])  # height beyond the header's u32
def test_map_too_large_to_allocate_exits_2_before_reading(tmp_path, capsys,
                                                          command, width, height):
    # Only sizes that no machine can allocate: the annotation file does not
    # exist, so exit 2 (not 3) shows the size was refused before any read.
    out = tmp_path / "o.sphoc"
    assert run([command, tmp_path / "missing.txt", out,
                "--width", width, "--height", height]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(scene, noise):
        raise MemoryError("Unable to allocate 140. MiB")

    monkeypatch.setattr(cli, "simulate", exhausted)
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_SINGLE)
    assert run(["simulate", gt, tmp_path / "o.sphoc", "--width", 160,
                "--height", 100]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 140. MiB\n"


@pytest.mark.parametrize("command", ["spot", "encode", "eval"])
def test_non_utf8_text_input_exits_2(tmp_path, capsys, command):
    gt, tensor, queries = hello_inputs(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"hel\xfflo\n")
    argv = {
        "spot": ["spot", tensor, bad, tmp_path / "d.tsv"],
        "encode": ["encode", bad, tmp_path / "e.sphoc", "--width", 160,
                   "--height", 100],
        "eval": ["eval", bad, gt],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "bad.txt" in err, err


def test_query_with_tab_rejected_before_the_map_is_read(tmp_path, capsys):
    queries = tmp_path / "q.txt"
    queries.write_text("DIRECTORY\nab\tc\n")
    out = tmp_path / "d.tsv"
    # the map does not exist: the query file is checked first
    assert run(["spot", tmp_path / "missing.sphoc", queries, out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "q.txt" in err and "line 2" in err, err
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ["nan", "negative"])
def test_map_that_is_not_a_distribution_exits_2(tmp_path, capsys, corrupt):
    prob = embed_scene(quad_scene("hello")).astype(np.float32)
    if corrupt == "nan":
        prob[:] = np.nan
    else:
        # every pixel still sums to 1
        prob[40, :, 5] -= 1.0
        prob[40, :, 6] += 1.0
    tensor = tmp_path / "bad.sphoc"
    write_tensor(tensor, prob)
    queries = tmp_path / "q.txt"
    queries.write_text("hello\n")
    out = tmp_path / "d.tsv"
    assert run(["spot", tensor, queries, out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
