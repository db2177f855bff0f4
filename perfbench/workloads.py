"""The benchmark's workloads, each a closed loop with a single client.

A workload is set up once per repetition, then runs "units" (one map
with all its queries, or one CLI scene) in a fixed cyclic order. Every
call into the program goes through an attribute lookup on a `softphoc`
module at call time, so the traced run's wrappers see it.
"""

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import corpus

LINE_THRESHOLD = 0.7
IOU_THRESHOLD = 0.5
CLI_JOBS = 2
HD_NOISE = {"blur_sigma": 1.5, "confusion_rate": 0.2, "background_leak": 0.1}

# Word scale varies per word, so line lengths and DTW sizes vary too.
HD = corpus.CorpusSpec(width=1280, height=720, scenes=1, min_words=20,
                       max_words=20, min_char_width=8.0, max_char_width=20.0)
# The CLI workload's set-up runs one small scene to absorb first-call costs.
WARMUP = corpus.CorpusSpec(width=320, height=240, scenes=1, min_words=3,
                           max_words=3)


@dataclass
class Unit:
    """What one unit of work produced."""

    # Time spent in the program, checks excluded, as consecutive parts
    # that keep their order from pass to pass.
    busy_parts: tuple[float, ...]
    latencies_s: list  # per operation, a tuple of parts; None where it failed
    output: bytes  # detection file as written by the program
    failures: list[str] = field(default_factory=list)  # exception types
    evidence: object = None  # inputs to the quality metrics, on checked passes


class CheckFailed(Exception):
    pass


def check_map(prob):
    """Every built map is finite with per-pixel sums within 1e-6 of 1."""
    if not np.all(np.isfinite(prob)):
        raise CheckFailed("map has non-finite values")
    dev = float(np.max(np.abs(prob.sum(axis=-1, dtype=np.float64) - 1.0)))
    if dev > 1e-6:
        raise CheckFailed(f"per-pixel sums deviate from 1 by {dev:.3g}")


def check_tensor_file(path, height, width):
    """Map check on a tensor file, read without the program's reader."""
    raw = np.fromfile(path, dtype="<f4", offset=20)
    check_map(raw.reshape(height, width, 38))


class SpotWorkload:
    """Library `spot()` one query at a time against prebuilt maps."""

    setup_repeats = 3

    def __init__(self, softphoc, spec, noise, seed, workdir):
        self.sp = softphoc
        self.spec = spec
        self.noise = softphoc.NoiseConfig(**noise)
        self.seed = seed
        self.workdir = workdir
        self.scenes = corpus.generate(spec, seed)
        self.maps = []

    @property
    def units(self):
        return len(self.scenes)

    def ops(self, k):
        return len(self.scenes[k].queries)

    def setup(self) -> float:
        """Corpus generation, map build, tensor write and read-back."""
        sp = self.sp
        self.maps = []
        start = time.perf_counter()
        scenes = corpus.generate(self.spec, self.seed)
        busy = time.perf_counter() - start
        if scenes != self.scenes:
            raise CheckFailed("corpus generation is not deterministic")
        for k, scene in enumerate(scenes):
            gt_path = self.workdir / f"gt{k}.txt"
            tensor_path = self.workdir / f"map{k}.sphoc"
            start = time.perf_counter()
            gt_path.write_text(scene.annotations, encoding="utf-8")
            gt = sp.fileio.load_annotations(gt_path, self.spec.width,
                                            self.spec.height)
            prob = sp.oracle.simulate(gt, self.noise)
            sp.fileio.write_tensor(tensor_path, prob)
            back = sp.fileio.read_tensor(tensor_path)
            busy += time.perf_counter() - start
            check_map(prob)
            if back.tobytes() != np.ascontiguousarray(prob, dtype="<f4").tobytes():
                raise CheckFailed(f"read_tensor changed the bytes of {tensor_path.name}")
            # Deleted at once, so that the kernel does not write it back
            # to disk while later phases are being timed.
            tensor_path.unlink()
            del prob
            self.maps.append((gt, back))
        return busy

    def run(self, k, tracer=None, check=False) -> Unit:
        sp = self.sp
        scene = self.scenes[k]
        gt, built = self.maps[k]
        # A fresh copy per pass: state the program keeps per map object
        # (a cache keyed on the array) never outlives one pass, as for a
        # user who queries each map once.
        prob = built.copy()
        size = (self.spec.width, self.spec.height)
        records, latencies, failures = [], [], []
        busy = 0.0
        for i, query in enumerate(scene.queries):
            if tracer is not None:
                tracer.op = f"{k}.{i}"
            start = time.perf_counter()
            try:
                det = sp.spotting.spot(prob, query)
                latencies.append((time.perf_counter() - start,))
                box = None if det is None else sp.bbox.line_to_bbox(
                    det.segment, len(query), size)
                records.append(sp.fileio.format_detection_record(query, det, box))
            except Exception as exc:  # counted, never fatal
                failures.append(type(exc).__name__)
                records.append(sp.fileio.format_detection_record(query, None, None))
                latencies += [None] * (i + 1 - len(latencies))
            busy += time.perf_counter() - start

        # Write, read back and score the detections as `softphoc eval` would.
        if tracer is not None:
            tracer.op = f"{k}.out"
        det_path = self.workdir / f"det{k}.tsv"
        start = time.perf_counter()
        try:
            sp.fileio.write_detections(det_path, records)
            rows = sp.fileio.read_detections(det_path)
            reports = evaluate(sp, rows, gt, scene.queries)
        except Exception as exc:
            failures.append(type(exc).__name__)
            rows, reports = [], None
        busy += time.perf_counter() - start
        output = det_path.read_bytes() if det_path.exists() else b""
        evidence = (gt, scene, rows, reports) if check and reports else None
        return Unit((busy,), latencies, output, failures, evidence)


class CliWorkload:
    """Per scene, in process: simulate, spot --jobs 2, eval line and bbox."""

    setup_repeats = 5

    def __init__(self, softphoc, spec, noise, seed, workdir):
        self.sp = softphoc
        self.spec = spec
        self.noise = noise
        self.seed = seed
        self.workdir = workdir
        self.scenes = corpus.generate(spec, seed)
        self.warmup = corpus.generate(WARMUP, seed)[0]

    @property
    def units(self):
        return len(self.scenes)

    def ops(self, k):
        return 1

    def _paths(self, k):
        d = self.workdir
        return tuple(str(d / f"scene{k}.{ext}")
                     for ext in ("gt.txt", "queries.txt", "sphoc", "tsv"))

    def _write_inputs(self, k, scene):
        gt_path, query_path, _, _ = self._paths(k)
        with open(gt_path, "w", encoding="utf-8") as fh:
            fh.write(scene.annotations)
        with open(query_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(scene.queries) + "\n")

    def _commands(self, k, spec):
        gt_path, query_path, tensor_path, det_path = self._paths(k)
        noise_flags = []
        for key, value in self.noise.items():
            noise_flags += ["--" + key.replace("_", "-"), str(value)]
        return [
            ["simulate", gt_path, tensor_path, "--width", str(spec.width),
             "--height", str(spec.height)] + noise_flags,
            ["spot", tensor_path, query_path, det_path, "--jobs", str(CLI_JOBS)],
            ["eval", det_path, gt_path, "--mode", "line",
             "--threshold", str(LINE_THRESHOLD)],
            ["eval", det_path, gt_path, "--mode", "bbox",
             "--threshold", str(IOU_THRESHOLD)],
        ]

    def _run_commands(self, commands):
        """(seconds per command, failures, eval reports); stops at the first
        failure."""
        busy, failures, reports = [], [], []
        for argv in commands:
            start = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = self.sp.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted, never fatal
                code = type(exc).__name__
            busy.append(time.perf_counter() - start)
            if code != 0:
                failures.append(f"{argv[0]}:{code}")
                break
            if argv[0] == "eval":
                with open(argv[1] + ".report.json", encoding="utf-8") as fh:
                    reports.append(json.load(fh))
        return busy, failures, reports

    def setup(self) -> float:
        """Corpus generation, the annotation and query files, and one
        small warm-up scene through the CLI, so that first-call costs
        land here and not in the first timed scene."""
        start = time.perf_counter()
        scenes = corpus.generate(self.spec, self.seed)
        for k, scene in enumerate(scenes):
            self._write_inputs(k, scene)
        self._write_inputs("warmup", self.warmup)
        busy = time.perf_counter() - start
        if scenes != self.scenes:
            raise CheckFailed("corpus generation is not deterministic")
        warm_busy, failures, _ = self._run_commands(self._commands("warmup", WARMUP))
        if failures:
            raise CheckFailed(f"warm-up scene failed: {failures}")
        os.unlink(self._paths("warmup")[2])
        return busy + sum(warm_busy)

    def run(self, k, tracer=None, check=False) -> Unit:
        sp = self.sp
        if tracer is not None:
            tracer.op = str(k)
        busy, failures, cli_reports = self._run_commands(self._commands(k, self.spec))
        gt_path, _, tensor_path, det_path = self._paths(k)
        output = b""
        if not failures:
            with open(det_path, "rb") as fh:
                output = fh.read()
        evidence = None
        if check and not failures:
            check_tensor_file(tensor_path, self.spec.height, self.spec.width)
            gt = sp.fileio.load_annotations(gt_path, self.spec.width,
                                            self.spec.height)
            rows = sp.fileio.read_detections(det_path)
            reports = evaluate(sp, rows, gt, self.scenes[k].queries)
            for mine, theirs in zip(reports, cli_reports):
                counts = (mine.true_positives, mine.false_positives,
                          mine.false_negatives)
                if counts != (theirs["true_positives"], theirs["false_positives"],
                              theirs["false_negatives"]):
                    raise CheckFailed(f"`softphoc eval` disagrees with the library "
                                      f"on scene {k}: {theirs} vs {counts}")
            evidence = (gt, self.scenes[k], rows, reports)
        if os.path.exists(tensor_path):
            os.unlink(tensor_path)  # as in SpotWorkload.setup
        busy = tuple(busy)
        return Unit(busy, [None if failures else busy], output, failures, evidence)


def evaluate(sp, rows, gt, queries):
    """Line report at T=0.7 and box report at IoU 0.5 for one scene."""
    queries = list(queries)
    lines = [det for _, det, _ in rows if det is not None]
    boxes = [(q, box) for q, _, box in rows if box is not None]
    return (sp.evaluation.evaluate_lines(lines, gt, LINE_THRESHOLD, queries=queries),
            sp.evaluation.evaluate_bboxes(boxes, gt, IOU_THRESHOLD, queries=queries))


def quality(sp, evidence) -> dict:
    """Quality over one full pass, from the repo's own scoring functions."""
    hits = present = 0
    ious = []
    line_reports, box_reports = [], []
    for gt, scene, rows, (line_report, box_report) in evidence:
        line_reports.append(line_report)
        box_reports.append(box_report)
        words = {w.transcription: w for w in gt.words}
        for query, det, box in rows:
            if query not in scene.present:
                continue
            present += 1
            word = words[query]
            if det is not None:
                hits += sp.evaluation.line_box_overlap(det.segment, word.quad) \
                    >= LINE_THRESHOLD
                ious.append(sp.evaluation.box_quad_iou(box, word.quad))
            else:
                ious.append(0.0)
    lines = sp.evaluation.combine_reports(line_reports)
    boxes = sp.evaluation.combine_reports(box_reports)
    return {
        "hit_rate": hits / present if present else 0.0,
        "line_precision": lines.precision,
        "line_recall": lines.recall,
        "line_accuracy": lines.accuracy,
        "bbox_iou_mean": float(np.mean(ious)) if ious else 0.0,
        "bbox_hmean": boxes.hmean,
        "line_counts": [lines.true_positives, lines.false_positives,
                        lines.false_negatives],
        "bbox_counts": [boxes.true_positives, boxes.false_positives,
                        boxes.false_negatives],
    }


WORKLOADS = {
    "spot-hd": (SpotWorkload, HD, HD_NOISE),
    "cli-hd": (CliWorkload, HD, HD_NOISE),
}


def make(name, softphoc, seed, workdir):
    cls, spec, noise = WORKLOADS[name]
    return cls(softphoc, spec, noise, seed, workdir)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(len(out).to_bytes(8, "little"))
        h.update(out)
    return h.hexdigest()
