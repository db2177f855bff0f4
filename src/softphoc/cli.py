"""Command-line surface: encode, simulate, spot, eval.

Exit codes: 0 success, 2 parse/validation errors (with the offending
line where applicable; also out-of-range flag values, text inputs
that are not UTF-8, maps that are not per-pixel distributions, map
sizes beyond the u32 header, and maps, blur kernels, query encodings
or DTW programs beyond physical memory), 3 I/O errors and out of
memory, 4 an empty query list or an eval detection file without
records. Diagnostics go to stderr; verbosity is set by the SPHOC_LOG
environment variable (error, info or debug).
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import fileio
from .alphabet import NUM_CLASSES
from .bbox import line_to_bbox
from .errors import AnnotationParseError, SoftPhocError, check_fields, check_memory
from .evaluation import evaluate_bboxes, evaluate_lines
from .oracle import NoiseConfig, simulate
from .spotting import SpottingConfig, check_probability_map, spot

log = logging.getLogger("softphoc")

EXIT_PARSE = 2
EXIT_IO = 3
EXIT_NO_QUERIES = 4

# Largest --width/--height: the tensor header stores them as u32.
_U32_MAX = 2**32 - 1
# Config fields whose flag is not the field name with dashes.
_FLAG_NAMES = {"query_samples_per_char": "samples-per-char"}


def _configure_logging():
    level_name = os.environ.get("SPHOC_LOG", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.ERROR)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(level)


def _add_config_flags(parser, config_class):
    """One flag per field of a config dataclass, with the field's default."""
    for field in dataclasses.fields(config_class):
        flag = _FLAG_NAMES.get(field.name, field.name.replace("_", "-"))
        parser.add_argument("--" + flag, dest=field.name,
                            type=type(field.default), default=field.default,
                            metavar=flag.replace("-", "_").upper())


def _config(config_class, ns):
    """The config built from the parsed flags; defaults for absent fields."""
    given = vars(ns)
    return config_class(**{f.name: given[f.name]
                           for f in dataclasses.fields(config_class)
                           if f.name in given})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softphoc",
        description="Pixel-level character histograms and query-driven "
                    "word spotting.")
    sub = parser.add_subparsers(dest="command", required=True)

    # encode is simulate without noise flags: an identity NoiseConfig
    # makes simulate return exactly embed_scene.
    for name, help_text in (("encode", "ground truth -> scene tensor file"),
                            ("simulate",
                             "ground truth -> corrupted probability map")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("annotations")
        cmd.add_argument("out_tensor")
        cmd.add_argument("--width", type=int, required=True)
        cmd.add_argument("--height", type=int, required=True)
        if name == "simulate":
            _add_config_flags(cmd, NoiseConfig)
        cmd.set_defaults(run=_cmd_simulate)

    sp = sub.add_parser("spot", help="run queries against a probability map")
    sp.add_argument("tensor")
    sp.add_argument("queries", help="text file with one query per line")
    sp.add_argument("out_detections")
    _add_config_flags(sp, SpottingConfig)
    sp.add_argument("--jobs", type=int, default=1,
                    help="parallel query threads, at most the CPU count "
                         "(output order is preserved)")
    sp.set_defaults(run=_cmd_spot)

    ev = sub.add_parser("eval", help="score detections against ground truth")
    ev.add_argument("detections")
    ev.add_argument("gt_annotations")
    ev.add_argument("--mode", choices=("line", "bbox"), default="line")
    ev.add_argument("--threshold", type=float, default=0.5)
    ev.set_defaults(run=_cmd_eval)
    return parser


def _cmd_simulate(ns) -> int:
    check_fields(ns, (("width", 1 <= ns.width <= _U32_MAX, f"in [1, {_U32_MAX}]"),
                      ("height", 1 <= ns.height <= _U32_MAX, f"in [1, {_U32_MAX}]")))
    check_memory(ns.width * ns.height * NUM_CLASSES * 4, f"a {ns.width}x{ns.height} map")
    noise = _config(NoiseConfig, ns)
    scene = fileio.load_annotations(ns.annotations, ns.width, ns.height)
    fileio.write_tensor(ns.out_tensor, simulate(scene, noise))
    log.info("wrote %s (%dx%d)", ns.out_tensor, ns.height, ns.width)
    return 0


def _cmd_spot(ns) -> int:
    check_fields(ns, (("jobs", ns.jobs >= 1, ">= 1"),))
    cfg = _config(SpottingConfig, ns)
    queries = []
    for lineno, line in enumerate(fileio.read_text(ns.queries).split("\n"), start=1):
        query = line.strip()
        if "\t" in query:
            raise AnnotationParseError(
                f"{ns.queries}: line {lineno}: query may not contain tabs")
        if query:
            queries.append(query)
    if not queries:
        print("error: query list is empty", file=sys.stderr)
        return EXIT_NO_QUERIES
    tensor = fileio.read_tensor(ns.tensor)
    check_probability_map(tensor)

    height, width = tensor.shape[:2]

    def run_query(query):
        detection = spot(tensor, query, cfg)
        if detection is None:
            log.info("%s: not found", query)
            return fileio.format_detection_record(query, None, None)
        box = line_to_bbox(detection.segment, len(query), (width, height))
        log.info("%s: dtw %.4f over %d candidates", query,
                 detection.dtw_distance, detection.candidates_considered)
        return fileio.format_detection_record(query, detection, box)

    with ThreadPoolExecutor(max_workers=min(ns.jobs, os.cpu_count() or 1)) as pool:
        records = list(pool.map(run_query, queries))
    fileio.write_detections(ns.out_detections, records)
    return 0


def _cmd_eval(ns) -> int:
    rows = fileio.read_detections(ns.detections)
    if not rows:
        print(f"error: {ns.detections}: no detection records", file=sys.stderr)
        return EXIT_NO_QUERIES
    gt = fileio.load_annotations(ns.gt_annotations)
    queries = [query for query, _, _ in rows]
    if ns.mode == "line":
        detections = [det for _, det, _ in rows if det is not None]
        report = evaluate_lines(detections, gt, ns.threshold, queries=queries)
        rate_name, rate = "accuracy", report.accuracy
    else:
        boxes = [(query, box) for query, _, box in rows if box is not None]
        report = evaluate_bboxes(boxes, gt, ns.threshold, queries=queries)
        rate_name, rate = "hmean", report.hmean

    rates = {"precision": report.precision, "recall": report.recall,
             rate_name: rate}
    payload = {
        "mode": ns.mode,
        "threshold": ns.threshold,
        **rates,
        "true_positives": report.true_positives,
        "false_positives": report.false_positives,
        "false_negatives": report.false_negatives,
    }
    print("\n".join(f"{key}: {value:.6f}" if key in rates else f"{key}: {value}"
                    for key, value in payload.items()))
    with open(ns.detections + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    """Run one command; the only place errors become exit codes."""
    _configure_logging()
    ns = build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except SoftPhocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
