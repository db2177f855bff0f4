"""Outside-in span recorder for the traced benchmark run.

The program itself holds no tracing code. `Tracer.install` replaces each
traced function at every name through which it can be looked up: its
own module, the package namespace, and every `from ... import` binding
in the other `softphoc` modules. `Tracer.uninstall` puts the originals
back, so the untraced run executes the program as shipped.

A span records its name, start, end, parent span, operation id and
thread id. Spans are kept in memory, guarded by a lock because the
CLI's `--jobs` pool calls traced functions from worker threads, and are
written out when the run ends.
"""

import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs wrapped in the traced run.
TRACED = (
    ("spotting", "spot"), ("spotting", "bigram_heatmap"),
    ("spotting", "threshold_mask"), ("spotting", "hough_lines"),
    ("spotting", "query_descriptor"), ("spotting", "sample_line_descriptor"),
    ("hough", "lines_from_mask"), ("hough", "hough_accumulator"),
    ("hough", "find_peaks"), ("hough", "refine_line"),
    ("hough", "trim_line_to_mask"),
    ("dtw", "dtw_distance"),
    ("encoder", "embed_scene"), ("encoder", "encode_word"),
    ("warp", "homography"), ("warp", "bilinear_sample"),
    ("oracle", "simulate"),
    ("fileio", "write_tensor"), ("fileio", "read_tensor"),
    ("fileio", "write_detections"), ("fileio", "read_detections"),
    ("fileio", "load_annotations"),
    ("evaluation", "evaluate_lines"), ("evaluation", "evaluate_bboxes"),
    ("bbox", "line_to_bbox"),
    ("cli", "main"),
)


def _count_mask(counts, args, kwargs, result):
    counts["spotting.mask_px"] += int(result.sum())


def _count_candidates(counts, args, kwargs, result):
    counts["spotting.candidates"] += len(result)


def _count_peaks(counts, args, kwargs, result):
    counts["hough.peaks"] += len(result)


def _count_segments(counts, args, kwargs, result):
    counts["hough.segments"] += len(result)


def _count_dtw(counts, args, kwargs, result):
    counts["dtw.calls"] += 1
    counts["dtw.cells"] += len(args[0]) * len(args[1])


def _count_tensor_bytes(counts, args, kwargs, result):
    shape = args[1].shape
    counts["fileio.tensor_bytes"] += 20 + 4 * shape[0] * shape[1] * shape[2]


# Counts taken at span boundaries, from the call's arguments and result.
COUNTERS = {
    "spotting.threshold_mask": _count_mask,
    "spotting.hough_lines": _count_candidates,
    "hough.find_peaks": _count_peaks,
    "hough.lines_from_mask": _count_segments,
    "dtw.dtw_distance": _count_dtw,
    "fileio.write_tensor": _count_tensor_bytes,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None  # id of the operation in flight (one client)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.main.{argv[0] if argv else '?'}"
            stack = self._stack()
            # A worker thread's first span belongs to the span the main
            # thread is blocked in, typically the CLI spot command.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, span_name, start, end, parent, self.op,
                            threading.get_ident())
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function at each name bound to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "softphoc" or n.startswith("softphoc."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"softphoc.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take_counts(self) -> dict[str, int]:
        with self._lock:
            counts = dict(self.counts)
            self.counts.clear()
        return counts

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name: each span's duration
    minus the part of it covered by its child spans, which may overlap
    when children run on several threads."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    return dict(out)


def wall_times(spans) -> dict[str, float]:
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)
