"""softphoc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload spot-hd --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run installs no wrapper and reports the
end-to-end metrics. With `--trace 1` it alternates untraced and traced
passes over the same inputs and reports the per-layer metrics, the
tracing overhead, and fails its correctness check if the two kinds of
pass produce different detections. `perfbench/layers.json` says which
end-to-end metric and workload each per-layer metric should move.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller report, and the spans of a traced run, are written to
`.perfbench-out/` in the checkout.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import corpus
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

# The metrics a run reports are those BENCHMARK.json declares. Per-layer
# names ending in `.self_ms` are span self times, unit `count` are the
# tracer's counters; the others are derived in `per_layer`.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
CLI_COMMANDS = ("simulate", "spot", "eval")
QUALITY = ("hit_rate", "line_precision", "line_recall", "line_accuracy",
           "bbox_iou_mean")
MIN_PASSES = 2


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with
    at least ten samples above it. With fewer than eleven samples no
    percentile qualifies and the maximum is returned with 0 beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def fastest_total(samples):
    """Sum over parts of each part's fastest sample. `samples` holds one
    tuple of part times per pass, or None for a pass where it failed."""
    samples = [s for s in samples if s is not None]
    if not samples or len({len(s) for s in samples}) != 1:
        return None
    return sum(min(part) for part in zip(*samples))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    if not (ROOT / "src" / "softphoc" / "__init__.py").is_file():
        sys.exit(f"error: no softphoc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import softphoc
    import softphoc.cli  # noqa: F401  (bound now, so the tracer can wrap it)
    return softphoc


class Run:
    """Bookkeeping shared by both kinds of run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = Counter()
        self.problems = []  # failed correctness checks
        self.first_outputs = None
        self.evidence = []

    def one_pass(self, tracer=None, check=False):
        """Every unit once; returns (busy parts per unit, ops, latencies,
        outputs)."""
        busy, ops, latencies, outputs = [], 0, [], []
        for k in range(self.wl.units):
            unit = self.wl.run(k, tracer=tracer, check=check)
            busy.append(unit.busy_parts)
            ops += self.wl.ops(k)
            latencies += unit.latencies_s
            outputs.append(unit.output)
            self.failures.update(unit.failures)
            if check and unit.evidence is not None:
                self.evidence.append(unit.evidence)
        self.attempted += ops
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            kind = "traced" if tracer is not None else "untraced"
            self.problems.append(f"a {kind} pass changed the detections")
        return busy, ops, latencies, outputs


def end_to_end(softphoc, wl, seconds):
    """Set up several times, then run whole passes over the corpus until
    `seconds` have passed, at least MIN_PASSES of them. A timed quantity
    is taken at its fastest: each of its consecutive parts (a query, a
    CLI command) at the pass where that part ran fastest. On a shared
    machine slow spells only ever add time. Every pass gets the same
    maps as fresh objects (see `SpotWorkload.run`), so nothing the
    program keeps per map carries over from one pass to the next; state
    keyed on the query text alone does."""
    run = Run(wl)
    setups = [wl.setup() for _ in range(wl.setup_repeats)]
    passes = []  # (busy parts per unit, ops, per-operation latencies)
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        busy, ops, latencies, _ = run.one_pass(check=not passes)
        passes.append((busy, ops, latencies))
    fastest = [fastest_total(per_op) for per_op in zip(*(lat for _, _, lat in passes))]
    fastest = [t for t in fastest if t is not None]
    if not fastest:
        raise workloads.CheckFailed(f"every operation failed: {dict(run.failures)}")
    fastest_units = [(wl.ops(k), t) for k, t in enumerate(
        fastest_total(per_unit) for per_unit in zip(*(b for b, _, _ in passes)))
        if t is not None]
    quality = workloads.quality(softphoc, run.evidence) if run.evidence else {}
    value, pct, beyond = tail(fastest)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(run.failures.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (1000.0 * statistics.median(fastest), "ms"),
        "op_ms_tail": (1000.0 * value, "ms"),
        "ops_per_s": (sum(n for n, _ in fastest_units)
                      / sum(t for _, t in fastest_units), "1/s"),
        "success_rate": (1.0 - failed / run.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name in QUALITY:
        metrics[name] = (quality.get(name, 0.0), "ratio")
    report = {
        "setup_s_samples": setups,
        "passes": len(passes),
        "pass_ops_per_s": [ops / sum(map(sum, busy)) for busy, ops, _ in passes],
        "op_samples": len(fastest),
        "op_ms_tail_percentile": pct,
        "op_ms_tail_samples_beyond": beyond,
        "error_rate": failed / run.attempted,
        "quality": quality,
    }
    if not quality:
        run.problems.append("no pass produced scorable detections")
    if set(metrics) != set(END_TO_END):
        run.problems.append("end-to-end metrics differ from BENCHMARK.json")
    return run, metrics, report


def per_layer(softphoc, wl, seconds):
    run = Run(wl)
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = "setup"
        wl.setup()
    setup_spans, setup_counts = list(tracer.spans), tracer.take_counts()
    pass_counts, overheads, traced_ops = [], [], 0
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        b_plain, n, _, _ = run.one_pass(check=first)
        first = False
        with tracer:
            b_traced, n, _, _ = run.one_pass(tracer=tracer)
        pass_counts.append(tracer.take_counts())
        traced_ops += n
        overheads.append(1000.0 * (sum(map(sum, b_traced)) - sum(map(sum, b_plain))) / n)
    if any(c != pass_counts[0] for c in pass_counts):
        run.problems.append("counts differ between traced passes of one input")

    pass_spans = tracer.spans[len(setup_spans):]
    ops_per_pass = sum(wl.ops(k) for k in range(wl.units))
    setup_self = tracing.self_times(setup_spans)
    pass_self = tracing.self_times(pass_spans)
    counts = Counter(setup_counts) + Counter(pass_counts[0])
    peaks = counts["hough.peaks"]
    derived = {
        "hough.segment_yield": counts["hough.segments"] / peaks if peaks else 0.0,
        "trace.overhead_ms": statistics.median(overheads),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".self_ms"):
            span = name[:-len(".self_ms")]
            value = 1000.0 * (setup_self.get(span, 0.0) / ops_per_pass
                              + pass_self.get(span, 0.0) / traced_ops)
        elif unit == "count":
            value = counts[name] / ops_per_pass
        else:
            value = derived[name]
        metrics[name] = (value, unit)

    # CLI layer: present only where the workload drives the CLI.
    walls = tracing.wall_times(pass_spans)
    cli = {}
    for command in CLI_COMMANDS:
        if f"cli.main.{command}" in walls:
            cli[f"cli.main.{command}.wall_ms"] = \
                1000.0 * walls[f"cli.main.{command}"] / traced_ops
    if "cli.main.spot" in walls:
        cli["cli.pool_parallelism"] = walls["spotting.spot"] / walls["cli.main.spot"]
    report = {"cli": cli, "traced_passes": len(pass_counts),
              "trace_overhead_ms_per_pass": overheads,
              "spans": len(tracer.spans)}
    return run, metrics, report, tracer


def main(argv=None):
    args = parse_args(argv)
    softphoc = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, softphoc, args.seed, workdir)
        if args.trace:
            run, metrics, report, tracer = per_layer(softphoc, wl, args.seconds)
            tracer.dump(OUT / f"spans-{tag}.jsonl")
        else:
            run, metrics, report = end_to_end(softphoc, wl, args.seconds)
    except workloads.CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update({
        "workload": args.workload,
        "corpus": corpus.describe(wl.spec, args.seed, wl.scenes),
        "detections_sha256": workloads.digest(run.first_outputs),
        "failures": dict(run.failures),
        "problems": run.problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    with open(OUT / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    result = {
        "correct": not run.problems and not bad,
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
