"""Self-test of the benchmark's own arithmetic and tracing.

    python3 perfbench/selftest.py

Run from the root of a source checkout; it takes about a minute. Checks
the tail-percentile rule, self time with nested and with concurrent
child spans, that the tracer wraps every binding of a traced function
and restores them, that layers.json maps the metrics and workloads of
BENCHMARK.json, that a cache keyed on the map array gets no hit from
one timed pass to the next, and that two traced runs of one seed repeat
their counts and detections exactly. Exits non-zero at the first
failure.
"""

import json
import random
import shutil
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def expect(ok, message):
    if not ok:
        raise AssertionError(message)


def test_tail_rule():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    expect(run.tail(values) == (90, 90.0, 10), run.tail(values))
    eleven = [7.0, 3.0, 9.0, 1.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, pct, beyond = run.tail(eleven)
    expect((value, beyond) == (1.0, 10) and abs(pct - 100 / 11) < 1e-12,
           (value, pct, beyond))
    expect(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0), run.tail([3.0, 1.0, 2.0]))
    ties = [5.0] * 30 + [9.0]
    expect(run.tail(ties) == (5.0, 100.0 * 21 / 31, 10), run.tail(ties))


def _span(id, start, end, parent=None, thread=1, name=None):
    return tracing.Span(id, name or f"s{id}", start, end, parent, 0, thread)


def test_self_time_nested():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1),
             _span(3, 5.0, 6.0, 0)]
    got = tracing.self_times(spans)
    expect(got == {"s0": 6.0, "s1": 2.0, "s2": 1.0, "s3": 1.0}, got)


def test_self_time_concurrent():
    # Two children on different threads overlap in [3, 5]; it counts once.
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 5.0, 0, thread=2),
             _span(2, 3.0, 8.0, 0, thread=3), _span(3, 9.0, 9.5, 0),
             _span(4, 9.2, 9.4, 0, thread=2)]
    got = tracing.self_times(spans)
    expect(abs(got["s0"] - 2.5) < 1e-12, got)
    # Same name on two spans: self times add up.
    spans = [_span(0, 0.0, 2.0, name="a"), _span(1, 3.0, 4.0, name="a")]
    expect(tracing.self_times(spans) == {"a": 3.0}, tracing.self_times(spans))


def test_tracer_threads():
    tracer = tracing.Tracer()

    def inner(x):
        time.sleep(0.05)
        return x

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner_t, range(4)))

    tracer.op = 7
    expect(tracer.wrap("m.outer", outer)() == [0, 1, 2, 3], "results changed")
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (out,) = by_name["m.outer"]
    inners = by_name["m.inner"]
    expect(len(inners) == 4, inners)
    expect(all(s.parent == out.id and s.op == 7 for s in inners), inners)
    expect(all(s.thread != threading.get_ident() for s in inners), "ran in main")
    self_out = tracing.self_times(tracer.spans)["m.outer"]
    wall = out.end - out.start
    # Four 50 ms sleeps on two workers: children cover about 100 ms.
    expect(0.0 <= self_out < wall - 0.08, (self_out, wall))


def test_install_restores_bindings():
    softphoc = run.load_program()
    modules = [m for n, m in sys.modules.items()
               if n == "softphoc" or n.startswith("softphoc.")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    with tracer:
        for obj, name in ((softphoc, "spot"), (softphoc.spotting, "dtw_distance"),
                          (softphoc.spotting, "hough_lines"), (softphoc.cli, "spot"),
                          (softphoc.cli, "simulate"), (softphoc.cli, "main"),
                          (softphoc.oracle, "embed_scene"),
                          (softphoc.encoder, "bilinear_sample")):
            expect(hasattr(getattr(obj, name), "__wrapped__"), f"{name} not wrapped")
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    expect(all(after[k] is v for k, v in before.items()), "bindings not restored")


def test_layer_map_matches_benchmark():
    layers = json.loads((HERE / "layers.json").read_text())
    for section in ("workloads", "end_to_end", "per_layer"):
        names = {m["name"] for m in run.BENCHMARK[section]}
        expect(names == set(layers[section]), (section, names ^ set(layers[section])))


def test_no_map_cache_across_passes():
    """A memo keyed on the map object, as a per-map cache would be, must
    never serve a timed query from an earlier pass."""
    softphoc = run.load_program()
    original = softphoc.spotting.spot
    memo, hits = {}, []

    def memo_spot(prob, query):
        key = (id(prob), query)
        if key in memo and memo[key][0]() is prob:
            hits.append(key)
            return memo[key][1]
        result = original(prob, query)
        memo[key] = (weakref.ref(prob), result)
        return result

    workdir = run.OUT / "selftest-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    softphoc.spotting.spot = memo_spot
    try:
        wl = workloads.make("spot-hd", softphoc, 5, workdir)
        bench, _, report = run.end_to_end(softphoc, wl, 0)
        expect(report["passes"] >= 2 and not bench.problems, (report, bench.problems))
        expect(not hits, f"{len(hits)} queries were served from an earlier pass")
        # The memo does hit when it sees the same map object again.
        prob, query = wl.maps[0][1], wl.scenes[0].queries[0]
        memo_spot(prob, query)
        memo_spot(prob, query)
        expect(len(hits) == 1, "the memo never hits")
    finally:
        softphoc.spotting.spot = original
        shutil.rmtree(workdir, ignore_errors=True)


def _traced_run(seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spot-hd",
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return report, result


def test_counts_repeat():
    (rep_a, res_a), (rep_b, res_b) = _traced_run(5), _traced_run(5)
    expect(res_a["correct"] and res_b["correct"], (rep_a["problems"], rep_b["problems"]))
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit in ("count", "ratio")]
    a = {k: res_a["metrics"][k]["value"] for k in counts}
    b = {k: res_b["metrics"][k]["value"] for k in counts}
    expect(a == b, (a, b))
    expect(rep_a["detections_sha256"] == rep_b["detections_sha256"], "digests differ")


def main():
    tests = [test_tail_rule, test_self_time_nested, test_self_time_concurrent,
             test_tracer_threads, test_install_restores_bindings,
             test_layer_map_matches_benchmark, test_no_map_cache_across_passes,
             test_counts_repeat]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
