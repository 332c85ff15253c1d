"""stratisolve benchmark: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One query at a time is sent, the next only after the previous
answer (a closed loop with one client).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; diagnostics go to standard error.

``--trace 0`` runs queries for ``--seconds`` seconds (``cli-fixtures``
finishes the cycle in progress) and reports the end-to-end metrics.  Set-up
time is the median over separate fresh processes that each import the
program, generate the inputs and warm up, up to the first query.

On a shared host the processor's speed drifts by up to half, for seconds
to minutes at a time, so the query times of the in-process workloads are
taken at the reference speed: a fixed piece of exact-rational arithmetic
is timed just before the first query and just after each one, off the
clock, and each query's time is scaled by the reference work's nominal
time over the mean of the two timings around it.  Standard error shows
the measured rate beside it.  ``cli-fixtures`` is timed as measured.

``--trace 1`` runs a fixed number of queries per workload twice from the
same inputs: untraced in a fresh process, then traced here with the span
recorder of ``spans.py`` wrapped around each layer.  It reports the
per-layer metrics, the tracing overhead (traced ÷ untraced queries per
second) and fails unless both runs give the same digest of verdicts.
The per-layer numbers cover the warm-up and the traced queries; spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
#: the reference work (see ``reference_work``) and about its best time on
#: an idle vCPU of the 2-vCPU Xeon VM the benchmark was tuned on, where it
#: took 3.2-6.4 ms as the host's load changed
REF_MATRIX = [[Fraction(i + j, j + 2) for j in range(3)] for i in range(3)]
REF_PRODUCTS = 25
REF_NOMINAL_S = 0.0035


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that stops after set-up, or that runs the
    # untraced reference of a traced run
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import stratisolve from this checkout's sources, never from an
    installed copy; exit 2 when the sources are missing."""
    init = SRC / "stratisolve" / "__init__.py"
    if not init.is_file():
        print(f"error: no stratisolve sources at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import stratisolve
    import stratisolve.cli  # noqa: F401 - imported by every CLI call

    if Path(stratisolve.__file__).resolve() != init.resolve():
        print(f"error: stratisolve imported from {stratisolve.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.answer.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def reference_work() -> Fraction:
    """Fixed exact-rational work, unrelated to stratisolve: a chain of 3x3
    matrix products over ``Fraction``, the kind of arithmetic much of the
    program does.  Its time follows the processor's speed closely."""
    a = REF_MATRIX
    for _ in range(REF_PRODUCTS):
        a = [[sum(a[i][k] * REF_MATRIX[k][j] for k in range(3)) / 7
              for j in range(3)] for i in range(3)]
    return a[0][0]


def reference_time() -> float:
    """Best of three timings of the reference work: the first run after a
    query, above all after a child process, often finds the caches cold."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the reference speed: scaled by the nominal time of the
    reference work over the mean of its times measured just before and
    just after the interval."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def run_queries(wl, seconds=None, count=None, rec=None, refs=None):
    """Closed loop for ``seconds`` of query time (whole cycles) or for
    exactly ``count`` queries.  Each answer is checked as it arrives, off
    the clock, and its payload then dropped, so memory does not grow with
    the number of queries.  If ``refs`` is a list, the reference work is
    timed before the first query and after each one, off the clock, and
    its times are appended there.  Returns (results, time spent in
    queries)."""
    wl.prepare_checks()
    results = []
    pool = wl.queries
    if refs is not None:
        refs.append(reference_time())
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (i % wl.cycle == 0
              and time.perf_counter() - start - paused >= seconds):
            break
        if i >= len(pool) and not wl.repeatable:
            break
        if rec is not None:
            rec.begin(i)
        try:
            r = wl.run(pool[i % len(pool)], rec)
        finally:
            if rec is not None:
                rec.end()
        pause = time.perf_counter()
        r.outcome = wl.check(r)
        r.payload = None
        results.append(r)
        if refs is not None:
            refs.append(reference_time())
        paused += time.perf_counter() - pause
        i += 1
    return results, time.perf_counter() - start - paused


def summarise(wl, results):
    """(failed, unchecked, undetermined) of checked results."""
    failed = [r for r in results if r.outcome == "fail"]
    for r in failed[:10]:
        print(f"FAILED {wl.name} {wl.describe(r)}", file=sys.stderr)
    for err in wl.setup_errors:
        print(f"FAILED {wl.name} check set-up: {err}", file=sys.stderr)
    unchecked = sum(r.outcome == "unchecked" for r in results)
    undetermined = sum(r.status == "undetermined" for r in results)
    return failed, unchecked, undetermined


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.runs_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _self_command(args, *extra):
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_probe(args) -> float:
    """Wall time of a fresh process from its start to the first query."""
    start = time.perf_counter()
    with subprocess.Popen(_self_command(args, "--setup-probe"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return elapsed


def e2e_metrics(latencies, rss, setups) -> dict:
    """End-to-end metrics of one untraced run, by name."""
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {
        "queries_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "query_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "query_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def timed_run(args, wl) -> dict:
    # queries in child processes are timed as measured: a fresh process of
    # 100 MB did not run at the speed the reference work saw in this one
    refs = None if wl.runs_children else []
    results, wall = run_queries(wl, seconds=args.seconds, refs=refs)
    rss = peak_rss_mb(wl)
    failed, unchecked, undetermined = summarise(wl, results)
    setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    lat = [r.seconds for r in results]
    n = len(results)
    note = ""
    if refs is not None:
        lat = [scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(lat)]
        note = (f", {n / sum(lat):.3f}/s at the reference speed (reference "
                f"work median {statistics.median(refs) * 1e3:.2f} ms, nominal "
                f"{REF_NOMINAL_S * 1e3:.2f} ms)")
    print(f"{wl.name} seed {args.seed}: {n} queries in {wall:.2f}s, as "
          f"measured {n / wall:.3f}/s{note}; {len(failed)} failed, "
          f"{undetermined} undetermined, {unchecked} not covered by an "
          f"independent check, p90 from {n} samples, digest "
          f"{digest(results)}", file=sys.stderr)
    return {
        "correct": not failed and not wl.setup_errors,
        "attempted": n,
        "failed": len(failed),
        "metrics": e2e_metrics(lat, rss, setups),
    }


def reference_run(args, wl) -> dict:
    results, wall = run_queries(wl, count=args.reference)
    return {"queries": len(results), "wall_s": wall, "digest": digest(results)}


def bench_values(k, wall, ref, failed, undetermined, unchecked) -> dict:
    """Whole-run numbers of a traced run, reported beside the layers."""
    return {
        "bench.traced_queries": k,
        "bench.trace_overhead": (k / wall) / (ref["queries"] / ref["wall_s"]),
        "bench.error_rate": failed / k,
        "bench.undetermined_rate": undetermined / k,
        "bench.unchecked_queries": unchecked,
    }


def traced_run(args, wl, spans) -> dict:
    n = wl.traced_queries
    proc = subprocess.run(_self_command(args, "--reference", str(n)), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("untraced reference run failed")
    ref = json.loads(proc.stdout.strip().splitlines()[-1])

    rec = spans.Recorder()
    undo, missing = spans.install(rec)
    spans.OUT_DIR.mkdir(exist_ok=True)
    try:
        rec.begin(-1)
        wl.warm_up()
        rec.end()
        results, wall = run_queries(wl, count=n, rec=rec)
    finally:
        spans.uninstall(undo)
    for name in missing:
        print(f"note: {name} not found; its metrics read 0", file=sys.stderr)
    failed, unchecked, undetermined = summarise(wl, results)
    same = digest(results) == ref["digest"] and len(results) == ref["queries"]
    if not same:
        print(f"FAILED {wl.name}: traced digest {digest(results)} != "
              f"untraced {ref['digest']}", file=sys.stderr)
    rec.write(spans.OUT_DIR / f"spans-{wl.name}-seed{args.seed}.tsv.gz")

    k = len(results)
    values = spans.layer_metrics(rec)
    values.update(bench_values(k, wall, ref, len(failed), undetermined,
                               unchecked))
    print(f"{wl.name} seed {args.seed} traced: {k} queries in {wall:.2f}s "
          f"(untraced {ref['wall_s']:.2f}s), {len(failed)} failed, "
          f"{undetermined} undetermined, {unchecked} not covered by an "
          f"independent check, digest {digest(results)}", file=sys.stderr)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {
        "correct": not failed and not wl.setup_errors and same,
        "attempted": k,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in per_layer},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    wl = workloads.make(args.workload, ROOT, args.seed)
    if args.trace:
        result = traced_run(args, wl, spans)  # traces the warm-up too
    else:
        wl.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.reference is not None:
            result = reference_run(args, wl)
        else:
            result = timed_run(args, wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
