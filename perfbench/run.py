"""Benchmark of the tutte-activities library, measured from outside.

    python3 perfbench/run.py --workload desk-routes --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs come from `--seed`; the library under
`src/` is imported from this checkout and only its public functions are
called.  The workload's item list runs in passes, back to back.  With
`--trace 0` passes run until `--seconds` of wall time is used up, for the
end-to-end metrics.  With `--trace 1` one untraced pass (for the route
timings) is followed by one traced pass, whose spans give the per-layer
metrics; the spans are written to `.perfbench_out/`.  Times are processor
time of this single-threaded process; the end-to-end times are then scaled
by the host speed sampled meanwhile (`hostspeed.py`) into reference seconds.
Every pass goes through the correctness gate, and after timing the edge-id
contract probe runs untimed.  The last line of standard output is the JSON
result; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("desk-routes", "ladder", "classical-oracles", "scan")

# Set-up runs at least this often, and again until this much wall time is
# spent, so that its median is steady even when one set-up takes a
# millisecond.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="timed wall seconds; required with --trace 0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.trace and args.seconds is None:
        p.error("--seconds is required with --trace 0")
    return args


def run_pass(workload, clock, tracer=None):
    """One pass over the items: (wall s, item cpu s, item ref s, results)."""
    times, results = [], []
    gc.collect()
    start = perf_counter()
    with hostspeed.Sampler() as sampler:
        for item_id, run in workload.items:
            if tracer is not None:
                tracer.begin_item(item_id)
            cpu, wall = process_time(), perf_counter()
            try:
                results.append((run(clock), None))
            except Exception as exc:  # a failed item, never skipped
                results.append((None, f"{type(exc).__name__}: {exc}"))
            end, cpu = perf_counter(), process_time() - cpu
            if tracer is not None:
                tracer.end_item()
            times.append((wall, end, cpu))
    return (perf_counter() - start, [t[2] for t in times],
            [sampler.scale(*t) for t in times], results)


def gate(workload, results):
    """Error string or None per item: raised, or failed the checks."""
    raised = [err for _, err in results]
    try:
        checked = workload.check([value for value, _ in results])
    except Exception as exc:  # a result the gate cannot read fails the pass
        checked = [f"gate: {type(exc).__name__}: {exc}"] * len(results)
    return [r or c for r, c in zip(raised, checked)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tutte_activities" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        return measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def measure(args, workloads, tracing, workdir):
    setup_times = []
    started = perf_counter()
    with hostspeed.Sampler() as sampler:
        while (len(setup_times) < SETUP_MIN_REPS
               or perf_counter() - started < SETUP_MIN_SECONDS):
            workload = workloads.make(args.workload, str(workdir))
            cpu, wall = process_time(), perf_counter()
            workload.setup(args.seed)
            end, cpu = perf_counter(), process_time() - cpu
            setup_times.append((wall, end, cpu))
    setup_scaled = [sampler.scale(*t) for t in setup_times]

    errors = []
    started = perf_counter()
    passes = []        # (wall, item cpu times, item scaled times, route clock)
    while True:
        clock = workloads.RouteClock()
        wall, times, scaled_times, results = run_pass(workload, clock)
        passes.append((wall, times, scaled_times, clock))
        errors.extend(gate(workload, results))
        if args.trace or perf_counter() - started + wall > args.seconds:
            break
    trace = None
    if args.trace:
        trace = tracing.Tracer()
        trace.install()
        try:
            _, trace_times, trace_scaled, results = run_pass(
                workload, workloads.RouteClock(), trace)
        finally:
            trace.uninstall()
        errors.extend(gate(workload, results))

    probe_cases, probe_failed = workloads.id_probe(args.seed)
    failures = [e for e in errors if e]
    # An item's latency is its median over the timed passes, and a pass is
    # the sum of those latencies: a slow spell in one pass is outvoted item
    # by item instead of moving the whole pass.
    pass_cpu = sum(statistics.median(ts) for ts in zip(*(p[1] for p in passes)))
    latency = [statistics.median(ts) for ts in zip(*(p[2] for p in passes))]
    pass_ref = sum(latency)
    p50 = statistics.median(latency)
    p90 = statistics.quantiles(latency, n=10)[8]
    beyond = sum(1 for t in latency if t > p90)
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} timed "
          f"passes ({' '.join(f'{p[0]:.3f}' for p in passes)} s wall), "
          f"pass {pass_cpu:.3f} cpu s = {pass_ref:.3f} ref s, "
          f"{len(latency)} items: p50 {p50 * 1e3:.3f} ms, p90 {p90 * 1e3:.3f} ms "
          f"({beyond} items beyond it; ref), failed {len(failures)}/"
          f"{len(errors)}, id probe failed {probe_failed}/{probe_cases}",
          file=sys.stderr)
    for error in failures[:5]:
        print(f"  failed: {error}", file=sys.stderr)

    if trace is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "pass_ref_s": metric(pass_ref, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = trace.metrics(lambda g: workloads.TREE_COUNTS[g])
        clock = passes[0][3]
        metrics["route.delcon_s"] = metric(clock["delcon"], "s")
        metrics["route.activity_s"] = metric(clock["activity"], "s")
        metrics["route.subgraph_sums_s"] = metric(clock["subgraph_sums"], "s")
        metrics["oracle_build_s"] = metric(clock["oracle_build"], "s")
        trace_ref = sum(trace_scaled)
        metrics["trace.pass_ref_s"] = metric(trace_ref, "s")
        metrics["trace.overhead_s"] = metric(trace_ref - pass_ref, "s")
        metrics["id_probe_failed_frac"] = metric(
            probe_failed / probe_cases, "ratio")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace.dump(out / f"trace-{args.workload}-seed{args.seed}.json",
                   {"workload": args.workload, "seed": args.seed,
                    "untraced_cpu_s": pass_cpu, "traced_cpu_s": sum(trace_times),
                    "untraced_ref_s": pass_ref, "traced_ref_s": trace_ref})
        if trace.missing:
            print(f"  not traced (missing): {', '.join(trace.missing)}",
                  file=sys.stderr)

    print(json.dumps({"correct": not failures, "attempted": len(errors),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
