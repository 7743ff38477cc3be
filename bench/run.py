"""Layered benchmark for combnull.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {membership,groebner,cli,blocking} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Every run sets up several times (fresh import of combnull
plus generation of the seeded inputs) and reports the median as
``setup_s``, warms up, then runs one closed-loop client.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
stopping at the first block boundary after that.  Throughput is ops over
the time spent in ops; timings are scaled to a reference machine speed by
the probe in ``speed.py``, and the raw figures are printed beside them.
``failed_ops_ratio`` and, from 1000 ops, ``latency_p99_ms`` are printed in
the report but not in the final JSON line.  ``--trace 1`` runs a fixed op
list (so its counts repeat for a seed) twice, untraced and then traced with
wrappers around each layer's public functions, and reports per-layer
metrics and the tracing overhead; the spans go to ``bench/out/``.

Every op's output is checked; a wrong answer or an exception counts as a
failed op.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe
from tracer import OP_SPAN, RING_NOTE, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPS = 5
WARMUP_MAX_S = 3.0
WARMUP_SHARE = 0.2  # of --seconds, capped at WARMUP_MAX_S
P90_MIN_OPS = 100
P99_MIN_OPS = 1000


def fresh_import():
    """Import combnull from this checkout's src/, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "combnull" or k.startswith("combnull.")]:
        del sys.modules[key]
    cn = importlib.import_module("combnull")
    if Path(cn.__file__).resolve().parent != SRC / "combnull":
        raise ImportError(f"combnull imported from {cn.__file__}, not from {SRC}")
    return cn


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks (inclusive method)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run_op(runner, op):
    try:
        return runner(op), None
    except Exception as exc:  # a failing op is counted, not fatal
        return None, exc


def count_failures(wl, results, log):
    """Check every (op, output, exception); return the number failed."""
    failed = 0
    for op, output, exc in results:
        ok = False
        if exc is None:
            try:
                ok = wl.check(op, output)
            except Exception as check_exc:
                exc = check_exc
        if not ok:
            failed += 1
            if failed <= 3:
                detail = "wrong output" if exc is None else "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
                log(f"failed op: {detail}: {str(op)[:200]}")
    return failed


def warm_up(wl, seconds):
    budget = min(WARMUP_MAX_S, WARMUP_SHARE * seconds)
    start = time.perf_counter()
    for op in wl.warmup_ops():
        run_op(wl.run, op)
        if time.perf_counter() - start >= budget:
            break


def timed_run(wl, seconds, probe):
    """Closed loop until ``seconds`` have passed, stopping at a block
    boundary; the speed probe runs between ops."""
    clock = time.perf_counter
    run = wl.run
    starts = []
    latencies = []
    results = []
    probe.probe()
    start = clock()
    for block in wl.blocks():
        for op in block:
            t0 = clock()
            output, exc = run_op(run, op)
            t1 = clock()
            starts.append(t0)
            latencies.append(t1 - t0)
            results.append((op, output, exc))
            probe.maybe_probe(t1)
        if clock() - start >= seconds:
            break
    elapsed = clock() - start
    probe.probe()
    probe.probe()
    return starts, latencies, results, elapsed


def latency_metrics(latencies):
    """Throughput over op time, and latency percentiles, from durations in s."""
    lat = sorted(latencies)
    out = {
        "throughput_ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 0.50),
        "latency_p90_ms": 1e3 * percentile(lat, 0.90),
    }
    if len(lat) >= P99_MIN_OPS:
        out["latency_p99_ms"] = 1e3 * percentile(lat, 0.99)
    return out


def traced_run(wl, seed, log):
    """Run the fixed trace op list untraced, then traced; return metrics."""
    ops = wl.trace_ops()
    runner = wl.traced_runner()
    clock = time.perf_counter
    start = clock()
    for op in ops:
        run_op(runner, op)
    untraced_s = clock() - start

    tracer = Tracer()
    op_span = tracer.wrap(OP_SPAN, runner)
    tracer.install()
    try:
        start = clock()
        results = [(op, *run_op(op_span, op)) for op in ops]
        traced_s = clock() - start
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    probes = {"cli.spawn_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0}
    probes.update(wl.layer_probes(untraced_s / len(ops)))
    for key, value in probes.items():
        metrics[key] = {"value": value, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_s / untraced_s - 1.0, "unit": "ratio"}

    spans_path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.write_spans(spans_path)
    log(RING_NOTE)
    log(f"traced {len(ops)} ops: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
        f"overhead {traced_s / untraced_s - 1.0:+.1%}; spans kept {len(tracer.spans)}, "
        f"dropped {tracer.dropped}, written to {spans_path.relative_to(ROOT)}")
    return metrics, results


def git_sha():
    """The checkout's commit from .git, without running git (the checkout may
    not be a repository, and git would search parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(line):
        print(line, flush=True)

    if not (SRC / "combnull" / "__init__.py").is_file():
        print(f"error: no combnull sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children read these caches even under PYTHONDONTWRITEBYTECODE, so CLI
    # import time is not compile time.
    if not compileall.compile_dir(str(SRC / "combnull"), quiet=1):
        print("error: combnull sources do not compile", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    probe = SpeedProbe()
    setup_raw = []
    setup_scaled = []
    wl = None
    for _ in range(SETUP_REPS):
        # Free the previous instance (its inputs and its copy of combnull's
        # modules, which hold reference cycles) before building the next, so
        # that peak_rss_mb sees one set of inputs plus what the run adds.
        if wl is not None:
            wl.close()
            wl = None
            gc.collect()
        probe.probe()
        probe.probe()
        start = time.perf_counter()
        wl = cls(fresh_import(), args.seed, ROOT)
        setup_raw.append(time.perf_counter() - start)
        probe.probe()
        probe.probe()
        setup_scaled.append(setup_raw[-1] * probe.scale(start))
    setup_s = statistics.median(setup_scaled)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "reference_kernel_s": REFERENCE_S,
        "setup_s_raw": setup_raw,
        "setup_s_scaled": setup_scaled,
    }
    log(f"combnull benchmark: workload {args.workload}, seed {args.seed}, "
        f"closed loop with one client, {'traced' if args.trace else 'untraced'}")
    log(f"python {record['python']}, cpu {record['cpu']}, nproc {record['nproc']}, "
        f"git {record['git_sha']}")

    try:
        warm_up(wl, args.seconds)
        if args.trace:
            metrics, results = traced_run(wl, args.seed, log)
            attempted = len(results)
            failed = count_failures(wl, results, log)
            for key, m in metrics.items():
                log(f"  {key:<58} {m['value']:.6g} {m['unit']}")
        else:
            starts, latencies, results, elapsed = timed_run(wl, args.seconds, probe)
            attempted = len(results)
            failed = count_failures(wl, results, log)
            raw = latency_metrics(latencies)
            scaled = latency_metrics([d * probe.scale(t) for t, d in zip(starts, latencies)])
            units = {"throughput_ops_per_s": "ops/s"}
            metrics = {
                key: {"value": scaled[key], "unit": units.get(key, "ms")}
                for key in ("throughput_ops_per_s", "latency_p50_ms", "latency_p90_ms")
            }
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": wl.peak_rss_mb(), "unit": "MB"}
            n = attempted
            kernel = statistics.median(probe.durations)
            log(f"{n} ops in {elapsed:.3f} s of wall time; latency samples n = {n}; "
                f"{len(probe.durations)} speed probes, median kernel "
                f"{1e3 * kernel:.4f} ms (reference {1e3 * REFERENCE_S:.4f} ms)")
            log("timings scaled to the reference speed (raw timings in brackets):")
            for key, m in metrics.items():
                note = f"  [raw {raw[key]:.6g}]" if key in raw else ""
                log(f"  {key:<22} {m['value']:.6g} {m['unit']}{note}")
            log(f"  {'failed_ops_ratio':<22} {failed / n:.6g} ratio  ({failed} of {n})")
            if n >= P99_MIN_OPS:
                log(f"  {'latency_p99_ms':<22} {scaled['latency_p99_ms']:.6g} ms"
                    f"  [raw {raw['latency_p99_ms']:.6g}]")
            else:
                log(f"  latency_p99_ms not reported: fewer than {P99_MIN_OPS} samples")
            if n < P90_MIN_OPS:
                log(f"  note: latency_p90_ms rests on fewer than {P90_MIN_OPS} samples")
            record.update(ops=n, elapsed_s=elapsed, raw=raw, scaled=scaled,
                          failed_ops_ratio=failed / n, kernel_median_s=kernel,
                          probes=len(probe.durations))
    finally:
        wl.close()

    record.update(attempted=attempted, failed=failed, metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"run-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
