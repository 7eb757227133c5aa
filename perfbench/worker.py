"""The process that does a workload's work, started by ``run.py``.

It imports livcalc from the checkout's ``src``, generates the inputs from the
seed, prints ``READY`` (``run.py`` times set-up up to that line), runs the
closed loop and prints ``RESULT <json>``: the raw op times, the failures and
the peak resident memory.  ``--setup-only`` stops after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import tracing
import workloads


def import_livcalc(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import livcalc

    where = os.path.realpath(livcalc.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"livcalc imported from {where}, not from {src}")


def guarded(op, i):
    try:
        return op(i)
    except Exception as exc:  # a raising op is a failed op
        return workloads.OpOutcome(False, f"{type(exc).__name__}: {exc}", f"op {i}")


def run_loop(workload, op, seconds: float, first: int, tracer=None):
    """Closed loop: ops back to back until ``seconds`` have passed, ending on a
    whole input cycle (so ``seconds`` 0 runs exactly one cycle).  Returns the op times,
    outcomes, per-op count deltas (traced only) and the wall time."""
    times, outcomes, counts = [], [], []
    start = time.perf_counter()
    i = first
    while True:
        if tracer is not None:
            tracer.op = i
            before = dict(tracer.counts)
        t0 = time.perf_counter()
        outcome = guarded(op, i)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if tracer is not None:
            counts.append(tracing.per_op_deltas(before, tracer.counts))
        i += 1
        if time.perf_counter() - start >= seconds and (i - first) % workload.cycle == 0:
            return times, outcomes, counts, time.perf_counter() - start


def failures(outcomes, first: int) -> list:
    return [
        {"op": first + k, "input": o.key, "reason": o.reason, "known_defect": o.known_defect}
        for k, o in enumerate(outcomes) if not o.ok
    ]


def untraced(workload, args) -> dict:
    failed = []
    first = 0
    if not workload.cold:
        # one checked, untimed warm-up op, so lazy imports and first-call
        # caches are not timed; a cold op pays that cost by design
        failed = failures([guarded(workload.op, 0)], 0)
        first = 1
    times, outcomes, _, wall = run_loop(workload, workload.op, args.seconds, first)
    return {
        "attempted": first + len(times),
        "failures": failed + failures(outcomes, first),
        "times": times,
        "wall": wall,
    }


def traced(workload, args) -> dict:
    """In-process ops untraced, then traced; per-layer metrics are means per
    traced op, and the difference of the two medians is the overhead."""
    plain_times, plain_outcomes, _, _ = run_loop(
        workload, workload.in_process_op, args.seconds / 2, 0)
    first = len(plain_times)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times, outcomes, counts, _ = run_loop(
            workload, workload.in_process_op, args.seconds / 2, first, tracer)
    finally:
        tracer.uninstall()
    count_failures = [
        f"op {first + k} ({o.key}): {problem}"
        for k, (o, c) in enumerate(zip(outcomes, counts))
        for problem in workload.count_failures(first + k, c)
    ]
    per_layer = tracing.layer_metrics(tracer, len(times))
    imports = tracing.import_times(dict(os.environ), sys.executable)
    if imports is None:
        count_failures.append("cold 'import livcalc.cli' failed")
    else:
        per_layer.update(imports)
    untraced_p50, traced_p50 = statistics.median(plain_times), statistics.median(times)
    per_layer["trace.untraced_op_p50_s"] = untraced_p50
    per_layer["trace.traced_op_p50_s"] = traced_p50
    per_layer["trace.overhead_s"] = traced_p50 - untraced_p50
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.json.gz"))
    return {
        "attempted": first + len(times),
        "failures": failures(plain_outcomes, 0) + failures(outcomes, first),
        "count_failures": count_failures,
        "per_layer": per_layer,
        "traced_ops": len(times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_livcalc(args.root)
    workload = workloads.make(args.workload, args.seed, args.root)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = traced(workload, args) if args.trace else untraced(workload, args)
    import numpy
    import scipy

    # cold ops run in child processes, whose peak is the one that counts
    who = resource.RUSAGE_CHILDREN if workload.cold and not args.trace else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
