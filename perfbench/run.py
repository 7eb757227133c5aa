"""livcalc benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/README.md for why each one exists):

    verify_all      livcalc.cli.main(["verify-all"]) in process
    invert_density  realize_herglotz + stieltjes_invert on seeded measures
    dense_sweep     multiplication chain + addition law on a 10^6-point grid
    cli_cold        one cold `python -m livcalc.cli <argv>` per op

BENCHMARK.json gates verify_all and cli_cold; the other two run the same way.

Each is a closed loop with one client.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
traced run and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

``correct`` is false when an op fails other than on a recorded open defect
(the two ROADMAP argvs in cli_cold), or when a traced count differs from the
count the inputs imply.  Every failed op, open defect or not, is counted in
``failed`` and in ``fail_ratio``.

The run exits non-zero without a result when the checkout has no livcalc
source, or when the worker process dies.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: cold set-ups per run; ``setup_s`` is their median
SETUPS = 5
WORKER_TIMEOUT_S = 170.0
WORKLOADS = ("verify_all", "invert_density", "dense_sweep", "cli_cold")
NOISE_NOTE = ("nothing pins CPUs, changes frequency governors or drops caches; "
              "the reported spread over seeds is the noise control")


def environment(root_env: dict, versions: dict) -> dict:
    import importlib.util

    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": os.cpu_count(),
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "blas_threads": int(root_env["OPENBLAS_NUM_THREADS"]),
        "noise": NOISE_NOTE,
    }


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    # no op here multiplies matrices; one BLAS thread (<= nproc) keeps idle
    # pool threads off the second core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, root, env, setup_only: bool):
    """Start a worker; return (process, seconds until its inputs were ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(args, root, env):
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, ready = start_worker(args, root, env, setup_only=True)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe failed")
            setups.append(ready)
    proc, ready = start_worker(args, root, env, setup_only=False)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1][len("RESULT "):]), setups


def tail(times):
    """The highest percentile with at least ten ops beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(result, setups):
    times = result["times"]
    value, pct = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": len(times) / result["wall"],
        "peak_rss_mb": result["peak_rss_mb"],
    }, pct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "livcalc")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"perfbench: no livcalc source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    # byte-compile up front, as an installed package would be, so no op or
    # set-up pays for compilation
    if not compileall.compile_dir(src, quiet=1):
        print("perfbench: livcalc does not compile", file=sys.stderr)
        return 2
    env = worker_env(root)
    try:
        result, setups = run_worker(args, root, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    attempted = result["attempted"]
    unexpected = [f for f in failures if f["known_defect"] is None]
    problems = [f"op {f['op']} ({f['input']}): {f['reason']}" for f in unexpected]
    problems += result.get("count_failures", [])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client")
    print(f"  fail_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    for f in failures:
        tag = "open defect" if f["known_defect"] else "FAILED"
        print(f"    {tag}: op {f['op']} [{f['input']}] {f['reason']}")
    if args.trace:
        values = result["per_layer"]
        print(f"  per-layer means over {result['traced_ops']} traced ops")
        for problem in result.get("count_failures", []):
            print(f"    COUNT CHECK FAILED: {problem}")
    else:
        values, pct = end_to_end(result, setups)
        n = len(result["times"])
        print(f"  op_tail_s is p{pct:.1f} of {n} timed ops; setup_s is the median of "
              f"{len(setups)} cold set-ups")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
        print(f"    MISSING: {', '.join(missing)}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared if m["name"] in values}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print("  env " + json.dumps(environment(env, result["versions"])))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
