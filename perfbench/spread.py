"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median) against its
bound from BENCHMARK.json; optionally add one traced run per workload and
write everything as a baseline file.

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--out perfbench/baseline.json]
                                [--compare perfbench/baseline.json]

Run from the checkout root.  Seeds are 1..runs.  A spread of a third of the
bound or more is flagged "WIDE" (setup_s is reported but not flagged: only
its median is compared between commits).  With ``--compare``, a median worse
than the file's median by more than the bound is flagged "WORSE".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    old = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            old = json.load(handle)
    report = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        fails = []
        for seed in range(1, args.runs + 1):
            result, _ = run(bench["command"], workload, seed, bench["run_seconds"], 0)
            steady &= result["correct"]
            fails.append(f"{result['failed']}/{result['attempted']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"fail_counts": fails, "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            wide = name != "setup_s" and spread >= bounds[name] / 3
            steady &= not wide
            flag = "  WIDE" if wide else ""
            if workload in old:
                base = old[workload]["end_to_end"][name]["median"]
                change = (base - med if name in higher else med - base) / base
                flag += f"  vs {base:.6g}: {change:+.3f}" + ("  WORSE" if change > bounds[name] else "")
                steady &= change <= bounds[name]
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                "values": vals,
            }
            print(f"{workload:<15} {name:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
        print(f"{workload:<15} failed/attempted per run: {' '.join(fails)}")
        if args.out:
            traced, text = run(bench["command"], workload, 1, bench["run_seconds"], 1)
            steady &= traced["correct"]
            entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["environment"] = json.loads(
                next(l for l in text.splitlines() if l.startswith("  env "))[len("  env "):])
        report[workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
