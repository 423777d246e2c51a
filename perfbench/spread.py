#!/usr/bin/env python3
"""Run the benchmark several times per workload and report how steady it is.

For each workload, runs the BENCHMARK.json command once per seed and, for
each metric, prints the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound and a third of it.

    python3 perfbench/spread.py --workloads table1,wide-100k --seeds 1-10
    python3 perfbench/spread.py --workloads serve-durable --seeds 1-5 --trace 1

Run from the repository root. Raw results go to .perfbench-out/spread-*.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    os.makedirs(".perfbench-out", exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        log = f".perfbench-out/spread-{workload}-trace{args.trace}.jsonl"
        with open(log, "w") as out:
            for seed in seeds_of(args.seeds):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", args.trace,
                ]
                started = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.time() - started
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                result["seed"], result["wall_s"] = seed, wall
                out.write(json.dumps(result) + "\n")
                runs.append(result)
                ok &= bool(result["correct"])
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                      flush=True)
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<26} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name:<26} missing")
                ok = False
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            b = f"{bound:.3f}" if bound is not None else "-"
            b3 = f"{bound / 3:.3f}" if bound is not None else "-"
            print(f"  {name:<26} {med:>14.6g} {spread:>8.4f} {b:>6} {b3:>8}{flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
