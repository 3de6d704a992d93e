#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload fleet-1000 --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out .bench_out/spread.json

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json. A run whose output checks fail stops the
script with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} exited {out.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"spread.py: {workload} seed {seed} failed its output checks")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    raw = {}
    for wl in names:
        runs = [run_once(wl, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        raw[wl] = runs
        print(f"{wl}: {len(runs)} runs")
        for m in metrics:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {m['name']:<38} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {bound if bound is not None else '-'} {flag}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.join(ROOT, args.out)), exist_ok=True)
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
