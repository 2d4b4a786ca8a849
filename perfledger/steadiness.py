#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's steadiness.

Usage (from the repository root):

    python3 perfledger/steadiness.py --workload register-stream --runs 10
    python3 perfledger/steadiness.py --workload all --runs 10 --first-seed 101

Runs the command named in BENCHMARK.json once per seed, then prints, per
metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
metric's bound from BENCHMARK.json. Spreads at or above a third of the
bound are flagged. `--json PATH` also writes the raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--json")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if a.workload == "all" else [a.workload]
    raw = {}
    for w in workloads:
        values = {}
        failed = attempted = 0
        for i in range(a.runs):
            seed = a.first_seed + i
            r = run_once(bench["command"], w, seed, bench["run_seconds"], a.trace)
            if not r["correct"]:
                print(f"{w} seed {seed}: outputs NOT correct", file=sys.stderr)
            failed += r["failed"]
            attempted += r["attempted"]
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} done", file=sys.stderr)
        raw[w] = values
        print(f"\n## {w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
              f"failed {failed} of {attempted} operations")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = " !" if bound is not None and spread >= bound / 3 else ""
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b}{flag}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
