#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 studybench/spread.py [--seeds 10] [--first-seed 1] [--seconds S]
                                 [--workloads selection,rate,sweep] [--out FILE]

Runs run.py once per workload and seed, alternating the workload order
from one seed to the next.  For each metric it prints the median over seeds
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
benchmark is steady when each spread is below a third of the metric's
bound in BENCHMARK.json.  The raw values go to FILE, by default
studybench/_out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", type=Path, default=HERE / "_out" / "spread.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    failed = 0
    for i in range(args.seeds):
        seed = args.first_seed + i
        for w in names if i % 2 == 0 else names[::-1]:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(time.strftime("%H:%M:%S"), w, seed,
                  {m: round(v[-1], 4) for m, v in values[w].items()}, flush=True)

    print(f"\n{'workload':10s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for w in names:
        for m, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[w][m], n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bound / 3 else "  WIDE"
            print(f"{w:10s} {m:14s} {q2:12.5g} {spread:8.4f} {bound / 3:8.4f}{flag}")
    print(f"failed or incorrect runs: {failed}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
