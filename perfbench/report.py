#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/report.py --workloads all --seeds 1-10 --seconds 10

Runs ``run.py`` once per (workload, seed), one after the other, and prints
per workload and metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median. ``--out`` also saves every
run's result as JSON, for comparing two commits.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["rwnv-uniform-lj", "rwnv-biased-lj", "prnv-lbl-uk"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all", help="comma-separated names, or all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    names = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for name in names:
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            p = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            if p.returncode or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", flush=True)
                continue
            res = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, **res})
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    print(f"\n{'workload':18} {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name in names:
        rs = [r for r in runs if r["workload"] == name]
        if len(rs) < 2:
            continue
        for metric in rs[0]["metrics"]:
            v = [r["metrics"][metric]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:18} {metric:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
