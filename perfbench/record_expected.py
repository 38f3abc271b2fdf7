#!/usr/bin/env python3
"""Regenerate ``expected.json``: input fingerprints and per-seed expectations.

    python3 perfbench/record_expected.py [--seeds 0-20] [--workloads a,b]

For each workload and seed this computes the output hash and step count with
the in-memory reference walker, runs the workload's job once, refuses to
record if the job's output differs from the reference, and records the job's
four simulated counters. Run it only when a workload's inputs change on
purpose; the counters must otherwise never move.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-20", help="inclusive range lo-hi")
    ap.add_argument("--workloads", default="all",
                    help="comma-separated names to re-record; the others are kept")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    from workloads import (
        EXPECTED, WORKLOADS, check_job, fingerprint, reference_expectation, run_job,
    )

    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    out = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {"workloads": {}}
    out["default_seed"] = 7
    run.OUT.mkdir(exist_ok=True)
    tmp = run.Path(tempfile.mkdtemp(prefix="tmp-", dir=run.OUT))
    try:
        spark = run.start_spark(tmp)
        try:
            systems = {name: WORKLOADS[name].build(spark, tmp / name) for name in names}
        finally:
            run.stop_spark(spark)
        for name in names:
            w, system = WORKLOADS[name], systems[name]
            seeds = {}
            for seed in range(lo, hi + 1):
                task, starts = w.inputs(seed, system.csr)
                expect = reference_expectation(w, system, task, starts)
                job = run_job(w, system, task, starts)
                errs = check_job(job, expect)
                if errs:
                    raise SystemExit(f"{name} seed {seed}: {'; '.join(errs)}")
                seeds[str(seed)] = {**expect, **job.counters}
                print(name, seed, seeds[str(seed)], flush=True)
            out["workloads"][name] = {"input": fingerprint(w, system), "seeds": seeds}
            EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
