#!/usr/bin/env python3
"""Real-clock benchmark of the GraSorw reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rwnv-uniform-lj --seed 7 --seconds 12 --trace 0

Set-up starts a local Spark session, builds the workload's graph three times
through ``GraphSystem.build`` (the first build is cold), stops Spark and
fixes the expected outputs: recorded in ``expected.json`` for the recorded
seeds, computed with the in-memory reference walker otherwise. Then it runs
the workload's job back to back, at least twice and then until the next job
would end past ``--seconds``, checks every job's output, and scales each
job's steps per second by the host speed measured around it. ``--trace 1``
alternates untraced and traced jobs and reports per-layer numbers from the
spans instead of the end-to-end metrics.

Human-readable lines start with ``#``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. METRICS.md says what every metric measures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 3
SPARK_CORES = 1  # a single Spark core builds these lite graphs fastest
# calibrate()'s rate at the reference host speed: about what this 4-core Xeon
# host gave in the first measurements. It only fixes the scale of steps_per_s.
CAL_REF = 50_000.0
# Workload end-to-end metrics with their units (BENCHMARK.json lists the same).
END_TO_END = {"steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def start_spark(tmp: Path):
    """A local session with the tables' conf: 64 shuffle partitions, Arrow on,
    broadcast joins off. UI and progress bars off; scratch files in ``tmp``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no files under /tmp
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{SPARK_CORES}]",
            "--driver-memory 1g",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp} -XX:-UsePerfData')}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM (and its Python workers) ended."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count, so the peak covers the timed jobs
    only. Where /proc does not allow it the peak covers the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(spark) -> dict:
    import numpy
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": spark.sparkContext.master,
    }


def median_rate(jobs: list) -> float:
    return statistics.median(rate for _, rate in jobs)


def calibrate(seconds: float = 0.5) -> float:
    """Iterations per second of a fixed loop of small numpy operations, the
    kind the engines spend their time in.

    The host is shared: for the same job its speed moved by up to 1.7x from
    one minute to the next. Measured right before and after a job, this rate
    scales the job's steps per second to the reference host speed
    ``CAL_REF``, so runs made minutes apart stay comparable."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4096, 512)
    keys = np.sort(rng.integers(0, 1 << 30, 100_000))
    n, t0 = 0, time.perf_counter()
    while True:
        for _ in range(20):
            m = a % 7 == 3
            np.searchsorted(keys, a[m])
            np.concatenate([a[m], a[~m]])
        n += 20
        t = time.perf_counter()
        if t - t0 >= seconds:
            return n / (t - t0)


def bench(args, tmp: Path) -> dict:
    from workloads import (
        SIM_KEYS, WORKLOADS, check_job, fingerprint, load_expected,
        reference_expectation, run_job,
    )

    w = WORKLOADS[args.workload]
    tracer = Tracer(layers.TARGETS) if args.trace else None
    t_start = time.perf_counter()
    log(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    # -- set-up ----------------------------------------------------------
    spark = start_spark(tmp)
    try:
        jvm_s = time.perf_counter() - t_start
        log(f"env {json.dumps(environment(spark))}")
        builds = []
        for k in range(SETUP_ROUNDS):
            traced = tracer is not None and k == SETUP_ROUNDS - 1
            # The traced build wraps only driver-side functions: Spark pickles
            # the pandas UDFs, and a UDF that calls a wrapped function (such as
            # rng.unit_hash) cannot be unpickled in the Python workers.
            scope = (tracer.tracing("bench.build", {span for span, _ in layers.BUILD_SPANS})
                     if traced else nullcontext())
            with scope as build_root:  # the last round's span id
                t0 = time.perf_counter()
                system = w.build(spark, tmp)
                builds.append(time.perf_counter() - t0)
    finally:
        stop_spark(spark)

    task, starts = w.inputs(args.seed, system.csr)
    fp = fingerprint(w, system)
    recorded = load_expected()["workloads"][w.name]
    same_input = fp == recorded["input"]
    log(f"input {json.dumps(fp)}")
    if not same_input:
        log(f"INPUT CHANGED: recorded input is {json.dumps(recorded['input'])}; "
            "this run is not comparable with runs of the recorded input")
    t0 = time.perf_counter()
    expect = dict(recorded["seeds"].get(str(args.seed), {}) if same_input else {})
    source = "recorded"
    if not expect:
        expect, source = reference_expectation(w, system, task, starts), "reference walk"
    expect_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    # Warm-up: every engine code path once, on two-hop walks.
    system.run("GraSorw", replace(task, max_len=2), starts, loading="full")
    warmup_s = time.perf_counter() - t0
    setup_total_s = time.perf_counter() - t_start
    log(f"setup jvm_s={jvm_s:.3f} builds_s={[round(b, 3) for b in builds]} "
        f"expect_s={expect_s:.3f} ({source}) warmup_s={warmup_s:.3f} total_s={setup_total_s:.3f}")

    # -- timed jobs --------------------------------------------------------
    plain, traced_jobs, roots = [], [], []  # (job, steps/s at reference speed)
    attempted = failed = 0
    reset_peak_rss()
    t_meas = time.perf_counter()
    cal = calibrate()
    while True:
        trace_now = tracer is not None and len(plain) > len(traced_jobs)
        attempted += 1
        job = None  # free the last job's output before the next one runs
        try:
            with tracer.tracing("bench.job") if trace_now else nullcontext() as sid:
                job = run_job(w, system, task, starts)
            errs = check_job(job, expect)
        except Exception:
            traceback.print_exc()
            errs = ["raised"]
        cal_before, cal = cal, calibrate()
        if errs:
            failed += 1
            log(f"job {attempted} FAILED: {'; '.join(errs)}")
        else:
            if not all(k in expect for k in SIM_KEYS):
                expect.update(job.counters)  # later jobs must repeat them
            raw = job.steps / job.job_s
            host = (cal_before + cal) / 2 / CAL_REF
            (traced_jobs if trace_now else plain).append((job, raw / host))
            if trace_now:
                roots.append(sid)
            log(f"job {attempted}{' traced' if trace_now else ''}: job_s={job.job_s:.4f} "
                f"steps={job.steps} raw steps/s={raw:.1f} host speed={host:.3f} "
                f"steps_per_s={raw / host:.1f}"
                + (f" lbl_train_s={job.lbl_train_s:.4f} run_s={job.run_s:.4f}"
                   if w.bench == "PRNV" else ""))
        # At least two jobs; then stop before a job that would end past
        # --seconds.
        elapsed = time.perf_counter() - t_meas
        next_job_fits = elapsed * (1 + 1 / attempted) <= args.seconds
        if attempted >= 2 and not next_job_fits and (
            tracer is None or (plain and traced_jobs) or failed >= 3
        ):
            break
    if plain:
        log(" ".join(f"{k}={v!r}" for k, v in plain[-1][0].counters.items()))
    log(f"failed_frac={failed / attempted:.4f} ({failed}/{attempted})")

    correct = same_input and failed == 0
    if tracer is None:
        metrics = {
            "steps_per_s": median_rate(plain) if plain else 0.0,
            "setup_s": statistics.median(builds),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        metrics = per_layer(tracer, roots[-1], build_root, plain, traced_jobs) \
            if plain and traced_jobs else {}
        units = layers.per_layer_units()
        metrics = {k: metrics.get(k, 0.0) for k in units}
        path = OUT / f"trace-{w.name}-seed{args.seed}.npz"
        tracer.save(path)
        log(f"spans: {len(tracer.name)} written to {path.relative_to(ROOT)}")
    for k, u in units.items():
        log(f"metric {k} = {metrics[k]:.6g} {u}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def per_layer(tracer, root, build_root, plain, traced_jobs) -> dict:
    """Per-layer metrics of the last traced job and of the traced build."""
    job = traced_jobs[-1][0]
    s_job = tracer.summary(root)
    m = layers.from_summary(s_job, layers.JOB_SPANS)
    m.update(layers.from_summary(tracer.summary(build_root), layers.BUILD_SPANS))
    adv = s_job["walks.advance"]
    m["walks.advance.walks_per_call"] = adv["work"] / max(adv["calls"], 1)
    m["graphs.CSR.has_arc.probes_per_step"] = (
        s_job["graphs.CSR.has_arc"]["work"] / max(adv["work"], 1))
    m["engines.BlockLoader.load.ondemand"] = (
        s_job["engines.BlockLoader.load"]["calls"] - s_job["engines.BlockLoader.load"]["work"])
    for k, v in job.counters.items():
        m["sim." + k.removeprefix("sim_")] = v
    # DiskSim.exec_real_s is the engine's own timing of its advance calls:
    # compare it with the advance spans of the same (last) engine run.
    last_run = int(tracer.find("core.GraphSystem.run", root)[-1])
    adv_run_s = tracer.summary(last_run)["walks.advance"]["s"]
    exec_real = job.exec_real_s
    m["disk.DiskSim.exec_real_s"] = exec_real
    m["trace.exec_real_ratio"] = exec_real / adv_run_s if adv_run_s else 0.0
    overhead = median_rate(traced_jobs) / median_rate(plain)
    m["trace.overhead"] = overhead
    m["trace.self_sum_s"] = sum(v["self_s"] for v in s_job.values())
    m["trace.untraced_job_s"] = statistics.median(j.job_s for j, _ in plain)
    flag = abs(m["trace.exec_real_ratio"] - 1) > 1 - overhead
    log(f"exec_real_s={exec_real:.4f} vs walks.advance.s={adv_run_s:.4f} in the same run"
        + (" FLAG: they disagree by more than the tracing overhead" if flag else ": agree"))
    log(f"self times under the traced job sum to {m['trace.self_sum_s']:.4f} s "
        f"(traced job_s {job.job_s:.4f} s); x trace.overhead {overhead:.4f} = "
        f"{m['trace.self_sum_s'] * overhead:.4f} s against untraced job_s "
        f"{m['trace.untraced_job_s']:.4f} s")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        result = bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
