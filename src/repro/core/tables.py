"""Experiment runners — one per evaluation-section table (paper §7).

Each ``run_tableN`` function reproduces the corresponding table on the
lite datasets and returns a pandas DataFrame with the same row/column
structure the paper reports; jobs print them, benchmarks time them, and
EXPERIMENTS.md records them next to the paper's numbers.

Graph systems are cached per (dataset, partition) within the process so a
benchmark session builds each disk image once.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.grasorw import GraphSystem
from repro.core.tasks import DeepWalkConfig, PRNVConfig, RWNVConfig
from repro.engines.base import EngineResult
from repro.graphs.datasets import (
    TABLE2,
    TABLE4_EXTRA,
    TABLE5,
    DatasetSpec,
    dataset_stats,
)

_SYSTEMS: dict[tuple[str, str], GraphSystem] = {}


def get_system(spark: SparkSession, spec: DatasetSpec, partition: str = "seq") -> GraphSystem:
    key = (spec.name, partition)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = spec.build(spark, partition=partition)
    return _SYSTEMS[key]


def _mk_tasks(spec: DatasetSpec):
    """The two benchmark tasks at this dataset's lite scaling."""
    rwnv = RWNVConfig(walks_per_vertex=spec.rwnv_wpv, length=spec.rwnv_len)
    prnv = PRNVConfig(n_queries=spec.prnv_queries, samples_per_query=spec.prnv_spq)
    return {"RWNV": rwnv, "PRNV": prnv}


def _engine_rows(
    spark: SparkSession, specs: dict[str, DatasetSpec], datasets: list[str] | None,
    engines: tuple[str, ...], **kw,
) -> list[dict]:
    """One row per dataset (default: all of ``specs``) × benchmark task
    (RWNV, PRNV) × engine."""
    rows = []
    for name in datasets or list(specs):
        system = get_system(spark, specs[name])
        for bench, cfg in _mk_tasks(specs[name]).items():
            for engine in engines:
                res = system.run(engine, cfg.task(), cfg.starts(system.csr), **kw)
                rows.append(_row(name, bench, res))
    return rows


def _row(ds: str, bench: str, res: EngineResult) -> dict:
    m = res.metrics
    return {
        "dataset": ds,
        "bench": bench,
        "engine": m["engine"],
        "wall_s": round(m["wall_s"], 4),
        "exec_s": round(m["exec_s"], 4),
        "block_io_num": m["block_io_num"],
        "block_io_s": round(m["block_io_s"], 4),
        "vertex_io_num": m["vertex_io_num"],
        "vertex_io_s": round(m["vertex_io_s"], 4),
        "ondemand_io_num": m["ondemand_io_num"],
        "ondemand_io_s": round(m["ondemand_io_s"], 4),
        "steps": m["steps"],
    }


# --------------------------------------------------------------------------
def run_table2(spark: SparkSession) -> pd.DataFrame:
    """Table 2: dataset and partition statistics of the six big-graph lites."""
    return dataset_stats(spark, TABLE2)


def run_table5(spark: SparkSession) -> pd.DataFrame:
    """Table 5: statistics of the eleven synthetic-distribution graphs."""
    return dataset_stats(spark, TABLE5)


def run_table3(
    spark: SparkSession, datasets: list[str] | None = None
) -> pd.DataFrame:
    """Table 3: plain-bucket (PB) vs bi-block engines, RWNV + PRNV."""
    rows = _engine_rows(spark, TABLE2, datasets, ("PB", "GraSorw"), loading="full")
    df = pd.DataFrame(rows).replace({"engine": {"GraSorw": "Bi-Block"}})
    # Bi-Block / PB ratios, as the paper's parenthesized percentages.
    piv = df.pivot_table(
        index=["dataset", "bench"], columns="engine",
        values=["wall_s", "exec_s", "block_io_num", "block_io_s"],
    )
    for col in ("wall_s", "exec_s", "block_io_num", "block_io_s"):
        df.loc[df.engine == "Bi-Block", f"{col}_ratio"] = [
            round(piv.loc[(d, b), (col, "Bi-Block")] / max(piv.loc[(d, b), (col, "PB")], 1e-12), 3)
            for d, b in zip(
                df.loc[df.engine == "Bi-Block", "dataset"],
                df.loc[df.engine == "Bi-Block", "bench"],
            )
        ]
    return df


def run_table4(
    spark: SparkSession,
    datasets: tuple[str, ...] = ("tw_lite", "uk_lite", "ukx_lite"),
) -> pd.DataFrame:
    """Table 4: pure full load vs learning-based load × {seq, METIS-lite}.

    ``ukx_lite`` (uk_lite with scrambled vertex ids) plays the paper's
    UK200705 role for the partition comparison — see the registry note in
    :mod:`repro.graphs.datasets`.
    """
    rows = []
    for name in datasets:
        spec = {**TABLE2, **TABLE4_EXTRA}[name]
        for partition in ("seq", "metis"):
            system = get_system(spark, spec, partition)
            cfg = RWNVConfig(walks_per_vertex=spec.rwnv_wpv, length=spec.rwnv_len)
            task, starts = cfg.task(), cfg.starts(system.csr)
            full = system.run("GraSorw", task, starts, loading="full")
            model, _ = system.train_load_model(task, starts)
            learned = system.run("GraSorw", task, starts, load_model=model)
            for label, res in (("Pure Full Load", full), ("Learning-based", learned)):
                r = _row(name, "RWNV", res)
                r["partition"] = partition
                r["loading"] = label
                rows.append(r)
    return pd.DataFrame(rows)


def run_table6(
    spark: SparkSession, datasets: list[str] | None = None
) -> pd.DataFrame:
    """Table 6: SOGW vs SGSC vs GraSorw wall time on the 11 synthetics."""
    return pd.DataFrame(
        _engine_rows(spark, TABLE5, datasets, ("SOGW", "SGSC", "GraSorw"))
    )


def run_table7(
    spark: SparkSession,
    datasets: tuple[str, ...] = ("lj_lite", "tw_lite", "fr_lite", "uk_lite"),
) -> pd.DataFrame:
    """Table 7: first-order DeepWalk — GraphWalker vs GraSorw-No-LBL vs GraSorw."""
    rows = []
    for name in datasets:
        spec = TABLE2[name]
        system = get_system(spark, spec)
        cfg = DeepWalkConfig(walks_per_vertex=spec.rwnv_wpv, length=spec.rwnv_len)
        task, starts = cfg.task(), cfg.starts(system.csr)
        gw = system.run("GraphWalker", task, starts)
        nolbl = system.run("GraSorw-FO", task, starts)
        model, _ = system.train_load_model(task, starts, first_order=True)
        lbl = system.run("GraSorw-FO", task, starts, load_model=model)
        for res in (gw, nolbl, lbl):
            rows.append(_row(name, "DeepWalk", res))
    return pd.DataFrame(rows)


def run_table8(
    spark: SparkSession,
    datasets: tuple[str, ...] = ("lj_lite", "tw_lite", "fr_lite", "uk_lite"),
) -> pd.DataFrame:
    """Table 8 (Appendix A): current-block scheduling strategies, DeepWalk."""
    rows = []
    for name in datasets:
        spec = TABLE2[name]
        system = get_system(spark, spec)
        cfg = DeepWalkConfig(walks_per_vertex=spec.rwnv_wpv, length=spec.rwnv_len)
        task, starts = cfg.task(), cfg.starts(system.csr)
        for sched in ("alphabet", "iteration", "min_height", "max_sum", "graphwalker"):
            res = system.run(
                "GraSorw-FO", task, starts, scheduler=sched, loading="full"
            )
            r = _row(name, "DeepWalk", res)
            r["engine"] = sched
            rows.append(r)
    return pd.DataFrame(rows)


def run_e2e(
    spark: SparkSession, datasets: list[str] | None = None
) -> pd.DataFrame:
    """Fig. 8's data as a table: end-to-end SOGW/SGSC/GraSorw on the six
    big-graph lites, RWNV + PRNV."""
    df = pd.DataFrame(
        _engine_rows(spark, TABLE2, datasets, ("SOGW", "SGSC", "GraSorw"))
    )
    base = df[df.engine == "SOGW"].set_index(["dataset", "bench"])["wall_s"]
    df["speedup_vs_SOGW"] = [
        round(float(base.loc[(d, b)]) / max(w, 1e-12), 2)
        for d, b, w in zip(df.dataset, df.bench, df.wall_s)
    ]
    return df


def format_table(df: pd.DataFrame, title: str) -> str:
    """Plain-text rendering used by the job entrypoints (no tabulate dep)."""
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        return f"## {title}\n\n{df.to_string(index=False)}\n"
