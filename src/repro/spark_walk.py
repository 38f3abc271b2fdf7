"""Second-order random walks as iterative DataFrame joins (Catalyst).

This is the distributed-dataflow mirror of GraSorw: edges are partitioned
into blocks (the same sequential ranges the disk engines use) and the
adjacency DataFrame is hash-partitioned by block id, so each join task
works block-locally — the dataflow analogue of loading a block into memory.
One walk step is:

1. expand: walks ⋈ adjacency on the current vertex → candidate rows;
2. classify: left-join candidates against the arc set on (prev, candidate)
   to evaluate Node2vec's ``h_uz`` and assign weights 1/p, 1, 1/q (Eq. 1);
3. sample: per-walk window cumulative sum over candidates in vertex order,
   pick the first candidate whose cumulative weight exceeds ``u·Z`` where
   ``u`` is the *same* counter-based splitmix64 draw the disk engines use
   (applied through a pandas UDF running the identical numpy kernel).

Because the randomness is keyed by (walk, hop), the trajectories are
bit-identical to every disk engine — the cross-substrate correctness check.
With powers-of-two p and q the floating-point cumulative sums are exact, so
the equality holds even at the bit level of the weight arithmetic.

``bucket_stats`` reports, per superstep, how many walks occupy each
(min-block, max-block) bucket — the dataflow view of the paper's bucket
manager, used to mimic/inspect bi-block scheduling pressure.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.graphs.generators import to_directed
from repro.graphs.partition import Partition, block_map_df
from repro.rng import unit_hash
from repro.walks.models import SALT_CONT, SALT_STEP, WalkTask


def _unit_hash_udf(seed: int, salt: int):
    """Column UDF computing the shared counter-based uniform draw."""

    @pandas_udf("double")
    def f(wid: pd.Series, hop: pd.Series) -> pd.Series:
        return pd.Series(
            unit_hash(seed, wid.to_numpy(np.int64), hop.to_numpy(np.int64), salt)
        )

    return f


def block_partitioned_adjacency(edges: DataFrame, part: Partition) -> DataFrame:
    """Directed adjacency with a block column, hash-partitioned by block.

    This is the dataflow analogue of the on-disk block layout: co-locating
    each block's arcs in one shuffle partition mirrors block-at-a-time
    residency in the disk engines.
    """
    spark = edges.sparkSession
    bm = block_map_df(spark, part)
    adj = to_directed(edges).join(
        bm.withColumnRenamed("v", "src").withColumnRenamed("block", "blk"), "src"
    )
    return adj.repartition(max(1, part.n_blocks), "blk")


def spark_walk(
    edges: DataFrame,
    n: int,
    task: WalkTask,
    starts: DataFrame,
    *,
    part: Partition | None = None,
) -> DataFrame:
    """Run walks to termination; returns trajectories (walk_id, hop, vertex).

    ``starts`` has columns (walk_id, src). Termination mirrors
    :func:`repro.walks.models.done_mask`: hop budget, dead-end vertices
    (no adjacency rows), and the restart draw for tasks with ``alpha``.
    """
    spark = edges.sparkSession
    if part is not None:
        adj = block_partitioned_adjacency(edges, part).select(
            F.col("src").alias("a_src"), F.col("dst").alias("cand")
        )
    else:
        adj = to_directed(edges).select(
            F.col("src").alias("a_src"), F.col("dst").alias("cand")
        )
    adj = adj.localCheckpoint()
    # Right-size shuffle parallelism to the walk batch: the per-hop joins
    # and windows are small, and the session default (64) would swamp the
    # run in empty-task overhead. Restored on every exit, raising or not.
    prev_parts = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set(
        "spark.sql.shuffle.partitions",
        max(4, (part.n_blocks if part is not None else 4)),
    )
    try:
        arcs = adj.select(F.col("a_src").alias("e_u"), F.col("cand").alias("e_z"))

        u_step = _unit_hash_udf(task.seed, SALT_STEP)
        u_cont = _unit_hash_udf(task.seed, SALT_CONT)

        state = starts.select(
            F.col("walk_id").cast("long"),
            F.lit(-1).cast("long").alias("prev"),
            F.col("src").cast("long").alias("cur"),
            F.lit(0).cast("long").alias("hop"),
        ).localCheckpoint()
        out = [starts.select("walk_id", F.lit(0).cast("long").alias("hop"),
                             F.col("src").cast("long").alias("vertex"))]

        for _ in range(task.max_len):
            if task.alpha is not None:
                state = state.where(
                    (F.col("hop") == 0)
                    | (u_cont(F.col("walk_id"), F.col("hop")) < F.lit(task.alpha))
                )
            cands = state.join(adj, state.cur == adj.a_src).drop("a_src")
            if task.first_order:
                cands = cands.withColumn("w", F.lit(1.0))
            else:
                cands = cands.join(
                    arcs.withColumn("hit", F.lit(True)),
                    (F.col("prev") == F.col("e_u")) & (F.col("cand") == F.col("e_z")),
                    "left",
                ).drop("e_u", "e_z")
                cands = cands.withColumn(
                    "w",
                    F.when(F.col("prev") < 0, F.lit(1.0))
                    .when(F.col("cand") == F.col("prev"), F.lit(1.0 / task.p))
                    .when(F.col("hit").isNotNull(), F.lit(1.0))
                    .otherwise(F.lit(1.0 / task.q)),
                ).drop("hit")
            wseq = Window.partitionBy("walk_id").orderBy("cand")
            wall = Window.partitionBy("walk_id")
            cands = (
                cands.withColumn("cum", F.sum("w").over(wseq))
                .withColumn("z_total", F.sum("w").over(wall))
                .withColumn("t", u_step(F.col("walk_id"), F.col("hop")) * F.col("z_total"))
            )
            picked = cands.groupBy("walk_id", "prev", "cur", "hop").agg(
                F.coalesce(
                    F.min(F.when(F.col("cum") > F.col("t"), F.col("cand"))),
                    F.max("cand"),
                ).alias("nxt")
            )
            state = picked.select(
                "walk_id",
                F.col("cur").alias("prev"),
                F.col("nxt").alias("cur"),
                (F.col("hop") + 1).alias("hop"),
            ).localCheckpoint()
            out.append(state.select("walk_id", "hop", F.col("cur").alias("vertex")))
            if state.isEmpty():
                break
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev_parts)
    result = out[0]
    for o in out[1:]:
        result = result.unionByName(o)
    return result


def trajectories_to_paths(traj: DataFrame, n_walks: int, max_len: int) -> np.ndarray:
    """Collect a trajectory DataFrame into the engines' dense path matrix."""
    pdf = traj.toPandas()
    paths = np.full((n_walks, max_len + 1), -1, dtype=np.int64)
    paths[pdf["walk_id"].to_numpy(np.int64), pdf["hop"].to_numpy(np.int64)] = (
        pdf["vertex"].to_numpy(np.int64)
    )
    return paths


def visit_counts(traj: DataFrame) -> DataFrame:
    """Visit counts per vertex — the PRNV PageRank estimate, as a DataFrame."""
    return traj.groupBy("vertex").agg(F.count("*").alias("visits"))


def bucket_stats(state: DataFrame, part: Partition) -> DataFrame:
    """Bucket occupancy of a walk-state DataFrame: walks per (min-block,
    max-block) pair — Eq. 4 as a Spark aggregation."""
    spark = state.sparkSession
    bm = block_map_df(spark, part)
    s = (
        state.join(bm.withColumnRenamed("v", "cur").withColumnRenamed("block", "cb"), "cur")
        .join(
            bm.withColumnRenamed("v", "prev").withColumnRenamed("block", "pb"),
            "prev",
            "left",
        )
        .select(
            F.least(F.coalesce("pb", F.col("cb")), F.col("cb")).alias("pool_block"),
            F.greatest(F.coalesce("pb", F.col("cb")), F.col("cb")).alias("bucket"),
        )
    )
    return s.groupBy("pool_block", "bucket").agg(F.count("*").alias("walks"))
