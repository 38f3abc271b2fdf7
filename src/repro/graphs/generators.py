"""Synthetic graph generators as Spark DataFrame pipelines.

The paper evaluates on six real graphs (Table 2) and eleven NetworkX
synthetics (Table 5). We regenerate both families at laptop scale with
*deterministic* Spark pipelines: all randomness comes from
:mod:`repro.rng`'s counter-based hash, so the same (generator, seed) pair
always yields the same graph and the DuckDB oracle can check aggregates.

Canonical edge representation: an undirected simple graph is a DataFrame
with columns ``src`` and ``dst`` (BIGINT), one row per edge, ``src < dst``,
no duplicates, no self-loops. :func:`to_directed` expands it to both arc
directions for CSR construction.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.rng import unit_hash


def _canonicalize(edges: DataFrame) -> DataFrame:
    """Drop self-loops, orient src<dst, dedupe."""
    return (
        edges.where(F.col("src") != F.col("dst"))
        .select(
            F.least("src", "dst").cast("long").alias("src"),
            F.greatest("src", "dst").cast("long").alias("dst"),
        )
        .distinct()
    )


def to_directed(edges: DataFrame) -> DataFrame:
    """Expand a canonical undirected edge list to both arc directions."""
    return edges.union(edges.select(F.col("dst").alias("src"), F.col("src").alias("dst")))


def degrees(edges: DataFrame, n: int | None = None) -> DataFrame:
    """Per-vertex degree of a canonical undirected edge list.

    If ``n`` is given, vertices with no edges appear with degree 0.
    """
    deg = to_directed(edges).groupBy(F.col("src").alias("v")).agg(F.count("*").alias("deg"))
    if n is None:
        return deg
    spark = edges.sparkSession
    allv = spark.range(n).select(F.col("id").alias("v"))
    return allv.join(deg, "v", "left").select("v", F.coalesce("deg", F.lit(0)).alias("deg"))


def _pair_hash_edges(spark: SparkSession, n_pairs: int, fn) -> DataFrame:
    """mapInPandas over ``range(n_pairs)``; ``fn(ids)->(src,dst)`` in numpy."""
    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy(np.int64)
            src, dst = fn(ids)
            yield pd.DataFrame({"src": src.astype(np.int64), "dst": dst.astype(np.int64)})

    return spark.range(n_pairs).mapInPandas(gen, "src long, dst long")


def er_pairs_graph(spark: SparkSession, n: int, m: int, seed: int = 0) -> DataFrame:
    """Sparse Erdős–Rényi-style graph: ``m`` uniform random pairs, deduped.

    The realized edge count is slightly below ``m`` because of dedup; the
    draw count is inflated by 5% to compensate. Deterministic in ``seed``.
    """
    draws = int(m * 1.05) + 8

    def fn(ids):
        src = (unit_hash(seed, ids, np.zeros_like(ids), salt=11) * n).astype(np.int64)
        dst = (unit_hash(seed, ids, np.zeros_like(ids), salt=12) * n).astype(np.int64)
        return src, dst

    return _canonicalize(_pair_hash_edges(spark, draws, fn))


def circulant_graph(spark: SparkSession, n: int, offsets: list[int]) -> DataFrame:
    """Circulant graph: vertex v connects to (v ± k) mod n for k in offsets."""
    offs = spark.createDataFrame(pd.DataFrame({"off": sorted(set(offsets))}))
    edges = (
        spark.range(n)
        .select(F.col("id").alias("src"))
        .crossJoin(offs)
        .select("src", ((F.col("src") + F.col("off")) % n).alias("dst"))
    )
    return _canonicalize(edges)


def sbm_graph(
    spark: SparkSession, n: int, k: int, p_in: float, p_out: float, seed: int = 0
) -> DataFrame:
    """Stochastic block model with ``k`` contiguous equal communities.

    Pair (i, j) is an edge with probability ``p_in`` if i and j share a
    community (community of v = floor(v*k/n)), else ``p_out``. Exact
    Bernoulli over all pairs — dense graphs only (n <= ~6000), matching the
    paper's observation that its SBM graphs are extremely dense.
    """
    pairs = (
        spark.range(n)
        .select(F.col("id").alias("src"))
        .join(spark.range(n).select(F.col("id").alias("dst")), F.col("src") < F.col("dst"))
    )

    def gen(batches):
        for pdf in batches:
            s = pdf["src"].to_numpy(np.int64)
            d = pdf["dst"].to_numpy(np.int64)
            same = (s * k // n) == (d * k // n)
            prob = np.where(same, p_in, p_out)
            keep = unit_hash(seed, s * np.int64(n) + d, np.zeros_like(s), salt=31) < prob
            yield pdf[keep]

    return pairs.mapInPandas(gen, "src long, dst long")


def rmat_graph(
    spark: SparkSession,
    scale: int,
    m: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> DataFrame:
    """RMAT / stochastic-Kronecker graph with 2**scale vertices, ~m edges.

    This is the Graph500 Kronecker model (our stand-in for Kron29 and the
    power-law real graphs). Quadrant probabilities (a, b, c, 1-a-b-c) are
    applied per bit level; draws are deterministic per (edge_id, level).
    """
    d = 1.0 - a - b - c
    assert d > 0, "a+b+c must be < 1"
    draws = int(m * 1.35) + 8

    def fn(ids):
        src = np.zeros_like(ids)
        dst = np.zeros_like(ids)
        for level in range(scale):
            r = unit_hash(seed, ids, np.full_like(ids, level), salt=41)
            sbit = (r >= a + b).astype(np.int64)
            dbit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
            src = (src << 1) | sbit
            dst = (dst << 1) | dbit
        return src, dst

    return _canonicalize(_pair_hash_edges(spark, draws, fn))


def locality_graph(
    spark: SparkSession,
    n: int,
    deg: int,
    window: int,
    long_frac: float = 0.05,
    seed: int = 0,
) -> DataFrame:
    """Locality graph: web-graph analogue with low sequential edge-cut.

    Each vertex draws ``deg`` neighbors; with probability ``1-long_frac``
    the neighbor lies within ``window`` ids (local, like a host-sorted web
    graph — this is what gives UK200705 its 32% sequential edge-cut), else
    uniform over all vertices.
    """
    n_draws = n * deg

    def fn(ids):
        src = ids // deg
        slot = ids % deg
        u_local = unit_hash(seed, ids, slot, salt=51)
        u_far = unit_hash(seed, ids, slot, salt=52)
        u_kind = unit_hash(seed, ids, slot, salt=53)
        local = (src + 1 + (u_local * window).astype(np.int64)) % n
        far = (u_far * n).astype(np.int64)
        dst = np.where(u_kind < long_frac, far, local)
        return src, dst

    return _canonicalize(_pair_hash_edges(spark, n_draws, fn))


def ba_graph(spark: SparkSession, n: int, m: int, seed: int = 0) -> DataFrame:
    """Barabási–Albert preferential attachment (numpy core, Spark facade).

    Preferential attachment is inherently sequential (each vertex's targets
    depend on the realized degree sequence so far), so the growth loop runs
    in numpy on the driver — documented substitution for NetworkX's
    ``barabasi_albert_graph``. Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    # Standard repeated-endpoints trick: sampling uniformly from the list of
    # all edge endpoints realizes degree-proportional attachment.
    pool = np.empty(2 * n * m + m, dtype=np.int64)
    pool[:m] = np.arange(m)
    fill = m
    src_all: list[np.ndarray] = []
    dst_all: list[np.ndarray] = []
    for v in range(m, n):
        t = np.unique(pool[rng.integers(0, fill, size=m)])
        src_all.append(np.full(len(t), v, dtype=np.int64))
        dst_all.append(t)
        pool[fill : fill + len(t)] = t
        pool[fill + len(t) : fill + 2 * len(t)] = v
        fill += 2 * len(t)
    pdf = pd.DataFrame(
        {"src": np.concatenate(src_all), "dst": np.concatenate(dst_all)}
    )
    return _canonicalize(spark.createDataFrame(pdf))


def complete_graph(spark: SparkSession, n: int) -> DataFrame:
    """Complete graph K_n (the paper's RandomG5 is effectively complete)."""
    return (
        spark.range(n)
        .select(F.col("id").alias("src"))
        .join(spark.range(n).select(F.col("id").alias("dst")), F.col("src") < F.col("dst"))
    )
