"""Tests for the Spark graph generators (repro.graphs.generators)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs import generators as G
from repro.oracle import assert_equivalent


def _assert_canonical(edges, n):
    pdf = edges.toPandas()
    assert (pdf["src"] < pdf["dst"]).all(), "src<dst orientation"
    assert pdf["src"].min() >= 0 and pdf["dst"].max() < n, "vertex range"
    assert not pdf.duplicated(["src", "dst"]).any(), "no duplicate edges"


class TestCanonicalForm:
    def test_er(self, spark):
        _assert_canonical(G.er_pairs_graph(spark, n=100, m=300, seed=1), 100)

    def test_circulant(self, spark):
        _assert_canonical(G.circulant_graph(spark, n=50, offsets=[1, 2, 5]), 50)

    def test_sbm(self, spark):
        _assert_canonical(G.sbm_graph(spark, n=64, k=4, p_in=0.5, p_out=0.05, seed=3), 64)

    def test_rmat(self, spark):
        _assert_canonical(G.rmat_graph(spark, scale=8, m=800, seed=4), 256)

    def test_locality(self, spark):
        _assert_canonical(G.locality_graph(spark, n=128, deg=6, window=16, seed=5), 128)

    def test_ba(self, spark):
        _assert_canonical(G.ba_graph(spark, n=200, m=4, seed=6), 200)

    def test_complete(self, spark):
        _assert_canonical(G.complete_graph(spark, n=20), 20)


class TestDeterminism:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda s: G.er_pairs_graph(s, n=80, m=200, seed=11),
            lambda s: G.rmat_graph(s, scale=7, m=300, seed=12),
            lambda s: G.sbm_graph(s, n=48, k=4, p_in=0.6, p_out=0.1, seed=13),
            lambda s: G.locality_graph(s, n=96, deg=5, window=12, seed=14),
        ],
        ids=["er", "rmat", "sbm", "locality"],
    )
    def test_same_seed_same_graph(self, spark, maker):
        a = maker(spark).toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        b = maker(spark).toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        assert a.equals(b)

    def test_different_seed_different_graph(self, spark):
        a = G.er_pairs_graph(spark, n=80, m=200, seed=1).toPandas()
        b = G.er_pairs_graph(spark, n=80, m=200, seed=2).toPandas()
        assert set(map(tuple, a.values)) != set(map(tuple, b.values))


class TestStructure:
    def test_er_edge_count_close(self, spark):
        m = G.er_pairs_graph(spark, n=500, m=2000, seed=21).count()
        assert 1800 <= m <= 2100

    def test_circulant_regular(self, spark):
        edges = G.circulant_graph(spark, n=64, offsets=[1, 2, 3])
        deg = G.degrees(edges, 64).toPandas()
        assert (deg["deg"] == 6).all()

    def test_complete_graph(self, spark):
        assert G.complete_graph(spark, 12).count() == 66

    def test_sbm_density_structure(self, spark):
        n, k = 64, 4
        edges = G.sbm_graph(spark, n=n, k=k, p_in=0.8, p_out=0.05, seed=23).toPandas()
        comm = lambda v: v * k // n  # noqa: E731
        inside = sum(comm(s) == comm(d) for s, d in zip(edges.src, edges.dst))
        outside = len(edges) - inside
        # inside pairs: 4*C(16,2)=480 at p=.8 → ~384; outside: 1536 at .05 → ~77
        assert inside > 300 and outside < 160

    def test_rmat_skew(self, spark):
        edges = G.rmat_graph(spark, scale=10, m=6000, a=0.62, b=0.17, c=0.17, seed=24)
        deg = G.degrees(edges, 1024).toPandas()["deg"].to_numpy()
        # power-lawish: max degree far above mean
        assert deg.max() > 8 * deg[deg > 0].mean()

    def test_locality_is_local(self, spark):
        edges = G.locality_graph(
            spark, n=256, deg=6, window=16, long_frac=0.0, seed=25
        ).toPandas()
        span = np.minimum(
            (edges.dst - edges.src) % 256, (edges.src - edges.dst) % 256
        )
        assert span.max() <= 16

    def test_ba_hub_formation(self, spark):
        edges = G.ba_graph(spark, n=300, m=3, seed=26)
        deg = G.degrees(edges, 300).toPandas()["deg"].to_numpy()
        assert deg.max() > 5 * deg.mean()


class TestHelpers:
    def test_to_directed_doubles(self, spark):
        e = G.er_pairs_graph(spark, n=40, m=100, seed=31)
        assert G.to_directed(e).count() == 2 * e.count()

    def test_degrees_oracle(self, spark):
        e = G.er_pairs_graph(spark, n=60, m=150, seed=32)
        got = G.degrees(e, 60).select("v", F.col("deg").cast("long").alias("deg"))
        assert_equivalent(
            got,
            """
            WITH d AS (SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e),
                 g AS (SELECT v, COUNT(*) AS deg FROM d GROUP BY v)
            SELECT i.v AS v, COALESCE(g.deg, 0) AS deg
            FROM (SELECT UNNEST(RANGE(60)) AS v) i LEFT JOIN g USING (v)
            """,
            e=e,
        )

    def test_degrees_without_n(self, spark):
        e = G.circulant_graph(spark, n=30, offsets=[1])
        deg = G.degrees(e).toPandas()
        assert len(deg) == 30 and (deg["deg"] == 2).all()
