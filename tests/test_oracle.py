"""Tests for the provided DuckDB oracle, on a small edge table."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent

from .helpers import random_edges


def _edges(spark):
    src, dst = random_edges(30, 80, seed=4)
    return spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))


class TestOracle:
    def test_passes_on_equal(self, spark):
        edges = _edges(spark)
        got = edges.groupBy("src").agg(
            F.count("*").cast("long").alias("deg"),
            F.round(F.avg("dst"), 6).alias("mean_dst"),
        )
        assert_equivalent(
            got,
            """
            SELECT src, COUNT(*) AS deg, ROUND(AVG(dst), 6) AS mean_dst
            FROM edges GROUP BY src
            """,
            edges=edges,
        )

    def test_fails_on_wrong_result(self, spark):
        edges = _edges(spark)
        wrong = edges.groupBy("src").agg((F.count("*") + 1).alias("deg"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src", edges=edges
            )

    def test_fails_on_column_mismatch(self, spark):
        edges = _edges(spark)
        got = edges.groupBy("src").agg(F.count("*").alias("n"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got, "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src", edges=edges
            )

    def test_accepts_pandas_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = spark.createDataFrame(pdf).groupBy("k").agg(
            F.sum("v").alias("s")
        )
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
