"""Tests for the dataset registry (repro.graphs.datasets)."""
import numpy as np
import pytest

from repro.core.tables import _mk_tasks
from repro.core.tasks import DeepWalkConfig
from repro.graphs.datasets import ALL, TABLE2, TABLE5, dataset_stats

# The paper's 128-bit walk record (Fig. 7) has 10-bit hop and block-id
# fields and a 12-bit current-vertex offset. Walk I/O is charged at that
# record's 16 B, which is only honest for workloads that would fit it.
MAX_HOPS = (1 << 10) - 1
MAX_BLOCKS = 1 << 10
MAX_BLOCK_VERTICES = 1 << 12


class TestRegistryShape:
    def test_table2_members(self):
        assert set(TABLE2) == {
            "lj_lite", "tw_lite", "fr_lite", "uk_lite", "kron_lite", "cw_lite"
        }

    def test_table5_members(self):
        assert set(TABLE5) == {
            "circulant_lite", "randomg_lite", "basf_lite",
            "randomg1_lite", "randomg2_lite", "randomg3_lite",
            "randomg4_lite", "randomg5_lite",
            "sbm1_lite", "sbm2_lite", "sbm3_lite",
        }

    def test_block_counts_match_paper(self):
        """N_B is the scheduling-relevant knob — it must equal the paper's."""
        expect = {
            "lj_lite": 17, "tw_lite": 18, "fr_lite": 27, "uk_lite": 25,
            "kron_lite": 13, "cw_lite": 9,
        }
        for name, nb in expect.items():
            assert TABLE2[name].n_blocks == nb

    def test_cache_modes(self):
        assert all(s.cache == "none" for s in TABLE2.values())
        assert all(s.cache == "all" for s in TABLE5.values())

    def test_density_family_fixed_edges_shrinking_v(self):
        vs = [TABLE5[f"randomg{i}_lite"].n for i in range(1, 6)]
        assert vs == sorted(vs, reverse=True)

    def test_no_name_collisions(self):
        from repro.graphs.datasets import TABLE4_EXTRA

        assert len(ALL) == len(TABLE2) + len(TABLE5) + len(TABLE4_EXTRA)
        for name, spec in ALL.items():
            assert spec.name == name


class TestWalkRecordFits:
    @pytest.mark.parametrize("name", sorted(ALL))
    def test_registry_task_fits(self, name):
        """Every task the table runners build for this dataset (RWNV, PRNV,
        DeepWalk) stays within the record's hop field, and the dataset
        within its block-id field."""
        spec = ALL[name]
        tasks = {**_mk_tasks(spec), "DeepWalk": DeepWalkConfig(length=spec.rwnv_len)}
        for bench, cfg in tasks.items():
            assert cfg.task().max_len <= MAX_HOPS, bench
        assert spec.n_blocks <= MAX_BLOCKS


class TestBuiltGraphs:
    @pytest.mark.parametrize("name", ["lj_lite", "uk_lite"])
    def test_build_table2(self, spark, name):
        spec = TABLE2[name]
        system = spec.build(spark)
        assert system.store.n_blocks == spec.n_blocks
        assert system.csr.n == spec.n
        assert system.csr.n_arcs > 0
        assert np.diff(system.store.part.block_starts).max() <= MAX_BLOCK_VERTICES

    def test_skew_family_comparable_size(self, spark):
        ms = {
            name: TABLE5[name].edges(spark).count()
            for name in ("circulant_lite", "randomg_lite", "basf_lite")
        }
        lo, hi = min(ms.values()), max(ms.values())
        assert hi < 1.2 * lo, ms  # same V/E family (paper Table 5)

    def test_randomg5_is_complete(self, spark):
        spec = TABLE5["randomg5_lite"]
        m = spec.edges(spark).count()
        assert m == spec.n * (spec.n - 1) // 2

    def test_sbm_family_increasing_edges(self, spark):
        m1 = TABLE5["sbm1_lite"].edges(spark).count()
        m2 = TABLE5["sbm2_lite"].edges(spark).count()
        m3 = TABLE5["sbm3_lite"].edges(spark).count()
        assert m1 < m2 < m3  # SBM1 < SBM2 < SBM3, as in Table 5


class TestStats:
    def test_stats_frame(self, spark):
        df = dataset_stats(
            spark, {k: TABLE2[k] for k in ("lj_lite", "uk_lite")}
        )
        assert list(df["dataset"]) == ["lj_lite", "uk_lite"]
        assert (df["n_blocks"] == [17, 25]).all()
        assert (df["E_undirected"] > 0).all()

    def test_uk_lite_low_edge_cut(self, spark):
        """The UK200705 analogue must reproduce the paper's standout
        property: a much lower sequential edge-cut than the social graphs."""
        df = dataset_stats(
            spark, {k: TABLE2[k] for k in ("uk_lite", "tw_lite")}
        ).set_index("dataset")
        assert df.loc["uk_lite", "edge_cut"] < 0.45
        assert df.loc["tw_lite", "edge_cut"] > 0.7

    def test_kron_skew(self, spark):
        spec = TABLE2["kron_lite"]
        from repro.graphs.generators import degrees

        deg = degrees(spec.edges(spark), spec.n).toPandas()["deg"].to_numpy()
        nz = deg[deg > 0]
        assert nz.max() > 20 * nz.mean()  # heavy-tailed like Kron29
