"""Tests for benchmark task definitions and the exact PRNV oracle
(repro.core.tasks)."""
import numpy as np
import pytest

from repro.core.tasks import DeepWalkConfig, PRNVConfig, RWNVConfig, expected_visits
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk
from repro.walks.state import Walks

from .helpers import path_graph_csr, random_csr


class TestRWNV:
    def test_starts_per_vertex(self):
        csr = random_csr(40, 120, seed=0)
        cfg = RWNVConfig(walks_per_vertex=3, length=10)
        starts = cfg.starts(csr)
        n_active = int((csr.deg > 0).sum())
        assert len(starts) == 3 * n_active
        counts = np.bincount(starts.cur, minlength=csr.n)
        assert (counts[csr.deg > 0] == 3).all()
        assert (counts[csr.deg == 0] == 0).all()

    def test_wids_contiguous(self):
        csr = random_csr(30, 90, seed=1)
        starts = RWNVConfig(walks_per_vertex=2, length=5).starts(csr)
        assert np.array_equal(np.sort(starts.wid), np.arange(len(starts)))

    def test_task_is_second_order(self):
        t = RWNVConfig(walks_per_vertex=1, length=80, p=4.0, q=0.25).task()
        assert not t.first_order and t.max_len == 80 and t.alpha is None
        assert t.p == 4.0 and t.q == 0.25

    def test_paper_defaults(self):
        cfg = RWNVConfig()
        assert cfg.walks_per_vertex == 10 and cfg.length == 80
        assert cfg.p == 1.0 and cfg.q == 1.0


class TestDeepWalk:
    def test_task_first_order(self):
        t = DeepWalkConfig().task()
        assert t.first_order and t.max_len == 80


class TestPRNV:
    def test_paper_defaults(self):
        cfg = PRNVConfig()
        t = cfg.task()
        assert t.alpha == 0.85 and t.max_len == 20 and not t.first_order

    def test_queries_deterministic_and_valid(self):
        csr = random_csr(60, 180, seed=2)
        cfg = PRNVConfig(n_queries=5)
        q1, q2 = cfg.queries(csr), cfg.queries(csr)
        assert np.array_equal(q1, q2)
        assert len(q1) == 5 and (csr.deg[q1] > 0).all()

    def test_starts_count(self):
        csr = random_csr(50, 150, seed=3)
        cfg = PRNVConfig(n_queries=4, samples_per_query=7)
        starts = cfg.starts(csr)
        assert len(starts) == 28

    def test_default_samples_4v(self):
        csr = random_csr(25, 60, seed=4)
        starts = PRNVConfig(n_queries=2).starts(csr)
        assert len(starts) == 2 * 4 * csr.n


class TestExpectedVisits:
    def test_path_graph_exact(self):
        """Hand-checkable case: path 0-1-2, query 1, one hop, no decay cut."""
        csr = path_graph_csr(3)
        task = WalkTask(max_len=1, seed=0)
        v = expected_visits(csr, task, 1)
        assert v[1] == pytest.approx(1.0)
        assert v[0] == pytest.approx(0.5) and v[2] == pytest.approx(0.5)

    def test_mass_conservation(self):
        csr = random_csr(15, 40, seed=5)
        task = WalkTask(max_len=4, seed=0)  # no restart: every hop happens
        q = int(np.argmax(csr.deg))
        v = expected_visits(csr, task, q)
        # start + 4 full hops of probability mass (graph has min degree >= 1?)
        if (csr.deg > 0).all():
            assert v.sum() == pytest.approx(5.0)

    def test_decay_reduces_mass(self):
        csr = random_csr(15, 40, seed=6)
        q = int(np.argmax(csr.deg))
        no_decay = expected_visits(csr, WalkTask(max_len=5), q).sum()
        decay = expected_visits(csr, WalkTask(max_len=5, alpha=0.5), q).sum()
        assert decay < no_decay

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (4.0, 0.25)])
    def test_monte_carlo_agreement(self, p, q):
        """PRNV estimate: visit frequencies from many sampled walks converge
        to the exact expectation — validates both the sampler and the DP."""
        csr = random_csr(12, 30, seed=7)
        task = WalkTask(max_len=6, p=p, q=q, alpha=0.85, seed=21)
        query = int(np.argmax(csr.deg))
        n = 60_000
        starts = Walks.from_sources(np.arange(n), np.full(n, query))
        rec = reference_walk(csr, task, starts, record_paths=False)
        est = rec.visits / n
        exact = expected_visits(csr, task, query)
        assert np.abs(est - exact).max() < 0.02

    def test_isolated_query(self):
        from repro.graphs.csr import csr_from_arrays

        csr = csr_from_arrays(3, np.array([0, 1]), np.array([1, 0]))
        v = expected_visits(csr, WalkTask(max_len=5), 2)
        assert v[2] == 1.0 and v.sum() == 1.0
