"""Tests for the first-order engine (paper §7.8): GraphWalker,
GraSorw-No-LBL and GraSorw first-order modes."""
import numpy as np
import pytest

from repro.core.grasorw import GraphSystem
from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.first_order import run_first_order
from repro.engines.loading import FULL, LearnedLoadModel, LoadLogs
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk

from .helpers import all_vertex_starts, even_partition, random_csr


def _store(n=120, m=480, nb=6, seed=0):
    csr = random_csr(n, m, seed)
    return BlockStore(csr, even_partition(n, nb))


def test_requires_first_order_task():
    store = _store()
    with pytest.raises(ValueError):
        run_first_order(store, WalkTask(max_len=5), all_vertex_starts(store.csr, 1))


@pytest.mark.parametrize(
    "engine", ["GraphWalker", "GraSorw-FO"], ids=["graphwalker_engine", "grasorw_first_order"]
)
def test_parity_with_reference(engine):
    store = _store(seed=1)
    task = WalkTask(max_len=10, first_order=True, seed=1)
    ref = reference_walk(store.csr, task, all_vertex_starts(store.csr, 2))
    res = GraphSystem(store=store).run(
        engine, task, all_vertex_starts(store.csr, 2), record_paths=True
    )
    assert np.array_equal(res.recorder.paths, ref.paths)


def test_single_slot_no_vertex_io_full_load():
    store = _store(seed=2)
    task = WalkTask(max_len=8, first_order=True, seed=2)
    sim = DiskSim(params=store.params)
    run_first_order(store, task, all_vertex_starts(store.csr, 1), sim=sim, loading=FULL)
    assert sim.vertex_io_num == 0 and sim.ondemand_io_num == 0
    assert sim.block_io_num > 0


def test_ondemand_mode_charges_ondemand():
    store = _store(seed=3)
    task = WalkTask(max_len=8, first_order=True, seed=3)
    sim = DiskSim(params=store.params)
    run_first_order(
        store, task, all_vertex_starts(store.csr, 1), sim=sim, loading="ondemand"
    )
    assert sim.block_io_num == 0 and sim.ondemand_io_num > 0


def test_lbl_training_and_run():
    """Table 7 pipeline: train per-block thresholds from two forced runs,
    then run GraSorw first-order with the learned model."""
    store = _store(n=150, m=600, nb=5, seed=4)
    task = WalkTask(max_len=10, first_order=True, seed=4)
    logs = LoadLogs()
    for mode in (FULL, "ondemand"):
        run_first_order(
            store, task, all_vertex_starts(store.csr, 2),
            sim=DiskSim(params=store.params), scheduler="iteration",
            loading=mode, load_logs=logs,
        )
    model = LearnedLoadModel.fit(logs, store.n_blocks)
    res = GraphSystem(store=store).run(
        "GraSorw-FO", task, all_vertex_starts(store.csr, 2), load_model=model,
        record_paths=True,
    )
    assert res.name == "GraSorw"
    ref = reference_walk(store.csr, task, all_vertex_starts(store.csr, 2))
    assert np.array_equal(res.recorder.paths, ref.paths)


def test_engine_names():
    store = _store(seed=5)
    task = WalkTask(max_len=4, first_order=True, seed=5)
    system = GraphSystem(store=store)
    assert system.run("GraphWalker", task, all_vertex_starts(store.csr, 1)).name == "GraphWalker"
    assert system.run("GraSorw-FO", task, all_vertex_starts(store.csr, 1)).name == "GraSorw-No-LBL"


def test_iteration_vs_graphwalker_block_io():
    """Table 7's observation: iteration-based scheduling is competitive with
    (or better than) GraphWalker's state-aware mix for first-order walks."""
    store = _store(n=200, m=800, nb=8, seed=6)
    task = WalkTask(max_len=12, first_order=True, seed=6)
    a, b = DiskSim(params=store.params), DiskSim(params=store.params)
    run_first_order(store, task, all_vertex_starts(store.csr, 2), sim=a, scheduler="graphwalker")
    run_first_order(store, task, all_vertex_starts(store.csr, 2), sim=b, scheduler="iteration")
    assert b.block_io_num <= 1.3 * a.block_io_num
