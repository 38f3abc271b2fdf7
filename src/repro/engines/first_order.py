"""First-order (single-block) walk engine — GraphWalker and GraSorw's
first-order mode (paper §7.8, Appendix A).

First-order walks need only the current vertex, so one block slot suffices
and no vertex I/Os ever occur. What varies — and what Tables 7 and 8
measure — is the current-block scheduling strategy and the block loading
method:

* **GraphWalker**: state-aware scheduling (Max-Sum/Min-Height mix), full load;
* **GraSorw-No-LBL**: Iteration-based scheduling, full load;
* **GraSorw**: Iteration-based scheduling + learning-based block loading.
"""
from __future__ import annotations

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, EngineRun
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import make_scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


def run_first_order(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: str = "graphwalker",
    loading: str = FULL,
    load_model: LearnedLoadModel | None = None,
    load_logs: LoadLogs | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "GraphWalker",
) -> EngineResult:
    if not task.first_order:
        raise ValueError("run_first_order requires a first-order task")
    run = EngineRun(
        store, task, starts, sim, record_paths=record_paths, record_visits=record_visits
    )
    sim, pools = run.sim, run.pools
    sched = make_scheduler(scheduler)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)

    last = -1
    while (b := sched.pick(pools)) is not None:
        sim.time_slots += 1
        active = pools.pop(b)
        if b == last and not len(active):
            continue
        last = b
        if not len(active):
            store.load_block(b, sim)  # Alphabet pays for loading a walk-less block
            continue
        loader.load(b, len(active), active.cur)
        # A walk steps only while its current vertex is in b: ensure it all.
        run.bucket(active, b, b, pools.add_grouped, before_step=lambda a: loader.ensure(a.cur))
        loader.finish()
    return run.result(name)
