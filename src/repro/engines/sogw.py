"""SOGW baseline: Second-Order GraphWalker (paper §7.1).

GraphWalker's block-centric engine run on a second-order model: walks live
in the pool of their *current* block; a state-aware scheduler picks the
block with the most walks; walks update asynchronously while they stay in
the current block. The second-order twist is the problem the paper attacks:
classifying a candidate against N(prev) needs the *previous* vertex's
adjacency, and when B(prev) is not among the (two) resident blocks the
engine issues a light random vertex I/O — one per step taken with a
non-resident previous vertex.

``static_cache`` turns this into SGSC (see :mod:`repro.engines.sgsc`).
"""
from __future__ import annotations

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import BlockSlots, EngineResult, EngineRun
from repro.engines.scheduling import make_scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


def run_sogw(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: str = "max_sum",
    static_cache: np.ndarray | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "SOGW",
) -> EngineResult:
    """Run the SOGW engine to completion.

    ``static_cache`` is a boolean per-vertex array: True = the vertex's
    adjacency is pinned in memory, so no vertex I/O is needed for it.
    """
    run = EngineRun(
        store, task, starts, sim, record_paths=record_paths, record_visits=record_visits
    )
    sim, pools = run.sim, run.pools
    sched = make_scheduler(scheduler)
    slots = BlockSlots(store, sim, n_slots=2)

    def fetch_prev(active: Walks) -> None:
        """Light vertex I/Os: previous vertex not resident and not cached."""
        need = (active.prev >= 0) & ~slots.has_block(store.block_of(active.prev))
        if static_cache is not None:
            need &= ~static_cache[np.maximum(active.prev, 0)]
        sim.charge_vertex_fetch(store.vertex_seg_bytes(active.prev[need]))

    while (b := sched.pick(pools)) is not None:
        slots.ensure(b)
        sim.time_slots += 1
        if pools.counts[b] == 0:
            continue  # Alphabet may schedule (and pay for) an empty block
        run.bucket(
            pools.pop(b), b, b, pools.add_grouped,
            before_step=None if task.first_order else fetch_prev,
        )
    return run.result(name)
