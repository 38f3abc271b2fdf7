"""Plain Bucket (PB) engine — the bi-block ablation of §7.3.

Buckets without the triangular schedule or skewed storage: walks live with
their *current* block (traditional storage); the current block is picked by
GraphWalker's state-aware strategy; the current walks are split into buckets
by *previous* block; ancillary blocks are visited in ascending bucket id
starting from 0 — which makes most ancillary loads random, not sequential.
Two block slots (current + ancillary) are kept in memory, so like the
bi-block engine it performs no light vertex I/Os; the difference Table 3
measures is purely scheduling: roughly twice the block I/Os and random
rather than sequential ancillary loads.
"""
from __future__ import annotations

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, EngineRun
from repro.engines.scheduling import make_scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


def run_plain_bucket(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: str = "max_sum",
    record_paths: bool = False,
    record_visits: bool = False,
) -> EngineResult:
    run = EngineRun(
        store, task, starts, sim, record_paths=record_paths, record_visits=record_visits
    )
    sim, pools = run.sim, run.pools
    sched = make_scheduler(scheduler)

    last_current = -1
    while (b := sched.pick(pools)) is not None:
        if b != last_current:
            store.load_block(b, sim)
        last_current = b
        sim.time_slots += 1
        walks = pools.pop(b)
        if not len(walks):
            continue
        # Buckets by previous block; hop-0 walks form the self-bucket b.
        prev_b = store.block_of(walks.prev)
        prev_b[prev_b < 0] = b
        for i, bucket in walks.groups(prev_b):
            if i != b:  # self-bucket needs no ancillary block
                store.load_block(i, sim)
            run.bucket(bucket, b, i, pools.add_grouped)
    return run.result("PB")
