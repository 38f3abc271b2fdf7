"""GraSorw's bi-block execution engine (paper §4, Algorithms 1 and 2).

The current block id cycles 0..N_B-1 (Iteration-based scheduling, §4.1),
skipping blocks whose skewed-storage pool is empty. For each current block
``b`` the pooled walks are collected into buckets (Eq. 4, self-bucket ``b``
for walks that have not stepped yet — the paper's initialization stage,
executed in-line); ancillary blocks are then visited strictly upward
(``i = b+1 .. N_B-1``) — the *triangular* schedule, made correct by skewed
storage (walks with min-block ``b`` are exactly those whose "other" block
has a larger id). Walks update asynchronously while both their vertices
stay inside the two resident blocks; on exit they are re-associated per
Algorithm 2, including the *bucket-extending* case (a walk whose previous
vertex is in ``b`` and whose current block is a later ancillary joins that
bucket through an extension buffer and keeps moving within the same slot).

Ancillary blocks are loaded through a :class:`~repro.engines.loading.BlockLoader`
(full / on-demand / learned), which is where the §5 model plugs in.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, EngineRun, WalkPools
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler
from repro.walks.buckets import ExtensionBuffers, collect_buckets
# ``advance`` stays bound here: perfbench's tracer self-test checks that
# patching reaches this binding.
from repro.walks.models import WalkTask, advance  # noqa: F401
from repro.walks.state import Walks, skewed_block_of


def run_bi_block(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    loading: str = FULL,
    load_model: LearnedLoadModel | None = None,
    load_logs: LoadLogs | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "Bi-Block",
) -> EngineResult:
    """Run the bi-block engine to completion. ``loading`` selects the
    ancillary block loading method: "full", "ondemand" or "learned"."""
    run = EngineRun(
        store, task, starts, sim, record_paths=record_paths, record_visits=record_visits
    )
    sim, pools = run.sim, run.pools
    sched = IterationScheduler()
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)

    def ensure(active: Walks) -> None:
        """On-demand residency for the vertices the next step uses."""
        loader.ensure(active.cur)
        loader.ensure(active.prev)

    while (b := sched.pick(pools)) is not None:
        walks = pools.pop(b)
        buckets = collect_buckets(walks, store.block_of(walks.prev), store.block_of(walks.cur))
        ext = ExtensionBuffers()
        store.load_block(b, sim)  # current: always full
        sim.time_slots += 1

        for i in range(b, store.n_blocks):  # i == b is the hop-0 self-bucket
            bucket = Walks.concat([buckets.get(i, Walks.empty()), ext.drain(i)])
            if not len(bucket):
                continue

            route = partial(_classify_exits, store, pools, ext, b, i)
            if i == b:
                run.bucket(bucket, b, i, route)
                continue
            loader.load(i, len(bucket), np.concatenate([bucket.prev, bucket.cur]))
            run.bucket(bucket, b, i, route, before_step=ensure)
            loader.finish()
        assert ext.is_empty(), "extension buffers must drain within the slot"
    return run.result(name)


def _classify_exits(
    store: BlockStore,
    pools: WalkPools,
    ext: ExtensionBuffers,
    b: int,
    i: int,
    curb: np.ndarray,
    leaving: Walks,
) -> None:
    """Algorithm 2: re-associate walks that moved out of the resident pair
    (blocks ``curb`` are outside {b, i}).

    A walk's home is its skewed-storage block ``min(B(prev), B(cur))``. A
    walk whose home is still ``b`` and whose bucket ``B(cur)`` comes later
    in this slot (``> i``) is bucket-extended into it; every other walk
    goes to the pool of its home.
    """
    home = skewed_block_of(store.block_of(leaving.prev), curb)
    extend = (home == b) & (curb > i)
    if extend.any():
        ext.add(curb[extend], leaving.select(extend))
    rest = ~extend
    if rest.any():
        pools.add_grouped(home[rest], leaving.select(rest))
