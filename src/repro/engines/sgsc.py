"""SGSC baseline: Second-order GraphWalker with a Static vertex Cache (§7.1).

A memory budget equal to one block is spent pinning the adjacency lists of
the highest-degree vertices — the top-k vertices whose degree sum reaches
the maximum edge count of one block. The cache is built once, before
execution, by a full sequential scan of the graph (charged as one block I/O
per block, like the paper which folds cache-initialization into I/O time),
and is never replaced. Vertex I/Os for previous vertices that hit the cache
are free; everything else behaves exactly like SOGW.
"""
from __future__ import annotations

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult
from repro.engines.sogw import run_sogw
from repro.walks.models import WalkTask
from repro.walks.state import Walks


def build_static_cache(store: BlockStore, sim: DiskSim) -> np.ndarray:
    """Pick top-degree vertices until their degree sum reaches the maximum
    per-block edge count; charge the initialization scan."""
    csr = store.csr
    # Budget: the maximum number of edges held by any single block.
    s = store.part.block_starts
    block_edges = csr.indptr[s[1:]] - csr.indptr[s[:-1]]
    budget = int(block_edges.max())
    order = np.argsort(-csr.deg, kind="stable")
    cumdeg = np.cumsum(csr.deg[order])
    k = int(np.searchsorted(cumdeg, budget)) + 1
    cache = np.zeros(csr.n, dtype=bool)
    cache[order[:k]] = True
    # Initialization: tally degrees + read the cached adjacency lists, one
    # sequential pass over all blocks.
    for b in range(store.n_blocks):
        sim.charge_block_load(b, store.block_bytes(b))
    return cache


def run_sgsc(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: str = "max_sum",
    record_paths: bool = False,
    record_visits: bool = False,
) -> EngineResult:
    sim = sim or DiskSim(params=store.params)
    cache = build_static_cache(store, sim)
    return run_sogw(
        store,
        task,
        starts,
        sim=sim,
        scheduler=scheduler,
        static_cache=cache,
        record_paths=record_paths,
        record_visits=record_visits,
        name="SGSC",
    )
