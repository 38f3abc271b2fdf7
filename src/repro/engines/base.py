"""Shared engine machinery: walk pools, block slots and the stepping loop.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.

Every engine runs the block-centric loop GraphWalker introduced: make a block
current, step walks while they stay resident, persist the leavers. The
stepping half is :meth:`EngineRun.bucket`, shared by all of them; each
engine module only decides which blocks to load, in which order, and where
leaving walks go.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.graphs.csr import CSR
from repro.walks.models import Recorder, WalkTask, advance, done_mask
from repro.walks.state import Walks


class WalkPools:
    """Per-block walk pools stored "on disk" (charged as walk I/O).

    Tracks per-pool walk counts (for the state-aware schedulers) and exposes
    per-pool minimum hop (for the Min-Height scheduler).
    """

    def __init__(self, sim: DiskSim, n_blocks: int) -> None:
        self._sim = sim
        self._pools: dict[int, list[Walks]] = {i: [] for i in range(n_blocks)}
        self.counts = np.zeros(n_blocks, dtype=np.int64)

    def add_grouped(self, block_per_walk: np.ndarray, walks: Walks) -> None:
        """Persist walks into pools keyed by ``block_per_walk``."""
        if not len(walks):
            return
        self._sim.charge_walk_io(len(walks))
        for b, group in walks.groups(block_per_walk):
            self._pools[b].append(group)
            self.counts[b] += len(group)

    def pop(self, b: int) -> Walks:
        """Load and clear pool ``b`` (charged as sequential walk I/O)."""
        out = Walks.concat(self._pools[b])
        self._pools[b] = []
        self.counts[b] = 0
        self._sim.charge_walk_io(len(out))
        return out

    def total(self) -> int:
        return int(self.counts.sum())

    def min_hop(self, b: int) -> int:
        chunks = self._pools[b]
        if not chunks:
            return np.iinfo(np.int64).max
        return int(min(int(c.hop.min()) for c in chunks if len(c)))


class BlockSlots:
    """LRU block slots in memory; loading an absent block charges block I/O."""

    def __init__(self, store: BlockStore, sim: DiskSim, n_slots: int) -> None:
        self.store = store
        self.sim = sim
        self.n_slots = n_slots
        self.resident: list[int] = []  # MRU last

    def ensure(self, b: int) -> bool:
        """Make block ``b`` resident; returns True if a load was charged."""
        if b in self.resident:
            self.resident.remove(b)
            self.resident.append(b)
            return False
        if len(self.resident) >= self.n_slots:
            self.resident.pop(0)
        self.store.load_block(b, self.sim)
        self.resident.append(b)
        return True

    def has_block(self, bids: np.ndarray) -> np.ndarray:
        if not self.resident:
            return np.zeros(len(bids), dtype=bool)
        return np.isin(bids, np.array(self.resident))


@dataclass
class EngineResult:
    """Outcome of one engine run: I/O counters + walk artifacts."""

    name: str
    sim: DiskSim
    recorder: Recorder | None

    @property
    def metrics(self) -> dict:
        return {"engine": self.name, **self.sim.snapshot()}


def split_done(task: WalkTask, csr: CSR, walks: Walks) -> Walks:
    """The walks that are not finished under the deterministic termination rule."""
    if not len(walks):
        return walks
    return walks.select(~done_mask(task, csr, walks))


class EngineRun:
    """One engine run: simulator, recorder, walk pools and the stepping loop.

    ``starts`` must be unstepped walks (``hop == 0``, ``prev == -1``). The
    ones that are not already finished are placed in the pool of their
    current vertex's block, which is also their skewed-storage block
    (§4.3.1) since they have no previous vertex.
    """

    def __init__(
        self,
        store: BlockStore,
        task: WalkTask,
        starts: Walks,
        sim: DiskSim | None,
        *,
        record_paths: bool,
        record_visits: bool,
    ) -> None:
        if (starts.hop != 0).any() or (starts.prev != -1).any():
            raise ValueError("start walks must be unstepped (hop == 0, prev == -1)")
        self.store = store
        self.task = task
        self.sim = sim or DiskSim(params=store.params)
        self.rec = None
        if record_paths or record_visits:
            self.rec = Recorder(
                store.n, len(starts), task.max_len,
                record_paths=record_paths, record_visits=record_visits,
            )
            self.rec.on_start(starts)
        self.pools = WalkPools(self.sim, store.n_blocks)
        live = split_done(task, store.csr, starts)
        self.pools.add_grouped(store.block_of(live.cur), live)

    def bucket(
        self,
        active: Walks,
        b: int,
        i: int,
        route: Callable[[np.ndarray, Walks], None],
        before_step: Callable[[Walks], None] | None = None,
    ) -> None:
        """Execute one bucket with blocks ``b`` and ``i`` resident (``i == b``
        for single-block engines): step the walks while their current vertex
        stays in ``{b, i}``, drop finished walks, and hand each batch of
        leavers to ``route(cur_block_per_walk, walks)``. ``before_step``
        runs on the walks before every step (on-demand residency, light
        vertex I/O); only ``advance`` is timed."""
        csr, task, sim = self.store.csr, self.task, self.sim
        sim.bucket_execs += 1
        while len(active):
            if before_step is not None:
                before_step(active)
            t0 = time.perf_counter()
            advance(csr, task, active, self.rec)
            sim.exec_real_s += time.perf_counter() - t0
            sim.steps += len(active)
            active = split_done(task, csr, active)
            curb = self.store.block_of(active.cur)
            out = (curb != b) & (curb != i)
            if out.any():
                route(curb[out], active.select(out))
                active = active.select(~out)

    def result(self, name: str) -> EngineResult:
        return EngineResult(name=name, sim=self.sim, recorder=self.rec)
