"""Record the exact engine counters pinned by ``tests/test_engine_counters.py``.

Every disk engine runs on a few toy graphs under both page-cache modes and
every scheduler / loading mode it supports, plus one store that reads its
blocks back from ``.npz`` files. Each run contributes its engine name, a hash
of its trajectories and its full ``DiskSim.snapshot()`` minus ``exec_real_s``
(the only real-clock field). The two LBL trainings (bi-block and
first-order) contribute their ``LoadLogs`` arrays.

Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.record_engine_counters
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.grasorw import GraphSystem
from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.bi_block import run_bi_block
from repro.engines.first_order import run_first_order
from repro.engines.plain_bucket import run_plain_bucket
from repro.engines.scheduling import SCHEDULERS
from repro.engines.sgsc import run_sgsc
from repro.engines.sogw import run_sogw
from repro.walks.models import WalkTask
from repro.walks.state import Walks

from .helpers import all_vertex_starts, even_partition, random_csr, star_graph_csr

FIXTURE = Path(__file__).parent / "data" / "engine_counters.json"

# name -> (csr factory, n_blocks)
GRAPHS = {
    "rand60": (lambda: random_csr(60, 220, seed=0), 5),
    "rand80": (lambda: random_csr(80, 300, seed=3), 6),
    "star30": (lambda: star_graph_csr(30), 4),
}
# (group id, graph, cache, physical)
GROUPS = [
    (f"{g}-{cache}", g, cache, False) for g in GRAPHS for cache in ("none", "all")
] + [("rand60-none-physical", "rand60", "none", True)]

TASKS = {
    "uniform": WalkTask(max_len=8, seed=1),
    "biased": WalkTask(max_len=8, p=0.5, q=2.0, seed=2),
    "prnv": WalkTask(max_len=20, alpha=0.85, seed=3),
    "fo": WalkTask(max_len=8, first_order=True, seed=4),
}
SECOND_ORDER_SCHEDULED = {"SOGW": run_sogw, "SGSC": run_sgsc, "PB": run_plain_bucket}


def make_store(graph: str, physical_dir: Path | None = None) -> BlockStore:
    make_csr, nb = GRAPHS[graph]
    csr = make_csr()
    return BlockStore(
        csr, even_partition(csr.n, nb),
        physical_dir=physical_dir, physical=physical_dir is not None,
    )


def _starts(store: BlockStore, task: str) -> Walks:
    if task != "prnv":
        return all_vertex_starts(store.csr, 2)
    queries = np.flatnonzero(store.csr.deg > 0)[[0, 3, 5]]
    src = np.repeat(queries, 40)
    return Walks.from_sources(np.arange(len(src), dtype=np.int64), src)


def _run_record(res) -> dict:
    snap = res.sim.snapshot()
    del snap["exec_real_s"]
    paths = np.ascontiguousarray(res.recorder.paths, dtype=np.int64)
    return {
        "engine": res.name,
        "paths_sha": hashlib.sha256(paths.tobytes()).hexdigest(),
        "sim": snap,
    }


def _logs_record(logs) -> dict:
    bid, eta, t, mode = logs.arrays()
    return {"bid": bid.tolist(), "eta": eta.tolist(), "t": t.tolist(), "mode": mode.tolist()}


def record_group(store: BlockStore, cache: str) -> dict:
    """Every engine × scheduler × loading mode, and both LBL trainings, on
    one store under one page-cache mode."""
    system = GraphSystem(store=store, cache=cache)
    out: dict[str, dict] = {}

    def run(key: str, fn, task: WalkTask, starts: Walks, **kw) -> None:
        sim = DiskSim(params=store.params, cache=cache)
        out[key] = _run_record(fn(store, task, starts, sim=sim, record_paths=True, **kw))

    for tname, task in TASKS.items():
        starts = _starts(store, tname)
        for ename, fn in SECOND_ORDER_SCHEDULED.items():
            for sched in SCHEDULERS:
                run(f"{tname}/{ename}/{sched}", fn, task, starts, scheduler=sched)
        model, logs = system.train_load_model(task, starts)
        out[f"{tname}/train/bi-block"] = _logs_record(logs)
        for mode in ("full", "ondemand"):
            run(f"{tname}/Bi-Block/{mode}", run_bi_block, task, starts, loading=mode)
        run(f"{tname}/Bi-Block/learned", run_bi_block, task, starts,
            loading="learned", load_model=model)
        if not task.first_order:
            continue
        model, logs = system.train_load_model(task, starts, first_order=True)
        out[f"{tname}/train/first-order"] = _logs_record(logs)
        for sched in SCHEDULERS:
            for mode in ("full", "ondemand"):
                run(f"{tname}/FO/{sched}/{mode}", run_first_order, task, starts,
                    scheduler=sched, loading=mode)
            run(f"{tname}/FO/{sched}/learned", run_first_order, task, starts,
                scheduler=sched, loading="learned", load_model=model)
    return out


def record_all() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for gid, graph, cache, physical in GROUPS:
            store = make_store(graph, Path(tmp) / gid if physical else None)
            out[gid] = record_group(store, cache)
    return out


def main() -> int:
    FIXTURE.parent.mkdir(exist_ok=True)
    data = record_all()
    FIXTURE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    n = sum(len(v) for v in data.values())
    print(f"wrote {n} records in {len(data)} groups to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
