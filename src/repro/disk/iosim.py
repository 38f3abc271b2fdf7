"""Deterministic I/O + execution cost model and event counters.

The paper's evaluation decomposes cost into block I/Os, light vertex I/Os,
walk I/Os and walk-updating time (Fig. 1). We count those events *exactly*
and charge simulated time with calibrated constants, so every reported
number is a deterministic function of the workload and the scheduler —
which is precisely what the paper's tables compare. (Python/numpy wall time
is also measured and reported separately as ``exec_real_s``, but it says
more about our substrate than about the schedulers.)

Model components and why they exist:

* **Sequential vs random block loads.** Triangular scheduling loads
  ancillary blocks in ascending id order right after the current block, so
  most of its block I/Os are sequential; the plain-bucket engine's are not
  (paper §7.3, "Block-I/O comparison"). A non-consecutive block load pays a
  larger seek.

* **Simulated execution clock.** Walk updating costs ``step_s`` per
  sampled step plus ``bucket_s`` per bucket execution — the paper's §7.3
  attributes the bi-block engine's execution-time win exactly to the halved
  number of bucket executions (thread initiating/destroying overhead), so
  that term is first-class in the model.

* **OS page cache.** The paper's Table 5/6 synthetic graphs (1.9–6.3 GB)
  fit the server's 377 GB RAM, so the baselines' random vertex reads are
  page-cache hits costing only a syscall + copy (``hit_lat_s``), not an SSD
  access — that is why SOGW/SGSC overtake GraSorw on the very dense graphs
  (Table 6, RandomG4/5, SBM): GraSorw still pays its per-bucket protocol
  floor while SOGW's per-step reads become cheap and few. Stores for such
  graphs set ``cache="all"``; the -lite stand-ins for graphs far larger
  than RAM use ``cache="none"``.

Constants are calibrated so the *ratios* between event kinds match the
paper's testbed at our reduced scale (blocks here are KBs, not 512 MB; see
DESIGN.md §2): one block load ≈ a few hundred light vertex I/Os, as on the
paper's SSD.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IOParams:
    """Cost constants of the simulated storage + execution stack."""

    # execution clock
    step_s: float = 5e-8  # one walk update (multithreaded in-memory sampling)
    bucket_s: float = 1e-3  # per bucket execution: thread init/destroy, collection
    # disk
    seq_seek_s: float = 1e-4  # request latency, sequential block read
    rand_block_seek_s: float = 1e-3  # request latency, non-consecutive block read
    # Sequential bandwidth is scaled down with the graphs (DESIGN.md §2):
    # the paper's blocks are hundreds of MB, so block loads are bandwidth-
    # dominated and cost hundreds-to-thousands of light vertex I/Os; with
    # our KB-scale blocks a real SSD bandwidth would make block loads
    # seek-dominated and distort every full-vs-on-demand trade-off.
    seq_bw_bps: float = 2e7  # sequential bandwidth (bytes/s), calibrated
    rand_lat_s: float = 1e-4  # latency of one light (vertex) random read
    rand_bw_bps: float = 5e7  # bandwidth of small random reads
    # page cache (cache="all")
    hit_lat_s: float = 2e-5  # page-cache-hit read: syscall + copy
    mem_bw_bps: float = 2e9  # page-cache sequential bandwidth
    # formats
    value_bytes: int = 4  # bytes per CSR index/value (paper Fig. 5)
    walk_bytes: int = 16  # bytes per walk: the size of the paper's Fig. 7 record


@dataclass
class DiskSim:
    """Event counters + simulated clock for one engine run."""

    params: IOParams = field(default_factory=IOParams)
    cache: str = "none"  # "none" (graph >> RAM) or "all" (graph fits RAM)

    block_io_num: int = 0
    block_io_s: float = 0.0
    vertex_io_num: int = 0
    vertex_io_s: float = 0.0
    ondemand_io_num: int = 0
    ondemand_io_s: float = 0.0
    walk_io_bytes: int = 0
    walk_io_s: float = 0.0
    exec_real_s: float = 0.0  # measured numpy time (substrate-dependent)
    time_slots: int = 0
    bucket_execs: int = 0
    steps: int = 0
    _last_block: int = -(10**9)

    # -- charging -----------------------------------------------------------
    def charge_block_load(self, bid: int, nbytes: int) -> None:
        """One block read; sequential iff it directly follows the last one."""
        p = self.params
        if self.cache == "all":
            t = p.hit_lat_s + nbytes / p.mem_bw_bps
        else:
            seek = p.seq_seek_s if bid == self._last_block + 1 else p.rand_block_seek_s
            t = seek + nbytes / p.seq_bw_bps
        self.block_io_num += 1
        self.block_io_s += t
        self._last_block = bid

    def charge_vertex_fetch(self, seg_bytes: np.ndarray, kind: str = "vertex") -> None:
        """``len(seg_bytes)`` light random reads of per-vertex CSR segments.

        ``kind`` routes the charge: "vertex" = SOGW/SGSC-style previous-
        vertex retrievals; "ondemand" = reads done by the on-demand block
        loading method (§5.1), reported separately like the paper's Table 4.
        """
        n = len(seg_bytes)
        if n == 0:
            return
        p = self.params
        if self.cache == "all":
            t = n * p.hit_lat_s + float(np.sum(seg_bytes)) / p.mem_bw_bps
        else:
            t = n * p.rand_lat_s + float(np.sum(seg_bytes)) / p.rand_bw_bps
        if kind == "vertex":
            self.vertex_io_num += n
            self.vertex_io_s += t
        elif kind == "ondemand":
            self.ondemand_io_num += n
            self.ondemand_io_s += t
        else:
            raise ValueError(kind)

    def charge_walk_io(self, n_walks: int) -> None:
        """Sequential read/write of ``n_walks`` walk records (pool load/flush)."""
        if n_walks == 0:
            return
        p = self.params
        nbytes = n_walks * p.walk_bytes
        bw = p.mem_bw_bps if self.cache == "all" else p.seq_bw_bps
        lat = p.hit_lat_s if self.cache == "all" else p.seq_seek_s
        self.walk_io_bytes += nbytes
        self.walk_io_s += lat + nbytes / bw

    # -- reporting ----------------------------------------------------------
    @property
    def exec_s(self) -> float:
        """Simulated walk-updating time (paper's "Execution Time")."""
        return self.steps * self.params.step_s + self.bucket_execs * self.params.bucket_s

    @property
    def io_total_s(self) -> float:
        return self.block_io_s + self.vertex_io_s + self.ondemand_io_s + self.walk_io_s

    @property
    def wall_s(self) -> float:
        """Simulated wall time: simulated I/O + simulated execution."""
        return self.io_total_s + self.exec_s

    def snapshot(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "exec_s": self.exec_s,
            "exec_real_s": self.exec_real_s,
            "block_io_num": self.block_io_num,
            "block_io_s": self.block_io_s,
            "vertex_io_num": self.vertex_io_num,
            "vertex_io_s": self.vertex_io_s,
            "ondemand_io_num": self.ondemand_io_num,
            "ondemand_io_s": self.ondemand_io_s,
            "walk_io_bytes": self.walk_io_bytes,
            "walk_io_s": self.walk_io_s,
            "time_slots": self.time_slots,
            "bucket_execs": self.bucket_execs,
            "steps": self.steps,
        }
