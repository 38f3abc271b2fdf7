"""What the traced run wraps, and how its spans become per-layer metrics.

Span names are ``<layer>.<function>`` with the layer being the ``repro``
subpackage that defines the function (``core``, ``engines``, ``walks``,
``graphs``, ``disk``, ``rng``).
"""
from __future__ import annotations

import numpy as np

from tracer import Target


def _arg_len(i: int):
    return lambda args, kwargs, out: len(args[i])


def _arg_size(i: int):
    return lambda args, kwargs, out: np.size(args[i])


def _out_len(args, kwargs, out):
    return len(out)


def _out_size(args, kwargs, out):
    return np.size(out)


def _full_load(args, kwargs, out):
    return out == "full"


TARGETS = [
    Target("repro.core.grasorw:GraphSystem.build", "core.GraphSystem.build"),
    Target("repro.core.grasorw:GraphSystem.run", "core.GraphSystem.run"),
    Target("repro.core.grasorw:GraphSystem.train_load_model",
           "core.GraphSystem.train_load_model"),
    Target("repro.engines.bi_block:run_bi_block", "engines.run_bi_block"),
    Target("repro.engines.base:split_done", "engines.split_done"),
    Target("repro.engines.base:WalkPools.add_grouped", "engines.WalkPools.add_grouped", _arg_len(2)),
    Target("repro.engines.base:WalkPools.pop", "engines.WalkPools.pop", _out_len),
    Target("repro.engines.loading:BlockLoader.load", "engines.BlockLoader.load", _full_load),
    Target("repro.engines.loading:BlockLoader.ensure", "engines.BlockLoader.ensure", _arg_size(1)),
    Target("repro.engines.loading:LearnedLoadModel.fit", "engines.LearnedLoadModel.fit"),
    Target("repro.walks.models:advance", "walks.advance", _arg_len(2)),
    Target("repro.walks.state:Walks.select", "walks.Walks.select", _out_len),
    Target("repro.walks.state:Walks.concat", "walks.Walks.concat", _out_len),
    Target("repro.walks.buckets:collect_buckets", "walks.collect_buckets"),
    Target("repro.walks.buckets:ExtensionBuffers.add", "walks.ExtensionBuffers.add", _arg_len(2)),
    Target("repro.graphs.csr:CSR.has_arc", "graphs.CSR.has_arc", _arg_size(1)),
    Target("repro.graphs.csr:build_csr", "graphs.build_csr"),
    Target("repro.graphs.partition:Partition.block_of", "graphs.Partition.block_of", _arg_size(1)),
    Target("repro.graphs.partition:sequential_partition", "graphs.sequential_partition"),
    Target("repro.disk.store:BlockStore.read_block", "disk.BlockStore.read_block"),
    Target("repro.disk.store:BlockStore.write_blocks", "disk.BlockStore.write_blocks"),
    Target("repro.disk.iosim:DiskSim.charge_block_load", "disk.DiskSim.charge_block_load"),
    Target("repro.disk.iosim:DiskSim.charge_vertex_fetch", "disk.DiskSim.charge_vertex_fetch"),
    Target("repro.disk.iosim:DiskSim.charge_walk_io", "disk.DiskSim.charge_walk_io"),
    Target("repro.rng:unit_hash", "rng.unit_hash", _out_size),
]

# (span, fields) for spans of the timed job. A field is "calls", "s"
# (inclusive seconds), "self_s", or a name for the span's work count.
JOB_SPANS = [
    ("walks.advance", ["calls", "s", "walks"]),
    ("graphs.CSR.has_arc", ["calls", "s", "probes"]),
    ("rng.unit_hash", ["calls", "s", "draws"]),
    ("engines.run_bi_block", ["s", "self_s"]),
    ("walks.Walks.select", ["calls", "s", "rows"]),
    ("walks.Walks.concat", ["calls", "s", "rows"]),
    ("graphs.Partition.block_of", ["calls", "s", "elements"]),
    ("engines.WalkPools.add_grouped", ["calls", "s", "walks"]),
    ("engines.WalkPools.pop", ["calls", "s", "walks"]),
    ("engines.split_done", ["calls", "s"]),
    ("walks.collect_buckets", ["calls", "s"]),
    ("walks.ExtensionBuffers.add", ["calls", "s", "walks"]),
    ("engines.BlockLoader.load", ["calls", "full", "s"]),
    ("engines.BlockLoader.ensure", ["calls", "s", "vertices"]),
    ("engines.LearnedLoadModel.fit", ["s"]),
    ("core.GraphSystem.train_load_model", ["s"]),
    ("disk.BlockStore.read_block", ["calls", "s"]),
    ("disk.DiskSim.charge_block_load", ["calls", "s"]),
    ("disk.DiskSim.charge_vertex_fetch", ["calls", "s"]),
    ("disk.DiskSim.charge_walk_io", ["calls", "s"]),
]
# Spans of one warm GraphSystem.build in set-up.
BUILD_SPANS = [
    ("core.GraphSystem.build", ["s"]),
    ("graphs.sequential_partition", ["s"]),
    ("graphs.build_csr", ["s"]),
    ("disk.BlockStore.write_blocks", ["s"]),
]
# Metrics derived from several spans, from the job's last engine run, or
# from comparing the traced and untraced jobs.
DERIVED = [
    ("walks.advance.walks_per_call", "walks/call"),
    ("graphs.CSR.has_arc.probes_per_step", "probes/step"),
    ("engines.BlockLoader.load.ondemand", "count"),
    ("disk.DiskSim.exec_real_s", "s"),
    ("sim.wall_s", "sim_s"),
    ("sim.block_io_num", "count"),
    ("sim.vertex_io_num", "count"),
    ("sim.ondemand_io_num", "count"),
    ("trace.overhead", "ratio"),
    ("trace.exec_real_ratio", "ratio"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_job_s", "s"),
]


def _unit(field: str) -> str:
    return {"s": "s", "self_s": "s"}.get(field, "count")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    out = {f"{span}.{f}": _unit(f) for span, fields in JOB_SPANS + BUILD_SPANS for f in fields}
    out.update(DERIVED)
    return out


def from_summary(summary: dict, spans: list) -> dict[str, float]:
    out = {}
    for span, fields in spans:
        agg = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for f in fields:
            out[f"{span}.{f}"] = agg[f] if f in ("calls", "s", "self_s") else agg["work"]
    return out
